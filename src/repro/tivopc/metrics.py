"""Measurement machinery for the TiVoPC evaluation.

The paper's three instruments (Section 6.4):

* **packet jitter** — inter-arrival times at the client, reported as a
  histogram, a CDF and median/average/std-dev rows (Figure 9, Table 2);
* **CPU utilization** — sampled every 5 seconds over the run, reported
  as median/average/std-dev (Tables 3 and 4);
* **L2 miss rate** — kernel L2 miss rate sampled every 5 seconds,
  normalized to the idle system (Figure 10).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro import units
from repro.hw.cache import Cache, CacheStats
from repro.hw.cpu import Cpu, CpuSampler
from repro.sim.engine import Event, Simulator

__all__ = ["SummaryStats", "JitterCollector", "PeriodicSampler",
           "histogram", "cdf_points"]


@dataclass(frozen=True)
class SummaryStats:
    """Median / average / standard deviation, the paper's table row."""

    median: float
    average: float
    stdev: float
    count: int

    @staticmethod
    def of(values: Sequence[float]) -> "SummaryStats":
        if not values:
            return SummaryStats(0.0, 0.0, 0.0, 0)
        return SummaryStats(
            median=statistics.median(values),
            average=statistics.fmean(values),
            stdev=statistics.pstdev(values) if len(values) > 1 else 0.0,
            count=len(values))

    def row(self, scale: float = 1.0) -> Tuple[float, float, float]:
        """(median, average, stdev) scaled — a table row."""
        return (self.median * scale, self.average * scale,
                self.stdev * scale)


class JitterCollector:
    """Records packet arrival times; reports inter-arrival statistics."""

    def __init__(self) -> None:
        self.arrivals_ns: List[int] = []

    def record(self, arrival_ns: int) -> None:
        """Note one packet arrival time."""
        self.arrivals_ns.append(arrival_ns)

    @property
    def packet_count(self) -> int:
        """Arrivals recorded so far."""
        return len(self.arrivals_ns)

    def intervals_ms(self, discard_first: int = 5) -> List[float]:
        """Inter-arrival gaps in milliseconds (warmup packets dropped)."""
        times = sorted(self.arrivals_ns)
        deltas = [units.ns_to_ms(b - a) for a, b in zip(times, times[1:])]
        return deltas[discard_first:]

    def stats(self, discard_first: int = 5) -> SummaryStats:
        """Median/average/stddev of the inter-arrival gaps."""
        return SummaryStats.of(self.intervals_ms(discard_first))


class PeriodicSampler:
    """Samples CPU utilization and L2 miss rate every ``period_ns``.

    Run :meth:`process` on the simulator for the duration of an
    experiment; the paper's cadence (every 5 s) is the default.
    """

    def __init__(self, sim: Simulator, cpu: Cpu,
                 cache: Optional[Cache] = None,
                 period_ns: int = 5 * units.SECOND) -> None:
        self.sim = sim
        self.cpu_sampler = CpuSampler(cpu)
        self.cache = cache
        self.period_ns = period_ns
        # Lazy pins: sampling marks the window boundary without forcing
        # the cache to classify its deferred touches mid-run; the pins
        # resolve (one ordered log replay) when results are read.
        self._last_pin = cache.stats_pin() if cache else None
        self._window_pins: List[Tuple[object, object]] = []

    def process(self) -> Generator[Event, None, None]:
        """The sampling loop; spawn on the simulator for the run."""
        while True:
            yield self.sim.clock.after(self.period_ns)
            self.cpu_sampler.sample()
            if self.cache is not None:
                pin = self.cache.stats_pin()
                self._window_pins.append((self._last_pin, pin))
                self._last_pin = pin

    # -- results -----------------------------------------------------------------

    @property
    def cache_windows(self) -> List[CacheStats]:
        """Per-window counter deltas (resolves the pins)."""
        return [cur.resolve().delta(prev.resolve())
                for prev, cur in self._window_pins]

    def cpu_stats(self) -> SummaryStats:
        """Summary over the per-window CPU utilizations."""
        return SummaryStats.of(self.cpu_sampler.utilizations())

    def miss_rates(self) -> List[float]:
        """Per-window L2 miss rates."""
        return [w.miss_rate for w in self.cache_windows if w.accesses]

    def miss_rate_stats(self) -> SummaryStats:
        """Summary over the per-window miss rates."""
        return SummaryStats.of(self.miss_rates())


def histogram(values: Sequence[float], bin_width: float,
              lo: Optional[float] = None, hi: Optional[float] = None
              ) -> List[Tuple[float, int]]:
    """Fixed-width histogram: list of (bin left edge, count)."""
    if not values:
        return []
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive: {bin_width}")
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    bins: List[Tuple[float, int]] = []
    edge = lo
    while edge <= hi:
        count = sum(1 for v in values if edge <= v < edge + bin_width)
        bins.append((edge, count))
        edge += bin_width
    return bins


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction <= value) points."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]
