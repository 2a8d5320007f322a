"""Extension experiments: parameter sweeps beyond the paper's tables.

The paper's conclusion gestures at generality — "our current work
suggests further opportunities in the area of network offload" — and
its evaluation pins a single operating point (1 kB chunks every 5 ms).
These sweeps vary the operating point and show *where the offload
advantage comes from and how it scales*:

* :func:`run_rate_sweep` — stream rate sweep: the host servers' jitter
  and CPU degrade as the inter-packet interval shrinks (less slack for
  tick quantization and app stalls) while the firmware-paced server
  stays flat until the wire, not the host, is the limit.
* :func:`run_chunk_size_sweep` — payload size sweep at fixed packet
  rate: the simple server's copy costs grow with chunk size; the
  offloaded server's host cost stays identically zero.

Every point builds its own :class:`~repro.tivopc.testbed.Testbed` from
an explicit seed, so points share no mutable state and a point depends
only on ``(scenario, stream, seconds, seed)``.  The points go through
:class:`~repro.evaluation.supervised.SupervisedPool`, the fleet's
dispatcher, and come back in task order, so a sweep is bit-identical
whatever the worker count, and a worker that dies mid-point costs a
retry rather than the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import units
from repro.errors import ReproError
from repro.evaluation.supervised import SupervisedPool
from repro.media.mpeg import StreamConfig
from repro.tivopc.client import MeasurementClient
from repro.tivopc.metrics import SummaryStats
from repro.tivopc.server import (
    OffloadedServer,
    SendfileServer,
    SimpleServer,
)
from repro.tivopc.testbed import Testbed, TestbedConfig

__all__ = ["SweepPoint", "run_rate_sweep", "run_chunk_size_sweep"]

_SERVER_CLASSES = {"simple": SimpleServer, "sendfile": SendfileServer,
                   "offloaded": OffloadedServer}


@dataclass
class SweepPoint:
    """One (scenario, parameter) measurement."""

    scenario: str
    interval_ms: float
    chunk_bytes: int
    jitter: SummaryStats
    cpu_utilization: float
    packets: int

    @property
    def relative_jitter(self) -> float:
        """Std-dev as a fraction of the nominal interval."""
        return self.jitter.stdev / self.interval_ms if self.interval_ms \
            else 0.0

    @property
    def achieved_rate_fraction(self) -> float:
        """Mean interval vs nominal: 1.0 = the server kept pace."""
        return self.interval_ms / self.jitter.average if \
            self.jitter.average else 0.0


def _measure(scenario: str, stream: StreamConfig, seconds: float,
             seed: int) -> SweepPoint:
    testbed = Testbed(TestbedConfig(seed=seed, stream=stream))
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    _SERVER_CLASSES[scenario](testbed).start()
    testbed.run(seconds)
    return SweepPoint(
        scenario=scenario,
        interval_ms=units.ns_to_ms(stream.interval_ns),
        chunk_bytes=stream.chunk_bytes,
        jitter=client.jitter.stats(),
        cpu_utilization=testbed.server.machine.cpu.utilization(),
        packets=client.jitter.packet_count)


def _run_task(task) -> SweepPoint:
    """One point: the body each pool worker runs."""
    scenario, stream, seconds, seed = task
    return _measure(scenario, stream, seconds, seed)


def _run_sweep(tasks, scenarios, workers) -> Dict[str, List[SweepPoint]]:
    """Measure ``tasks`` through the supervised pool and regroup.

    The task list is built in the order the results are grouped, and
    the results are read back by task id, so the grouped results are
    identical whatever the worker count.  A sweep cannot render a
    missing point: a point that exhausted its retries raises.
    """
    labels = [f"{scenario} {units.ns_to_ms(stream.interval_ns):g} ms "
              f"{stream.chunk_bytes} B"
              for scenario, stream, _seconds, _seed in tasks]
    pool = SupervisedPool(_run_task, workers=workers, task_keys=labels)
    points = pool.run(tasks)
    if pool.failures:
        raise ReproError("sweep lost point(s): " + "; ".join(
            pool.failures[task_id].summary()
            for task_id in sorted(pool.failures)))
    results: Dict[str, List[SweepPoint]] = {s: [] for s in scenarios}
    for task_id, (scenario, _stream, _seconds, _seed) in enumerate(tasks):
        results[scenario].append(points[task_id])
    return results


def run_rate_sweep(intervals_ms=(10.0, 5.0, 2.5, 1.25),
                   scenarios=("simple", "offloaded"),
                   seconds: float = 10.0, seed: int = 0,
                   workers: int = 1
                   ) -> Dict[str, List[SweepPoint]]:
    """Jitter/CPU vs stream rate, per scenario.

    ``workers`` > 1 (or ``None`` for one per CPU) fans the points out
    over supervised worker processes with bit-identical results.
    """
    tasks = [
        (scenario, StreamConfig(interval_ns=units.ms_to_ns(interval)),
         seconds, seed)
        for interval in intervals_ms
        for scenario in scenarios
    ]
    return _run_sweep(tasks, scenarios, workers)


def run_chunk_size_sweep(chunk_sizes=(512, 1024, 4096, 16384),
                         scenarios=("simple", "offloaded"),
                         interval_ms: float = 5.0,
                         seconds: float = 10.0, seed: int = 0,
                         workers: int = 1
                         ) -> Dict[str, List[SweepPoint]]:
    """Jitter/CPU vs payload size at a fixed packet rate.

    ``workers`` behaves as in :func:`run_rate_sweep`.
    """
    tasks = [
        (scenario,
         StreamConfig(chunk_bytes=chunk,
                      interval_ns=units.ms_to_ns(interval_ms)),
         seconds, seed)
        for chunk in chunk_sizes
        for scenario in scenarios
    ]
    return _run_sweep(tasks, scenarios, workers)


def render_sweep(title: str, results: Dict[str, List[SweepPoint]],
                 x_label: str = "interval ms") -> str:
    """Text rendering for sweep results."""
    from repro.evaluation.reporting import format_table
    rows = []
    for scenario, points in results.items():
        for point in points:
            x = (f"{point.interval_ms:g}" if x_label.startswith("interval")
                 else str(point.chunk_bytes))
            rows.append([
                scenario, x,
                f"{point.jitter.average:.3f}",
                f"{point.jitter.stdev:.4f}",
                f"{point.relative_jitter:.1%}",
                f"{point.cpu_utilization:.1%}",
            ])
    return format_table(
        title,
        ["scenario", x_label, "mean ms", "stddev ms", "rel jitter",
         "server cpu"],
        rows)


__all__.append("render_sweep")
