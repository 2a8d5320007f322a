"""Host CPU model with per-context utilization accounting.

The evaluation reports CPU utilization medians/averages/std-devs sampled
over a run (Tables 3 and 4).  The model is a single execution resource
(the paper's testbed used single-core Pentium 4 hosts) on which simulated
processes charge work either in *cycles* or directly in nanoseconds.
Every busy interval is attributed to a context label (``"idle-daemons"``,
``"server"``, ``"kernel"``, ...) so experiments can both sample total
utilization and break it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro import units
from repro.errors import HardwareError, InterruptError
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource

__all__ = ["CpuSpec", "Cpu", "CpuSampler"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU.

    Defaults match the paper's hosts: 2.4 GHz Intel Pentium 4.
    ``active_watts``/``idle_watts`` feed the power model (the paper quotes
    68 W for a Pentium 4 2.8 GHz; we scale for the 2.4 GHz testbed parts).
    """

    name: str = "pentium4"
    frequency_hz: float = 2.4e9
    active_watts: float = 58.0
    idle_watts: float = 9.0

    def cycles_to_ns(self, cycles: int) -> int:
        """Wall time of ``cycles`` at this CPU's frequency."""
        return units.cycles_to_ns(cycles, self.frequency_hz)


class Cpu:
    """A single simulated CPU with FIFO contention and busy accounting."""

    def __init__(self, sim: Simulator, spec: Optional[CpuSpec] = None,
                 name: str = "cpu0") -> None:
        self.sim = sim
        self.spec = spec or CpuSpec()
        self.name = name
        self._resource = Resource(sim, capacity=1)
        self.busy_by_context: Dict[str, int] = {}
        self.total_busy = 0

    # -- execution ----------------------------------------------------------

    def execute(self, duration_ns: int, context: str = "anonymous"
                ) -> Generator[Event, None, None]:
        """Process generator: occupy the CPU for ``duration_ns``.

        Usage inside a simulated process::

            yield from cpu.execute(units.us_to_ns(230), context="server")
        """
        if duration_ns < 0:
            raise HardwareError(f"negative CPU work: {duration_ns}")
        request = self._resource.request()
        try:
            yield request
        except InterruptError:
            # Stopped while queued or just granted: never strand the slot.
            self._resource.withdraw(request)
            raise
        try:
            # Bare-int yield: the engine's allocation-free fused sleep.
            yield duration_ns
        finally:
            self._resource.release()
            self.total_busy += duration_ns
            self.busy_by_context[context] = (
                self.busy_by_context.get(context, 0) + duration_ns)

    def execute_cycles(self, cycles: int, context: str = "anonymous"
                       ) -> Generator[Event, None, None]:
        """Occupy the CPU for ``cycles`` at the CPU's clock frequency."""
        yield from self.execute(self.spec.cycles_to_ns(cycles), context=context)

    # -- inspection ---------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while something is executing."""
        return self._resource.in_use > 0

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for the CPU (excluding the current holder)."""
        return len(self._resource._waiters)

    def utilization(self, since: int = 0) -> float:
        """Busy fraction of wall time from ``since`` to now."""
        return self._resource.utilization(since)

    def context_share(self, context: str) -> float:
        """Fraction of all busy time attributed to ``context``."""
        if self.total_busy == 0:
            return 0.0
        return self.busy_by_context.get(context, 0) / self.total_busy


class CpuSampler:
    """Windowed utilization sampler (the paper samples every 5 s).

    Each call to :meth:`sample` records the utilization of the window since
    the previous call, computed from the CPU's cumulative busy time.
    """

    def __init__(self, cpu: Cpu) -> None:
        self.cpu = cpu
        self.samples: List[Tuple[int, float]] = []
        self._last_time = cpu.sim.now
        self._last_busy = self._current_busy()

    def _current_busy(self) -> int:
        busy = self.cpu._resource.busy_time
        if self.cpu._resource._busy_since is not None:
            busy += self.cpu.sim.now - self.cpu._resource._busy_since
        return busy

    def sample(self) -> float:
        """Record and return utilization over the window just ended."""
        now = self.cpu.sim.now
        busy = self._current_busy()
        window = now - self._last_time
        util = (busy - self._last_busy) / window if window > 0 else 0.0
        self.samples.append((now, util))
        self._last_time = now
        self._last_busy = busy
        return util

    def utilizations(self) -> List[float]:
        """The recorded per-window utilizations."""
        return [u for _, u in self.samples]
