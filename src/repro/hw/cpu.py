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
from typing import Callable, Dict, Generator, List, Optional, Tuple

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
        self._busy_by_context: Dict[str, int] = {}
        self._total_busy = 0
        # Installed by the host kernel (repro.hostos.kernel): brings its
        # lazy timer ticks up to now before anything uses or observes
        # the CPU, so due ticks always land first.
        self._sync: Optional[Callable[[], None]] = None

    # -- execution ----------------------------------------------------------

    def execute(self, duration_ns: int, context: str = "anonymous"
                ) -> Generator[Event, None, None]:
        """Process generator: occupy the CPU for ``duration_ns``.

        Usage inside a simulated process::

            yield from cpu.execute(units.us_to_ns(230), context="server")
        """
        if duration_ns < 0:
            raise HardwareError(f"negative CPU work: {duration_ns}")
        if self._sync is not None:
            self._sync()
        request = self._resource.request()
        try:
            yield request
        except InterruptError:
            # Stopped while queued or just granted: never strand the slot.
            # (No tick can be due here: a queued request leaves the FIFO
            # without moving the CPU, and a slot not yet taken was handed
            # over at this instant by a release that caught the ticks up.)
            self._resource.withdraw(request)
            raise
        try:
            # Bare-int yield: the engine's allocation-free fused sleep.
            yield duration_ns
        finally:
            if self._sync is not None:
                self._sync()
            self._resource.release()
            self._total_busy += duration_ns
            self._busy_by_context[context] = (
                self._busy_by_context.get(context, 0) + duration_ns)

    def execute_cycles(self, cycles: int, context: str = "anonymous"
                       ) -> Generator[Event, None, None]:
        """Occupy the CPU for ``cycles`` at the CPU's clock frequency."""
        yield from self.execute(self.spec.cycles_to_ns(cycles), context=context)

    # -- inspection ---------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while something is executing."""
        if self._sync is not None:
            self._sync()
        return self._resource.in_use > 0

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for the CPU (excluding the current holder)."""
        if self._sync is not None:
            self._sync()
        return len(self._resource._waiters)

    @property
    def busy_ns(self) -> int:
        """Time the CPU has been held so far, the current job included."""
        if self._sync is not None:
            self._sync()
        return self._resource.busy_ns

    @property
    def total_busy(self) -> int:
        """Work charged by finished jobs, in ns."""
        if self._sync is not None:
            self._sync()
        return self._total_busy

    @property
    def busy_by_context(self) -> Dict[str, int]:
        """Work charged by finished jobs, in ns per context label."""
        if self._sync is not None:
            self._sync()
        return self._busy_by_context

    def utilization(self) -> float:
        """Busy fraction of wall time since t=0."""
        if self._sync is not None:
            self._sync()
        return self._resource.utilization()

    def context_share(self, context: str) -> float:
        """Fraction of all busy time attributed to ``context``."""
        total = self.total_busy
        if total == 0:
            return 0.0
        return self._busy_by_context.get(context, 0) / total

    # -- the lazy timer tick (repro.hostos.kernel) --------------------------

    def _charge_idle(self, duration_ns: int, context: str) -> None:
        """Charge work that ran and ended while the CPU was otherwise
        idle, exactly as if :meth:`execute` had run it."""
        self._resource.busy_time += duration_ns
        self._charge(duration_ns, context)

    def _hold_from(self, start: int) -> None:
        """Hold the idle CPU from ``start`` (<= now) until :meth:`_end_run`."""
        resource = self._resource
        resource.in_use = 1
        resource._busy_since = start

    def _charge(self, duration_ns: int, context: str) -> None:
        """Account finished work, as :meth:`execute` does on release."""
        self._total_busy += duration_ns
        by_context = self._busy_by_context
        by_context[context] = by_context.get(context, 0) + duration_ns

    def _end_run(self, duration_ns: int, context: str) -> None:
        """Release a job started by :meth:`_hold_from` or granted by
        :meth:`_enqueue`, handing the CPU to the oldest waiter."""
        self._resource.release()
        self._charge(duration_ns, context)

    def _enqueue(self) -> Event:
        """Join the FIFO of the busy CPU; the Event fires on the grant."""
        return self._resource.request()


class CpuSampler:
    """Windowed utilization sampler (the paper samples every 5 s).

    Each call to :meth:`sample` records the utilization of the window since
    the previous call, computed from the CPU's cumulative busy time.
    """

    def __init__(self, cpu: Cpu) -> None:
        self.cpu = cpu
        self.samples: List[Tuple[int, float]] = []
        self._last_time = cpu.sim.now
        self._last_busy = cpu.busy_ns

    def sample(self) -> float:
        """Record and return utilization over the window just ended."""
        now = self.cpu.sim.now
        busy = self.cpu.busy_ns
        window = now - self._last_time
        util = (busy - self._last_busy) / window if window > 0 else 0.0
        self.samples.append((now, util))
        self._last_time = now
        self._last_busy = busy
        return util

    def utilizations(self) -> List[float]:
        """The recorded per-window utilizations."""
        return [u for _, u in self.samples]
