"""The fault injector — applies a :class:`FaultPlan` to a live simulation.

One injector drives one simulator.  It is handed explicit registries of
the things it may break (devices by name, buses by name, channel
executives to search for labelled channels) so a plan can never reach
outside the experiment that owns it.  The injector itself is a single
simulation process that sleeps until each event's timestamp and applies
it synchronously; a mis-targeted event (unknown device, no matching
channel) is traced and skipped rather than crashing the run — chaos
experiments should degrade, not abort.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, List, Optional

from repro.errors import ReproError
from repro.core.channel import Channel, Message
from repro.core.executive import ChannelExecutive
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.hw.bus import Bus
from repro.hw.device import ProgrammableDevice
from repro.sim.engine import Event, Simulator
from repro.telemetry.spans import emit as trace_emit

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a :class:`FaultPlan` against registered targets."""

    def __init__(self, sim: Simulator, plan: FaultPlan,
                 devices: Optional[Dict[str, ProgrammableDevice]] = None,
                 buses: Optional[Dict[str, Bus]] = None,
                 executives: Optional[List[ChannelExecutive]] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.plan = plan
        self.devices = dict(devices or {})
        self.buses = dict(buses or {})
        self.executives = list(executives or [])
        # Deterministic noise source; callers pass a named stream from
        # repro.sim.rng.RandomStreams.  A fixed-seed fallback keeps even
        # lazy callers reproducible — never wall-clock.
        self.rng = rng or random.Random(0)
        self.applied: List[FaultEvent] = []
        self.skipped: List[FaultEvent] = []
        outcomes = sim.metrics.counter(
            "repro_faults_total", help="Scheduled fault events by outcome",
            labels=("outcome",))
        self._applied_total = outcomes.own(outcome="applied")
        self._skipped_total = outcomes.own(outcome="skipped")
        self._process = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Spawn the injector process (idempotence guarded)."""
        if self._process is not None:
            raise ReproError("fault injector already started")
        self._process = self.sim.spawn(self._drive(), name="fault-injector")
        return self._process

    def _drive(self) -> Generator[Event, None, None]:
        for event in self.plan.sorted_events():
            if event.at_ns > self.sim.now:
                yield self.sim.clock.timeout(event.at_ns - self.sim.now)
            try:
                self._apply(event)
                self.applied.append(event)
                self._applied_total.inc()
                tel = self.sim.telemetry
                if tel is not None:
                    tel.instant(f"fault.{event.kind.value}", "fault",
                                "faults", kind=event.kind.value,
                                target=event.target)
            except Exception as exc:
                self.skipped.append(event)
                self._skipped_total.inc()
                trace_emit(self.sim, "fault",
                           f"injector could not apply {event.kind.value} "
                           f"on {event.target!r}: {exc!r}",
                           kind=event.kind.value, target=event.target)

    # -- application -------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.DEVICE_CRASH:
            self._device(event.target).health.crash()
        elif event.kind is FaultKind.DEVICE_STALL:
            self._device(event.target).health.stall()
        elif event.kind is FaultKind.DEVICE_RESUME:
            self._device(event.target).health.resume()
        elif event.kind is FaultKind.BUS_TRANSIENT:
            self._bus(event.target).inject_transients(int(event.arg or 1))
        elif event.kind is FaultKind.CHANNEL_NOISE:
            loss, corrupt = event.arg
            channels = self._channels_labelled(event.target)
            if not channels:
                raise ReproError(
                    f"no open channel labelled {event.target!r}")
            for channel in channels:
                channel.set_fault_filter(self._noise_filter(loss, corrupt))
            trace_emit(self.sim, "fault",
                       f"noise armed on {len(channels)} channel(s) "
                       f"labelled {event.target!r}",
                       label=event.target, loss=loss, corrupt=corrupt)
        else:  # pragma: no cover - enum is closed
            raise ReproError(f"unknown fault kind {event.kind!r}")

    def _device(self, name: str) -> ProgrammableDevice:
        try:
            return self.devices[name]
        except KeyError:
            raise ReproError(
                f"injector has no device registered as {name!r}") from None

    def _bus(self, name: str) -> Bus:
        try:
            return self.buses[name]
        except KeyError:
            raise ReproError(
                f"injector has no bus registered as {name!r}") from None

    def _channels_labelled(self, label: str) -> List[Channel]:
        # Reliability is no longer a shield: noise on a RELIABLE channel
        # arms its ack/retransmit protocol (exactly-once is earned, not
        # assumed), while UNRELIABLE channels surface the faults raw.
        return [channel
                for executive in self.executives
                for channel in executive.channels
                if channel.config.label == label and not channel.closed]

    def _noise_filter(self, loss: float, corrupt: float
                      ) -> Callable[[Message], Optional[str]]:
        rng = self.rng

        def noise(message: Message) -> Optional[str]:
            draw = rng.random()
            if draw < loss:
                return "drop"
            if draw < loss + corrupt:
                return "corrupt"
            return None

        return noise
