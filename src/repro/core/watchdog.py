"""Heartbeat watchdog — device-death detection over OOB channels.

The paper's runtime learns about device failure implicitly (a crashed
Offcode's parent tears down its subtree) but has no way to *notice* a
silently wedged device.  This module adds the standard embedded-systems
answer: the host pings every device runtime over a dedicated low-priority
OOB-class channel; firmware answers each ping with a pong; a device that
misses ``miss_threshold`` consecutive beats is declared dead and handed
to :meth:`repro.core.runtime.HydraRuntime.on_device_failure` for
recovery.

Design constraints imposed by the simulation engine:

* Ping rounds run in *disposable wrapped processes*: a failed process
  nobody waits on crashes the whole simulator, so every round catches
  its own exceptions into an outcome dict the monitor inspects.
* Nothing is ever ``interrupt()``-ed.  A process abandoned while waiting
  on a channel sequencer would leak the slot and wedge the channel;
  instead, late rounds are left to finish on their own and their stale
  pongs are recognised (and ignored) by sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import DeviceFailedError, HydraError
from repro.core.channel import ChannelConfig, Endpoint
from repro.sim.engine import Event
from repro.telemetry.spans import emit as trace_emit

__all__ = ["WatchdogConfig", "DeviceWatchdog"]


@dataclass(frozen=True)
class WatchdogConfig:
    """Timing parameters of the heartbeat protocol.

    Defaults give a 2 ms beat with a 1 ms reply deadline and death after
    3 consecutive misses — fast enough to bound recovery latency in the
    TiVoPC chaos scenario, slow enough that a busy-but-alive device
    (heartbeats share the device CPU with real work) never trips it.
    """

    period_ns: int = 2_000_000
    deadline_ns: int = 1_000_000
    miss_threshold: int = 3
    pong_cost_ns: int = 2_000

    def __post_init__(self) -> None:
        if self.period_ns <= 0 or self.deadline_ns <= 0:
            raise HydraError("watchdog period and deadline must be positive")
        if self.miss_threshold <= 0:
            raise HydraError(
                f"miss_threshold must be positive: {self.miss_threshold}")
        if self.pong_cost_ns < 0:
            raise HydraError(
                f"pong_cost_ns must be non-negative: {self.pong_cost_ns}")


class _DeviceWatch:
    """Per-device heartbeat state (host side)."""

    def __init__(self, name: str, channel, host_ep: Endpoint, beats,
                 missed) -> None:
        self.name = name
        self.channel = channel
        self.host_ep = host_ep
        self.seq = 0
        self.beats = beats              # counter: completed rounds
        self.missed = missed            # gauge: consecutive misses
        self.last_pong_seq = 0
        self.status = "alive"            # alive | suspect | dead
        # (at_ns, status) appended on every *change* — never on a repeat,
        # so consumers (the supervisor's flap detector) see monotone,
        # deduplicated episodes.  The initial "alive" is not recorded:
        # every "alive" entry is a genuine recovery.
        self.transitions: List[Tuple[int, str]] = []
        self.waiter: Optional[tuple] = None   # (seq, Event) of live round
        self.declared_dead_at_ns: Optional[int] = None


class DeviceWatchdog:
    """Host-side heartbeat service over one runtime's devices."""

    def __init__(self, runtime, config: Optional[WatchdogConfig] = None
                 ) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.config = config or WatchdogConfig()
        self.stopped = False
        self._watches: Dict[str, _DeviceWatch] = {}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Open a heartbeat channel per device and start the monitors."""
        if self._watches:
            raise HydraError("watchdog already started")
        for name, device_runtime in self.runtime.device_runtimes.items():
            cfg = (ChannelConfig.unicast().reliable().sequential()
                   .copied().with_ring_slots(32).with_priority(0)
                   .labeled(f"hydra.watchdog/{name}"))
            channel = self.runtime.executive.create_channel(
                cfg, self.runtime.host_site)
            device_ep = self.runtime.executive.connect_site(
                channel, device_runtime.site)
            device_ep.install_call_handler(
                lambda message, ep=device_ep, site=device_runtime.site:
                self._pong(ep, site, message))
            metrics = self.runtime.metrics
            labels = {"runtime": metrics.name, "device": name}
            watch = _DeviceWatch(
                name, channel, channel.creator_endpoint,
                beats=metrics.watchdog_beats.own(**labels),
                missed=metrics.watchdog_missed.own(**labels))
            self._watches[name] = watch
            self.sim.spawn(self._collect(watch), name=f"wd-collect-{name}")
            self.sim.spawn(self._monitor(watch), name=f"wd-monitor-{name}")
        trace_emit(self.sim, "fault",
                   f"watchdog armed over {len(self._watches)} device(s)",
                   period_ns=self.config.period_ns,
                   miss_threshold=self.config.miss_threshold)

    def stop(self) -> None:
        """Stop monitoring: monitors exit at their next tick."""
        self.stopped = True

    # -- inspection --------------------------------------------------------------

    def status_of(self, device: str) -> str:
        """``alive`` | ``suspect`` | ``dead`` for one device."""
        return self._watch(device).status

    def beats_of(self, device: str) -> int:
        """Completed ping/pong rounds for one device."""
        return self._watch(device).beats.value

    def declared_dead_at(self, device: str) -> Optional[int]:
        """Sim time the device was declared dead, or None."""
        return self._watch(device).declared_dead_at_ns

    def transitions_of(self, device: str) -> List[Tuple[int, str]]:
        """Status changes for one device, as ``(at_ns, status)`` tuples.

        Only *changes* are recorded (the steady initial "alive" is not),
        so an "alive" entry always marks a recovery from suspect/dead —
        the supervisor's flap detector counts exactly these.
        """
        return list(self._watch(device).transitions)

    def _watch(self, device: str) -> _DeviceWatch:
        try:
            return self._watches[device]
        except KeyError:
            raise HydraError(
                f"watchdog is not monitoring {device!r}") from None

    def _set_status(self, watch: _DeviceWatch, status: str) -> None:
        """Record a status change (idempotent: repeats are not logged)."""
        if watch.status == status:
            return
        watch.status = status
        watch.transitions.append((self.sim.now, status))

    # -- device side -------------------------------------------------------------

    def _pong(self, device_ep: Endpoint, site, message
              ) -> Generator[Event, None, None]:
        payload = message.payload
        if not (isinstance(payload, tuple) and len(payload) == 2
                and payload[0] == "ping"):
            return
        yield from site.execute(self.config.pong_cost_ns,
                                context="watchdog-pong")
        yield from device_ep.write(("pong", payload[1]), 16)

    # -- host side ---------------------------------------------------------------

    def _collect(self, watch: _DeviceWatch
                 ) -> Generator[Event, None, None]:
        # Single long-lived reader per channel: reads are never abandoned,
        # so no pong can be stolen by a stale waiter.
        try:
            while True:
                message = yield from watch.host_ep.read()
                payload = message.payload
                if not (isinstance(payload, tuple) and len(payload) == 2
                        and payload[0] == "pong"):
                    continue
                watch.last_pong_seq = payload[1]
                if watch.waiter is not None and watch.waiter[0] == payload[1]:
                    _seq, event = watch.waiter
                    watch.waiter = None
                    event.succeed(payload[1])
        except Exception:
            return   # channel torn down during recovery

    def _ping(self, watch: _DeviceWatch, seq: int, outcome: dict
              ) -> Generator[Event, None, None]:
        try:
            yield from watch.host_ep.write(("ping", seq), 16)
        except Exception as exc:
            outcome["error"] = exc

    def _monitor(self, watch: _DeviceWatch
                 ) -> Generator[Event, None, None]:
        cfg = self.config
        while True:
            yield self.sim.clock.timeout(cfg.period_ns)
            if self.stopped:
                return
            watch.seq += 1
            seq = watch.seq
            round_waiter = Event(self.sim)
            watch.waiter = (seq, round_waiter)
            outcome: dict = {}
            self.sim.spawn(self._ping(watch, seq, outcome),
                           name=f"wd-ping-{watch.name}-{seq}")
            yield self.sim.any_of(
                [round_waiter, self.sim.clock.timeout(cfg.deadline_ns)])
            if round_waiter.triggered:
                watch.beats.inc()
                if watch.missed.value:
                    trace_emit(self.sim, "fault",
                               f"watchdog: {watch.name} recovered after "
                               f"{watch.missed.value} missed beat(s)",
                               device=watch.name)
                watch.missed.set(0)
                self._set_status(watch, "alive")
                continue
            watch.waiter = None
            if isinstance(outcome.get("error"), DeviceFailedError):
                self._declare_dead(watch, "crash detected")
                return
            watch.missed.inc()
            missed = watch.missed.value
            self._set_status(watch, "suspect")
            tel = self.sim.telemetry
            if tel is not None:
                tel.instant("watchdog.miss", "watchdog",
                            f"watchdog:{watch.name}", device=watch.name,
                            missed=missed, threshold=cfg.miss_threshold)
            trace_emit(self.sim, "fault",
                       f"watchdog: {watch.name} missed beat "
                       f"{missed}/{cfg.miss_threshold}",
                       device=watch.name, missed=missed)
            if missed >= cfg.miss_threshold:
                self._declare_dead(
                    watch, f"{missed} consecutive missed beats")
                return

    def _declare_dead(self, watch: _DeviceWatch, reason: str) -> None:
        self._set_status(watch, "dead")
        watch.declared_dead_at_ns = self.sim.now
        tel = self.sim.telemetry
        if tel is not None:
            tel.instant("watchdog.dead", "watchdog",
                        f"watchdog:{watch.name}", device=watch.name,
                        reason=reason)
        trace_emit(self.sim, "fault",
                   f"watchdog: declaring {watch.name} dead ({reason})",
                   device=watch.name)
        self.sim.spawn(self._recover(watch.name),
                       name=f"wd-recover-{watch.name}")

    def _recover(self, name: str) -> Generator[Event, None, None]:
        try:
            yield from self.runtime.on_device_failure(name)
        except Exception as exc:
            # Recovery is best-effort; a failure here must not take the
            # simulator down with it (nobody awaits this process) — but
            # it must not vanish either: stamp the incident as failed so
            # callers and the chaos invariant checker see a partial
            # recovery instead of one that silently never completes.
            trace_emit(self.sim, "fault",
                       f"recovery of {name} failed: {exc!r}", device=name)
            incident = next(
                (i for i in reversed(self.runtime.incidents)
                 if i.device == name), None)
            if incident is None:
                from repro.core.runtime import RecoveryIncident
                incident = RecoveryIncident(device=name,
                                            died_at_ns=self.sim.now)
                self.runtime.incidents.append(incident)
            if incident.recovered_at_ns is None:
                incident.error = incident.error or repr(exc)
                incident.failed_at_ns = self.sim.now
