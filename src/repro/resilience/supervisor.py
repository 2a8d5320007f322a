"""The self-healing supervisor loop.

Reactive recovery (watchdog → checkpoint restore → replay) handles
devices that *die*.  The supervisor handles devices that *misbehave*:

* **Flapping** — a device that repeatedly stalls and recovers trips the
  watchdog into ``suspect`` and back without ever dying.  Each recovery
  is a transition recorded by the watchdog; when enough of them land
  inside the flap window, the supervisor quarantines the device
  (excluded from layout like a failed one, but alive) and — policy
  permitting — drains its offcodes elsewhere via live migration.
* **Probation** — a quarantined device that stays quiet for the
  probation window is un-quarantined; new suspect transitions during
  probation extend it.  One quarantine decision is made per flap
  episode: the transitions that triggered it are consumed, so the same
  burst can never be double-counted.
* **Brownout** — an EWMA over the executive-wide retransmit rate
  detects overload; crossing the enter threshold engages priority-aware
  admission control at the Channel Executive
  (:class:`~repro.resilience.admission.AdmissionController`), and
  falling below the exit threshold (hysteresis) disengages it.

The supervisor duck-types against :class:`~repro.core.runtime.HydraRuntime`
(this package must not import ``repro.core``): it needs ``sim``,
``watchdog``, ``executive``, ``quarantined_devices``, ``failed_devices``,
``device_runtimes`` and the ``migrate`` verb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.errors import HydraError
from repro.resilience.admission import AdmissionController
from repro.telemetry.spans import emit as trace_emit

__all__ = ["SupervisorConfig", "SupervisorDecision", "Supervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs of the self-healing loop."""

    period_ns: int = 5_000_000           # policy tick: 5 ms
    # Flap detection: this many suspect→alive recoveries inside the
    # window quarantines the device.
    flap_window_ns: int = 60_000_000
    flap_threshold: int = 2
    # Probation: quarantined devices that stay quiet this long return
    # to service; new suspect transitions restart the clock.
    probation_ns: int = 100_000_000
    # Drain policy: migrate offcodes off a freshly-quarantined device.
    drain: bool = True
    # Brownout detection: EWMA of retransmits/second over the whole
    # executive.  Enter > exit gives hysteresis.
    brownout_enter: float = 200.0
    brownout_exit: float = 50.0
    ewma_alpha: float = 0.3
    # Channels below this priority are shed while admission control is
    # engaged (the OOB convention: 0 = OOB, 1 = default application).
    protect_priority: int = 2

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise ValueError("supervisor period must be positive")
        if self.flap_threshold < 1:
            raise ValueError("flap threshold must be at least 1")
        if self.brownout_exit > self.brownout_enter:
            raise ValueError("brownout exit threshold above enter "
                             "threshold (hysteresis inverted)")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("EWMA alpha must be in (0, 1]")


_ACTIONS = ("quarantine", "unquarantine", "drain", "shed-on", "shed-off")


@dataclass
class SupervisorDecision:
    """One policy action, for tests and post-mortems."""

    at_ns: int
    action: str         # one of _ACTIONS
    device: str = ""
    detail: str = ""


class Supervisor:
    """Policy loop consuming watchdog + channel health signals."""

    def __init__(self, runtime, config: Optional[SupervisorConfig] = None
                 ) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.config = config or SupervisorConfig()
        self.admission = AdmissionController(
            protect_priority=self.config.protect_priority,
            metrics=runtime.metrics)
        self.decisions: List[SupervisorDecision] = []
        # Decision counts by action and drain outcomes: this runtime's
        # own children, so a namesake runtime's counts never mix in.
        name = runtime.metrics.name
        self._decided = {
            action: runtime.metrics.supervisor_decisions.own(
                runtime=name, action=action) for action in _ACTIONS}
        drains = self.sim.metrics.counter(
            "repro_supervisor_drains_total",
            help="Drain migrations off quarantined devices, by outcome",
            labels=("runtime", "outcome"))
        self._drained = {outcome: drains.own(runtime=name, outcome=outcome)
                         for outcome in ("completed", "failed")}
        self.retransmit_rate_ewma = 0.0
        # Per-device episode state: transitions before this index are
        # consumed (already led to a decision).
        self._episode_start: Dict[str, int] = {}
        self._quarantined_at: Dict[str, int] = {}
        self._probation_deadline: Dict[str, int] = {}
        self._last_retransmits = 0
        self._process = None

    def _decide(self, decision: SupervisorDecision) -> None:
        """Log one policy action and count it in the runtime's metrics."""
        self.decisions.append(decision)
        self._decided[decision.action].inc()

    quarantines = property(lambda self: self._decided["quarantine"].value,
                           doc="Quarantine decisions (one per episode).")
    unquarantines = property(
        lambda self: self._decided["unquarantine"].value,
        doc="Devices returned to service after probation.")
    drains_started = property(lambda self: self._decided["drain"].value,
                              doc="Drain migrations attempted.")
    drains_completed = property(
        lambda self: self._drained["completed"].value,
        doc="Drain migrations that completed.")
    drains_failed = property(lambda self: self._drained["failed"].value,
                             doc="Drain migrations that failed.")

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Supervisor":
        """Arm the policy loop (idempotent)."""
        if self._process is None:
            self.runtime.executive.set_admission(self.admission)
            self._process = self.sim.spawn(self._loop(), name="supervisor")
        return self

    def _loop(self) -> Generator[Any, Any, None]:
        while True:
            yield self.sim.clock.timeout(self.config.period_ns)
            drains = self._scan_flaps()
            self._scan_probation()
            self._scan_brownout()
            for device in drains:
                yield from self._drain(device)

    # -- flap detection --------------------------------------------------------

    def _scan_flaps(self) -> List[str]:
        watchdog = self.runtime.watchdog
        if watchdog is None:
            return []
        now = self.sim.now
        to_drain: List[str] = []
        for device in sorted(watchdog._watches):
            if (device in self.runtime.quarantined_devices
                    or device in self.runtime.failed_devices):
                continue
            transitions = watchdog.transitions_of(device)
            start = self._episode_start.get(device, 0)
            recoveries = [at for at, status in transitions[start:]
                          if status == "alive"
                          and at > now - self.config.flap_window_ns]
            if len(recoveries) < self.config.flap_threshold:
                continue
            # Exactly one quarantine per episode: consume the evidence.
            self._episode_start[device] = len(transitions)
            self._quarantine(device, len(recoveries))
            if self.config.drain:
                to_drain.append(device)
        return to_drain

    def _quarantine(self, device: str, recoveries: int) -> None:
        now = self.sim.now
        self.runtime.quarantined_devices.add(device)
        self.runtime.executive.invalidate_cost_cache()
        self._quarantined_at[device] = now
        self._probation_deadline[device] = now + self.config.probation_ns
        self._decide(SupervisorDecision(
            at_ns=now, action="quarantine", device=device,
            detail=f"{recoveries} recoveries in flap window"))
        trace_emit(self.sim, "fault",
                   f"supervisor quarantined {device} "
                   f"({recoveries} stall/recover cycles)")
        tel = self.sim.telemetry
        if tel is not None:
            tel.instant(f"quarantine.{device}", category="supervisor",
                        track="supervisor", recoveries=recoveries)

    def _scan_probation(self) -> None:
        watchdog = self.runtime.watchdog
        now = self.sim.now
        for device in sorted(self._probation_deadline):
            if device not in self.runtime.quarantined_devices:
                self._probation_deadline.pop(device, None)
                continue
            if now < self._probation_deadline[device]:
                continue
            since = self._quarantined_at.get(device, 0)
            relapsed = False
            if watchdog is not None:
                relapsed = any(
                    at > since and status != "alive"
                    for at, status in watchdog.transitions_of(device))
            if relapsed:
                # Still flapping under quarantine: restart the clock and
                # consume the relapse so it cannot also start an episode.
                self._quarantined_at[device] = now
                self._probation_deadline[device] = (
                    now + self.config.probation_ns)
                if watchdog is not None:
                    self._episode_start[device] = len(
                        watchdog.transitions_of(device))
                continue
            self.runtime.quarantined_devices.discard(device)
            self.runtime.executive.invalidate_cost_cache()
            self._probation_deadline.pop(device, None)
            self._quarantined_at.pop(device, None)
            if watchdog is not None:
                self._episode_start[device] = len(
                    watchdog.transitions_of(device))
            self._decide(SupervisorDecision(
                at_ns=now, action="unquarantine", device=device,
                detail="probation served"))
            trace_emit(self.sim, "fault",
                       f"supervisor un-quarantined {device} after probation")

    # -- drain-and-rebalance ---------------------------------------------------

    def _drain(self, device: str) -> Generator[Any, Any, None]:
        runtime = self.runtime
        device_runtime = runtime.device_runtimes.get(device)
        if device_runtime is None:
            return
        victims = [bindname for bindname in sorted(device_runtime.offcodes)
                   if not bindname.startswith("hydra.")]
        for bindname in victims:
            self._decide(SupervisorDecision(
                at_ns=self.sim.now, action="drain", device=device,
                detail=bindname))
            try:
                yield from runtime.migrate(bindname)
            except HydraError as exc:
                self._drained["failed"].inc()
                trace_emit(self.sim, "fault",
                           f"drain of {bindname} off {device} failed: {exc}")
            else:
                self._drained["completed"].inc()

    # -- brownout / admission control -------------------------------------------

    def _scan_brownout(self) -> None:
        config = self.config
        total = sum(ch.stats().retransmits
                    for ch in self.runtime.executive.channels)
        delta = total - self._last_retransmits
        self._last_retransmits = total
        rate = delta / (config.period_ns / 1e9)
        self.retransmit_rate_ewma = (
            config.ewma_alpha * rate
            + (1.0 - config.ewma_alpha) * self.retransmit_rate_ewma)
        if (not self.admission.engaged
                and self.retransmit_rate_ewma > config.brownout_enter):
            self.admission.engage()
            self._decide(SupervisorDecision(
                at_ns=self.sim.now, action="shed-on",
                detail=f"retransmit EWMA {self.retransmit_rate_ewma:.0f}/s"))
            trace_emit(self.sim, "fault",
                       "supervisor engaged admission control "
                       f"(retransmit EWMA {self.retransmit_rate_ewma:.0f}/s)")
        elif (self.admission.engaged
              and self.retransmit_rate_ewma < config.brownout_exit):
            self.admission.disengage()
            self._decide(SupervisorDecision(
                at_ns=self.sim.now, action="shed-off",
                detail=f"retransmit EWMA {self.retransmit_rate_ewma:.0f}/s"))
            trace_emit(self.sim, "fault",
                       "supervisor disengaged admission control")
