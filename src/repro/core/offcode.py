"""The Offcode component model.

"An Offcode is a component that contains its state, a well-defined
interface and a thread of control" (Section 3).  Concretely:

* **state** — ordinary Python attributes plus site-local memory obtained
  through the execution site;
* **interfaces** — :class:`InterfaceSpec` objects declared on the class;
  incoming :class:`~repro.core.call.Call` objects are dispatched to the
  method of the same name;
* **thread of control** — an optional :meth:`main` generator spawned
  when the Offcode starts.

Lifecycle (Section 3.1): construction at the target, then two-phase
bring-up — ``Initialize`` ("the Offcode can access local resources
only", peers may not exist yet) followed by ``StartOffcode`` once every
related Offcode is in place ("at this point, inter-Offcode
communication is facilitated").
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.errors import (DeviceFailedError, InterfaceError, InterruptError,
                          OffcodeError)
from repro.core.call import Call
from repro.core.guid import Guid, guid_from_name
from repro.core.interfaces import IOFFCODE, InterfaceSpec
from repro.core import marshal
from repro.core.sites import ExecutionSite
from repro.sim.engine import Event, Process
from repro.telemetry.spans import emit as trace_emit

__all__ = ["OffcodeState", "Offcode"]


class OffcodeState:
    """Lifecycle states, in legal order."""

    CREATED = "created"
    INITIALIZED = "initialized"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"

    ORDER = (CREATED, INITIALIZED, RUNNING, STOPPED)


class Offcode:
    """Base class for all Offcodes (user and pseudo).

    Subclasses set :attr:`BINDNAME` and :attr:`INTERFACES`, implement a
    method per interface operation, and may override the lifecycle hooks
    ``on_initialize`` / ``on_start`` / ``on_stop`` (generators) and
    :meth:`main` (the thread of control).
    """

    BINDNAME: str = ""
    INTERFACES: Tuple[InterfaceSpec, ...] = ()
    # Nominal per-dispatch execution cost on the site CPU; subclasses
    # with heavier methods charge more inside the method body.
    DISPATCH_COST_NS: int = 2_000

    def __init__(self, site: ExecutionSite,
                 guid: Optional[Guid] = None) -> None:
        if not self.BINDNAME:
            raise OffcodeError(
                f"{type(self).__name__} does not define BINDNAME")
        self.site = site
        self.guid = guid or guid_from_name(self.BINDNAME)
        self.state = OffcodeState.CREATED
        self.oob_channel = None          # set by the runtime at deployment
        self.channels: List[Any] = []    # connected channels, in attach order
        self.management_events: List[Any] = []
        self._main_process: Optional[Process] = None
        self._encodes, self._decodes = marshal.counters(site.sim.metrics)
        # GUID -> interface; the first declaration of a GUID wins, and
        # IOffcode's own GUID always names IOffcode.
        self._interfaces = {spec.guid: spec
                            for spec in reversed(self.INTERFACES)}
        self._interfaces[IOFFCODE.guid] = IOFFCODE
        self._dispatch_context = f"{self.BINDNAME}-dispatch"

    # -- identity -----------------------------------------------------------------

    @property
    def bindname(self) -> str:
        """The Offcode's unique bind name (class-level BINDNAME)."""
        return self.BINDNAME

    @property
    def location(self) -> str:
        """Site name: ``"host"`` or the device name."""
        return self.site.name

    def query_interface(self, guid: Guid) -> InterfaceSpec:
        """The IOffcode.QueryInterface operation."""
        spec = self._interfaces.get(guid)
        if spec is None:
            raise InterfaceError(
                f"{self.bindname} does not implement interface {guid}")
        return spec

    def implements(self, guid: Guid) -> bool:
        """True if this Offcode exposes the interface ``guid``."""
        return guid in self._interfaces

    # -- lifecycle -------------------------------------------------------------------

    def initialize(self) -> Generator[Event, None, None]:
        """Phase 1: acquire local resources (peers may not exist yet)."""
        self._require_state(OffcodeState.CREATED, "Initialize")
        yield from self.on_initialize()
        self.state = OffcodeState.INITIALIZED
        trace_emit(self.site.sim, "offcode",
                   f"{self.bindname}@{self.location} initialized")

    def start(self) -> Generator[Event, None, None]:
        """Phase 2: peers are deployed; begin the thread of control."""
        self._require_state(OffcodeState.INITIALIZED, "StartOffcode")
        yield from self.on_start()
        self.state = OffcodeState.RUNNING
        trace_emit(self.site.sim, "offcode",
                   f"{self.bindname}@{self.location} started")
        main = self.main()
        if main is not None:
            self._main_process = self.site.sim.spawn(
                self._run_main(main),
                name=f"{self.bindname}@{self.location}")

    def _run_main(self, generator) -> Generator[Event, None, None]:
        """Wrap the thread of control so stop() terminates it cleanly.

        A crash of the hosting device surfaces here as
        :class:`DeviceFailedError`; the thread dies quietly (the
        watchdog/runtime own the recovery) instead of taking the whole
        simulation down as an unwatched failing process would.
        """
        try:
            yield from generator
        except InterruptError:
            pass
        except DeviceFailedError:
            self.state = OffcodeState.FAILED
            trace_emit(self.site.sim, "fault",
                       f"{self.bindname}@{self.location} thread died with "
                       "its device")

    def stop(self) -> Generator[Event, None, None]:
        """Tear down; interrupts the thread of control if it is waiting."""
        if self.state not in (OffcodeState.RUNNING, OffcodeState.INITIALIZED):
            raise OffcodeError(
                f"cannot stop {self.bindname} in state {self.state}")
        if self._main_process is not None and self._main_process.alive:
            self._main_process.interrupt("stop")
            self._main_process = None
        yield from self.on_stop()
        self.state = OffcodeState.STOPPED
        trace_emit(self.site.sim, "offcode",
                   f"{self.bindname}@{self.location} stopped")

    def fail(self) -> None:
        """Mark FAILED without teardown (the runtime's kill() adds that)."""
        self.state = OffcodeState.FAILED

    def kill(self) -> None:
        """Immediate failure path: terminate the thread of control and
        mark FAILED without running the graceful ``on_stop`` hook.  The
        runtime then releases the resource subtree (Section 4's robust
        cleanup)."""
        if self._main_process is not None and self._main_process.alive:
            self._main_process.interrupt("kill")
            self._main_process = None
        self.state = OffcodeState.FAILED

    def _require_state(self, expected: str, operation: str) -> None:
        if self.state != expected:
            raise OffcodeError(
                f"{operation} on {self.bindname}: state is {self.state}, "
                f"must be {expected}")

    # -- hooks (override in subclasses) --------------------------------------------------

    def on_initialize(self) -> Generator[Event, None, None]:
        """Phase-1 hook: acquire local resources (override as a generator)."""
        yield from self.site.execute(5_000, context=f"{self.bindname}-init")

    def on_start(self) -> Generator[Event, None, None]:
        """Phase-2 hook: peers exist; last setup before main() spawns."""
        yield from self.site.execute(2_000, context=f"{self.bindname}-start")

    def on_stop(self) -> Generator[Event, None, None]:
        """Graceful-teardown hook (override as a generator)."""
        yield from self.site.execute(2_000, context=f"{self.bindname}-stop")

    def main(self) -> Optional[Generator[Event, None, None]]:
        """The Offcode's thread of control; None for purely reactive ones."""
        return None

    def on_channel_attached(self, channel) -> None:
        """Synchronous wiring hook: a new channel endpoint now exists.

        The runtime *also* delivers an asynchronous management event
        over the OOB channel (Section 3.2: the OOB channel notifies the
        Offcode about "availability of other channels"); that arrives
        later at :meth:`on_management_event` with its transfer cost paid.
        """
        self.channels.append(channel)

    def on_management_event(self, event: Any) -> None:
        """OOB management event (channel availability, control traffic).

        Default behaviour records the event; subclasses react to the
        payloads they care about.
        """
        self.management_events.append(event)

    def prepare_migrate(self) -> Generator[Event, None, None]:
        """Cooperative quiesce hook for live migration (override freely).

        The runtime calls this (bounded by the migration's prepare
        timeout) before checkpointing: a subclass with a thread of
        control should park it at a consistent point — between work
        items, with no partially-sent message — so the drain that
        follows empties every unacked queue and the cutover is
        exactly-once.  The base class has nothing to park.
        """
        return
        yield  # pragma: no cover - makes this a generator

    # -- checkpoint/restore contract ----------------------------------------------------

    def snapshot(self) -> Optional[Any]:
        """Serialize recovery-relevant state, or ``None`` to opt out.

        Subclasses that want failure transparency return a
        marshal-encodable value (dict/list/scalars).  The checkpoint
        service periodically ships it over the OOB channel to the
        host-side depot; after a device failure, recovery calls
        :meth:`restore` with the last shipped value on the replacement
        instance.  The base class opts out — pseudo Offcodes and
        stateless components cost nothing.
        """
        return None

    def restore(self, state: Any) -> None:
        """Adopt a previously snapshotted state on a fresh instance.

        Called by recovery after redeployment, before recovery hooks
        rewire data channels.  A subclass that overrides
        :meth:`snapshot` must override this too.
        """
        raise OffcodeError(
            f"{self.bindname} snapshots state but does not implement "
            "restore()")

    # -- call dispatch ------------------------------------------------------------------

    def dispatch(self, call: Call) -> Generator[Event, None, None]:
        """Execute an incoming Call and deliver its return value.

        The target method may be a plain function or a generator (when it
        needs to wait or charge site CPU time itself).
        """
        if self.state != OffcodeState.RUNNING:
            error = OffcodeError(
                f"call {call.method} on {self.bindname} while {self.state}")
            if call.return_descriptor is not None:
                call.return_descriptor.deliver_error(error)
                return
            raise error
        spec = self.query_interface(call.interface_guid)
        method_spec = spec.method(call.method)
        target = getattr(self, call.method, None)
        if target is None:
            raise InterfaceError(
                f"{self.bindname} declares {spec.name}.{call.method} "
                "but does not implement it")
        yield from self.site.execute(self.DISPATCH_COST_NS,
                                     context=self._dispatch_context)
        try:
            self._decodes.inc()
            result = target(*call.args())
            if hasattr(result, "send") and hasattr(result, "throw"):
                result = yield from result
        except Exception as exc:
            if call.return_descriptor is not None:
                call.return_descriptor.deliver_error(exc)
                return
            raise
        if call.return_descriptor is not None:
            if method_spec.result == "none":
                result = None
            self._encodes.inc()
            call.return_descriptor.deliver(marshal.encode(result))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Offcode {self.bindname}@{self.location} "
                f"state={self.state}>")
