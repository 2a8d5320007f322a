"""The HYDRA runtime facade — the Offloading Access Layer.

One :class:`HydraRuntime` exists per host (the paper's user-level +
kernel-level OAL pair collapsed into one object; the split is an
OS-packaging detail, not a behavioural one).  It owns:

* the host :class:`~repro.core.sites.HostSite` and one
  :class:`~repro.core.devruntime.DeviceRuntime` per programmable device,
* the :class:`~repro.core.executive.ChannelExecutive` with a loopback
  provider, one DMA provider per device and a peer-DMA provider,
* the :class:`~repro.core.memory.MemoryManager`, the
  :class:`~repro.core.resources.ResourceTree`, the
  :class:`~repro.core.odf.OdfLibrary`, the
  :class:`~repro.core.depot.OffcodeDepot`, the loader registry and the
  layout resolver,
* the pseudo Offcodes (``hydra.Runtime``, ``hydra.Heap``,
  ``hydra.ChannelExecutive`` on the host; a ``hydra.Heap`` per device).

The programming-model entry points mirror the paper's API: a process
calls ``CreateOffcode`` (:meth:`deploy` with a :class:`DeploymentSpec`)
and receives a proxy; ``GetOffcode`` (:meth:`get_offcode`) returns any
registered Offcode by bind name; ``CreateChannel`` goes through the
executive exactly as in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, Iterable, List, Optional,
                    Set, Tuple, Union)

from repro.errors import (DeploymentError, HydraError, MigrationError,
                          OffcodeError)
from repro.core.channel import (Channel, ChannelConfig, ChannelStats,
                                conservation)
from repro.core.checkpoint import (CheckpointConfig, CheckpointService,
                                   capture_checkpoint, checkpointable)
from repro.core.deployment import DeploymentPipeline, DeploymentReport
from repro.core.depot import OffcodeDepot
from repro.core.devruntime import DeviceRuntime
from repro.core.executive import ChannelExecutive
from repro.core.layout.objectives import Objective
from repro.core.layout.resolver import OffloadLayoutResolver
from repro.core.loader import LoaderRegistry
from repro.core.memory import MemoryManager
from repro.core.odf import OdfDocument, OdfLibrary
from repro.core.offcode import Offcode, OffcodeState
from repro.core.providers import (
    DmaChannelProvider,
    LoopbackProvider,
    PeerDmaProvider,
)
from repro.core.proxy import Proxy
from repro.core.pseudo import (
    ChannelExecutiveOffcode,
    HeapOffcode,
    RuntimeOffcode,
)
from repro.core.resources import FinalizerFailure, ResourceTree
from repro.core.sites import ExecutionSite, HostSite
from repro.core.watchdog import DeviceWatchdog, WatchdogConfig
from repro.hw.machine import Machine
from repro.resilience.migration import HoldingGate, MigrationRecord
from repro.resilience.supervisor import Supervisor, SupervisorConfig
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource as SimResource
from repro.telemetry.spans import emit as trace_emit

__all__ = ["HydraRuntime", "DeploymentSpec", "DeploymentResult",
           "CleanupReport", "RecoveryIncident"]


@dataclass
class CleanupReport:
    """What :meth:`HydraRuntime.fail_offcode` tore down, and how it went.

    Wraps the finalizer failures collected during a subtree release with
    the identity of the failed Offcode, so callers (and the trace log)
    know *whose* destructor misbehaved rather than receiving a bare
    exception list.
    """

    bindname: str
    failures: List[FinalizerFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every finalizer ran cleanly."""
        return not self.failures

    @property
    def errors(self) -> List[Exception]:
        """Just the exceptions, for callers that only count them."""
        return [failure.exception for failure in self.failures]

    def __len__(self) -> int:
        return len(self.failures)


@dataclass
class RecoveryIncident:
    """One device death handled by :meth:`HydraRuntime.on_device_failure`.

    ``latency_ns`` — declared-dead to recovery-complete — is the metric
    the chaos scenario and the recovery benchmark track.  A recovery
    that *fails* stamps ``failed_at_ns``/``error`` instead of
    ``recovered_at_ns``, so callers and the chaos invariant checker see
    partial recoveries rather than incidents that silently never
    complete.  ``restored`` lists victims whose last checkpoint was
    restored into the replacement instance; ``replayed`` counts unacked
    channel messages re-sent on replacement channels; ``hook_errors``
    holds the ``repr`` of each failed recovery hook or checkpoint
    restore (non-fatal, but visible), strings as on
    :class:`~repro.resilience.migration.MigrationRecord`.
    """

    device: str
    died_at_ns: int
    victims: List[str] = field(default_factory=list)
    reports: List[CleanupReport] = field(default_factory=list)
    placement: Dict[str, str] = field(default_factory=dict)
    recovered_at_ns: Optional[int] = None
    failed_at_ns: Optional[int] = None
    error: Optional[str] = None
    restored: List[str] = field(default_factory=list)
    replayed: int = 0
    hook_errors: List[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True once the victims were re-deployed (or none existed)."""
        return self.recovered_at_ns is not None

    @property
    def failed(self) -> bool:
        """True when recovery gave up (re-deploy raised)."""
        return self.failed_at_ns is not None

    @property
    def latency_ns(self) -> Optional[int]:
        """Death-declaration to recovery-complete, in sim ns."""
        if self.recovered_at_ns is None:
            return None
        return self.recovered_at_ns - self.died_at_ns


# What the shared teardown/rewire halves record into.
Relocation = Union[RecoveryIncident, MigrationRecord]


@dataclass(frozen=True)
class DeploymentSpec:
    """Typed description of one deployment request.

    The single entry point :meth:`HydraRuntime.deploy` (the paper's
    ``CreateOffcode``) takes one of these: one ODF path deploys a single
    application, several paths deploy them under one joint layout solve
    (Section 5's multi-application scenario).

    ``proxy`` asks for a host-side proxy channel to the first root;
    ``interface`` names the interface it should expose (default: the
    root's first declared interface); ``proxy_config`` overrides the
    proxy channel's :class:`~repro.core.channel.ChannelConfig` — the
    place to hang ``.batched(...)`` watermarks on the control plane.
    """

    odf_paths: Tuple[str, ...]
    interface: Optional[str] = None
    objective: Optional[Objective] = None
    proxy: bool = True
    proxy_config: Optional[ChannelConfig] = None

    def __post_init__(self) -> None:
        if isinstance(self.odf_paths, str):
            # A lone path is a common slip; accept it rather than
            # iterating its characters.
            object.__setattr__(self, "odf_paths", (self.odf_paths,))
        else:
            object.__setattr__(self, "odf_paths", tuple(self.odf_paths))
        if not self.odf_paths:
            raise DeploymentError(
                "DeploymentSpec needs at least one ODF path")


@dataclass
class DeploymentResult:
    """What :meth:`HydraRuntime.deploy` returns.

    ``proxy`` and ``channel`` are populated only when the spec asked for
    a proxy (the default) — multi-application deployments typically
    reach each root via :meth:`HydraRuntime.get_offcode` instead.
    """

    report: DeploymentReport
    offcode: Offcode
    proxy: Optional[Proxy] = None
    channel: Optional[Channel] = None

    @property
    def location(self) -> str:
        """Where the first root Offcode landed (device name or 'host')."""
        return self.offcode.location


class RuntimeMetrics:
    """The metric families one runtime exports, labelled ``runtime``.

    Declared when the runtime is built, so a run whose watchdog or
    supervisor was never armed still exports their (empty) families;
    those parts bind their own label children when armed.
    :meth:`collect` refreshes, at snapshot time, the values derived from
    the runtime's logs: the channel conservation law, incidents and
    migrations by outcome, quarantined devices and whether admission
    control is engaged (admission sheds count in place).
    """

    def __init__(self, registry, name: str) -> None:
        self.name = name

        def family(kind: str, metric: str, text: str, *labels: str):
            return getattr(registry, kind)(metric, help=text,
                                           labels=("runtime",) + labels)

        def mine(kind: str, metric: str, text: str):
            return family(kind, metric, text).own(runtime=name)

        self.violations = mine(
            "gauge", "repro_channel_conservation_violations",
            "Rel-armed channels violating the conservation law")
        self.incidents = family(
            "gauge", "repro_recovery_incidents",
            "Device-failure incidents by outcome", "state")
        self.replayed = mine(
            "counter", "repro_recovery_replayed_total",
            "Unacked messages replayed on replacement channels")
        self.watchdog_beats = family(
            "counter", "repro_watchdog_beats_total",
            "Completed heartbeat rounds", "device")
        self.watchdog_missed = family(
            "gauge", "repro_watchdog_missed_beats",
            "Consecutive missed heartbeats (0 = healthy)", "device")
        self.migrations = family(
            "gauge", "repro_migrations",
            "Live offcode migrations by outcome", "state")
        self.migration_replayed = mine(
            "counter", "repro_migration_replayed_total",
            "Unacked messages replayed during migration cutovers")
        self.migration_shed = mine(
            "counter", "repro_migration_shed_total",
            "Calls shed at migration holding gates (queue overflow)")
        self.quarantined = mine(
            "gauge", "repro_quarantined_devices",
            "Devices currently quarantined by the supervisor")
        self.supervisor_decisions = family(
            "counter", "repro_supervisor_decisions_total",
            "Supervisor policy decisions by action", "action")
        self.admission_shed = family(
            "counter", "repro_admission_shed_total",
            "Calls shed by admission control, by channel priority",
            "priority")
        self.admission_engaged = mine(
            "gauge", "repro_admission_engaged",
            "1 while priority-aware load shedding is engaged")

    def collect(self, runtime: "HydraRuntime") -> None:
        """Refresh the log-derived values from ``runtime``."""
        channels = runtime.executive.channels
        imbalances, violations = conservation(channels)
        for channel, imbalance in zip(channels, imbalances):
            channel.imbalance_gauge.set(imbalance)
        self.violations.set(len(violations))
        for family, records, done in (
                (self.incidents, runtime.incidents, "recovered"),
                (self.migrations, runtime.migrations, "completed")):
            counts = dict.fromkeys((done, "failed", "pending"), 0)
            for record in records:
                counts[done if getattr(record, done) else
                       "failed" if record.failed else "pending"] += 1
            for state, count in counts.items():
                family.labels(runtime=self.name, state=state).set(count)
        self.replayed.set_total(sum(i.replayed for i in runtime.incidents))
        self.migration_replayed.set_total(
            sum(record.replayed for record in runtime.migrations))
        self.migration_shed.set_total(
            sum(record.shed for record in runtime.migrations))
        self.quarantined.set(len(runtime.quarantined_devices))
        if runtime.supervisor is not None:
            self.admission_engaged.set(
                1 if runtime.supervisor.admission.engaged else 0)


class HydraRuntime:
    """The per-host runtime instance."""

    def __init__(self, machine: Machine, kernel=None,
                 library: Optional[OdfLibrary] = None,
                 depot: Optional[OffcodeDepot] = None,
                 solver=None) -> None:
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.kernel = kernel
        self.host_site = HostSite(machine)
        self.library = library or OdfLibrary()
        self.depot = depot or OffcodeDepot()
        self.memory = MemoryManager(machine)
        self.resources = ResourceTree(f"hydra@{machine.name}")
        self.loaders = LoaderRegistry()
        self.executive = ChannelExecutive(machine.name)
        self.pipeline = DeploymentPipeline(self)
        self.resolver = OffloadLayoutResolver(machine, self.depot,
                                              solver=solver)
        self._registry: Dict[str, Offcode] = {}
        self._documents: Dict[str, OdfDocument] = {}

        # Fault handling: devices declared dead, the watchdog (armed on
        # demand), the incident log, and recovery hooks applications use
        # to rewire data channels after a host-fallback redeploy.
        self.failed_devices: Set[str] = set()
        # Proactive resilience: standby devices are healthy spares the
        # layout never uses until a migration pins onto them (so adding
        # one cannot perturb a baseline solve); quarantined devices are
        # flapping ones the supervisor pulled from rotation.  Both are
        # excluded from every layout solve alongside failed devices.
        self.standby_devices: Set[str] = set()
        self.quarantined_devices: Set[str] = set()
        self.watchdog: Optional[DeviceWatchdog] = None
        self.checkpointer: Optional[CheckpointService] = None
        self.supervisor: Optional[Supervisor] = None
        self.incidents: List[RecoveryIncident] = []
        self.migrations: List[MigrationRecord] = []
        self.metrics = RuntimeMetrics(self.sim.metrics, machine.name)
        self.sim.metrics.register_collector(
            lambda _registry: self.metrics.collect(self))
        self._recovery_hooks: List[Callable] = []
        # Live proxies by bindname, so a migration can fence and rebind
        # them in place (callers keep their Proxy object across cutover).
        self._proxies: Dict[str, List[Proxy]] = {}
        # Overlapping device deaths serialize their re-deploys: a solve
        # mutating the registry while another incident's solve runs
        # would hand out torn layouts.
        self._recovery_lock = SimResource(self.sim, capacity=1)

        # One device runtime per programmable device, each with its own
        # DMA channel provider ("an extended driver for each device").
        self.device_runtimes: Dict[str, DeviceRuntime] = {}
        self.executive.register_provider(LoopbackProvider(machine))
        self.executive.register_provider(PeerDmaProvider(machine))
        # One-sided substrate: devices advertising the "rdma" feature
        # get an RdmaProvider next to their DMA provider; the executive
        # ranks the two by cost like any other pair.  (Function-level
        # import: repro.rdma depends on repro.core.)
        from repro.rdma.provider import RDMA_FEATURE, RdmaProvider
        self.rdma_providers: Dict[str, RdmaProvider] = {}
        for name, device in machine.devices.items():
            runtime = DeviceRuntime(device)
            self.device_runtimes[name] = runtime
            self.executive.register_provider(DmaChannelProvider(
                machine, device, self.memory, kernel=kernel))
            if device.spec.has_feature(RDMA_FEATURE):
                provider = RdmaProvider(machine, device, self.memory,
                                        kernel=kernel)
                self.rdma_providers[name] = provider
                self.executive.register_provider(provider)

        self._bootstrap_pseudo_offcodes()

    # -- bootstrap --------------------------------------------------------------------

    def _bootstrap_pseudo_offcodes(self) -> None:
        """Pseudo Offcodes exist before simulated time begins; their
        bring-up is part of OS boot, not of any measured deployment, so
        they enter RUNNING directly."""
        host_pseudos = (
            RuntimeOffcode(self.host_site, self),
            HeapOffcode(self.host_site),
            ChannelExecutiveOffcode(self.host_site, self.executive),
        )
        for pseudo in host_pseudos:
            pseudo.state = OffcodeState.RUNNING
            self._registry[pseudo.bindname] = pseudo
        for runtime in self.device_runtimes.values():
            heap = HeapOffcode(runtime.site)
            heap.state = OffcodeState.RUNNING
            runtime.offcodes[heap.bindname] = heap

    # -- registry -----------------------------------------------------------------------

    def register_offcode(self, offcode: Offcode,
                         document: OdfDocument) -> None:
        """Enter a deployed Offcode into the registry + resource tree."""
        if offcode.bindname in self._registry:
            raise OffcodeError(
                f"offcode {offcode.bindname!r} already registered")
        self._registry[offcode.bindname] = offcode
        self._documents[offcode.bindname] = document
        self.resources.track(offcode.bindname, kind="offcode",
                             payload=offcode)

    def locate(self, bindname: str) -> Optional[Offcode]:
        """Find a registered Offcode (host registry, then devices)."""
        offcode = self._registry.get(bindname)
        if offcode is not None:
            return offcode
        for runtime in self.device_runtimes.values():
            found = runtime.find(bindname)
            if found is not None and found.bindname != "hydra.Heap":
                return found
        return None

    def registered_bindnames(self) -> Iterable[str]:
        """Bind names registered on the host side."""
        return self._registry.keys()

    def deployed_offcodes(self) -> List[Offcode]:
        """Every registered Offcode instance (pseudo and user)."""
        return list(self._registry.values())

    def get_offcode(self, bindname: str) -> Offcode:
        """The ``GetOffcode`` API: pseudo and user Offcodes by name."""
        offcode = self.locate(bindname)
        if offcode is None:
            raise HydraError(f"no offcode registered as {bindname!r}")
        return offcode

    def rdma_provider(self, name: str):
        """The :class:`~repro.rdma.provider.RdmaProvider` of one
        rdma-featured device (HydraError if the device has none)."""
        try:
            return self.rdma_providers[name]
        except KeyError:
            raise HydraError(
                f"device {name!r} has no RDMA provider (missing the "
                "'rdma' feature?)") from None

    def device_runtime(self, name: str) -> DeviceRuntime:
        """The firmware runtime of one device (HydraError if absent)."""
        try:
            return self.device_runtimes[name]
        except KeyError:
            raise HydraError(
                f"no device runtime for {name!r}; "
                f"have {sorted(self.device_runtimes)}") from None

    def site_of(self, location: str) -> ExecutionSite:
        """Execution site for 'host' or a device name."""
        if location == "host":
            return self.host_site
        return self.device_runtime(location).site

    # -- programming model entry points ----------------------------------------------------

    def deploy(self, spec: DeploymentSpec
               ) -> Generator[Event, None, DeploymentResult]:
        """``CreateOffcode``: the single deployment entry point.

        Runs Figure 5 for the spec's ODF closure(s) — one path deploys a
        single application; several run under one joint layout solve —
        and, when ``spec.proxy`` is set, wires a host-side proxy channel
        to the first root and returns a transparent proxy over the
        requested interface.
        """
        report = yield from self.pipeline.deploy(spec.odf_paths,
                                                 objective=spec.objective)
        offcode = report.root_offcode
        result = DeploymentResult(report=report, offcode=offcode)
        if not spec.proxy:
            return result
        document = self.library.load(spec.odf_paths[0])
        if spec.interface is None:
            if not document.interfaces:
                raise HydraError(
                    f"{document.bindname} declares no interfaces; "
                    "pass one explicitly")
            iface = document.interfaces[0]
        else:
            iface = document.interface(spec.interface)
        channel = self._proxy_channel(
            spec.proxy_config or ChannelConfig.unicast(), offcode)
        result.channel = channel
        result.proxy = Proxy(iface, channel, channel.creator_endpoint)
        self._proxies.setdefault(offcode.bindname, []).append(result.proxy)
        return result

    def _proxy_channel(self, config: ChannelConfig, offcode: Offcode
                       ) -> Channel:
        """A host-side channel to ``offcode`` for a proxy, tracked in the
        Offcode's resource subtree (deploy and the relocation rebind)."""
        channel = self.executive.create_channel(
            config.with_target(offcode.location), self.host_site)
        self.executive.connect_offcode(channel, offcode)
        try:
            node = self.resources.lookup(offcode.bindname)
            self.resources.track(
                f"{offcode.bindname}/proxy-{channel.channel_id}",
                kind="channel", parent=node, finalizer=channel.close)
        except HydraError:
            pass   # pseudo/reused offcodes may not be tracked
        return channel

    def create_channel(self, config: ChannelConfig) -> Channel:
        """``CreateChannel`` (Figure 3, step 1): creator endpoint on the
        host; connect it with :meth:`connect_offcode`."""
        return self.executive.create_channel(config, self.host_site)

    def connect_offcode(self, channel: Channel, offcode: Offcode):
        """``ConnectOffcode`` (Figure 3, step 2)."""
        return self.executive.connect_offcode(channel, offcode)

    def stop_offcode(self, bindname: str
                     ) -> Generator[Event, None, None]:
        """Stop one Offcode and release its resource subtree."""
        offcode = self.get_offcode(bindname)
        yield from offcode.stop()
        if bindname in self._registry:
            del self._registry[bindname]
            self._documents.pop(bindname, None)
            self.resources.release(bindname)
        for runtime in self.device_runtimes.values():
            if runtime.find(bindname) is not None:
                runtime.evict_offcode(bindname)

    def fail_offcode(self, bindname: str) -> CleanupReport:
        """Crash handling: kill the Offcode and release its subtree.

        "Resources are managed hierarchically to allow for robust
        clean-up of child resources in the case of a failing parent
        object" (Section 4).  Returns a :class:`CleanupReport`; finalizer
        failures are collected (and traced), never raised mid-cleanup.
        """
        offcode = self.get_offcode(bindname)
        offcode.kill()
        failures: List[FinalizerFailure] = []
        if bindname in self._registry:
            del self._registry[bindname]
            self._documents.pop(bindname, None)
            failures = self.resources.release(bindname)
        for runtime in self.device_runtimes.values():
            if runtime.find(bindname) is not None:
                runtime.evict_offcode(bindname)
        report = CleanupReport(bindname=bindname, failures=failures)
        for failure in failures:
            trace_emit(self.sim, "fault",
                       f"finalizer of {failure.key} ({failure.kind}) "
                       f"failed during teardown of {bindname}: "
                       f"{failure.exception!r}",
                       offcode=bindname, resource=failure.key)
        return report

    # -- fault detection & recovery ---------------------------------------------------

    def start_watchdog(self, config: Optional[WatchdogConfig] = None
                       ) -> DeviceWatchdog:
        """Arm the heartbeat watchdog over every device runtime."""
        if self.watchdog is not None:
            raise HydraError("watchdog already started")
        self.watchdog = DeviceWatchdog(self, config)
        self.watchdog.start()
        return self.watchdog

    def start_checkpoints(self, config: Optional[CheckpointConfig] = None
                          ) -> CheckpointService:
        """Arm the periodic checkpoint service (see repro.core.checkpoint)."""
        if self.checkpointer is not None:
            raise HydraError("checkpoint service already started")
        self.checkpointer = CheckpointService(self, config)
        self.checkpointer.start()
        return self.checkpointer

    def start_supervisor(self, config: Optional[SupervisorConfig] = None
                         ) -> Supervisor:
        """Arm the self-healing supervisor loop (repro.resilience).

        Consumes watchdog status transitions and channel health to
        quarantine flapping devices, drain them via :meth:`migrate`, and
        engage admission control at the executive on brownout.
        """
        if self.supervisor is not None:
            raise HydraError("supervisor already started")
        self.supervisor = Supervisor(self, config)
        self.supervisor.start()
        return self.supervisor

    def add_recovery_hook(self, hook: Callable) -> None:
        """Register ``hook(device_name, incident)`` — a generator run
        after victims are re-deployed, before the incident is declared
        recovered; applications use it to rewire data channels."""
        self._recovery_hooks.append(hook)

    def channel_stats(self) -> List[ChannelStats]:
        """Delivery accounting snapshots for every executive channel."""
        return [channel.stats() for channel in self.executive.channels]

    def _closure_documents(self, bindname: str,
                           collected: Dict[str, OdfDocument]) -> None:
        document = self._documents.get(bindname)
        if document is None or bindname in collected:
            return
        collected[bindname] = document
        for imp in document.imports:
            self._closure_documents(imp.bindname, collected)

    def on_device_failure(self, name: str
                          ) -> Generator[Event, None, None]:
        """Full recovery path for a declared-dead device.

        Kills and releases every victim Offcode on the device, captures
        unacked messages from channels about to die with it, closes
        those channels, fences the device into fixed-function mode,
        re-solves the layout with the device excluded (degraded mode:
        mandatory constraints droppable, survivors pinned) and
        re-deploys the victims — the paper's host-based baseline.  The
        last shipped checkpoint (if any) is restored into each
        replacement instance, application recovery hooks rewire data
        channels, the captured unacked messages are replayed on the
        replacement channels (at-least-once across the recovery
        boundary: a message whose ack died with the wire may arrive
        twice) and the victims' proxies are rebound.  Only after all of
        that is the incident stamped recovered; a re-deploy failure
        stamps ``failed_at_ns``/``error`` instead so partial recoveries
        are visible.

        Overlapping incidents serialize on the recovery lock, but each
        marks its device failed *before* waiting so a concurrent solve
        already excludes it.
        """
        if name in self.failed_devices:
            return
        device_runtime = self.device_runtime(name)
        self.failed_devices.add(name)
        incident = RecoveryIncident(device=name, died_at_ns=self.sim.now)
        self.incidents.append(incident)
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            span = tel.enter(f"recover.{name}", "recovery",
                             f"runtime:{self.machine.name}", device=name)
        try:
            yield self._recovery_lock.request()
            try:
                yield from self._recover_device(name, device_runtime,
                                                incident)
            finally:
                self._recovery_lock.release()
        finally:
            if span is not None:
                tel.end(span, recovered=incident.recovered,
                        victims=len(incident.victims),
                        replayed=incident.replayed)

    def _recover_device(self, name: str, device_runtime: DeviceRuntime,
                        incident: RecoveryIncident
                        ) -> Generator[Event, None, None]:
        victims = [bindname for bindname in list(device_runtime.offcodes)
                   if bindname != "hydra.Heap"]
        incident.victims = victims
        trace_emit(self.sim, "fault",
                   f"device {name} declared failed; "
                   f"{len(victims)} victim offcode(s)",
                   device=name, victims=tuple(victims))

        # Channels with an endpoint on the dead device die with it.
        dead_site = device_runtime.site
        dying = [channel for channel in self.executive.channels
                 if not channel.closed and any(
                     endpoint.site is dead_site
                     for endpoint in channel.endpoints)]
        documents, pending = self._evict(incident, victims, dying)
        device_runtime.device.fence()

        if victims:
            try:
                report = yield from self.pipeline._deploy(
                    documents, roots=list(victims), objective=None)
            except Exception as exc:
                incident.error = repr(exc)
                incident.failed_at_ns = self.sim.now
                trace_emit(self.sim, "fault",
                           f"recovery of {name} failed: {exc!r}",
                           device=name)
                return
            incident.placement = {
                bindname: report.location_of(bindname)
                for bindname in report.offcodes}
            self._restore_checkpoints(incident)
            yield from self._rewire(name, incident, pending)

        incident.recovered_at_ns = self.sim.now
        trace_emit(self.sim, "fault",
                   f"device {name} recovery complete",
                   device=name, latency_ns=incident.latency_ns,
                   placement=tuple(sorted(incident.placement.items())),
                   restored=tuple(incident.restored),
                   replayed=incident.replayed)

    def _evict(self, record: Relocation, victims: List[str],
               channels: List[Channel]
               ) -> Tuple[List[OdfDocument], List[Tuple]]:
        """The teardown half that recovery and migration share.

        Captures the victims' ODF closures and each open channel's
        unacked ``(writer_bindname, label, messages)`` before they are
        gone, then fails every victim (``record.reports``) and closes
        the channels.  The writer is the channel's creator-bound
        Offcode, victim or survivor; host-owned channels (proxies, OOB)
        have none to replay from and are skipped.
        """
        documents: Dict[str, OdfDocument] = {}
        for bindname in victims:
            self._closure_documents(bindname, documents)
        pending: List[Tuple] = []
        for channel in channels:
            writer = channel.creator_endpoint.bound_offcode
            if channel.closed or writer is None:
                continue
            messages = channel.unacked_messages()
            if messages:
                pending.append((writer.bindname, channel.config.label,
                                messages))
        record.reports.extend(self.fail_offcode(bindname)
                              for bindname in victims)
        for channel in channels:
            if not channel.closed:
                channel.close()
        return list(documents.values()), pending

    def _restore_checkpoints(self, incident: RecoveryIncident) -> None:
        """Adopt each victim's last shipped checkpoint on its replacement."""
        store = self.depot.checkpoints
        for bindname in incident.victims:
            checkpoint = store.latest(bindname)
            if checkpoint is None:
                continue
            replacement = self.locate(bindname)
            if replacement is None or not checkpointable(replacement):
                continue
            try:
                replacement.restore(checkpoint.state)
            except Exception as exc:
                incident.hook_errors.append(
                    f"restore of {bindname}: {exc!r}")
                trace_emit(self.sim, "fault",
                           f"checkpoint restore of {bindname} failed: "
                           f"{exc!r}", offcode=bindname)
                continue
            incident.restored.append(bindname)
            trace_emit(self.sim, "fault",
                       f"{bindname} restored from checkpoint "
                       f"seq={checkpoint.seq} "
                       f"(taken {self.sim.now - checkpoint.taken_at_ns} ns "
                       "ago)", offcode=bindname, seq=checkpoint.seq)

    def _rewire(self, device: str, record: Relocation,
                pending: List[Tuple]) -> Generator[Event, None, None]:
        """The rewire half that recovery and migration share: run every
        recovery hook (a failure is recorded and traced, never raised),
        replay the captured unacked messages, then rebind each victim's
        proxies to a fresh channel to its replacement."""
        for hook in self._recovery_hooks:
            try:
                yield from hook(device, record)
            except Exception as exc:
                record.hook_errors.append(repr(exc))
                trace_emit(self.sim, "fault",
                           f"recovery hook failed after {device}: "
                           f"{exc!r}", device=device)
        yield from self._replay_unacked(record, pending)
        for bindname in record.victims:
            for proxy in self._proxies.get(bindname, ()):
                proxy.rebind(self._proxy_channel(
                    proxy.channel.config, self.get_offcode(bindname)))

    def _replay_unacked(self, record: Relocation, pending: List[Tuple]
                        ) -> Generator[Event, None, None]:
        """Re-send captured unacked messages on replacement channels.

        Runs after the recovery hooks so the replacement channels exist.
        Each message goes to every open, connected, same-label channel
        its writer (relocated or surviving) now holds; individual send
        failures are traced and skipped (the stream itself will
        retransmit at the application layer if it cares more).
        """
        for writer_bindname, label, messages in pending:
            writer = self.locate(writer_bindname)
            if writer is None:
                continue
            channels = [ch for ch in writer.channels
                        if not ch.closed and ch.connected
                        and ch.config.label == label]
            for payload, size_bytes in messages:
                for channel in channels:
                    try:
                        endpoint = channel.endpoint_of(writer)
                        yield from endpoint.write(payload, size_bytes)
                        record.replayed += 1
                    except Exception as exc:
                        trace_emit(self.sim, "fault",
                                   f"replay on {label!r} for "
                                   f"{writer_bindname} failed: {exc!r}",
                                   offcode=writer_bindname)

    # -- live migration -----------------------------------------------------------------

    def migrate(self, offcode, target: Optional[str] = None, *,
                prepare_timeout_ns: int = 25_000_000,
                drain_timeout_ns: int = 20_000_000,
                poll_ns: int = 250_000
                ) -> Generator[Event, None, MigrationRecord]:
        """Live-migrate one running Offcode to another device.

        The cutover state machine (see docs/fault-model.md):

        1. **fence** — new proxy calls park in a bounded
           :class:`~repro.resilience.migration.HoldingGate` (overflow is
           shed with a typed error);
        2. **quiesce** — the offcode's cooperative ``prepare_migrate``
           hook parks its thread of control at a safe point, then every
           attached RELIABLE channel is drained until its unacked queue
           is empty (bounded by ``drain_timeout_ns``) — the
           zero-loss/zero-duplicate path;
        3. **checkpoint** — an on-demand snapshot under the PR 4
           contract (:func:`~repro.core.checkpoint.capture_checkpoint`);
        4. **re-solve** — the ILP layout runs online with the source
           device banned for the victim (or the victim pinned to
           ``target``, which may be a standby device) and every survivor
           pinned in place;
        5. **restore + rewire** — the snapshot is applied on the
           destination, recovery hooks rewire data channels, leftover
           unacked messages are replayed (at-least-once fallback — empty
           whenever the drain in step 2 completed) and proxies are
           rebound to fresh channels;
        6. **release** — the holding gate reopens.

        Returns the :class:`~repro.resilience.migration.MigrationRecord`
        (also appended to :attr:`migrations` before the first side
        effect).  ``downtime_ns`` on the record measures fence-to-ready.
        Raises :class:`~repro.errors.MigrationError` on failure; the
        gate is always released first, so callers never deadlock.
        """
        bindname = offcode if isinstance(offcode, str) else offcode.bindname
        victim = self.get_offcode(bindname)
        source = victim.location
        if victim.state != OffcodeState.RUNNING:
            raise MigrationError(
                f"cannot migrate {bindname}: state is {victim.state}, "
                "not RUNNING")
        if target is not None:
            if target == source:
                raise MigrationError(
                    f"{bindname} already runs on {target}")
            if target != "host" and target not in self.machine.devices:
                raise MigrationError(
                    f"unknown migration target {target!r}")
            if target in self.failed_devices:
                raise MigrationError(
                    f"migration target {target} has failed")
        record = MigrationRecord(bindname=bindname, source=source,
                                 target=target,
                                 started_at_ns=self.sim.now)
        self.migrations.append(record)
        trace_emit(self.sim, "fault",
                   f"migrating {bindname} off {source} "
                   f"(target: {target or 'auto'})",
                   offcode=bindname, source=source)
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            span = tel.enter(f"migrate.{bindname}", "migrate",
                             f"runtime:{self.machine.name}",
                             offcode=bindname, source=source,
                             target=target or "auto")
        gate = HoldingGate(self.sim)
        proxies = list(self._proxies.get(bindname, ()))
        try:
            yield self._recovery_lock.request()
            try:
                yield from self._migrate_locked(
                    record, victim, target, gate, proxies,
                    prepare_timeout_ns, drain_timeout_ns, poll_ns)
            finally:
                self._recovery_lock.release()
            record.completed_at_ns = self.sim.now
            trace_emit(self.sim, "fault",
                       f"{bindname} migrated {source} -> "
                       f"{record.destination} "
                       f"(downtime {record.downtime_ns} ns, "
                       f"replayed {record.replayed})",
                       offcode=bindname)
            return record
        except Exception as exc:
            record.failed_at_ns = self.sim.now
            record.error = exc
            trace_emit(self.sim, "fault",
                       f"migration of {bindname} failed: {exc!r}",
                       offcode=bindname)
            if isinstance(exc, MigrationError):
                raise
            raise MigrationError(
                f"migration of {bindname} off {source} failed: "
                f"{exc!r}") from exc
        finally:
            # The gate must never outlive the attempt, success or not.
            gate.open()
            for proxy in proxies:
                if proxy.gate is gate:
                    proxy.gate = None
            record.shed = gate.shed
            record.held_peak = gate.held_peak
            if span is not None:
                tel.end(span, completed=record.completed,
                        destination=record.destination or "",
                        downtime_ns=record.downtime_ns or 0,
                        drained=record.drained,
                        replayed=record.replayed, shed=record.shed)

    def _migrate_locked(self, record: MigrationRecord, victim: Offcode,
                        target: Optional[str], gate: HoldingGate,
                        proxies: List[Proxy], prepare_timeout_ns: int,
                        drain_timeout_ns: int, poll_ns: int
                        ) -> Generator[Event, None, None]:
        bindname = record.bindname
        source = record.source
        tel = self.sim.telemetry

        def step(name: str):
            if tel is None:
                return None
            # Parent under the migrate root entered by migrate(), so the
            # whole cutover reads as one span tree.
            return tel.begin(f"migrate.{name}", "migrate",
                             f"runtime:{self.machine.name}",
                             parent=tel.current_ctx(),
                             offcode=bindname)

        def done(child) -> None:
            if child is not None:
                tel.end(child)

        # 1-2. Fence, then quiesce.
        child = step("quiesce")
        gate.close()
        for proxy in proxies:
            proxy.gate = gate
        record.quiesced_at_ns = self.sim.now
        yield from self._quiesce_for_migration(
            record, victim, prepare_timeout_ns, drain_timeout_ns, poll_ns)
        done(child)

        # 3. On-demand checkpoint (PR 4 snapshot contract).
        child = step("checkpoint")
        state = yield from capture_checkpoint(self, victim)
        done(child)

        # 4. Tear down: the shared eviction half captures the ODF closure
        # and every writer's unacked frames; the firmware port claim is
        # captured here for the handover in step 6.
        old_mux = getattr(victim, "port_mux", None)
        old_port = getattr(victim, "listen_port", None)
        child = step("teardown")
        documents, pending = self._evict(record, [bindname],
                                         list(victim.channels))
        done(child)

        # 5. Online re-solve: survivors pinned, the victim either pinned
        # to the requested target (standby devices become eligible via
        # ``allow``) or banned from its source.
        child = step("redeploy")
        allow = {target} if target not in (None, "host") else None
        pinned_extra = {bindname: target} if target is not None else None
        banned = {bindname: (source,)} if target is None else None
        report = yield from self.pipeline._deploy(
            documents, roots=[bindname], objective=None,
            pinned_extra=pinned_extra, allow=allow, banned=banned)
        record.placement = {name: report.location_of(name)
                            for name in report.offcodes}
        replacement = self.get_offcode(bindname)
        record.destination = replacement.location
        done(child)

        # 6. Restore state, hand over the firmware port claim, rewire
        # data channels (same hook contract as crash recovery), replay
        # whatever the drain could not confirm and rebind the proxies.
        child = step("restore")
        if state is not None and checkpointable(replacement):
            replacement.restore(state)
            record.restored = True
        if old_mux is not None and old_port is not None:
            if getattr(replacement, "port_mux", None) is not old_mux:
                release = getattr(old_mux, "release", None)
                if release is not None:
                    release(old_port)
        done(child)
        child = step("rewire")
        yield from self._rewire(source, record, pending)
        record.restored_at_ns = self.sim.now
        done(child)

    def _quiesce_for_migration(self, record: MigrationRecord,
                               victim: Offcode, prepare_timeout_ns: int,
                               drain_timeout_ns: int, poll_ns: int
                               ) -> Generator[Event, None, None]:
        """Cooperative park, then drain every unacked queue dry.

        When both succeed, the victim holds no in-flight reliable
        traffic: teardown loses nothing and replay has nothing to
        duplicate — the exactly-once path.  Timeouts degrade to the
        recovery semantics (at-least-once via capture + replay).
        """
        parked = self.sim.spawn(
            self._run_prepare(record, victim),
            name=f"migrate-prep-{victim.bindname}")
        yield self.sim.any_of(
            (parked, self.sim.clock.timeout(prepare_timeout_ns)))

        deadline = self.sim.now + drain_timeout_ns
        while self.sim.now < deadline:
            busy = [ch for ch in getattr(victim, "channels", ())
                    if not ch.closed and ch.unacked_messages()]
            if not busy:
                record.drained = True
                return
            yield self.sim.clock.timeout(poll_ns)
        record.drained = not any(
            not ch.closed and ch.unacked_messages()
            for ch in getattr(victim, "channels", ()))

    def _run_prepare(self, record: MigrationRecord, victim: Offcode
                     ) -> Generator[Event, None, None]:
        """Disposable wrapper for the duck-typed quiesce hook: a failing
        or hanging hook degrades the migration, never the simulator."""
        try:
            hook = getattr(victim, "prepare_migrate", None)
            if hook is None:
                return
            result = hook()
            if result is not None:
                yield from result
        except Exception as exc:
            record.hook_errors.append(repr(exc))
            trace_emit(self.sim, "fault",
                       f"prepare_migrate of {victim.bindname} failed: "
                       f"{exc!r}", offcode=victim.bindname)

    def document_of(self, bindname: str) -> OdfDocument:
        """The ODF a deployed Offcode came from."""
        try:
            return self._documents[bindname]
        except KeyError:
            raise HydraError(
                f"no deployed document for {bindname!r}") from None
