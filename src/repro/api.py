"""The blessed public surface of the reproduction, in one import.

Everything an application, example, or notebook needs lives here::

    from repro.api import (Simulator, Machine, HydraRuntime,
                           DeploymentSpec, ChannelConfig, CallPolicy)

The deeper packages (:mod:`repro.core`, :mod:`repro.hw`, ...) remain
importable for framework development, but this module is the stable
contract: names re-exported here follow deprecation policy (a
:class:`DeprecationWarning` for at least one release before removal),
names elsewhere may move without notice.

The surface groups by concern:

* **Simulation** — :class:`Simulator`, :class:`RandomStreams`, the
  waitable primitives, and the blessed scheduling surface
  ``sim.clock`` (:class:`Clock`: ``after``/``at``/``every``/
  ``timeout``/``fence``, returning cancellable :class:`Timer`
  handles).
* **Hardware** — :class:`Machine` and the programmable-device zoo.
* **Host OS / network** — the simulated kernel, UDP stack and switch.
* **Programming model** — :class:`HydraRuntime`,
  :class:`DeploymentSpec`, Offcodes, interfaces, ODF manifests,
  proxies and :class:`CallPolicy`.
* **Channels & batching** — the fluent :class:`ChannelConfig` builder,
  :class:`BatchConfig` watermarks, :class:`CallBatch` and the
  executive-side :class:`ChannelBatcher`.
* **Layout optimization** — the Section-5 solvers and objectives.
* **Fault injection & recovery** — :class:`FaultPlan`,
  :class:`FaultInjector`, the device watchdog, periodic checkpointing
  (:class:`CheckpointConfig`) and the seeded chaos soak
  (:func:`run_chaos_scenario`, :func:`soak`, the named ``PROFILES``).
* **Resilience** — live offcode migration
  (:meth:`HydraRuntime.migrate`, :class:`MigrationRecord`) and the
  self-healing supervisor (:class:`SupervisorConfig`,
  :class:`AdmissionController`).
* **Telemetry** — the :class:`Telemetry` hub (causal spans +
  :class:`MetricsRegistry`); exporters live in
  :mod:`repro.telemetry.export`.
* **TiVoPC case study** — testbed, servers, clients and metrics.
"""

from __future__ import annotations

# -- simulation -------------------------------------------------------------------
from repro import units
from repro.sim import (
    AllOf,
    AnyOf,
    Clock,
    Event,
    Process,
    RandomStreams,
    Resource,
    Simulator,
    Store,
    Timeout,
    Timer,
)

# -- hardware ---------------------------------------------------------------------
from repro.hw import (
    Bus,
    BusSpec,
    DeviceClass,
    DeviceSpec,
    Gpu,
    GpuSpec,
    HOST_MEMORY,
    Machine,
    MachineSpec,
    Nic,
    NicSpec,
    ProgrammableDevice,
    SmartDisk,
)
from repro.hw.spin import (
    DROP,
    SPIN_FEATURE,
    TO_HOST,
    SpinHandlers,
    SpinNic,
    SpinNicSpec,
)

# -- host OS and network -----------------------------------------------------------
from repro.hostos import Kernel, KernelConfig, NfsServer, UdpStack
from repro.net import Address, Link, Packet, Switch

# -- programming model --------------------------------------------------------------
from repro.core import (
    Call,
    CallPolicy,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    OffcodeDepot,
    OffcodeState,
    Proxy,
    guid_from_name,
    make_call,
    parse_wsdl,
)
from repro.core.odf import (
    DeviceClassFilter,
    OdfDocument,
    OdfImport,
    OdfLibrary,
    SoftwareRequirements,
)
from repro.core.runtime import (
    CleanupReport,
    DeploymentResult,
    DeploymentSpec,
    HydraRuntime,
    RecoveryIncident,
)
from repro.core.sites import DeviceSite, ExecutionSite, HostSite

# -- channels and vectored batching ---------------------------------------------------
from repro.core.call import BatchEntry, CallBatch
from repro.core.channel import (
    BatchConfig,
    Buffering,
    Channel,
    ChannelConfig,
    ChannelKind,
    ChannelStats,
    Endpoint,
    Message,
    Reliability,
    RetransmitConfig,
    SyncMode,
)
from repro.core.executive import (
    BatcherStats,
    ChannelBatcher,
    ChannelExecutive,
)
from repro.core.providers import CostMetric

# -- one-sided RDMA substrate ---------------------------------------------------------
from repro.rdma import (
    RDMA_FEATURE,
    Completion,
    CompletionQueue,
    QueuePair,
    RdmaProvider,
    RdmaRegion,
    RdmaStats,
    WorkRequest,
)

# -- layout optimization (Section 5) --------------------------------------------------
from repro.core.layout import (
    BranchAndBoundSolver,
    BusCapabilityMatrix,
    ConstraintType,
    GreedySolver,
    LayoutGraph,
    MaximizeBusUsage,
    MaximizeOffloading,
    MinimizeBusCrossings,
    MinimizeHostCpu,
    Objective,
    ScipyMilpSolver,
    TrafficMatrix,
)

# -- fault injection and recovery ------------------------------------------------------
from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointService,
    CheckpointStore,
)
from repro.core.watchdog import DeviceWatchdog, WatchdogConfig
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.faults.chaos import (
    PROFILES,
    ChaosProfile,
    ChaosReport,
    run_chaos_scenario,
    soak,
)

# -- resilience: live migration and self-healing -----------------------------------------
from repro.resilience import (
    AdmissionController,
    HoldingGate,
    MigrationRecord,
    Supervisor,
    SupervisorConfig,
)

# -- telemetry ---------------------------------------------------------------------------
from repro.telemetry import (
    MetricsRegistry,
    Span,
    SpanContext,
    Telemetry,
    merge_snapshots,
)

# -- virtualization --------------------------------------------------------------------
from repro.virt import OffloadedVmm, SoftwareVmm

# -- the TiVoPC case study --------------------------------------------------------------
from repro.tivopc import (
    GuiController,
    JitterCollector,
    MeasurementClient,
    OffloadedClient,
    OffloadedServer,
    PopulationConfig,
    SummaryStats,
    Testbed,
    TestbedConfig,
    UserSpaceClient,
    run_population,
    validate_fidelity,
)

# -- fleet-scale sharded runs ------------------------------------------------------------
from repro.evaluation.fleet import (
    FleetConfig,
    FleetReport,
    config_fingerprint,
    run_fleet,
    shard_seed,
)
from repro.evaluation.supervised import (
    SupervisedPool,
    SupervisionPolicy,
)
from repro.faults.fleet import FleetChaos

# -- errors ------------------------------------------------------------------------------
from repro.errors import (
    AdmissionShedError,
    ChannelError,
    DeploymentError,
    DeviceFailedError,
    HydraError,
    MigrationError,
    OffloadTimeoutError,
    ProviderError,
    RdmaError,
    RetryBudgetExceededError,
)

__all__ = [
    # simulation
    "AllOf",
    "AnyOf",
    "Clock",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
    "Timer",
    "units",
    # hardware
    "Bus",
    "BusSpec",
    "DeviceClass",
    "DeviceSpec",
    "Gpu",
    "GpuSpec",
    "HOST_MEMORY",
    "Machine",
    "MachineSpec",
    "Nic",
    "NicSpec",
    "ProgrammableDevice",
    "SmartDisk",
    # host OS and network
    "Address",
    "Kernel",
    "KernelConfig",
    "Link",
    "NfsServer",
    "Packet",
    "Switch",
    "UdpStack",
    # programming model
    "Call",
    "CallPolicy",
    "CleanupReport",
    "DeploymentResult",
    "DeploymentSpec",
    "DeviceClassFilter",
    "DeviceSite",
    "ExecutionSite",
    "HostSite",
    "HydraRuntime",
    "InterfaceSpec",
    "MethodSpec",
    "OdfDocument",
    "OdfImport",
    "OdfLibrary",
    "Offcode",
    "OffcodeDepot",
    "OffcodeState",
    "Proxy",
    "RecoveryIncident",
    "SoftwareRequirements",
    "guid_from_name",
    "make_call",
    "parse_wsdl",
    # channels and batching
    "BatchConfig",
    "BatchEntry",
    "BatcherStats",
    "Buffering",
    "CallBatch",
    "Channel",
    "ChannelBatcher",
    "ChannelConfig",
    "ChannelExecutive",
    "ChannelKind",
    "ChannelStats",
    "CostMetric",
    "Endpoint",
    "Message",
    "Reliability",
    "RetransmitConfig",
    "SyncMode",
    # layout optimization
    "BranchAndBoundSolver",
    "BusCapabilityMatrix",
    "ConstraintType",
    "GreedySolver",
    "LayoutGraph",
    "MaximizeBusUsage",
    "MaximizeOffloading",
    "MinimizeBusCrossings",
    "MinimizeHostCpu",
    "Objective",
    "ScipyMilpSolver",
    "TrafficMatrix",
    # fault injection and recovery
    "ChaosProfile",
    "ChaosReport",
    "CheckpointConfig",
    "CheckpointService",
    "CheckpointStore",
    "DeviceWatchdog",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "PROFILES",
    "WatchdogConfig",
    "run_chaos_scenario",
    "soak",
    # resilience: live migration and self-healing
    "AdmissionController",
    "HoldingGate",
    "MigrationRecord",
    "Supervisor",
    "SupervisorConfig",
    # telemetry
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Telemetry",
    "merge_snapshots",
    # virtualization
    "OffloadedVmm",
    "SoftwareVmm",
    # TiVoPC
    "GuiController",
    "JitterCollector",
    "MeasurementClient",
    "OffloadedClient",
    "OffloadedServer",
    "PopulationConfig",
    "SummaryStats",
    "Testbed",
    "TestbedConfig",
    "UserSpaceClient",
    "run_population",
    "validate_fidelity",
    # fleet-scale sharded runs
    "FleetChaos",
    "FleetConfig",
    "FleetReport",
    "SupervisedPool",
    "SupervisionPolicy",
    "config_fingerprint",
    "run_fleet",
    "shard_seed",
    # errors
    "AdmissionShedError",
    "ChannelError",
    "DeploymentError",
    "DeviceFailedError",
    "HydraError",
    "MigrationError",
    "OffloadTimeoutError",
    "ProviderError",
    "RdmaError",
    "RetryBudgetExceededError",
    # one-sided RDMA substrate
    "Completion",
    "CompletionQueue",
    "QueuePair",
    "RDMA_FEATURE",
    "RdmaProvider",
    "RdmaRegion",
    "RdmaStats",
    "WorkRequest",
    # sPIN NIC handlers
    "DROP",
    "SPIN_FEATURE",
    "SpinHandlers",
    "SpinNic",
    "SpinNicSpec",
    "TO_HOST",
]
