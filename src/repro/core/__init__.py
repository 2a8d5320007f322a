"""The HYDRA framework — the paper's primary contribution.

Public surface, by concern:

* **Programming model**: :class:`~repro.core.offcode.Offcode`,
  :class:`~repro.core.interfaces.InterfaceSpec`,
  :class:`~repro.core.odf.OdfDocument`/:class:`~repro.core.odf.OdfLibrary`,
  :class:`~repro.core.proxy.Proxy`, :class:`~repro.core.call.Call`.
* **Channels**: :class:`~repro.core.channel.Channel` and its config
  enums, providers, and the
  :class:`~repro.core.executive.ChannelExecutive`.
* **Runtime**: :class:`~repro.core.runtime.HydraRuntime` (the
  Offloading Access Layer facade), the deployment pipeline, depot,
  loaders, hierarchical resources and memory services.
* **Layout optimization** (Section 5): :mod:`repro.core.layout`.
"""

from repro.errors import (
    DeviceFailedError,
    OffloadTimeoutError,
    RetryBudgetExceededError,
)
from repro.core.call import (
    BatchEntry,
    Call,
    CallBatch,
    CallPolicy,
    ReturnDescriptor,
    make_call,
)
from repro.core.channel import (
    BatchConfig,
    Buffering,
    Channel,
    ChannelConfig,
    ChannelKind,
    ChannelStats,
    CorruptedPayload,
    Endpoint,
    Message,
    Reliability,
    RetransmitConfig,
    SequencedMessage,
    SyncMode,
)
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointService,
    CheckpointStore,
    checkpointable,
)
from repro.core.deployment import (
    DeploymentPipeline,
    DeploymentReport,
    OOB_CHANNEL_CONFIG,
)
from repro.core.depot import DepotEntry, OffcodeDepot
from repro.core.devruntime import DeviceRuntime
from repro.core.executive import (
    BatcherStats,
    ChannelBatcher,
    ChannelExecutive,
)
from repro.core.guid import Guid, guid_from_name, parse_guid
from repro.core.interfaces import IOFFCODE, InterfaceSpec, MethodSpec
from repro.core.loader import (
    DeviceLinkedLoader,
    HostLinkedLoader,
    LoaderRegistry,
    LoadReport,
    OffcodeImage,
    compile_for_target,
)
from repro.core.memory import MemoryManager, PinnedRegion
from repro.core.odf import (
    DeviceClassFilter,
    OdfDocument,
    OdfImport,
    OdfLibrary,
    SoftwareRequirements,
)
from repro.core.offcode import Offcode, OffcodeState
from repro.core.providers import (
    CostMetric,
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
from repro.core.resources import FinalizerFailure, ResourceNode, ResourceTree
from repro.core.rings import Descriptor, DescriptorRing
from repro.core.runtime import (
    CleanupReport,
    DeploymentResult,
    DeploymentSpec,
    HydraRuntime,
    RecoveryIncident,
)
from repro.core.sites import DeviceSite, ExecutionSite, HostSite
from repro.core.watchdog import DeviceWatchdog, WatchdogConfig
from repro.core.wsdl import parse_wsdl, write_wsdl

__all__ = [
    "BatchConfig",
    "BatchEntry",
    "BatcherStats",
    "Buffering",
    "Call",
    "CallBatch",
    "CallPolicy",
    "Channel",
    "ChannelConfig",
    "ChannelBatcher",
    "ChannelExecutive",
    "ChannelExecutiveOffcode",
    "ChannelKind",
    "ChannelStats",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointService",
    "CheckpointStore",
    "CleanupReport",
    "CorruptedPayload",
    "CostMetric",
    "DeploymentPipeline",
    "DeploymentResult",
    "DeploymentReport",
    "DeploymentSpec",
    "DepotEntry",
    "Descriptor",
    "DescriptorRing",
    "DeviceClassFilter",
    "DeviceFailedError",
    "DeviceLinkedLoader",
    "DeviceRuntime",
    "DeviceSite",
    "DeviceWatchdog",
    "DmaChannelProvider",
    "Endpoint",
    "FinalizerFailure",
    "ExecutionSite",
    "Guid",
    "HeapOffcode",
    "HostLinkedLoader",
    "HostSite",
    "HydraRuntime",
    "IOFFCODE",
    "InterfaceSpec",
    "LoadReport",
    "LoaderRegistry",
    "LoopbackProvider",
    "MemoryManager",
    "Message",
    "MethodSpec",
    "OOB_CHANNEL_CONFIG",
    "OdfDocument",
    "OdfImport",
    "OdfLibrary",
    "Offcode",
    "OffcodeDepot",
    "OffcodeImage",
    "OffcodeState",
    "OffloadTimeoutError",
    "PeerDmaProvider",
    "PinnedRegion",
    "Proxy",
    "RecoveryIncident",
    "Reliability",
    "ResourceNode",
    "ResourceTree",
    "RetransmitConfig",
    "RetryBudgetExceededError",
    "ReturnDescriptor",
    "RuntimeOffcode",
    "SequencedMessage",
    "SoftwareRequirements",
    "SyncMode",
    "WatchdogConfig",
    "checkpointable",
    "compile_for_target",
    "guid_from_name",
    "make_call",
    "parse_guid",
    "parse_wsdl",
    "write_wsdl",
]
