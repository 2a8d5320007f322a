"""The blessed public surface of the reproduction, in one import.

The facade holds what the examples and docs read::

    from repro.api import (Simulator, Machine, HydraRuntime,
                           DeploymentSpec, ChannelConfig, CallPolicy)

Everything else is imported from its subpackage (:mod:`repro.core`,
:mod:`repro.hw`, :mod:`repro.faults`, ...), whose ``__all__`` lists it.
A name joins the facade when an example or a doc starts reading it.

The surface groups by concern:

* **Simulation** — :class:`Simulator`, :class:`RandomStreams` and the
  blessed scheduling surface ``sim.clock`` (:class:`Clock`:
  ``after``/``at``/``every``/``timeout``/``fence``, returning
  cancellable :class:`Timer` handles).
* **Hardware** — :class:`Machine`, device classes and NIC specs, and
  the sPIN handler constants.
* **Host OS / network** — the simulated kernel, UDP stack and switch.
* **Programming model** — :class:`HydraRuntime`,
  :class:`DeploymentSpec`, Offcodes, interfaces, ODF manifests (and
  :func:`parse_wsdl`), proxies and :class:`CallPolicy`.
* **Channels** — the fluent :class:`ChannelConfig` builder and
  :class:`BatchConfig` watermarks.
* **Layout optimization** — the Section-5 solvers and objectives.
* **Fault injection** — the seeded chaos soak (:func:`soak`,
  :class:`ChaosProfile`).
* **Telemetry** — the :class:`Telemetry` hub; exporters live in
  :mod:`repro.telemetry.export`.
* **Virtualization** — the Section-8 VMM demultiplexing sketch.
* **TiVoPC case study** — testbed, servers, clients, the population
  model and the sharded fleet.
"""

from __future__ import annotations

# -- simulation -------------------------------------------------------------------
from repro import units
from repro.sim import Clock, RandomStreams, Simulator, Timer

# -- hardware ---------------------------------------------------------------------
from repro.hw import DeviceClass, HOST_MEMORY, Machine, MachineSpec, NicSpec
from repro.hw.spin import DROP, SPIN_FEATURE, TO_HOST, SpinHandlers
from repro.rdma import RDMA_FEATURE

# -- host OS and network -----------------------------------------------------------
from repro.hostos import Kernel, UdpStack
from repro.net import Address, Packet, Switch

# -- programming model --------------------------------------------------------------
from repro.core import (
    CallPolicy,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    Proxy,
    parse_wsdl,
)
from repro.core.odf import (
    DeviceClassFilter,
    OdfDocument,
    SoftwareRequirements,
)
from repro.core.runtime import DeploymentSpec, HydraRuntime
from repro.core.sites import DeviceSite

# -- channels ---------------------------------------------------------------------------
from repro.core.channel import BatchConfig, ChannelConfig

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
    ScipyMilpSolver,
    TrafficMatrix,
)

# -- fault injection -------------------------------------------------------------------
from repro.faults.chaos import ChaosProfile, soak

# -- telemetry ---------------------------------------------------------------------------
from repro.telemetry import Telemetry

# -- virtualization --------------------------------------------------------------------
from repro.virt import OffloadedVmm, SoftwareVmm

# -- the TiVoPC case study and the sharded fleet ------------------------------------------
from repro.tivopc import (
    GuiController,
    JitterCollector,
    OffloadedClient,
    OffloadedServer,
    PopulationConfig,
    Testbed,
    TestbedConfig,
)
from repro.evaluation.fleet import FleetConfig, run_fleet

__all__ = [
    # simulation
    "Clock",
    "RandomStreams",
    "Simulator",
    "Timer",
    "units",
    # hardware
    "DeviceClass",
    "HOST_MEMORY",
    "Machine",
    "MachineSpec",
    "NicSpec",
    "RDMA_FEATURE",
    # sPIN NIC handlers
    "DROP",
    "SPIN_FEATURE",
    "SpinHandlers",
    "TO_HOST",
    # host OS and network
    "Address",
    "Kernel",
    "Packet",
    "Switch",
    "UdpStack",
    # programming model
    "CallPolicy",
    "DeploymentSpec",
    "DeviceClassFilter",
    "DeviceSite",
    "HydraRuntime",
    "InterfaceSpec",
    "MethodSpec",
    "OdfDocument",
    "Offcode",
    "Proxy",
    "SoftwareRequirements",
    "parse_wsdl",
    # channels
    "BatchConfig",
    "ChannelConfig",
    # layout optimization
    "BranchAndBoundSolver",
    "BusCapabilityMatrix",
    "ConstraintType",
    "GreedySolver",
    "LayoutGraph",
    "MaximizeBusUsage",
    "MaximizeOffloading",
    "MinimizeBusCrossings",
    "ScipyMilpSolver",
    "TrafficMatrix",
    # fault injection
    "ChaosProfile",
    "soak",
    # telemetry
    "Telemetry",
    # virtualization
    "OffloadedVmm",
    "SoftwareVmm",
    # TiVoPC and the sharded fleet
    "FleetConfig",
    "GuiController",
    "JitterCollector",
    "OffloadedClient",
    "OffloadedServer",
    "PopulationConfig",
    "Testbed",
    "TestbedConfig",
    "run_fleet",
]
