"""The TiVoPC experimental testbed (Section 6.4).

Reproduces the paper's setup: "two 2.4 GHz Intel Pentium IV computers
with 512 MB RAM and 256 kB L2 cache ... interconnected by a Dell
PowerConnect 6024 Gigabit switch through a programmable 3Com 3C985B-SX
NIC", plus the NAS that stores the media.  Concretely:

* ``server`` — P4 host, programmable NIC, kernel + UDP stack, a HYDRA
  runtime (used by the offloaded server variant);
* ``client`` — P4 host with programmable NIC, GPU and "Smart Disk" (the
  paper's second programmable NIC exporting an NFS-backed block device,
  modelled as a storage-class device with its own switch station and a
  firmware NFS client);
* ``nas`` — a host running the NFS service;
* one gigabit switch connecting all stations.

Kernels start their timer ticks and idle daemons at :meth:`start`, so
the idle baselines of Tables 3/4 and Figure 10 exist before any server
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import units
from repro.core.checkpoint import CheckpointConfig
from repro.core.runtime import HydraRuntime
from repro.core.watchdog import WatchdogConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hostos.kernel import Kernel, KernelConfig
from repro.hw.bus import BusSpec
from repro.hostos.nfs import DeviceNfsClient, NFS_PORT, NfsServer
from repro.hostos.sockets import UdpStack
from repro.hw.machine import Machine, MachineSpec
from repro.hw.nic import NicSpec
from repro.media.mpeg import StreamConfig
from repro.net.devport import DeviceNetPort, NicPortMux
from repro.resilience import SupervisorConfig
from repro.net.packet import Address
from repro.net.switch import Switch, SwitchSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["TestbedConfig", "Host", "Testbed", "MEDIA_PORT"]

MEDIA_PORT = 9000


@dataclass(frozen=True)
class TestbedConfig:
    """Knobs of the experimental setup."""

    __test__ = False        # not a pytest test class, despite the name

    seed: int = 0
    stream: StreamConfig = field(default_factory=StreamConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    media_port: int = MEDIA_PORT
    movie_handle: str = "movie.mpg"
    recording_handle: str = "recording.mpg"
    # I/O bus of the client machine.  The default supports peer-to-peer
    # transfers; swap in BusSpec.pci_legacy() to study the paper's
    # footnote 2 (PCIe moves a packet to GPU *and* disk in one
    # transaction; classic PCI must stage through host memory).
    client_bus: BusSpec = field(default_factory=BusSpec)
    # Chaos knobs (both default off = byte-identical baseline runs).
    # ``fault_plan`` schedules failures; device targets are qualified
    # as "<host>.<device>" ("client.nic0") and bus targets as the host
    # name.  ``watchdog`` arms heartbeat monitoring on both HYDRA
    # runtimes.
    fault_plan: Optional[FaultPlan] = None
    watchdog: Optional[WatchdogConfig] = None
    # Periodic offcode checkpointing (Section 3.4 management channel):
    # when set, both runtimes snapshot checkpointable offcodes over OOB
    # into their depot stores so recovery can restore rather than
    # cold-start.
    checkpoint: Optional[CheckpointConfig] = None
    # End-to-end tracing (repro.telemetry): attaches a Telemetry hub
    # to the simulator, whose registry is the sim.metrics every
    # subsystem already counts into.  Off by default — the disabled
    # path costs one attribute check per instrumented site.
    telemetry: bool = False
    # Resilience knobs (repro.resilience).  ``standby_nic`` adds a
    # second programmable NIC ("nic1") to the client, registered as a
    # standby device: the layout solver never places on it unless a
    # migration explicitly targets it, so baseline placement stays
    # byte-identical.  ``supervisor`` arms the client runtime's
    # self-healing loop (quarantine, drain, admission control).
    standby_nic: bool = False
    supervisor: Optional[SupervisorConfig] = None
    # Event-queue implementation: "wheel" (default, the hierarchical
    # timer wheel) or "heap" (flat binary heap).  Both pop in identical
    # (time, priority, seq) order; the heap exists as the differential-
    # test reference (tests/test_sim_differential.py).
    scheduler: str = "wheel"


@dataclass
class Host:
    """One machine plus its OS-level attachments."""

    machine: Machine
    kernel: Kernel
    stack: UdpStack

    @property
    def name(self) -> str:
        """The machine's name."""
        return self.machine.name

    @property
    def nic(self):
        """The host's primary NIC."""
        return self.machine.device("nic0")


class Testbed:
    """The assembled two-hosts-plus-NAS world."""

    __test__ = False        # not a pytest test class, despite the name

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        self.sim = Simulator(scheduler=self.config.scheduler)
        self.rng = RandomStreams(self.config.seed)
        # Seed-derived named streams for any subsystem that wants its
        # own deterministic RNG (e.g. channel backoff jitter).
        self.sim.rng_streams = self.rng
        self.switch = Switch(self.sim, SwitchSpec(),
                             rng=self.rng.stream("switch"))

        self.nas = self._make_host("nas")
        self.server = self._make_host("server")
        self.client = self._make_host("client", bus=self.config.client_bus)

        # NAS service.
        self.nfs_server = NfsServer(self.nas.kernel, self.rng)

        # Client peripherals: GPU and the NFS-backed Smart Disk with its
        # own switch station (it is physically a second NIC).
        self.client_gpu = self.client.machine.add_gpu()
        self.client_disk = self.client.machine.add_disk()
        self.disk_port = DeviceNetPort(self.client_disk, self.switch,
                                       "client-disk")
        self.disk_nfs = DeviceNfsClient(self.disk_port, self.nas_address)
        self.client_disk.attach_backing(self.disk_nfs)

        # Standby migration target: a second programmable NIC on the
        # client, added before the runtime enumerates devices.  It is
        # deliberately *not* attached to the switch — a migrated network
        # Offcode keeps receiving through the primary NIC's firmware
        # port mux (claim() adopts the live binding and its buffered
        # frames), which is what makes the cutover lossless.
        if self.config.standby_nic:
            self.client.machine.add_nic(NicSpec(name="nic1"))

        # HYDRA runtimes for the offload-aware variants.
        self.server_runtime = HydraRuntime(self.server.machine,
                                           kernel=self.server.kernel)
        self.client_runtime = HydraRuntime(self.client.machine,
                                           kernel=self.client.kernel)
        if self.config.standby_nic:
            self.client_runtime.standby_devices.add("nic1")

        # Firmware port muxes (lazy: only offloaded variants claim them).
        self._server_mux: Optional[NicPortMux] = None
        self._client_mux: Optional[NicPortMux] = None
        self._started = False

        # Chaos plumbing: one injector over every device and bus in the
        # testbed, armed at start() when the config carries a plan.
        self.fault_injector: Optional[FaultInjector] = None
        if self.config.fault_plan is not None:
            devices = {f"{host.name}.{name}": device
                       for host in (self.nas, self.server, self.client)
                       for name, device in host.machine.devices.items()}
            buses = {host.name: host.machine.bus
                     for host in (self.nas, self.server, self.client)}
            self.fault_injector = FaultInjector(
                self.sim, self.config.fault_plan,
                devices=devices, buses=buses,
                executives=[self.server_runtime.executive,
                            self.client_runtime.executive],
                rng=self.rng.stream("faults"))

        # Telemetry hub (lazy import keeps the untraced path free of the
        # span machinery entirely).
        self.telemetry = None
        if self.config.telemetry:
            from repro.telemetry import Telemetry
            self.telemetry = Telemetry.attach(self.sim)

    # -- construction helpers ------------------------------------------------------

    def _make_host(self, name: str,
                   bus: Optional[BusSpec] = None) -> Host:
        machine = Machine(self.sim, MachineSpec(
            name=name, bus=bus or BusSpec()))
        kernel = Kernel(machine, self.rng, self.config.kernel)
        machine.add_nic()
        stack = UdpStack(kernel, name)
        stack.attach_nic(machine.device("nic0"), self.switch)
        return Host(machine=machine, kernel=kernel, stack=stack)

    # -- addresses --------------------------------------------------------------------

    @property
    def nas_address(self) -> Address:
        """The NFS service's (host, port)."""
        return Address("nas", NFS_PORT)

    @property
    def client_media_address(self) -> Address:
        """Where the media stream is sent."""
        return Address("client", self.config.media_port)

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Boot kernels (ticks + idle daemons) and the NFS service."""
        if self._started:
            return
        self._started = True
        self.server.kernel.start()
        self.client.kernel.start()
        self.nas.kernel.start(with_background=False)
        self.nfs_server.start()
        if self.config.watchdog is not None:
            self.server_runtime.start_watchdog(self.config.watchdog)
            self.client_runtime.start_watchdog(self.config.watchdog)
        if self.config.checkpoint is not None:
            self.server_runtime.start_checkpoints(self.config.checkpoint)
            self.client_runtime.start_checkpoints(self.config.checkpoint)
        if self.config.supervisor is not None:
            self.client_runtime.start_supervisor(self.config.supervisor)
        if self.fault_injector is not None:
            self.fault_injector.start()

    def server_mux(self) -> NicPortMux:
        """Firmware ports on the server NIC (offloaded server only)."""
        if self._server_mux is None:
            self._server_mux = NicPortMux(self.server.nic, "server")
        return self._server_mux

    def client_mux(self) -> NicPortMux:
        """Firmware ports on the client NIC (offloaded client only)."""
        if self._client_mux is None:
            self._client_mux = NicPortMux(self.client.nic, "client")
        return self._client_mux

    def run(self, seconds: float) -> None:
        """Advance simulated time by ``seconds``."""
        self.sim.run(until=self.sim.now + units.s_to_ns(seconds))
