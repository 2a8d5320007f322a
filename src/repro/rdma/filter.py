"""In-network packet telemetry: a sPIN handler offcode on the NIC.

The second non-video workload.  A :class:`FlowTelemetryOffcode` deploys
onto a :class:`~repro.hw.spin.SpinNic` (its ODF *requires* the ``spin``
feature, so the layout resolver can only place it on a handler-capable
NIC) and installs a three-handler packet program:

* **header** — per-flow packet/byte counters, denylist filtering
  (blocked destination ports DROP in-network), and 1-in-N sampling
  (every Nth packet escalates TO_HOST for deep inspection);
* **payload** — a checksum walk over the payload bytes (the part the
  cycle budget prices by size: jumbo frames would blow the per-packet
  budget, so the device model punts them to the host path unrun);
* **completion** — handled-packet bookkeeping.

Everything else — counters, flow table, the ``Snapshot`` control RPC —
is ordinary Offcode machinery; only the per-packet path runs in the
NIC's receive pipeline.  The host CPU sees exactly the sampled and
over-budget packets, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core.odf import (DeviceClassFilter, OdfDocument,
                            SoftwareRequirements)
from repro.core.offcode import Offcode
from repro.core.runtime import DeploymentSpec, HydraRuntime
from repro.hw import DeviceClass, Machine
from repro.hw.spin import DROP, SPIN_FEATURE, TO_HOST, SpinHandlers
from repro.net.packet import Address, Packet
from repro.net.switch import Switch
from repro.sim.engine import Event, Simulator
from repro.telemetry.metrics import Law

__all__ = ["ITELEMETRY", "FlowTelemetryOffcode", "FilterWorld",
           "build_filter_world", "run_filter_scenario"]

# Every packet the NIC received ran through the handlers or was punted
# to the host path over the cycle budget.
FILTER_LAW = Law(
    total="rx_packets", parts=("spin_handled", "budget_overruns"),
    leak="sPIN filter leaks packets: rx {rx_packets} != handled "
         "{spin_handled} + over budget {budget_overruns}")

ITELEMETRY = InterfaceSpec.from_methods(
    "IFlowTelemetry",
    (MethodSpec("Snapshot", params=(), result="any"),
     MethodSpec("Block", params=(("port", "int"),), result="bool"),
     MethodSpec("SetSampling", params=(("every", "int"),), result="bool")))


class FlowTelemetryOffcode(Offcode):
    """Counts, filters and samples flows from inside the NIC."""

    BINDNAME = "rdma.FlowTelemetry"
    INTERFACES = (ITELEMETRY,)

    def __init__(self, site, guid=None) -> None:
        super().__init__(site, guid)
        self.flows: Dict[Tuple, List[int]] = {}   # flow -> [pkts, bytes]
        self.blocked_ports: set = set()
        self.sample_every = 0                     # 0 = no sampling
        self._seen = 0

    # -- lifecycle -----------------------------------------------------------------

    def on_start(self) -> Generator[Event, None, None]:
        """Install the packet program on the hosting SpinNic."""
        yield from super().on_start()
        device = getattr(self.site, "device", None)
        if device is not None and hasattr(device, "install_handlers"):
            device.install_handlers(SpinHandlers(
                header=self._header, payload=self._payload,
                completion=self._completion))

    # -- the packet program (runs in the NIC's rx path) -----------------------------

    def _header(self, packet) -> Optional[str]:
        flow = packet.flow()
        stats = self.flows.setdefault(flow, [0, 0])
        stats[0] += 1
        stats[1] += packet.size_bytes
        if packet.dst.port in self.blocked_ports:
            return DROP
        self._seen += 1
        if self.sample_every and self._seen % self.sample_every == 0:
            return TO_HOST
        return None

    def _payload(self, packet) -> Optional[str]:
        # The checksum itself is modeled cost (payload_ns_per_byte);
        # logic-wise the packet is simply absorbed in-network.
        return None

    def _completion(self, packet) -> None:
        """Nothing to record; the NIC still charges ``completion_ns``."""

    # -- IFlowTelemetry --------------------------------------------------------------

    def Snapshot(self):
        """Per-flow counters as rows (marshal-friendly, no tuple keys)."""
        yield from self.site.execute(500 + 50 * len(self.flows),
                                     context="telemetry-snapshot")
        return [[src_h, src_p, dst_h, dst_p, stats[0], stats[1]]
                for (src_h, src_p, dst_h, dst_p), stats
                in sorted(self.flows.items())]

    def Block(self, port):
        yield from self.site.execute(300, context="telemetry-config")
        self.blocked_ports.add(port)
        return True

    def SetSampling(self, every):
        yield from self.site.execute(300, context="telemetry-config")
        self.sample_every = max(0, every)
        return True


@dataclass
class FilterWorld:
    """The wired-up appliance: SpinNic on a switch, offcode deployed."""

    sim: Simulator
    machine: Machine
    runtime: HydraRuntime
    nic: object
    switch: Switch
    gen_tx: object = None
    telemetry: Optional[FlowTelemetryOffcode] = None
    proxy: object = None
    report: dict = field(default_factory=dict)


def build_filter_world() -> FilterWorld:
    """An appliance whose SpinNic sits on a switch next to a generator."""
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_spin_nic()
    runtime = HydraRuntime(machine)
    switch = Switch(sim)
    # The NIC is the appliance's station; the traffic generator is a
    # bare station that never receives.
    transmit = switch.attach("appliance", nic.receive_packet)
    nic.attach_wire(transmit)
    gen_tx = switch.attach("gen", lambda packet: None)
    odf = OdfDocument(
        bindname=FlowTelemetryOffcode.BINDNAME,
        guid=FlowTelemetryOffcode(runtime.host_site).guid,
        interfaces=[ITELEMETRY],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        requirements=SoftwareRequirements(features=(SPIN_FEATURE,)),
        image_bytes=24 * 1024)
    runtime.library.register("/offcodes/flow_telemetry.odf", odf)
    runtime.depot.register(odf.guid, FlowTelemetryOffcode)
    return FilterWorld(sim=sim, machine=machine, runtime=runtime,
                       nic=nic, switch=switch, gen_tx=gen_tx)


def deploy_filter(world: FilterWorld) -> Generator[Event, None, None]:
    """Deploy the telemetry offcode onto the SpinNic."""
    result = yield from world.runtime.deploy(
        DeploymentSpec(odf_paths=("/offcodes/flow_telemetry.odf",)))
    world.proxy = result.proxy
    world.telemetry = world.runtime.get_offcode(
        FlowTelemetryOffcode.BINDNAME)
    world.report["placement"] = world.telemetry.location


def run_filter_scenario(packets: int = 400, flows: int = 8,
                        sample_every: int = 10,
                        blocked_port: int = 6667,
                        jumbo_every: int = 50) -> dict:
    """Blast flows at the appliance; telemetry never wakes the host.

    A mix of ordinary 1 KB datagrams across ``flows`` flows (one of
    which targets the blocked port), plus a jumbo frame every
    ``jumbo_every`` packets whose payload-walk cost exceeds the handler
    budget (punted to the host path by the device model).
    """
    world = build_filter_world()
    sim = world.sim
    nic = world.nic

    def application():
        yield from deploy_filter(world)
        yield from world.proxy.Block(blocked_port)
        yield from world.proxy.SetSampling(sample_every)
        started = sim.now
        host_cpu_before = world.machine.cpu.total_busy
        for index in range(packets):
            flow_id = index % flows
            port = blocked_port if flow_id == 0 else 9000 + flow_id
            jumbo = jumbo_every and index % jumbo_every == jumbo_every - 1
            packet = Packet(
                src=Address("gen", 5000 + flow_id),
                dst=Address("appliance", port),
                size_bytes=48_000 if jumbo else 1024,
                sent_at_ns=sim.now)
            world.gen_tx(packet)
            # Line pacing: ~1 kB at gigabit every ~10 µs.
            yield sim.clock.timeout(10_000)
        # Drain the last frames through the switch and the NIC.
        yield sim.clock.timeout(2_000_000)
        elapsed_ns = sim.now - started
        host_cpu = world.machine.cpu.total_busy - host_cpu_before
        snapshot = yield from world.proxy.Snapshot()
        world.report.update(
            packets=packets,
            elapsed_ns=elapsed_ns,
            flows_observed=len(snapshot),
            flow_rows=snapshot,
            spin_handled=nic.spin_handled,
            spin_dropped=nic.spin_dropped,
            spin_to_host=nic.spin_to_host,
            spin_consumed=nic.spin_consumed,
            budget_overruns=nic.budget_overruns,
            handler_ns_total=nic.handler_ns_total,
            host_rx_packets=nic.host_rx_ring.total_put,
            host_cpu_ns=host_cpu,
            rx_packets=nic.rx_packets,
            sim_ns=sim.now, events=sim.events_processed)

    sim.run_until_event(sim.spawn(application()))
    report = world.report
    report["accounted"] = not FILTER_LAW.check(report)
    return report
