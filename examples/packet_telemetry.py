#!/usr/bin/env python
"""In-network packet telemetry: sPIN handlers in the NIC's rx path.

A telemetry Offcode deploys onto a sPIN-capable NIC (its manifest
*requires* the ``spin`` feature) and installs a three-handler packet
program: the header handler counts flows and drops a denylisted port
in-network, every 10th packet escalates to the host for deep
inspection, and the payload handler's byte-walk cost is priced against
a per-packet cycle budget — jumbo frames would blow it, so the device
model punts them to the classic host path unrun.

Run:  python examples/packet_telemetry.py
"""

from repro.api import (
    Address,
    DeploymentSpec,
    DeviceClass,
    DeviceClassFilter,
    DROP,
    HydraRuntime,
    InterfaceSpec,
    Machine,
    MethodSpec,
    OdfDocument,
    Offcode,
    Packet,
    SoftwareRequirements,
    SPIN_FEATURE,
    SpinHandlers,
    Switch,
    Simulator,
    TO_HOST,
)

ITELEMETRY = InterfaceSpec.from_methods(
    "ITelemetry", (MethodSpec("Snapshot", params=(), result="any"),))

BLOCKED_PORT = 6667
SAMPLE_EVERY = 10


class TelemetryOffcode(Offcode):
    """Counts flows, filters and samples — from inside the NIC."""

    BINDNAME = "demo.Telemetry"
    INTERFACES = (ITELEMETRY,)

    def __init__(self, site, guid=None):
        super().__init__(site, guid)
        self.flows = {}
        self.seen = 0

    def on_start(self):
        yield from super().on_start()
        self.site.device.install_handlers(SpinHandlers(
            header=self.header, payload=lambda p: None,
            completion=lambda p: None))

    def header(self, packet):
        name = f"{packet.src.host}:{packet.src.port}"
        self.flows[name] = self.flows.get(name, 0) + 1
        if packet.dst.port == BLOCKED_PORT:
            return DROP                      # filtered in-network
        self.seen += 1
        if self.seen % SAMPLE_EVERY == 0:
            return TO_HOST                   # escalate for inspection
        return None                          # consumed on the NIC

    def Snapshot(self):
        yield from self.site.execute(500, context="snapshot")
        return sorted(self.flows.items())


def main():
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_spin_nic()
    runtime = HydraRuntime(machine)

    switch = Switch(sim)
    nic.attach_wire(switch.attach("appliance", nic.receive_packet))
    generator_tx = switch.attach("gen", lambda packet: None)

    odf = OdfDocument(
        bindname=TelemetryOffcode.BINDNAME,
        guid=TelemetryOffcode(runtime.host_site).guid,
        interfaces=[ITELEMETRY],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        requirements=SoftwareRequirements(features=(SPIN_FEATURE,)),
        image_bytes=24 * 1024)
    runtime.library.register("/offcodes/telemetry.odf", odf)
    runtime.depot.register(odf.guid, TelemetryOffcode)

    def application():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/telemetry.odf",)))
        telemetry = runtime.get_offcode(TelemetryOffcode.BINDNAME)
        print(f"telemetry deployed -> {telemetry.location} "
              f"(budget {nic.budget_ns:,} ns/packet)")

        for index in range(120):
            port = BLOCKED_PORT if index % 4 == 0 else 9000 + index % 4
            jumbo = index % 40 == 39         # blows the handler budget
            generator_tx(Packet(
                src=Address("gen", 5000 + index % 4),
                dst=Address("appliance", port),
                size_bytes=48_000 if jumbo else 1024,
                sent_at_ns=sim.now))
            yield sim.clock.timeout(10_000)        # ~line pacing
        yield sim.clock.timeout(2_000_000)         # drain

        snapshot = yield from result.proxy.Snapshot()
        print(f"flows observed: {len(snapshot)}")
        print(f"in-network: {nic.spin_consumed} consumed, "
              f"{nic.spin_dropped} dropped (denylist), "
              f"{nic.spin_to_host} escalated (sampling), "
              f"{nic.budget_overruns} over budget")
        print(f"host saw {nic.host_rx_ring.total_put} of "
              f"{nic.rx_packets} packets")
        assert nic.spin_handled + nic.budget_overruns == nic.rx_packets
        print("packet telemetry demo OK")

    sim.run_until_event(sim.spawn(application()))


if __name__ == "__main__":
    main()
