#!/usr/bin/env python
"""Section 8 future work, built: VM packet demultiplexing on the NIC.

"Offload-capable devices could perform more efficiently some of the
tasks that are performed today on the host CPUs, such as multiplexing
incoming network packets directly to the destination virtual machine."

Two guests share one host.  A traffic generator sprays packets across
their port ranges; the same workload runs through a host-based VMM
(classify + copy on the host CPU) and a NIC-offloaded demux (classify
on the device, DMA straight into the guest buffer).  Guest work is
identical either way — the VMM overhead is what disappears.

Run:  python examples/vm_demux.py
"""

from repro.api import (
    Address,
    Kernel,
    Machine,
    MachineSpec,
    OffloadedVmm,
    RandomStreams,
    Simulator,
    SoftwareVmm,
    Switch,
    UdpStack,
    units,
)

PACKETS = 400
SIZE = 1024


def run(vmm_cls):
    sim = Simulator()
    rng = RandomStreams(7)
    switch = Switch(sim, rng=rng.stream("switch"))

    host = Machine(sim, MachineSpec(name="vmm-host"))
    kernel = Kernel(host, rng)
    nic = host.add_nic()
    nic.attach_wire(switch.attach("vmm-host", nic.receive_packet))
    vmm = vmm_cls(kernel, nic)
    vm_a = vmm.add_guest("web", 1000, 1999)
    vm_b = vmm.add_guest("db", 2000, 2999)

    generator = Machine(sim, MachineSpec(name="gen"))
    gen_stack = UdpStack(Kernel(generator, rng), "gen")
    generator.add_nic()
    gen_stack.attach_nic(generator.device("nic0"), switch)
    sock = gen_stack.socket()

    def blast():
        for i in range(PACKETS):
            port = 1000 + (i % 2) * 1000 + (i % 5)
            yield from sock.sendto(Address("vmm-host", port), SIZE)
            yield sim.clock.timeout(100_000)

    sim.spawn(blast())
    sim.run(until=units.s_to_ns(1))

    busy = host.cpu.busy_by_context
    demux_us = (busy.get("vmm", 0) + busy.get("kernel-isr", 0)
                + busy.get("kernel-copy", 0)) / 1000
    guest_us = (busy.get("guest-web", 0) + busy.get("guest-db", 0)) / 1000
    return {
        "delivered": vmm.delivered,
        "web": vm_a.packets_received,
        "db": vm_b.packets_received,
        "demux_us": demux_us,
        "guest_us": guest_us,
        "nic_us": nic.cpu.total_busy / 1000,
        "l2_accesses": host.l2.stats.accesses,
    }


def main():
    software = run(SoftwareVmm)
    offloaded = run(OffloadedVmm)
    header = (f"{'':12s}{'delivered':>10s}{'web/db':>10s}"
              f"{'demux CPU':>12s}{'guest CPU':>12s}{'NIC CPU':>10s}"
              f"{'L2 acc':>10s}")
    print(header)
    for label, r in (("software", software), ("offloaded", offloaded)):
        print(f"{label:12s}{r['delivered']:>10d}"
              f"{str(r['web']) + '/' + str(r['db']):>10s}"
              f"{r['demux_us']:>10.0f}us{r['guest_us']:>10.0f}us"
              f"{r['nic_us']:>8.0f}us{r['l2_accesses']:>10d}")
    assert software["web"] == offloaded["web"]
    assert software["db"] == offloaded["db"]
    assert offloaded["demux_us"] < software["demux_us"] / 3
    print("\nsame delivery, demux cost moved to the NIC — "
          "vm demux demo OK")


if __name__ == "__main__":
    main()
