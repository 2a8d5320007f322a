"""Tests for the virtualization future-work module (paper Section 8)."""

import pytest

from repro import units
from repro.errors import ReproError
from repro.hostos import Kernel, UdpStack
from repro.hw import Machine, MachineSpec
from repro.net import Address, Switch
from repro.sim import RandomStreams, Simulator
from repro.virt import OffloadedVmm, SoftwareVmm


class VmmWorld:
    """A VMM host plus a traffic-generator host on one switch."""

    def __init__(self, vmm_cls, seed=21):
        self.sim = Simulator()
        rng = RandomStreams(seed)
        self.switch = Switch(self.sim, rng=rng.stream("switch"))
        # VMM host: kernel without background noise, NIC claimed by VMM.
        self.host = Machine(self.sim, MachineSpec(name="vmm-host"))
        self.kernel = Kernel(self.host, rng)
        nic = self.host.add_nic()
        transmit = self.switch.attach("vmm-host", nic.receive_packet)
        nic.attach_wire(transmit)
        self.vmm = vmm_cls(self.kernel, nic)
        self.vm_a = self.vmm.add_guest("vm-a", 1000, 1999)
        self.vm_b = self.vmm.add_guest("vm-b", 2000, 2999)
        # Generator host.
        gen = Machine(self.sim, MachineSpec(name="gen"))
        gen_kernel = Kernel(gen, rng)
        gen.add_nic()
        self.gen_stack = UdpStack(gen_kernel, "gen")
        self.gen_stack.attach_nic(gen.device("nic0"), self.switch)

    def blast(self, count, size=1024):
        sock = self.gen_stack.socket()
        sim = self.sim

        def sender():
            for i in range(count):
                port = 1000 + (i % 3) * 700   # 1000,1700,2400,...
                yield from sock.sendto(Address("vmm-host", port), size)
                yield sim.clock.timeout(200_000)

        sim.spawn(sender())
        sim.run(until=sim.now + units.s_to_ns(1))


def test_software_vmm_routes_to_correct_guests():
    world = VmmWorld(SoftwareVmm)
    world.blast(30)
    # Ports 1000/1700 -> vm-a, 2400 -> vm-b.
    assert world.vm_a.packets_received == 20
    assert world.vm_b.packets_received == 10
    assert world.vmm.delivered == 30


def test_offloaded_vmm_routes_identically():
    world = VmmWorld(OffloadedVmm)
    world.blast(30)
    assert world.vm_a.packets_received == 20
    assert world.vm_b.packets_received == 10
    assert world.vmm.delivered == 30


def test_offloaded_vmm_saves_host_cpu():
    results = {}
    for cls in (SoftwareVmm, OffloadedVmm):
        world = VmmWorld(cls)
        world.blast(50)
        busy = world.host.cpu.busy_by_context
        results[cls.__name__] = {
            "vmm": busy.get("vmm", 0) + busy.get("kernel-isr", 0)
            + busy.get("kernel-copy", 0),
            "guest": busy.get("guest-vm-a", 0) + busy.get("guest-vm-b", 0),
            "total": world.host.cpu.total_busy,
        }
    soft = results["SoftwareVmm"]
    offl = results["OffloadedVmm"]
    # Guest work is identical; the demux overhead is what disappears.
    assert soft["guest"] == offl["guest"]
    assert offl["vmm"] < soft["vmm"] / 3
    assert offl["total"] < soft["total"]


def test_offloaded_vmm_charges_device_cpu():
    world = VmmWorld(OffloadedVmm)
    world.blast(20)
    nic = world.host.device("nic0")
    assert nic.cpu.busy_by_context.get("vmm-offload", 0) > 0


def test_software_vmm_copies_through_cache():
    caches = {}
    for cls in (SoftwareVmm, OffloadedVmm):
        world = VmmWorld(cls)
        world.blast(20)
        caches[cls.__name__] = world.host.l2.stats.accesses
    # The software VMM's guest copies stream payloads through the L2.
    assert caches["SoftwareVmm"] > caches["OffloadedVmm"] + 20 * 16


def test_unroutable_packets_counted():
    world = VmmWorld(OffloadedVmm)
    sock = world.gen_stack.socket()

    def sender():
        yield from sock.sendto(Address("vmm-host", 9999), 100)

    world.sim.spawn(sender())
    world.sim.run(until=world.sim.now + units.s_to_ns(0.5))
    assert world.vmm.unroutable == 1
    assert world.vm_a.packets_received == 0


def test_overlapping_guest_ranges_rejected():
    world = VmmWorld(SoftwareVmm)
    with pytest.raises(ReproError):
        world.vmm.add_guest("vm-c", 1500, 2500)
    with pytest.raises(ReproError):
        world.vmm.add_guest("vm-d", 500, 400)
