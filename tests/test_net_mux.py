"""Tests for NicPortMux — firmware ports sharing a host-attached NIC."""

import pytest

from repro.errors import SocketError
from repro.hostos import Kernel, UdpStack
from repro.hw import Machine, MachineSpec
from repro.net import Address, Switch
from repro.net.devport import NicPortMux
from repro.sim import RandomStreams, Simulator


@pytest.fixture()
def world():
    sim = Simulator()
    rng = RandomStreams(5)
    switch = Switch(sim, rng=rng.stream("switch"))

    def host(name):
        machine = Machine(sim, MachineSpec(name=name))
        kernel = Kernel(machine, rng)
        machine.add_nic()
        stack = UdpStack(kernel, name)
        stack.attach_nic(machine.device("nic0"), switch)
        return machine, kernel, stack

    a = host("alpha")
    b = host("beta")
    return sim, switch, a, b


def run_for(sim, ms=50):
    sim.run(until=sim.now + ms * 1_000_000)


def test_mux_claims_bound_port_without_host(world):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = world
    mux = NicPortMux(ma.device("nic0"), "alpha")
    binding = mux.bind(7000)
    got = []

    def firmware():
        packet = yield from binding.recv()
        got.append(packet.payload)

    def sender():
        sock = sb.socket()
        yield from sock.sendto(Address("alpha", 7000), 512, payload="fw")

    sim.spawn(firmware())
    sim.spawn(sender())
    run_for(sim)
    assert got == ["fw"]
    assert mux.rx_packets == 1
    # The host stack never saw it: no interrupt-driven delivery.
    assert sa.rx_delivered == 0
    assert ma.cpu.busy_by_context.get("kernel-isr", 0) == 0


def test_mux_declines_unbound_port_to_host(world):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = world
    NicPortMux(ma.device("nic0"), "alpha")
    host_sock = sa.socket(8000)
    got = []

    def host_receiver():
        packet = yield from host_sock.recvfrom()
        got.append(packet.payload)

    def sender():
        sock = sb.socket()
        yield from sock.sendto(Address("alpha", 8000), 512, payload="host")

    sim.spawn(host_receiver())
    sim.spawn(sender())
    run_for(sim)
    assert got == ["host"]
    # The host path did its usual work.
    assert ma.cpu.busy_by_context.get("kernel-isr", 0) > 0


def test_mux_send_bypasses_host_cpu(world):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = world
    mux = NicPortMux(ma.device("nic0"), "alpha")
    peer_sock = sb.socket(9100)
    got = []

    def receiver():
        packet = yield from peer_sock.recvfrom()
        got.append((packet.src.host, packet.src.port, packet.payload))

    def firmware_sender():
        yield from mux.send(6000, Address("beta", 9100), 1024,
                            payload="from-device")

    sim.spawn(receiver())
    sim.spawn(firmware_sender())
    run_for(sim)
    assert got == [("alpha", 6000, "from-device")]
    assert mux.tx_packets == 1
    # Sender host CPU untouched; the receiving host paid normally.
    assert ma.cpu.total_busy == 0
    assert mb.cpu.total_busy > 0
    # No bus crossing on the sender (payload lived in device memory).
    assert ma.bus.total_crossings() == 0


def test_mux_duplicate_bind_rejected(world):
    sim, switch, (ma, ka, sa), _ = world
    mux = NicPortMux(ma.device("nic0"), "alpha")
    mux.bind(7000)
    with pytest.raises(SocketError):
        mux.bind(7000)
    ephemerals = {mux.bind().number for _ in range(4)}
    assert len(ephemerals) == 4


def test_mux_and_host_coexist(world):
    """Firmware and host traffic interleave on one NIC (the offloaded
    server's arrangement: NFS to the device, everything else up)."""
    sim, switch, (ma, ka, sa), (mb, kb, sb) = world
    mux = NicPortMux(ma.device("nic0"), "alpha")
    fw_binding = mux.bind(7000)
    host_sock = sa.socket(8000)
    fw_got, host_got = [], []

    def firmware():
        while True:
            packet = yield from fw_binding.recv()
            fw_got.append(packet)

    def host_receiver():
        while True:
            packet = yield from host_sock.recvfrom()
            host_got.append(packet)

    def sender():
        sock = sb.socket()
        for i in range(6):
            port = 7000 if i % 2 == 0 else 8000
            yield from sock.sendto(Address("alpha", port), 256)

    sim.spawn(firmware())
    sim.spawn(host_receiver())
    sim.spawn(sender())
    run_for(sim)
    assert len(fw_got) == 3
    assert len(host_got) == 3
    assert {p.dst.port for p in fw_got} == {7000}
    assert {p.dst.port for p in host_got} == {8000}
