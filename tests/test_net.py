"""Tests for the network substrate: packets, links, switch, device ports."""

import pytest

from repro.errors import SimulationError, SocketError
from repro.hw import Bus, DeviceClass, DeviceSpec, ProgrammableDevice
from repro.net import (
    Address,
    DeviceNetPort,
    ETH_IP_UDP_HEADER_BYTES,
    Link,
    LinkSpec,
    Packet,
    Switch,
    SwitchSpec,
)
from repro.sim import Simulator


def packet(src="a", dst="b", size=1000, sport=1, dport=2, payload=None):
    return Packet(src=Address(src, sport), dst=Address(dst, dport),
                  size_bytes=size, payload=payload)


# -- packet ---------------------------------------------------------------------

def test_address_validation():
    with pytest.raises(ValueError):
        Address("", 5)
    with pytest.raises(ValueError):
        Address("h", 0)
    with pytest.raises(ValueError):
        Address("h", 70000)


def test_packet_wire_bytes_includes_headers():
    p = packet(size=1000)
    assert p.wire_bytes == 1000 + ETH_IP_UDP_HEADER_BYTES


def test_packet_validation():
    with pytest.raises(ValueError):
        packet(size=-1)
    with pytest.raises(ValueError):
        packet(size=100_000)


def test_packet_latency():
    p = packet()
    assert p.latency_ns() is None
    p.sent_at_ns = 100
    p.received_at_ns = 350
    assert p.latency_ns() == 250


# -- link ------------------------------------------------------------------------

def test_link_serialization_time_gigabit():
    sim = Simulator()
    link = Link(sim, lambda p: None,
                LinkSpec(bandwidth_bps=1e9, propagation_ns=0,
                         jitter_sigma_ns=0))
    p = packet(size=958)  # 1000 wire bytes
    assert link.serialization_ns(p) == 8000


def test_link_delivers_after_delay():
    sim = Simulator()
    out = []
    link = Link(sim, lambda p: out.append(sim.now),
                LinkSpec(bandwidth_bps=1e9, propagation_ns=500,
                         jitter_sigma_ns=0))
    link.send(packet(size=958))
    sim.run()
    assert out == [8500]
    assert link.packets_carried == 1
    # The wire carried bits for 8000 of the 8500 ns.
    assert link.utilization() == pytest.approx(8000 / 8500)


def test_link_fifo_spreads_burst():
    sim = Simulator()
    arrivals = []
    link = Link(sim, lambda p: arrivals.append(sim.now),
                LinkSpec(bandwidth_bps=1e9, propagation_ns=0,
                         jitter_sigma_ns=0))
    for _ in range(3):
        link.send(packet(size=958))
    sim.run()
    assert arrivals == [8000, 16000, 24000]


def test_link_spec_validation():
    with pytest.raises(SimulationError):
        LinkSpec(bandwidth_bps=0)
    with pytest.raises(SimulationError):
        LinkSpec(propagation_ns=-1)


# -- switch -----------------------------------------------------------------------

def make_switch(sim):
    spec = SwitchSpec(forwarding_ns=1000,
                      link=LinkSpec(bandwidth_bps=1e9, propagation_ns=0,
                                    jitter_sigma_ns=0))
    return Switch(sim, spec)


def test_switch_forwards_between_stations():
    sim = Simulator()
    switch = make_switch(sim)
    got = []
    tx_a = switch.attach("a", lambda p: got.append(("a", p)))
    switch.attach("b", lambda p: got.append(("b", p)))
    p = packet(src="a", dst="b")
    tx_a(p)
    sim.run()
    assert got == [("b", p)]
    assert switch.forwarded == 1


def test_switch_drops_unknown_destination():
    sim = Simulator()
    switch = make_switch(sim)
    tx_a = switch.attach("a", lambda p: None)
    tx_a(packet(src="a", dst="ghost"))
    sim.run()
    assert switch.dropped_unknown == 1
    assert switch.forwarded == 0


def test_switch_duplicate_station_rejected():
    sim = Simulator()
    switch = make_switch(sim)
    switch.attach("a", lambda p: None)
    with pytest.raises(SimulationError):
        switch.attach("a", lambda p: None)


def test_switch_latency_is_two_links_plus_forwarding():
    sim = Simulator()
    switch = make_switch(sim)
    arrivals = []
    tx_a = switch.attach("a", lambda p: None)
    switch.attach("b", lambda p: arrivals.append(sim.now))
    tx_a(packet(src="a", dst="b", size=958))
    sim.run()
    # 8000 (ingress) + 1000 (forwarding) + 8000 (egress)
    assert arrivals == [17000]


def test_switch_three_stations():
    sim = Simulator()
    switch = make_switch(sim)
    got = {name: [] for name in "abc"}
    txs = {name: switch.attach(name, lambda p, n=name: got[n].append(p))
           for name in "abc"}
    txs["a"](packet(src="a", dst="c"))
    txs["b"](packet(src="b", dst="a"))
    sim.run()
    assert len(got["c"]) == 1 and len(got["a"]) == 1 and got["b"] == []
    assert switch.stations() == ["a", "b", "c"]


# -- device port ---------------------------------------------------------------------

def make_device_port(sim, switch, station="dev"):
    bus = Bus(sim)
    spec = DeviceSpec(name=station, device_class=DeviceClass.NETWORK)
    device = ProgrammableDevice(sim, spec, bus)
    return DeviceNetPort(device, switch, station), device


def test_device_port_send_receive():
    sim = Simulator()
    switch = make_switch(sim)
    port_a, dev_a = make_device_port(sim, switch, "dev-a")
    port_b, dev_b = make_device_port(sim, switch, "dev-b")
    binding_b = port_b.bind(500)
    got = []

    def sender():
        yield from port_a.send(600, Address("dev-b", 500), 256, payload="hi")

    def receiver():
        pkt = yield from binding_b.recv()
        got.append((pkt.payload, sim.now))

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert got and got[0][0] == "hi"
    assert port_a.tx_packets == 1
    assert port_b.rx_packets == 1
    # Device CPUs were charged; no host CPU exists in this test at all.
    assert dev_a.cpu.total_busy > 0
    assert dev_b.cpu.total_busy > 0


def test_device_port_unclaimed_counted():
    sim = Simulator()
    switch = make_switch(sim)
    port_a, _ = make_device_port(sim, switch, "dev-a")
    port_b, _ = make_device_port(sim, switch, "dev-b")

    def sender():
        yield from port_a.send(600, Address("dev-b", 999), 256)

    sim.spawn(sender())
    sim.run()
    assert port_b.rx_unclaimed == 1


def test_device_port_duplicate_bind_rejected():
    sim = Simulator()
    switch = make_switch(sim)
    port, _ = make_device_port(sim, switch)
    port.bind(7)
    with pytest.raises(SocketError):
        port.bind(7)


def test_device_port_ephemeral_binds_unique():
    sim = Simulator()
    switch = make_switch(sim)
    port, _ = make_device_port(sim, switch)
    numbers = {port.bind().number for _ in range(5)}
    assert len(numbers) == 5
