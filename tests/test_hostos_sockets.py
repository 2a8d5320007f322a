"""Tests for the UDP stack and the NFS substrate."""

import pytest

from repro import units
from repro.errors import SocketError
from repro.hostos import (
    DeviceNfsClient,
    HostNfsClient,
    Kernel,
    NFS_PORT,
    NfsServer,
    RemoteFile,
    UdpStack,
)
from repro.hw import Machine, MachineSpec
from repro.net import Address, DeviceNetPort, Switch
from repro.sim import RandomStreams, Simulator


def make_host(sim, switch, name, rng, background=False):
    """A machine with kernel + NIC + UDP stack attached to the switch."""
    machine = Machine(sim, MachineSpec(name=name))
    kernel = Kernel(machine, rng)
    nic = machine.add_nic()
    stack = UdpStack(kernel, name)
    stack.attach_nic(nic, switch)
    kernel.start(with_background=background)
    return machine, kernel, stack


@pytest.fixture()
def two_hosts():
    sim = Simulator()
    rng = RandomStreams(11)
    switch = Switch(sim, rng=rng.stream("switch"))
    a = make_host(sim, switch, "alpha", rng)
    b = make_host(sim, switch, "beta", rng)
    return sim, switch, a, b


# -- UDP ----------------------------------------------------------------------------

def test_udp_end_to_end(two_hosts):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = two_hosts
    server_sock = sb.socket(5000)
    client_sock = sa.socket()
    got = {}

    def server():
        pkt = yield from server_sock.recvfrom()
        got["payload"] = pkt.payload
        got["src"] = pkt.src

    def client():
        yield from client_sock.sendto(Address("beta", 5000), 1024,
                                      payload="movie-chunk")

    sim.spawn(server())
    sim.spawn(client())
    sim.run(until=units.s_to_ns(0.05))
    assert got["payload"] == "movie-chunk"
    assert got["src"].host == "alpha"
    assert server_sock.rx_packets == 1
    assert client_sock.tx_packets == 1


def test_udp_receive_charges_receiver_cpu(two_hosts):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = two_hosts
    server_sock = sb.socket(5000)
    client_sock = sa.socket()

    def server():
        yield from server_sock.recvfrom()

    def client():
        yield from client_sock.sendto(Address("beta", 5000), 1024)

    sim.spawn(server())
    sim.spawn(client())
    sim.run(until=units.s_to_ns(0.05))
    assert mb.cpu.busy_by_context.get("kernel-isr", 0) > 0
    assert mb.cpu.busy_by_context.get("kernel-net", 0) > 0


def test_udp_gather_send_cheaper_than_copying(two_hosts):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = two_hosts
    sock = sa.socket()
    sb.socket(5000)  # bound so frames are delivered
    cost = {}

    def run(kind):
        before = ma.cpu.total_busy
        if kind == "copy":
            yield from sock.sendto(Address("beta", 5000), 4096)
        else:
            yield from sock.sendto_gather(Address("beta", 5000), 4096)
        cost[kind] = ma.cpu.total_busy - before

    def driver():
        yield from run("copy")
        yield from run("gather")

    sim.spawn(driver())
    sim.run(until=units.s_to_ns(0.05))
    assert cost["gather"] < cost["copy"]


def test_udp_port_collision_rejected(two_hosts):
    sim, switch, (ma, ka, sa), _ = two_hosts
    sa.socket(7000)
    with pytest.raises(SocketError):
        sa.socket(7000)


def test_udp_closed_socket_rejected(two_hosts):
    sim, switch, (ma, ka, sa), _ = two_hosts
    sock = sa.socket(7000)
    sock.close()
    with pytest.raises(SocketError):
        next(sock.sendto(Address("beta", 1), 10))
    # Port is free again after close.
    sa.socket(7000)


def test_udp_unbound_port_counted(two_hosts):
    sim, switch, (ma, ka, sa), (mb, kb, sb) = two_hosts
    sock = sa.socket()

    def client():
        yield from sock.sendto(Address("beta", 9999), 100)

    sim.spawn(client())
    sim.run(until=units.s_to_ns(0.05))
    assert sb.rx_no_listener == 1


def test_attach_two_nics_rejected(two_hosts):
    sim, switch, (ma, ka, sa), _ = two_hosts
    # A second attach on the same stack must fail.
    with pytest.raises(SocketError):
        sa.attach_nic(ma.device("nic0"), switch)


# -- NFS -------------------------------------------------------------------------------

@pytest.fixture()
def nfs_world():
    sim = Simulator()
    rng = RandomStreams(23)
    switch = Switch(sim, rng=rng.stream("switch"))
    nas_m, nas_k, nas_s = make_host(sim, switch, "nas", rng)
    cli_m, cli_k, cli_s = make_host(sim, switch, "client", rng)
    server = NfsServer(nas_k, rng)
    server.start()
    client = HostNfsClient(cli_k, Address("nas", NFS_PORT))
    return sim, server, client, cli_m


def test_nfs_read_returns_requested_size(nfs_world):
    sim, server, client, _ = nfs_world
    out = {}

    def proc():
        out["n"] = yield from client.read("movie.mpg", 0, 1024)

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(0.2))
    assert out["n"] == 1024
    assert server.reads_served == 1


def test_nfs_write_then_bounded_read(nfs_world):
    sim, server, client, _ = nfs_world
    out = {}

    def proc():
        yield from client.write("rec.mpg", 0, 2048)
        out["full"] = yield from client.read("rec.mpg", 0, 4096)
        out["tail"] = yield from client.read("rec.mpg", 1024, 4096)

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(0.2))
    assert server.files["rec.mpg"] == 2048
    assert out["full"] == 2048
    assert out["tail"] == 1024


def test_nfs_read_takes_at_least_service_time(nfs_world):
    sim, server, client, _ = nfs_world
    done = {}

    def proc():
        start = sim.now
        yield from client.read("movie.mpg", 0, 1024)
        done["elapsed"] = sim.now - start

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(0.2))
    assert done["elapsed"] >= server.config.service_min_ns


def test_nfs_concurrent_requests_matched_correctly(nfs_world):
    sim, server, client, _ = nfs_world
    results = {}

    def reader(tag, size):
        results[tag] = yield from client.read(f"f-{tag}", 0, size)

    for i, size in enumerate([512, 1024, 2048, 4096]):
        sim.spawn(reader(i, size))
    sim.run(until=units.s_to_ns(0.5))
    assert results == {0: 512, 1: 1024, 2: 2048, 3: 4096}


def test_nfs_request_ids_are_per_client(nfs_world):
    """Two clients on one simulator both issue req_ids 1, 2, ... with
    their requests interleaved; each gets back exactly its own replies."""
    sim, server, first, cli_m = nfs_world
    clients = {"a": first,
               "b": HostNfsClient(first.kernel, Address("nas", NFS_PORT))}
    replies = {tag: [] for tag in clients}
    for tag, client in clients.items():
        def resolve(response, tag=tag, inner=client._pending.resolve):
            replies[tag].append((response.req_id, response.size))
            inner(response)
        client._pending.resolve = resolve
    results = {}

    def reader(tag, size):
        results[tag, size] = yield from clients[tag].read(f"f-{tag}", 0, size)

    for tag, size in (("a", 512), ("b", 1024), ("a", 1536), ("b", 2048)):
        sim.spawn(reader(tag, size))
    sim.run(until=units.s_to_ns(0.5))
    assert results == {("a", 512): 512, ("b", 1024): 1024,
                       ("a", 1536): 1536, ("b", 2048): 2048}
    assert sorted(replies["a"]) == [(1, 512), (2, 1536)]
    assert sorted(replies["b"]) == [(1, 1024), (2, 2048)]
    assert server.reads_served == 4


def test_device_nfs_client_bypasses_host_cpu():
    sim = Simulator()
    rng = RandomStreams(31)
    switch = Switch(sim, rng=rng.stream("switch"))
    nas_m, nas_k, nas_s = make_host(sim, switch, "nas", rng)
    server = NfsServer(nas_k, rng)
    server.start()
    # A client machine whose kernel is never started: any host CPU use
    # would be visible as busy time.
    client_m = Machine(sim, MachineSpec(name="client"))
    disk = client_m.add_disk()
    port = DeviceNetPort(disk, switch, "client-disk")
    dev_client = DeviceNfsClient(port, Address("nas", NFS_PORT))
    out = {}

    def proc():
        yield from dev_client.write("stream", 0, 4096)
        out["n"] = yield from dev_client.read("stream", 0, 4096)

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(0.2))
    assert out["n"] == 4096
    assert client_m.cpu.total_busy == 0       # host untouched
    assert disk.cpu.total_busy > 0            # firmware did the work


def test_device_nfs_backs_smart_disk():
    sim = Simulator()
    rng = RandomStreams(37)
    switch = Switch(sim, rng=rng.stream("switch"))
    nas_m, nas_k, nas_s = make_host(sim, switch, "nas", rng)
    NfsServer(nas_k, rng).start()
    client_m = Machine(sim, MachineSpec(name="client"))
    disk = client_m.add_disk()
    port = DeviceNetPort(disk, switch, "client-disk")
    disk.attach_backing(DeviceNfsClient(port, Address("nas", NFS_PORT)))
    out = {}

    def proc():
        yield from disk.write_block(3, 4096)
        out["n"] = yield from disk.read_block(3, 4096)

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(0.2))
    assert out["n"] == 4096


# -- RemoteFile -----------------------------------------------------------------------

def test_remote_file_readahead_hides_rtt(nfs_world):
    sim, server, client, cli_m = nfs_world
    f = RemoteFile(client, "movie.mpg", window_bytes=64 * 1024,
                   chunk_bytes=8 * 1024)
    stall_free_reads = {}

    def proc():
        # First read warms the window (may stall)...
        yield from f.read(1024)
        yield sim.clock.timeout(units.ms_to_ns(20))
        # ...after which sequential reads are served from the buffer.
        start_stalls = f.readahead_stalls
        for _ in range(16):
            yield from f.read(1024)
        stall_free_reads["stalls"] = f.readahead_stalls - start_stalls

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(1))
    assert stall_free_reads["stalls"] == 0


def test_remote_file_read_validation(nfs_world):
    sim, server, client, _ = nfs_world
    f = RemoteFile(client, "movie.mpg")
    from repro.errors import FileSystemError
    with pytest.raises(FileSystemError):
        next(f.read(0))
    with pytest.raises(FileSystemError):
        RemoteFile(client, "x", window_bytes=10, chunk_bytes=100)


def test_remote_file_append_is_write_behind(nfs_world):
    sim, server, client, _ = nfs_world
    f = RemoteFile(client, "rec.mpg")
    elapsed = {}

    def proc():
        start = sim.now
        for _ in range(5):
            yield from f.append(1024)
        elapsed["issue"] = sim.now - start

    sim.spawn(proc())
    sim.run(until=units.s_to_ns(0.5))
    # Appends return immediately (no NFS round trip on the caller's path)...
    assert elapsed["issue"] < units.ms_to_ns(1)
    # ...and the data eventually lands on the NAS.
    assert server.files.get("rec.mpg") == 5 * 1024
