"""NFS substrate: NAS server, host client, device client, remote files.

The testbed stores all media on a NAS reached over NFS (Section 6.1):
the Video Server reads movies from it, and the client's "Smart Disk" is
a programmable NIC whose firmware speaks enough NFS to store and reload
the stream.  Three pieces reproduce that arrangement:

* :class:`NfsServer` — the NAS service: receives read/write requests on
  UDP port 2049, applies a disk-array service-time distribution, replies
  with the data (reads) or an ack (writes).
* :class:`HostNfsClient` — the host kernel's client: requests go through
  the full host socket stack (syscalls, copies, interrupts), which is
  precisely why host-based file access perturbs the host CPU and cache.
* :class:`DeviceNfsClient` — the firmware client used by the Smart Disk
  and offloaded Offcodes: requests leave straight from the device port
  and responses are consumed in device memory; the host never notices.

:class:`RemoteFile` adds sequential read-ahead / write-behind buffering
on top of either client, mirroring the kernel page cache behaviour that
lets ``sendfile`` (and the offloaded server's prefetching File Offcode)
hide the NAS round-trip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro import units
from repro.errors import FileSystemError
from repro.hostos.kernel import Kernel
from repro.hostos.sockets import UdpStack
from repro.net.devport import DeviceNetPort
from repro.net.packet import Address, Packet
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "NFS_PORT",
    "NfsRequest",
    "NfsResponse",
    "NfsServerConfig",
    "NfsServer",
    "HostNfsClient",
    "DeviceNfsClient",
    "RemoteFile",
]

NFS_PORT = 2049
_REQUEST_WIRE_BYTES = 120     # RPC header + file handle + offsets
_RESPONSE_OVERHEAD_BYTES = 96


@dataclass
class NfsRequest:
    """An NFS read or write request (carried as a packet payload)."""

    op: str                   # "read" | "write"
    handle: str
    offset: int
    size: int
    req_id: int


@dataclass
class NfsResponse:
    """Reply to an :class:`NfsRequest`."""

    req_id: int
    size: int                 # bytes of data carried (reads) or acked (writes)
    ok: bool = True


@dataclass(frozen=True)
class NfsServerConfig:
    """NAS service-time distribution (disk array with a large cache)."""

    service_mean_ns: int = 550 * units.US
    service_sigma_ns: int = 220 * units.US
    service_min_ns: int = 80 * units.US


class NfsServer:
    """The NAS: serves reads/writes with a stochastic service time."""

    def __init__(self, kernel: Kernel, rng: RandomStreams,
                 config: Optional[NfsServerConfig] = None) -> None:
        if kernel.udp is None:
            raise FileSystemError("NFS server needs a socket stack")
        self.kernel = kernel
        self.config = config or NfsServerConfig()
        self.rng = rng.stream(f"nfs-server-{kernel.machine.name}")
        self.stack: UdpStack = kernel.udp
        self.socket = self.stack.socket(NFS_PORT)
        self.files: Dict[str, int] = {}   # handle -> stored byte count
        self.reads_served = 0

    def start(self) -> None:
        """Spawn the serve loop on the NAS kernel."""
        self.kernel.sim.spawn(self._serve_loop(), name="nfs-server")

    def _serve_loop(self) -> Generator[Event, None, None]:
        while True:
            packet = yield from self.socket.recvfrom()
            request: NfsRequest = packet.payload
            self.kernel.sim.spawn(self._serve_one(request, packet.src),
                                  name="nfs-serve")

    def _serve_one(self, request: NfsRequest, reply_to: Address
                   ) -> Generator[Event, None, None]:
        service = max(self.config.service_min_ns,
                      round(self.rng.gauss(self.config.service_mean_ns,
                                           self.config.service_sigma_ns)))
        yield self.kernel.sim.clock.after(service)
        if request.op == "read":
            stored = self.files.get(request.handle)
            size = request.size if stored is None else min(
                request.size, max(0, stored - request.offset))
            self.reads_served += 1
            response = NfsResponse(req_id=request.req_id, size=size)
            wire = size + _RESPONSE_OVERHEAD_BYTES
        elif request.op == "write":
            end = request.offset + request.size
            if end > self.files.get(request.handle, 0):
                self.files[request.handle] = end
            response = NfsResponse(req_id=request.req_id, size=request.size)
            wire = _RESPONSE_OVERHEAD_BYTES
        else:
            response = NfsResponse(req_id=request.req_id, size=0, ok=False)
            wire = _RESPONSE_OVERHEAD_BYTES
        yield from self.socket.sendto(reply_to, wire, payload=response)


class _PendingTable:
    """Issues one client's request ids and matches responses to them.

    The server replies to the sending socket, so ids need only be
    unique per client."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._pending: Dict[int, Event] = {}
        self._ids = itertools.count(1)

    def request(self, op: str, handle: str, offset: int, size: int
                ) -> Tuple[NfsRequest, Event]:
        """A fresh request and the event its response will succeed."""
        request = NfsRequest(op=op, handle=handle, offset=offset,
                             size=size, req_id=next(self._ids))
        event = self._pending[request.req_id] = self.sim.event()
        return request, event

    def resolve(self, response: NfsResponse) -> None:
        event = self._pending.pop(response.req_id, None)
        if event is not None:
            event.succeed(response)


class _NfsClient:
    """The request/response body both NFS clients share; a subclass
    supplies the transport (``_send``/``_recv``) and calls
    :meth:`_start`."""

    _label = "NFS"

    def _start(self, sim: Simulator, rx_name: str) -> None:
        self._pending = _PendingTable(sim)
        sim.spawn(self._response_loop(), name=rx_name)

    def _response_loop(self) -> Generator[Event, None, None]:
        while True:
            packet = yield from self._recv()
            self._pending.resolve(packet.payload)

    def _call(self, op: str, handle: str, offset: int, size: int,
              wire_bytes: int) -> Generator[Event, None, NfsResponse]:
        request, waiter = self._pending.request(op, handle, offset, size)
        yield from self._send(wire_bytes, request)
        response: NfsResponse = yield waiter
        if not response.ok:
            raise FileSystemError(
                f"{self._label} {op} on {handle!r} failed")
        return response

    def read(self, handle: str, offset: int, size: int
             ) -> Generator[Event, None, int]:
        """Fetch ``size`` bytes; returns bytes actually read."""
        response = yield from self._call("read", handle, offset, size,
                                         _REQUEST_WIRE_BYTES)
        return response.size

    def write(self, handle: str, offset: int, size: int
              ) -> Generator[Event, None, int]:
        """Store ``size`` bytes; returns bytes acked."""
        response = yield from self._call(
            "write", handle, offset, size, size + _REQUEST_WIRE_BYTES)
        return response.size


class HostNfsClient(_NfsClient):
    """NFS client running in the host kernel (full host-path costs)."""

    def __init__(self, kernel: Kernel, server: Address) -> None:
        if kernel.udp is None:
            raise FileSystemError("NFS client needs a socket stack")
        self.kernel = kernel
        self.server = server
        self.socket = kernel.udp.socket()
        self._start(kernel.sim, "nfs-client-rx")

    def _send(self, wire_bytes: int, request: NfsRequest
              ) -> Generator[Event, None, Packet]:
        return self.socket.sendto_kernel(self.server, wire_bytes,
                                         payload=request)

    def _recv(self) -> Generator[Event, None, Packet]:
        # Kernel-internal: NFS replies land in the page cache, never in
        # a user buffer.
        return self.socket.recvfrom_kernel()


class DeviceNfsClient(_NfsClient):
    """NFS client in device firmware — zero host involvement.

    Also exports the ``read_block``/``write_block`` interface expected by
    :meth:`repro.hw.disk.SmartDisk.attach_backing`, so a smart disk can
    be backed by it directly (the paper's NFS Offcode).
    """

    BLOCK_HANDLE = "smartdisk.img"
    _label = "device NFS"

    def __init__(self, port: DeviceNetPort, server: Address) -> None:
        self.port = port
        self.server = server
        self.binding = port.bind()
        self._start(port.device.sim, "devnfs-rx")

    def _send(self, wire_bytes: int, request: NfsRequest
              ) -> Generator[Event, None, Packet]:
        return self.port.send(self.binding.number, self.server, wire_bytes,
                              payload=request)

    def _recv(self) -> Generator[Event, None, Packet]:
        return self.binding.recv()

    # -- SmartDisk backing interface -------------------------------------------

    def read_block(self, lba: int, size: int) -> Generator[Event, None, None]:
        """SmartDisk backing hook: fetch one block."""
        yield from self.read(self.BLOCK_HANDLE, lba * size, size)

    def write_block(self, lba: int, size: int) -> Generator[Event, None, None]:
        """SmartDisk backing hook: store one block."""
        yield from self.write(self.BLOCK_HANDLE, lba * size, size)


class RemoteFile:
    """Sequential file with read-ahead and write-behind over an NFS client.

    Read-ahead is the mechanism that lets ``sendfile`` and the offloaded
    File Offcode serve packets without waiting out an NFS round trip: a
    background fetch keeps ``window_bytes`` of data ahead of the reader.
    """

    def __init__(self, client, handle: str,
                 window_bytes: int = 64 * 1024,
                 chunk_bytes: int = 8 * 1024) -> None:
        if window_bytes < chunk_bytes:
            raise FileSystemError("read-ahead window smaller than chunk")
        self.client = client
        self.handle = handle
        self.window_bytes = window_bytes
        self.chunk_bytes = chunk_bytes
        self._sim = self._client_sim(client)
        self.read_offset = 0          # next byte the app will consume
        self.fetched_offset = 0       # next byte read-ahead will request
        self.buffered = 0
        self.write_offset = 0
        self._fetch_in_flight = False
        self._buffer_grew: Optional[Event] = None
        self.readahead_stalls = 0

    @staticmethod
    def _client_sim(client) -> Simulator:
        if hasattr(client, "kernel"):
            return client.kernel.sim
        if hasattr(client, "port"):
            return client.port.device.sim
        if hasattr(client, "sim"):
            return client.sim
        raise FileSystemError(
            f"cannot locate a simulator on NFS client {client!r}")

    # -- reading -----------------------------------------------------------------

    def read(self, size: int) -> Generator[Event, None, int]:
        """Consume ``size`` sequential bytes, stalling only on empty buffer."""
        if size <= 0:
            raise FileSystemError(f"read size must be positive: {size}")
        self._kick_readahead()
        while self.buffered < size:
            self.readahead_stalls += 1
            self._kick_readahead()
            self._buffer_grew = self._sim.event()
            yield self._buffer_grew
        self.buffered -= size
        self.read_offset += size
        self._kick_readahead()
        return size

    def _kick_readahead(self) -> None:
        if self._fetch_in_flight:
            return
        if self.fetched_offset - self.read_offset >= self.window_bytes:
            return
        self._fetch_in_flight = True
        self._sim.spawn(self._fetch(), name=f"readahead-{self.handle}")

    def _fetch(self) -> Generator[Event, None, None]:
        try:
            while self.fetched_offset - self.read_offset < self.window_bytes:
                got = yield from self.client.read(
                    self.handle, self.fetched_offset, self.chunk_bytes)
                # An empty read means EOF on a finite file; for the
                # streaming workload files are unbounded, so got == chunk.
                if got <= 0:
                    break
                self.fetched_offset += got
                self.buffered += got
                if self._buffer_grew is not None:
                    event, self._buffer_grew = self._buffer_grew, None
                    event.succeed()
        finally:
            self._fetch_in_flight = False

    # -- writing ------------------------------------------------------------------

    def append(self, size: int) -> Generator[Event, None, None]:
        """Write-behind append: returns once the write is *issued*.

        Durability is not part of the evaluation; the TiVoPC Streamer
        only needs store-and-forget semantics.
        """
        if size <= 0:
            raise FileSystemError(f"append size must be positive: {size}")
        offset = self.write_offset
        self.write_offset += size
        self._sim.spawn(self._flush(offset, size),
                        name=f"writebehind-{self.handle}")
        yield self._sim.clock.after(0)

    def _flush(self, offset: int, size: int) -> Generator[Event, None, None]:
        yield from self.client.write(self.handle, offset, size)
