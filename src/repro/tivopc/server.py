"""The three Video Server implementations (Section 6.4, Figure 7).

1. :class:`SimpleServer` — "uses two UDP socket endpoints.  Every 5 ms,
   a movie frame is read to a statically allocated buffer of size 1 kB,
   then a connected UDP socket ... is used to send the packet."  Full
   host path: timed sleep through the scheduler, NFS read with a copy to
   user space, copying `sendto`.
2. :class:`SendfileServer` — "utilizes the 'sendfile' system call":
   the file lands in kernel buffers by DMA and the NIC's scatter-gather
   engine sends it without a CPU copy; only descriptor work remains.
3. :class:`OffloadedServer` — "implemented as a simple Offcode residing
   at the networking device.  It uses the File Offcode to read the data
   from the NAS device, and the Broadcast Offcode to transmit" — both
   deployed through HYDRA onto the server NIC, paced by the firmware
   timer.

The host servers carry a calibrated per-iteration *application stage*
(CPU slice + blocking wait) standing in for the user-space machinery the
paper does not decompose (frame parsing, GUI interaction, allocator
work, occasional page-cache stalls).  Every other cost — timer-tick
quantization, dispatch latency, syscalls, buffer copies and their L2
traffic, NFS round trips, interrupts — is mechanistic.  Calibration
values and the resulting fit are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

from repro import units
from repro.errors import InterruptError
from repro.core.guid import guid_from_name
from repro.core.runtime import DeploymentSpec
from repro.core.layout.constraints import ConstraintType
from repro.core.odf import DeviceClassFilter, OdfDocument, OdfImport
from repro.hostos.nfs import DeviceNfsClient, HostNfsClient, RemoteFile
from repro.hw.device import DeviceClass
from repro.net.packet import Address
from repro.sim.engine import Event, Process
from repro.tivopc.components import (
    BroadcastOffcode,
    FileOffcode,
    IBROADCAST,
    IFILE,
)
from repro.tivopc.testbed import Testbed

__all__ = ["HostServerCosts", "SimpleServer", "SendfileServer",
           "OffloadedServer", "SIMPLE_COSTS", "SENDFILE_COSTS"]

BROADCAST_GUID = guid_from_name("tivopc.Broadcast")
SERVER_FILE_GUID = guid_from_name("tivopc.File")


@dataclass(frozen=True)
class HostServerCosts:
    """Calibrated per-iteration application stage of a host server.

    The blocking part has two components because the kernel's timer
    grid filters sub-tick variance out of the observed intervals: a
    lognormal base wait, plus an occasional multi-millisecond *stall*
    (page-cache miss, allocator walk) that survives the grid and gives
    the sendfile row its measured spread.
    """

    app_cpu_mean_ns: int
    app_cpu_sigma_ns: int
    app_wait_mean_ns: int
    app_wait_sigma_ns: int
    stall_probability: float = 0.0
    stall_mean_ns: int = 0
    stall_sigma_ns: int = 0


# Calibration targets: Table 2 rows (6.99/7.00/0.55 and 6.00/5.99/0.47)
# and Table 3 rows (7.50 % and 6.20 % total CPU).
SIMPLE_COSTS = HostServerCosts(
    app_cpu_mean_ns=315 * units.US, app_cpu_sigma_ns=100 * units.US,
    app_wait_mean_ns=1_060 * units.US, app_wait_sigma_ns=460 * units.US)

SENDFILE_COSTS = HostServerCosts(
    app_cpu_mean_ns=190 * units.US, app_cpu_sigma_ns=60 * units.US,
    app_wait_mean_ns=25 * units.US, app_wait_sigma_ns=40 * units.US,
    stall_probability=0.043, stall_mean_ns=1_800 * units.US,
    stall_sigma_ns=300 * units.US)


def _lognormal_ns(rng, mean_ns: int, sigma_ns: int) -> int:
    """Draw a non-negative delay with the given mean and std-dev.

    Blocking application delays are skewed (mostly short, occasionally
    long: allocator stalls, page-cache misses), so a lognormal matches
    the paper's smooth single-mode jitter histograms better than a
    truncated normal — and it permits sigma > mean, which the Sendfile
    row requires.
    """
    if mean_ns <= 0:
        return 0
    if sigma_ns <= 0:
        return mean_ns
    ratio_sq = (sigma_ns / mean_ns) ** 2
    sigma_ln = math.sqrt(math.log1p(ratio_sq))
    mu_ln = math.log(mean_ns) - sigma_ln ** 2 / 2
    return round(rng.lognormvariate(mu_ln, sigma_ln))


class _HostServerBase:
    """Shared loop: sleep 5 ms, produce one chunk, send it."""

    name = "abstract"

    def __init__(self, testbed: Testbed, costs: HostServerCosts) -> None:
        self.testbed = testbed
        self.costs = costs
        self.kernel = testbed.server.kernel
        self.stack = testbed.server.stack
        self.socket = self.stack.socket()
        self.nfs = HostNfsClient(self.kernel, testbed.nas_address)
        self.remote = RemoteFile(self.nfs, testbed.config.movie_handle)
        self.rng = testbed.rng.stream(f"server-{self.name}")
        self.packets_sent = 0
        self._process: Optional[Process] = None

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError(f"{self.name} server already started")
        self._process = self.testbed.sim.spawn(
            self._loop(), name=f"{self.name}-server")

    def stop(self) -> None:
        if self._process is not None and self._process.alive:
            self._process.interrupt("stop")
        self._process = None

    def _loop(self) -> Generator[Event, None, None]:
        config = self.testbed.config.stream
        destination = self.testbed.client_media_address
        try:
            while True:
                yield from self.kernel.sleep(config.interval_ns)
                yield from self._produce_chunk(config.chunk_bytes)
                yield from self._app_stage()
                yield from self._send_chunk(destination,
                                            config.chunk_bytes)
                self.packets_sent += 1
        except InterruptError:
            pass

    def _app_stage(self) -> Generator[Event, None, None]:
        cpu = max(0, round(self.rng.gauss(self.costs.app_cpu_mean_ns,
                                          self.costs.app_cpu_sigma_ns)))
        wait = _lognormal_ns(self.rng, self.costs.app_wait_mean_ns,
                             self.costs.app_wait_sigma_ns)
        if (self.costs.stall_probability
                and self.rng.random() < self.costs.stall_probability):
            wait += max(0, round(self.rng.gauss(self.costs.stall_mean_ns,
                                                self.costs.stall_sigma_ns)))
        if cpu:
            yield from self.kernel.cpu.execute(cpu, context="server-app")
        if wait:
            yield self.testbed.sim.clock.after(wait)

    def _produce_chunk(self, size: int) -> Generator[Event, None, None]:
        raise NotImplementedError

    def _send_chunk(self, destination: Address, size: int
                    ) -> Generator[Event, None, None]:
        raise NotImplementedError


class SimpleServer(_HostServerBase):
    """read() + sendto(): two syscalls and two payload copies."""

    name = "simple"

    def __init__(self, testbed: Testbed,
                 costs: HostServerCosts = SIMPLE_COSTS) -> None:
        super().__init__(testbed, costs)

    def _produce_chunk(self, size: int) -> Generator[Event, None, None]:
        yield from self.kernel.syscall("read")
        yield from self.remote.read(size)
        yield from self.kernel.copy_to_user(size, context="server-read")

    def _send_chunk(self, destination: Address, size: int
                    ) -> Generator[Event, None, None]:
        yield from self.socket.sendto(destination, size,
                                      payload=("chunk", self.packets_sent))


class SendfileServer(_HostServerBase):
    """sendfile(): DMA into kernel buffers, scatter-gather out."""

    name = "sendfile"

    def __init__(self, testbed: Testbed,
                 costs: HostServerCosts = SENDFILE_COSTS) -> None:
        super().__init__(testbed, costs)

    def _produce_chunk(self, size: int) -> Generator[Event, None, None]:
        # One syscall covers read + send; the payload stays in kernel
        # buffers ("the file content is copied into a kernel buffer by
        # the device's DMA engine") so no copy_to_user happens and the
        # data never streams through the L2 on the CPU's behalf.
        yield from self.kernel.syscall("sendfile", cost_ns=2_500)
        yield from self.remote.read(size)

    def _send_chunk(self, destination: Address, size: int
                    ) -> Generator[Event, None, None]:
        yield from self.socket.sendto_gather(
            destination, size, payload=("chunk", self.packets_sent))


class OffloadedServer:
    """The offload-aware server: Broadcast + File Offcodes at the NIC.

    Deployment is genuine HYDRA: ODFs registered in the server runtime's
    library (Broadcast Pulls File so both land on the NIC), depot
    factories injecting the firmware port mux and the NAS address, and a
    ``CreateOffcode`` call that runs the full Figure-5 pipeline.
    """

    name = "offloaded"

    BROADCAST_ODF = "/tivopc/server/broadcast.odf"
    FILE_ODF = "/tivopc/server/file.odf"

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.runtime = testbed.server_runtime
        self.mux = testbed.server_mux()
        self.broadcast: Optional[BroadcastOffcode] = None
        self.file: Optional[FileOffcode] = None
        self._register()

    def _register(self) -> None:
        testbed = self.testbed
        library = self.runtime.library
        library.register(self.FILE_ODF, OdfDocument(
            bindname="tivopc.File", guid=SERVER_FILE_GUID,
            interfaces=[IFILE],
            targets=[DeviceClassFilter(DeviceClass.NETWORK)],
            image_bytes=24 * 1024))
        library.register(self.BROADCAST_ODF, OdfDocument(
            bindname="tivopc.Broadcast", guid=BROADCAST_GUID,
            interfaces=[IBROADCAST],
            imports=[OdfImport(file=self.FILE_ODF,
                               bindname="tivopc.File",
                               guid=SERVER_FILE_GUID,
                               reference=ConstraintType.PULL)],
            targets=[DeviceClassFilter(DeviceClass.NETWORK)],
            image_bytes=20 * 1024))

        def make_file(site) -> FileOffcode:
            client = DeviceNfsClient(self.mux, testbed.nas_address)
            return FileOffcode(site, client,
                               handle=testbed.config.movie_handle)

        def make_broadcast(site) -> BroadcastOffcode:
            return BroadcastOffcode(
                site, self.mux, testbed.client_media_address,
                stream=testbed.config.stream,
                rng=testbed.rng.stream("firmware-timer"),
                require_file=True)

        self.runtime.depot.register(SERVER_FILE_GUID, make_file,
                                    device_class=DeviceClass.NETWORK)
        self.runtime.depot.register(BROADCAST_GUID, make_broadcast,
                                    device_class=DeviceClass.NETWORK)

    def start(self) -> None:
        """Spawn the HYDRA deployment and begin broadcasting."""
        self.testbed.sim.spawn(self._bring_up(), name="offloaded-server")

    def _bring_up(self) -> Generator[Event, None, None]:
        result = yield from self.runtime.deploy(DeploymentSpec(
            odf_paths=(self.BROADCAST_ODF,)))
        self.broadcast = result.offcode
        self.file = self.runtime.get_offcode("tivopc.File")
        assert self.broadcast.location == "nic0"
        assert self.file.location == "nic0"
        self.broadcast.attach_file(self.file)

    def stop(self) -> None:
        """Stop the Broadcast Offcode (releases its subtree)."""
        if self.broadcast is not None:
            self.testbed.sim.spawn(
                self.runtime.stop_offcode("tivopc.Broadcast"))

    @property
    def packets_sent(self) -> int:
        """Packets the Broadcast Offcode has transmitted."""
        return self.broadcast.packets_sent if self.broadcast else 0
