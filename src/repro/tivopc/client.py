"""Video Client implementations (Section 6.4, Figures 7 and 8).

* :class:`MeasurementClient` — a minimal receiver used by the server
  experiments: it records packet arrival times for the jitter figures
  without doing media work.
* :class:`UserSpaceClient` — the non-offloaded client: every chunk is
  received through the full host stack, software-decoded on the host
  CPU, blitted over the bus into the GPU framebuffer, and appended to
  the recording over host NFS.
* :class:`OffloadedClient` — the Figure-8 deployment: Streamer at the
  NIC and at the Smart Disk (Gang), Decoder Ganged with the Streamer
  and Pulled onto the GPU by the Display, File Pulled with the disk
  Streamer.  "The offloading is complete in the sense that there are no
  components left on the host processor" (Table 4's punchline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro import units
from repro.errors import InterruptError
from repro.core.channel import BatchConfig, ChannelConfig
from repro.core.guid import guid_from_name
from repro.core.runtime import DeploymentSpec
from repro.core.layout.constraints import ConstraintType
from repro.core.odf import DeviceClassFilter, OdfDocument, OdfImport
from repro.core.offcode import OffcodeState
from repro.core.sites import DeviceSite
from repro.hostos.nfs import HostNfsClient, RemoteFile
from repro.hw.device import DeviceClass
from repro.media.decoder import SoftwareDecoder
from repro.sim.engine import Event, Process
from repro.tivopc.components import (
    DecoderOffcode,
    DisplayOffcode,
    FileOffcode,
    IDECODER,
    IDISPLAY,
    IFILE,
    ISTREAMER,
    StreamerOffcode,
)
from repro.tivopc.metrics import JitterCollector
from repro.tivopc.testbed import Testbed

__all__ = ["MeasurementClient", "UserSpaceClient", "UserClientCosts",
           "OffloadedClient", "USER_CLIENT_COSTS",
           "NetStreamerOffcode", "DiskStreamerOffcode"]

_FRAME_BYTES = 8 * 1024


class MeasurementClient:
    """Receives the stream and records arrival times (jitter probe)."""

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.socket = testbed.client.stack.socket(
            testbed.config.media_port)
        self.jitter = JitterCollector()
        self._process: Optional[Process] = None

    def start(self) -> None:
        """Begin recording arrivals."""
        self._process = self.testbed.sim.spawn(self._loop(),
                                               name="measure-client")

    def stop(self) -> None:
        """Stop the receive loop."""
        if self._process is not None and self._process.alive:
            self._process.interrupt("stop")
        self._process = None

    def _loop(self) -> Generator[Event, None, None]:
        try:
            while True:
                packet = yield from self.socket.recvfrom()
                self.jitter.record(packet.received_at_ns)
        except InterruptError:
            pass


@dataclass(frozen=True)
class UserClientCosts:
    """Calibrated per-chunk application stage of the host client.

    ``drift_sigma`` models slow minutes-scale load variation (GUI
    repaints, allocator behaviour): every 5 s the mean is rescaled by a
    fresh gauss(1, drift_sigma) factor, which is what gives the
    client's CPU samples their window-to-window spread (Table 4's
    0.32 % for the user-space client).
    """

    app_cpu_mean_ns: int = 150 * units.US
    app_cpu_sigma_ns: int = 45 * units.US
    drift_sigma: float = 0.08
    drift_period_ns: int = 5 * units.SECOND


USER_CLIENT_COSTS = UserClientCosts()


class UserSpaceClient:
    """The fully host-resident client of Table 4's middle row."""

    def __init__(self, testbed: Testbed,
                 costs: UserClientCosts = USER_CLIENT_COSTS) -> None:
        self.testbed = testbed
        self.costs = costs
        self.kernel = testbed.client.kernel
        self.socket = testbed.client.stack.socket(
            testbed.config.media_port)
        self.nfs = HostNfsClient(self.kernel, testbed.nas_address)
        self.recording = RemoteFile(self.nfs,
                                    testbed.config.recording_handle)
        self.decoder = SoftwareDecoder(self.kernel)
        self.gpu = testbed.client_gpu
        self.rng = testbed.rng.stream("user-client")
        self.jitter = JitterCollector()
        self.chunks_received = 0
        self.frames_shown = 0
        self._buffered = 0
        self._drift = 1.0
        self._process: Optional[Process] = None

    def start(self) -> None:
        """Begin the receive/decode/record loop."""
        self._process = self.testbed.sim.spawn(self._loop(),
                                               name="user-client")
        self.testbed.sim.spawn(self._drift_loop(), name="client-drift")

    def stop(self) -> None:
        """Stop the client loop."""
        if self._process is not None and self._process.alive:
            self._process.interrupt("stop")
        self._process = None

    def _drift_loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.testbed.sim.clock.after(self.costs.drift_period_ns)
            self._drift = max(0.3, self.rng.gauss(1.0,
                                                  self.costs.drift_sigma))

    def _loop(self) -> Generator[Event, None, None]:
        try:
            while True:
                packet = yield from self.socket.recvfrom()
                self.jitter.record(packet.received_at_ns)
                self.chunks_received += 1
                yield from self._handle_chunk(packet.size_bytes)
        except InterruptError:
            pass

    def _handle_chunk(self, size: int) -> Generator[Event, None, None]:
        # Store for later playback (write-behind NFS append).
        yield from self.recording.append(size)
        # Decode at frame granularity; blit the raw frame over the bus.
        self._buffered += size
        while self._buffered >= _FRAME_BYTES:
            self._buffered -= _FRAME_BYTES
            raw = yield from self.decoder.decode(_FRAME_BYTES)
            yield from self.gpu.host_blit(raw)
            self.frames_shown += 1
        # Calibrated application stage (GUI, parsing, bookkeeping).
        cost = max(0, round(self.rng.gauss(
            self.costs.app_cpu_mean_ns * self._drift,
            self.costs.app_cpu_sigma_ns)))
        if cost:
            yield from self.kernel.cpu.execute(cost, context="client-app")

    @property
    def bytes_recorded(self) -> int:
        """Bytes appended to the recording so far."""
        return self.recording.write_offset


class NetStreamerOffcode(StreamerOffcode):
    """The Figure-8 Streamer instance at the NIC."""

    BINDNAME = "tivopc.NetStreamer"
    INTERFACES = (ISTREAMER,)


class DiskStreamerOffcode(StreamerOffcode):
    """The Figure-8 Streamer instance at the Smart Disk."""

    BINDNAME = "tivopc.DiskStreamer"
    INTERFACES = (ISTREAMER,)


NET_STREAMER_GUID = guid_from_name("tivopc.NetStreamer")
DISK_STREAMER_GUID = guid_from_name("tivopc.DiskStreamer")
DECODER_GUID = guid_from_name("tivopc.Decoder")
DISPLAY_GUID = guid_from_name("tivopc.Display")
CLIENT_FILE_GUID = guid_from_name("tivopc.client.File")


class OffloadedClient:
    """The fully offloaded Figure-8 client, deployed through HYDRA.

    With ``host_fallback=True`` the depot also carries a host build of
    the network Streamer and a recovery hook is armed: when the
    watchdog declares the NIC dead, the runtime redeploys the Streamer
    on the host processor and the hook rewires the media plane (two
    unicast channels replace the dead multicast channel), so the
    stream finishes host-side — the paper's host-based configuration
    as a degraded mode.
    """

    NET_STREAMER_ODF = "/tivopc/client/streamer-net.odf"
    DISK_STREAMER_ODF = "/tivopc/client/streamer-disk.odf"
    DECODER_ODF = "/tivopc/client/decoder.odf"
    DISPLAY_ODF = "/tivopc/client/display.odf"
    FILE_ODF = "/tivopc/client/file.odf"

    def __init__(self, testbed: Testbed,
                 host_fallback: bool = False,
                 batch: Optional[BatchConfig] = None) -> None:
        self.testbed = testbed
        self.runtime = testbed.client_runtime
        self.mux = testbed.client_mux()
        self.host_fallback = host_fallback
        # Optional vectored-dispatch watermarks for the media data plane;
        # None keeps the classic one-transaction-per-chunk path.
        self.batch = batch
        self.net_streamer: Optional[NetStreamerOffcode] = None
        self.disk_streamer: Optional[DiskStreamerOffcode] = None
        self.decoder: Optional[DecoderOffcode] = None
        self.display: Optional[DisplayOffcode] = None
        self.file: Optional[FileOffcode] = None
        self.data_channel = None
        self._register()

    # -- manifests and depot ---------------------------------------------------------

    def _register(self) -> None:
        testbed = self.testbed
        library = self.runtime.library
        library.register(self.FILE_ODF, OdfDocument(
            bindname="tivopc.File", guid=CLIENT_FILE_GUID,
            interfaces=[IFILE],
            targets=[DeviceClassFilter(DeviceClass.STORAGE)],
            image_bytes=24 * 1024))
        library.register(self.DISPLAY_ODF, OdfDocument(
            bindname="tivopc.Display", guid=DISPLAY_GUID,
            interfaces=[IDISPLAY],
            targets=[DeviceClassFilter(DeviceClass.DISPLAY)],
            image_bytes=12 * 1024))
        library.register(self.DECODER_ODF, OdfDocument(
            bindname="tivopc.Decoder", guid=DECODER_GUID,
            interfaces=[IDECODER],
            imports=[OdfImport(file=self.DISPLAY_ODF,
                               bindname="tivopc.Display",
                               guid=DISPLAY_GUID,
                               reference=ConstraintType.PULL)],
            # "the Decoder Offcode could be placed either at the NIC or
            # at the GPU"; the Pull to Display decides for the GPU.
            targets=[DeviceClassFilter(DeviceClass.NETWORK),
                     DeviceClassFilter(DeviceClass.DISPLAY)],
            image_bytes=48 * 1024))
        library.register(self.DISK_STREAMER_ODF, OdfDocument(
            bindname="tivopc.DiskStreamer", guid=DISK_STREAMER_GUID,
            interfaces=[ISTREAMER],
            imports=[OdfImport(file=self.FILE_ODF,
                               bindname="tivopc.File",
                               guid=CLIENT_FILE_GUID,
                               reference=ConstraintType.PULL)],
            targets=[DeviceClassFilter(DeviceClass.STORAGE)],
            image_bytes=20 * 1024))
        library.register(self.NET_STREAMER_ODF, OdfDocument(
            bindname="tivopc.NetStreamer", guid=NET_STREAMER_GUID,
            interfaces=[ISTREAMER],
            imports=[
                OdfImport(file=self.DISK_STREAMER_ODF,
                          bindname="tivopc.DiskStreamer",
                          guid=DISK_STREAMER_GUID,
                          reference=ConstraintType.GANG),
                OdfImport(file=self.DECODER_ODF,
                          bindname="tivopc.Decoder",
                          guid=DECODER_GUID,
                          reference=ConstraintType.GANG),
            ],
            targets=[DeviceClassFilter(DeviceClass.NETWORK)],
            image_bytes=20 * 1024))

        depot = self.runtime.depot
        depot.register(NET_STREAMER_GUID,
                       lambda site: NetStreamerOffcode(
                           site, port_mux=self.mux,
                           listen_port=testbed.config.media_port),
                       device_class=DeviceClass.NETWORK)
        depot.register(DISK_STREAMER_GUID, DiskStreamerOffcode,
                       device_class=DeviceClass.STORAGE)
        depot.register(DECODER_GUID, DecoderOffcode)
        depot.register(DISPLAY_GUID, DisplayOffcode,
                       device_class=DeviceClass.DISPLAY)
        depot.register(CLIENT_FILE_GUID,
                       lambda site: FileOffcode(
                           site, testbed.disk_nfs,
                           handle=testbed.config.recording_handle),
                       device_class=DeviceClass.STORAGE)

        if self.host_fallback:
            # The host build of the network Streamer reads from a real
            # UDP socket; the socket is opened lazily, at recovery
            # time, when the NIC mux no longer claims the media port.
            depot.register(NET_STREAMER_GUID,
                           lambda site: NetStreamerOffcode(
                               site,
                               socket=testbed.client.stack.socket(
                                   testbed.config.media_port),
                               listen_port=testbed.config.media_port),
                           device_class=DeviceClass.HOST)
            # Host builds for the disk-side components too, so a Smart
            # Disk death (or an overlapping double failure) also has a
            # fallback.  The ODF targets exclude HOST, so these builds
            # are only reachable through a degraded re-solve — the
            # baseline Figure-8 layout is unchanged.
            depot.register(DISK_STREAMER_GUID, DiskStreamerOffcode,
                           device_class=DeviceClass.HOST)
            depot.register(DISPLAY_GUID,
                           lambda site: DisplayOffcode(
                               site, gpu=testbed.client_gpu),
                           device_class=DeviceClass.HOST)
            depot.register(CLIENT_FILE_GUID,
                           lambda site: FileOffcode(
                               site,
                               HostNfsClient(testbed.client.kernel,
                                             testbed.nas_address),
                               handle=testbed.config.recording_handle),
                           device_class=DeviceClass.HOST)
            self.runtime.add_recovery_hook(self._recovery_hook)

    # -- fault recovery ----------------------------------------------------------------

    @staticmethod
    def _site_healthy(offcode) -> bool:
        site = offcode.site
        return (not isinstance(site, DeviceSite)
                or site.device.health.ok)

    @staticmethod
    def _has_open_data_channel(streamer, peer) -> bool:
        return any(
            not ch.closed and ch.connected
            and ch.config.label == StreamerOffcode.DATA_LABEL
            and any(ep.bound_offcode is peer for ep in ch.endpoints)
            for ch in streamer.channels)

    def _recovery_hook(self, device: str,
                       incident) -> Generator[Event, None, None]:
        """Rewire the media plane after *any* recovery touching Figure 8.

        Generic and idempotent: refresh every component reference
        (recovery may have replaced instances on new sites), re-attach
        Pull-mates that are co-located but unattached, then give the
        network Streamer one unicast data channel per healthy consumer
        it cannot currently reach.  A consumer whose device has already
        died (an overlapping double failure) is skipped — its own
        incident will rewire it — and consumers already reachable over
        an open data channel are left alone, so running the hook twice
        wires nothing twice.
        """
        runtime = self.runtime
        self.net_streamer = runtime.locate("tivopc.NetStreamer")
        self.disk_streamer = runtime.locate("tivopc.DiskStreamer")
        self.decoder = runtime.locate("tivopc.Decoder")
        self.display = runtime.locate("tivopc.Display")
        self.file = runtime.locate("tivopc.File")

        # Pull-mates wire directly when co-located.
        if (self.decoder is not None and self.display is not None
                and self.decoder.site is self.display.site
                and self.decoder.display is not self.display):
            self.decoder.attach_display(self.display)
        if (self.disk_streamer is not None and self.file is not None
                and self.disk_streamer.site is self.file.site
                and self.disk_streamer.file_offcode is not self.file):
            self.disk_streamer.attach_file(self.file)

        streamer = self.net_streamer
        if (streamer is None or streamer.state != OffcodeState.RUNNING
                or not self._site_healthy(streamer)):
            return
        rewired = False
        for peer in (self.decoder, self.disk_streamer):
            if (peer is None or peer.state != OffcodeState.RUNNING
                    or not self._site_healthy(peer)):
                continue
            if self._has_open_data_channel(streamer, peer):
                continue
            # The peer-DMA provider cannot source a host-rooted
            # multicast, so rewiring uses one unicast channel per
            # consumer; a host-side streamer also loses the zero-copy
            # pinned path.
            config = (ChannelConfig.unicast().reliable().sequential()
                      .labeled(StreamerOffcode.DATA_LABEL))
            config = (config.copied() if streamer.location == "host"
                      else config.zero_copy())
            channel = runtime.executive.create_channel_for_offcode(
                config, streamer)
            runtime.executive.connect_offcode(channel, peer)
            rewired = True
        if rewired:
            self.data_channel = None
            # Driver/daemon work for the rewiring itself.
            yield from streamer.site.execute(
                5_000, context="recovery-rewire")

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> None:
        """Deploy the Figure-8 Offcodes and wire the data plane."""
        self.testbed.sim.spawn(self._bring_up(), name="offloaded-client")

    def _bring_up(self) -> Generator[Event, None, None]:
        result = yield from self.runtime.deploy(DeploymentSpec(
            odf_paths=(self.NET_STREAMER_ODF,)))
        runtime = self.runtime
        self.net_streamer = result.offcode
        self.disk_streamer = runtime.get_offcode("tivopc.DiskStreamer")
        self.decoder = runtime.get_offcode("tivopc.Decoder")
        self.display = runtime.get_offcode("tivopc.Display")
        self.file = runtime.get_offcode("tivopc.File")

        # Verify the layout landed as Figure 8 dictates.
        assert self.net_streamer.location == "nic0"
        assert self.disk_streamer.location == "disk0"
        assert self.decoder.location == "gpu0"
        assert self.display.location == "gpu0"
        assert self.file.location == "disk0"

        # Pull-mates wire directly (co-located by construction).
        self.decoder.attach_display(self.display)
        self.disk_streamer.attach_file(self.file)

        # The Figure-8 data plane: one multicast channel from the NIC
        # Streamer to the Decoder (GPU) and the disk Streamer — a single
        # bus transaction per media packet on a peer-to-peer bus.
        config = (ChannelConfig.multicast().reliable().sequential()
                  .zero_copy().labeled(StreamerOffcode.DATA_LABEL))
        if self.batch is not None:
            config = config.batched(max_bytes=self.batch.max_bytes,
                                    max_calls=self.batch.max_calls,
                                    deadline_ns=self.batch.deadline_ns,
                                    adaptive=self.batch.adaptive)
        channel = runtime.executive.create_channel_for_offcode(
            config, self.net_streamer)
        runtime.executive.connect_offcode(channel, self.decoder)
        runtime.executive.connect_offcode(channel, self.disk_streamer)
        self.data_channel = channel

    def stop(self) -> None:
        """Stop the NIC streamer (tears its subtree down)."""
        if self.net_streamer is not None:
            self.testbed.sim.spawn(
                self.runtime.stop_offcode("tivopc.NetStreamer"))

    # -- playback (the paper's "replay the stored media stream") --------------------------

    def start_playback(self) -> None:
        """Stream the recording from the Smart Disk to the Decoder:
        "a Streamer component running on the disk controller will
        transfer previously stored packets to the Decoder"."""
        self.testbed.sim.spawn(self._playback_loop(), name="playback")

    def _playback_loop(self) -> Generator[Event, None, None]:
        config = (ChannelConfig.unicast().zero_copy()
                  .labeled(StreamerOffcode.DATA_LABEL))
        channel = self.runtime.executive.create_channel_for_offcode(
            config, self.disk_streamer)
        self.runtime.executive.connect_offcode(channel, self.decoder)
        endpoint = channel.endpoint_of(self.disk_streamer)
        stream = self.testbed.config.stream
        sim = self.testbed.sim
        try:
            while self.file.bytes_written > self.file.bytes_read:
                yield sim.clock.after(stream.interval_ns)
                got = yield from self.file.Read(stream.chunk_bytes)
                if got <= 0:
                    break
                yield from endpoint.write(("playback", got), got)
        except InterruptError:
            pass

    # -- counters -----------------------------------------------------------------------

    @property
    def chunks_received(self) -> int:
        """Chunks the NIC streamer has handled."""
        return (self.net_streamer.chunks_handled
                if self.net_streamer else 0)

    @property
    def frames_shown(self) -> int:
        """Frames the Display Offcode committed."""
        return self.display.frames_shown if self.display else 0

    @property
    def bytes_recorded(self) -> int:
        """Bytes the File Offcode wrote to the NAS."""
        return self.file.bytes_written if self.file else 0
