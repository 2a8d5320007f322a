"""TiVoPC Offcodes — the components of Table 1 / Figure 7.

Six components make up the application (Section 6.2): GUI, Streamer,
Decoder, Display, File and Broadcast.  "All the components except the
GUI" become Offcodes; the GUI stays a host process (it only exchanges
control traffic over OOB channels).

Each component is one Offcode class, written once and placed by the
layout resolver; device-specific ability (GPU decode assist, smart-disk
NFS backing, NIC wire access) is reached through the execution site, so
the classes match the paper's "same component at both devices" reuse
(the two Streamer instances of Figure 8 share :class:`StreamerOffcode`).

Data-plane wiring follows Figure 8: the network-side Streamer feeds a
multicast channel whose endpoints are the Decoder (Gang -> GPU via the
Pull to Display) and the disk-side Streamer (Gang -> Smart Disk, Pull
with File).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import ChannelError, DeviceFailedError, OffcodeError
from repro.core.channel import Channel, Message
from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core.offcode import Offcode
from repro.core.sites import DeviceSite, ExecutionSite
from repro.hostos.nfs import RemoteFile
from repro.media.mpeg import StreamConfig
from repro.net.packet import Address
from repro.sim.engine import Event

__all__ = [
    "ISTREAMER", "IDECODER", "IDISPLAY", "IFILE", "IBROADCAST",
    "StreamerOffcode", "DecoderOffcode", "DisplayOffcode",
    "FileOffcode", "BroadcastOffcode",
]

# -- interfaces (WSDL-equivalent specs) -----------------------------------------------

ISTREAMER = InterfaceSpec.from_methods(
    "tivopc.IStreamer",
    (MethodSpec("ChunksHandled", params=(), result="int"),
     MethodSpec("Pause", params=(), result="bool"),
     MethodSpec("Resume", params=(), result="bool"),
     MethodSpec("IsPaused", params=(), result="bool")))

IDECODER = InterfaceSpec.from_methods(
    "tivopc.IDecoder",
    (MethodSpec("FramesDecoded", params=(), result="int"),))

IDISPLAY = InterfaceSpec.from_methods(
    "tivopc.IDisplay",
    (MethodSpec("FramesShown", params=(), result="int"),))

IFILE = InterfaceSpec.from_methods(
    "tivopc.IFile",
    (MethodSpec("Read", params=(("size", "int"),), result="int"),
     MethodSpec("Append", params=(("size", "int"),), result="int"),
     MethodSpec("BytesStored", params=(), result="int"),))

IBROADCAST = InterfaceSpec.from_methods(
    "tivopc.IBroadcast",
    (MethodSpec("PacketsSent", params=(), result="int"),))

# Per-chunk firmware costs of the data plane.
_EXTRACT_NS = 3_000           # payload extraction / frame-type parse
_FORWARD_NS = 1_200           # channel descriptor handling
_FRAME_BYTES = 8 * 1024       # ~one SD frame at the 200 kB/s workload


class StreamerOffcode(Offcode):
    """Handles incoming packets and forwards payloads (Section 6.2).

    Two roles, chosen by construction:

    * **network role** — a packet source supplies packets (a firmware
      port binding on a NIC, or a host UDP socket when the component
      falls back to the host after a NIC failure); each payload is
      extracted and written to every outbound data channel (the
      Figure-8 multicast toward Decoder and disk Streamer, or a pair of
      unicast channels after host-fallback rewiring);
    * **disk role** — packets arrive *on* the data channel; each is
      handed to the co-located File Offcode unmodified ("storing the
      received frames, without modification, at the storage device, so
      that the source of the media packet becomes oblivious").
    """

    BINDNAME = "tivopc.Streamer"
    INTERFACES = (ISTREAMER,)

    def __init__(self, site: ExecutionSite, port_mux=None,
                 listen_port: int = 9000, socket=None) -> None:
        super().__init__(site)
        self.port_mux = port_mux            # network role, on-NIC build
        self.socket = socket                # network role, host build
        self.listen_port = listen_port
        self.binding = None
        self.data_channel: Optional[Channel] = None
        self.data_channels: list = []
        self.file_offcode: Optional["FileOffcode"] = None   # disk role
        self.chunks_handled = 0
        self.paused = False
        self._channel_ready: Event = site.sim.event()
        # Migration quiesce: prepare_migrate raises the flag, the
        # receive loop parks between chunks and signals here.
        self._draining = False
        self._parked: Event = site.sim.event()

    @property
    def _network_role(self) -> bool:
        return self.port_mux is not None or self.socket is not None

    def ChunksHandled(self) -> int:
        return self.chunks_handled

    def Pause(self) -> bool:
        """GUI control: freeze the viewing path (recording continues).

        A paused network Streamer keeps storing the stream — the
        appliance's defining trick — but marks forwarded chunks so the
        Decoder skips them.
        """
        self.paused = True
        return True

    def Resume(self) -> bool:
        """GUI control: resume live decoding."""
        self.paused = False
        return True

    def IsPaused(self) -> bool:
        return self.paused

    DATA_LABEL = "tivopc.media"

    def on_channel_attached(self, channel: Channel) -> None:
        super().on_channel_attached(channel)
        if channel.config.label != self.DATA_LABEL:
            return                  # OOB / proxy channels: not the data plane
        if self._network_role:
            # Network role: an outbound data channel.  The regular path
            # uses one multicast channel; after host fallback the
            # recovery hook wires one unicast channel per consumer.
            self.data_channels.append(channel)
            if self.data_channel is None:
                self.data_channel = channel
            if not self._channel_ready.triggered:
                self._channel_ready.succeed()
        else:
            # Disk role: inbound; handle chunks as they arrive.
            channel.endpoint_of(self).install_call_handler(
                self._on_chunk_message)

    # -- network role ------------------------------------------------------------------

    def on_start(self) -> Generator[Event, None, None]:
        yield from super().on_start()
        if self.port_mux is not None:
            # claim() (vs bind()) takes over an existing binding — after
            # a live migration the port is still bound by the previous
            # instance, and its queue holds the frames that arrived
            # during the cutover; adopting it loses none of them.
            claim = getattr(self.port_mux, "claim", None)
            self.binding = (claim(self.listen_port) if claim is not None
                            else self.port_mux.bind(self.listen_port))

    def main(self) -> Optional[Generator[Event, None, None]]:
        if not self._network_role:
            return None
        return self._receive_loop()

    def _receive_loop(self) -> Generator[Event, None, None]:
        # "The OOB-channel is usually used to notify the Offcode
        # regarding ... availability of other channels": wait for wiring.
        if not self._channel_ready.triggered:
            yield self._channel_ready
        while True:
            if self._draining:
                # Park at a chunk boundary: nothing half-forwarded, no
                # pending recv holding a getter slot.  The migration
                # tears this instance down; until then, stay put.
                if not self._parked.triggered:
                    self._parked.succeed()
                yield self.site.sim.event()
                continue
            if self.binding is not None:
                packet = yield from self.binding.recv()
            else:
                packet = yield from self.socket.recvfrom()
            yield from self.site.execute(_EXTRACT_NS, context="streamer")
            # In-band viewing flag: while paused the chunk still travels
            # (the disk Streamer must keep recording) but carries a
            # marker telling the Decoder not to render it.
            payload = (("paused", packet.payload) if self.paused
                       else packet.payload)
            for channel in list(self.data_channels):
                if channel.closed:
                    self.data_channels.remove(channel)
                    continue
                try:
                    endpoint = channel.endpoint_of(self)
                    yield from endpoint.write(payload, packet.size_bytes)
                except (ChannelError, DeviceFailedError):
                    # A consumer's device died under this write.  The
                    # streamer itself is healthy: drop the dead channel
                    # and keep serving the survivors; recovery will
                    # rewire (and replay the unacked frames) shortly.
                    self.data_channels.remove(channel)
                    if self.data_channel is channel:
                        self.data_channel = None
            self.chunks_handled += 1

    # -- migration quiesce -------------------------------------------------------------

    def prepare_migrate(self) -> Generator[Event, None, None]:
        """Park the receive loop at a chunk boundary.

        Writes inside the loop are synchronous, so once the loop parks
        every forwarded chunk has been acked (or is sitting in the
        channel's unacked buffer, which the drain phase then empties) —
        the cutover is exactly-once without replay.
        """
        if not self._network_role or self._main_process is None:
            return
        self._draining = True
        if not self._parked.triggered:
            yield self._parked

    # -- checkpoint/restore ------------------------------------------------------------

    def snapshot(self):
        """Stream progress: chunk counter and the viewing-pause flag."""
        return {"chunks_handled": self.chunks_handled,
                "paused": self.paused}

    def restore(self, state) -> None:
        self.chunks_handled = int(state.get("chunks_handled", 0))
        self.paused = bool(state.get("paused", False))

    # -- disk role ----------------------------------------------------------------------

    def attach_file(self, file_offcode: "FileOffcode") -> None:
        """Wire the Pull-mate File Offcode (co-located by the layout)."""
        if file_offcode.site is not self.site:
            raise OffcodeError(
                "Pull(streamer,file) violated: different sites")
        self.file_offcode = file_offcode

    def _on_chunk_message(self, message: Message
                          ) -> Generator[Event, None, None]:
        yield from self.site.execute(_EXTRACT_NS, context="streamer")
        if self.file_offcode is not None:
            yield from self.file_offcode.Append(message.size_bytes)
        self.chunks_handled += 1


class DecoderOffcode(Offcode):
    """Decodes the MPEG stream (Section 6.2).

    On a GPU site the decode uses the device's MPEG assist; on any other
    site it charges a software-decode cost to that site's processor.
    The decoded frame goes to the Pull-mate Display Offcode.
    """

    BINDNAME = "tivopc.Decoder"
    INTERFACES = (IDECODER,)
    SOFT_DECODE_NS_PER_BYTE = 9

    def __init__(self, site: ExecutionSite,
                 frame_bytes: int = _FRAME_BYTES) -> None:
        super().__init__(site)
        self.frame_bytes = frame_bytes
        self.display: Optional["DisplayOffcode"] = None
        self.bytes_buffered = 0
        self.frames_decoded = 0

    def FramesDecoded(self) -> int:
        return self.frames_decoded

    def attach_display(self, display: "DisplayOffcode") -> None:
        """Wire the Pull-mate Display (must be co-located)."""
        if display.site is not self.site:
            raise OffcodeError(
                "Pull(decoder,display) violated: different sites")
        self.display = display

    def on_channel_attached(self, channel: Channel) -> None:
        super().on_channel_attached(channel)
        if channel.config.label == StreamerOffcode.DATA_LABEL:
            channel.endpoint_of(self).install_call_handler(self._on_chunk)

    def snapshot(self):
        """Decode progress: partial-frame buffer and frame counter."""
        return {"bytes_buffered": self.bytes_buffered,
                "frames_decoded": self.frames_decoded}

    def restore(self, state) -> None:
        self.bytes_buffered = int(state.get("bytes_buffered", 0))
        self.frames_decoded = int(state.get("frames_decoded", 0))

    def _on_chunk(self, message: Message) -> Generator[Event, None, None]:
        if (isinstance(message.payload, tuple) and message.payload
                and message.payload[0] == "paused"):
            return   # viewing is paused; the disk path still records
        self.bytes_buffered += message.size_bytes
        while self.bytes_buffered >= self.frame_bytes:
            self.bytes_buffered -= self.frame_bytes
            raw = yield from self._decode_frame(self.frame_bytes)
            self.frames_decoded += 1
            if self.display is not None:
                yield from self.display.show_frame(raw)

    def _decode_frame(self, compressed: int
                      ) -> Generator[Event, None, int]:
        site = self.site
        if isinstance(site, DeviceSite) and hasattr(site.device,
                                                    "decode_frame"):
            return (yield from site.device.decode_frame(compressed))
        yield from site.execute(compressed * self.SOFT_DECODE_NS_PER_BYTE,
                                context="decoder")
        return compressed * 20


class DisplayOffcode(Offcode):
    """Owns the viewing surface (Section 6.2).

    On a GPU the frame is committed straight to the framebuffer; the
    host build wraps "a memory map of the GPU's physical memory" and
    pays the bus crossing via ``host_blit``.
    """

    BINDNAME = "tivopc.Display"
    INTERFACES = (IDISPLAY,)

    def __init__(self, site: ExecutionSite, gpu=None) -> None:
        """``gpu`` is required only for the host build (blit target)."""
        super().__init__(site)
        self._host_gpu = gpu
        self.frames_shown = 0

    def FramesShown(self) -> int:
        return self.frames_shown

    def snapshot(self):
        return {"frames_shown": self.frames_shown}

    def restore(self, state) -> None:
        self.frames_shown = int(state.get("frames_shown", 0))

    def show_frame(self, raw_bytes: int) -> Generator[Event, None, None]:
        """Commit one decoded frame via the site-appropriate path."""
        site = self.site
        if isinstance(site, DeviceSite) and hasattr(site.device,
                                                    "display_frame"):
            yield from site.device.display_frame(raw_bytes)
        elif self._host_gpu is not None:
            yield from self._host_gpu.host_blit(raw_bytes)
        else:
            yield from site.execute(20_000, context="display")
        self.frames_shown += 1


class FileOffcode(Offcode):
    """File-level APIs over the NAS (Section 6.2).

    Construction injects an NFS client (host or device flavour); reads
    go through a read-ahead :class:`RemoteFile`, writes are
    write-behind.  On the Smart Disk this is "an NFS Offcode that
    implements various parts of the NFS protocol".
    """

    BINDNAME = "tivopc.File"
    INTERFACES = (IFILE,)

    def __init__(self, site: ExecutionSite, nfs_client,
                 handle: str = "movie.mpg",
                 window_bytes: int = 64 * 1024) -> None:
        super().__init__(site)
        self.remote = RemoteFile(nfs_client, handle,
                                 window_bytes=window_bytes)
        self.bytes_read = 0
        self.bytes_written = 0

    def Read(self, size: int) -> Generator[Event, None, int]:
        got = yield from self.remote.read(size)
        self.bytes_read += got
        return got

    def Append(self, size: int) -> Generator[Event, None, int]:
        yield from self.remote.append(size)
        self.bytes_written += size
        return size

    def BytesStored(self) -> int:
        return self.bytes_written

    def snapshot(self):
        """Counters plus the remote file's append cursor — a restored
        File keeps appending where the dead device's instance left off
        instead of overwriting the recording from offset zero."""
        state = {"bytes_read": self.bytes_read,
                 "bytes_written": self.bytes_written}
        for attr in ("write_offset", "read_offset"):
            value = getattr(self.remote, attr, None)
            if isinstance(value, int):
                state[attr] = value
        return state

    def restore(self, state) -> None:
        self.bytes_read = int(state.get("bytes_read", 0))
        self.bytes_written = int(state.get("bytes_written", 0))
        for attr in ("write_offset", "read_offset"):
            if attr in state and hasattr(self.remote, attr):
                setattr(self.remote, attr, int(state[attr]))


class BroadcastOffcode(Offcode):
    """Paces the movie onto the wire (Section 6.2, server side).

    The firmware timer makes this the precise sender of Table 2: the
    loop sleeps against an *absolute* schedule (no drift) and the only
    deviation is firmware timer granularity — no ticks, no scheduler,
    no run queue.
    """

    BINDNAME = "tivopc.Broadcast"
    INTERFACES = (IBROADCAST,)
    # Firmware timer granularity (one-sided, microcontroller tick).
    TIMER_JITTER_SIGMA_NS = 43_000

    def __init__(self, site: ExecutionSite, port_mux, destination: Address,
                 stream: Optional[StreamConfig] = None,
                 rng=None, source_port: int = 9001,
                 require_file: bool = False) -> None:
        super().__init__(site)
        self.port_mux = port_mux
        self.destination = destination
        self.stream = stream or StreamConfig()
        self.rng = rng
        self.source_port = source_port
        self.require_file = require_file
        self.file_offcode: Optional[FileOffcode] = None
        self.packets_sent = 0
        self._file_ready: Event = site.sim.event()

    def PacketsSent(self) -> int:
        return self.packets_sent

    def attach_file(self, file_offcode: FileOffcode) -> None:
        """Wire the Pull-mate File (must be co-located)."""
        if file_offcode.site is not self.site:
            raise OffcodeError(
                "Pull(broadcast,file) violated: different sites")
        self.file_offcode = file_offcode
        if not self._file_ready.triggered:
            self._file_ready.succeed()

    def main(self) -> Generator[Event, None, None]:
        sim = self.site.sim
        if self.require_file and self.file_offcode is None:
            yield self._file_ready
        deadline = sim.now
        while True:
            deadline += self.stream.interval_ns
            wait = deadline - sim.now
            if self.rng is not None:
                wait += abs(round(self.rng.gauss(
                    0, self.TIMER_JITTER_SIGMA_NS)))
            if wait > 0:
                yield sim.clock.after(wait)
            size = self.stream.chunk_bytes
            if self.file_offcode is not None:
                yield from self.file_offcode.Read(size)
            yield from self.port_mux.send(
                self.source_port, self.destination, size,
                payload=("chunk", self.packets_sent))
            self.packets_sent += 1
