"""Unit tests for TiVoPC components and metrics."""

import pytest

from repro import units
from repro.errors import OffcodeError
from repro.core.channel import ChannelConfig
from repro.core.executive import ChannelExecutive
from repro.core.offcode import OffcodeState
from repro.core.providers import LoopbackProvider, PeerDmaProvider
from repro.core.sites import DeviceSite
from repro.hw import Machine
from repro.net import Address, Switch
from repro.net.devport import DeviceNetPort
from repro.sim import RandomStreams, Simulator
from repro.tivopc.components import (
    BroadcastOffcode,
    DecoderOffcode,
    DisplayOffcode,
    FileOffcode,
    StreamerOffcode,
)
from repro.tivopc.metrics import (
    JitterCollector,
    SummaryStats,
    cdf_points,
    histogram,
)


# -- metrics --------------------------------------------------------------------------

def test_summary_stats_basic():
    stats = SummaryStats.of([1.0, 2.0, 3.0, 4.0])
    assert stats.median == 2.5
    assert stats.average == 2.5
    assert stats.count == 4
    assert stats.stdev == pytest.approx(1.118, abs=1e-3)


def test_summary_stats_empty_and_single():
    assert SummaryStats.of([]).count == 0
    single = SummaryStats.of([5.0])
    assert single.median == 5.0 and single.stdev == 0.0


def test_jitter_collector_intervals():
    collector = JitterCollector()
    for t in range(0, 50_000_001, 5_000_000):   # every 5 ms
        collector.record(t)
    intervals = collector.intervals_ms(discard_first=0)
    assert intervals == [5.0] * 10
    assert collector.stats(discard_first=2).average == 5.0


def test_jitter_collector_discards_warmup():
    collector = JitterCollector()
    times = [0, 20_000_000] + [20_000_000 + 5_000_000 * i
                               for i in range(1, 12)]
    for t in times:
        collector.record(t)
    stats = collector.stats(discard_first=5)
    assert stats.average == pytest.approx(5.0)


def test_histogram_bins():
    bins = histogram([1.0, 1.2, 2.5, 2.6, 2.7], bin_width=1.0)
    assert bins[0] == (1.0, 2)
    assert bins[1] == (2.0, 3)
    with pytest.raises(ValueError):
        histogram([1.0], bin_width=0)
    assert histogram([], 1.0) == []


def test_cdf_points_monotone():
    points = cdf_points([3.0, 1.0, 2.0])
    assert points == [(1.0, pytest.approx(1 / 3)),
                      (2.0, pytest.approx(2 / 3)),
                      (3.0, pytest.approx(1.0))]


# -- component harness ------------------------------------------------------------------


class GpuWorld:
    """A machine with NIC/GPU/disk, an executive, and helper wiring."""

    def __init__(self):
        self.sim = Simulator()
        self.machine = Machine(self.sim)
        self.nic = self.machine.add_nic()
        self.gpu = self.machine.add_gpu()
        self.disk = self.machine.add_disk()
        self.executive = ChannelExecutive()
        self.executive.register_provider(LoopbackProvider(self.machine))
        self.executive.register_provider(PeerDmaProvider(self.machine))

    def running(self, offcode):
        offcode.state = OffcodeState.RUNNING
        return offcode


def test_decoder_accumulates_frames_on_gpu():
    world = GpuWorld()
    gpu_site = DeviceSite(world.gpu)
    decoder = world.running(DecoderOffcode(gpu_site, frame_bytes=4096))
    display = world.running(DisplayOffcode(gpu_site))
    decoder.attach_display(display)

    channel = world.executive.create_channel_for_offcode(
        ChannelConfig(label=StreamerOffcode.DATA_LABEL),
        world.running(StreamerOffcode(DeviceSite(world.nic),
                                      port_mux=object())))
    world.executive.connect_offcode(channel, decoder)

    def feed():
        endpoint = channel.creator_endpoint
        for _ in range(9):
            yield from endpoint.write(b"chunk", 1024)

    world.sim.run_until_event(world.sim.spawn(feed()))
    # 9 kB at 4 kB frames -> 2 frames decoded and shown.
    assert decoder.frames_decoded == 2
    assert display.frames_shown == 2
    assert world.gpu.frames_displayed == 2
    assert world.gpu.bytes_decoded == 8192


def test_decoder_pull_violation_rejected():
    world = GpuWorld()
    decoder = DecoderOffcode(DeviceSite(world.gpu))
    display = DisplayOffcode(DeviceSite(world.nic))
    with pytest.raises(OffcodeError):
        decoder.attach_display(display)


def test_display_falls_back_to_generic_site_cost():
    world = GpuWorld()
    display = world.running(DisplayOffcode(DeviceSite(world.nic)))

    def show():
        yield from display.show_frame(1000)

    world.sim.run_until_event(world.sim.spawn(show()))
    assert display.frames_shown == 1
    assert world.nic.cpu.total_busy > 0


def test_streamer_disk_role_appends_to_file():
    world = GpuWorld()
    disk_site = DeviceSite(world.disk)
    streamer = world.running(StreamerOffcode(disk_site))

    class FakeNfs:
        def __init__(self):
            self.written = 0
            self.sim = world.sim

        def read(self, handle, offset, size):
            yield world.sim.clock.timeout(10)
            return size

        def write(self, handle, offset, size):
            self.written += size
            yield world.sim.clock.timeout(10)
            return size

    nfs = FakeNfs()
    file_offcode = world.running(FileOffcode(disk_site, nfs))
    streamer.attach_file(file_offcode)

    channel = world.executive.create_channel_for_offcode(
        ChannelConfig(label=StreamerOffcode.DATA_LABEL),
        world.running(StreamerOffcode(DeviceSite(world.nic),
                                      port_mux=object())))
    world.executive.connect_offcode(channel, streamer)

    def feed():
        for _ in range(4):
            yield from channel.creator_endpoint.write(b"c", 1024)

    world.sim.run_until_event(world.sim.spawn(feed()))
    world.sim.run()
    assert streamer.chunks_handled == 4
    assert file_offcode.bytes_written == 4096
    assert nfs.written == 4096


def test_streamer_pull_violation_rejected():
    world = GpuWorld()
    streamer = StreamerOffcode(DeviceSite(world.disk))

    class FakeNfs:
        sim = world.sim

        def read(self, handle, offset, size):
            yield world.sim.clock.timeout(1)
            return size

        def write(self, handle, offset, size):
            yield world.sim.clock.timeout(1)
            return size

    file_elsewhere = FileOffcode(DeviceSite(world.gpu), FakeNfs())
    with pytest.raises(OffcodeError):
        streamer.attach_file(file_elsewhere)


def test_streamer_ignores_unlabelled_channels():
    world = GpuWorld()
    streamer = world.running(
        StreamerOffcode(DeviceSite(world.nic), port_mux=object()))
    plain = world.executive.create_channel(ChannelConfig(),
                                           DeviceSite(world.gpu))
    streamer.on_channel_attached(plain)
    assert streamer.data_channel is None
    labelled = world.executive.create_channel(
        ChannelConfig(label=StreamerOffcode.DATA_LABEL),
        DeviceSite(world.nic))
    streamer.on_channel_attached(labelled)
    assert streamer.data_channel is labelled


def test_broadcast_precise_pacing_without_rng():
    world = GpuWorld()
    switch = Switch(world.sim, rng=RandomStreams(0).stream("sw"))
    port = DeviceNetPort(world.nic, switch, "sender")
    switch.attach("receiver", lambda p: None)
    broadcast = BroadcastOffcode(
        DeviceSite(world.nic), port, Address("receiver", 9000), rng=None)
    broadcast.state = OffcodeState.INITIALIZED

    def bring_up():
        yield from broadcast.on_start()
        broadcast.state = OffcodeState.RUNNING

    world.sim.run_until_event(world.sim.spawn(bring_up()))
    world.sim.spawn(broadcast.main())
    world.sim.run(until=world.sim.now + units.s_to_ns(1))
    # Exactly one packet per 5 ms, no drift.
    assert broadcast.packets_sent in (199, 200)


def test_broadcast_waits_for_required_file():
    world = GpuWorld()
    switch = Switch(world.sim, rng=RandomStreams(0).stream("sw"))
    port = DeviceNetPort(world.nic, switch, "sender")
    switch.attach("receiver", lambda p: None)
    site = DeviceSite(world.nic)
    broadcast = BroadcastOffcode(site, port, Address("receiver", 9000),
                                 require_file=True)
    broadcast.state = OffcodeState.RUNNING
    world.sim.spawn(broadcast.main())
    world.sim.run(until=units.s_to_ns(0.1))
    assert broadcast.packets_sent == 0     # blocked on the File mate

    class FakeNfs:
        sim = world.sim

        def read(self, handle, offset, size):
            yield world.sim.clock.timeout(1)
            return size

        def write(self, handle, offset, size):
            yield world.sim.clock.timeout(1)
            return size

    file_offcode = FileOffcode(site, FakeNfs())
    file_offcode.state = OffcodeState.RUNNING
    broadcast.attach_file(file_offcode)
    world.sim.run(until=units.s_to_ns(0.3))
    assert broadcast.packets_sent > 10
    assert file_offcode.bytes_read > 0
