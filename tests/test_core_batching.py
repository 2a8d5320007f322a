"""Vectored call batching: watermarks, adaptive bypass, batch retry,
and the executive's provider-cost cache."""

import pytest

from repro.errors import (
    ChannelError,
    DeviceFailedError,
    RetryBudgetExceededError,
)
from repro.core import marshal
from repro.core.call import Call, CallBatch, CallPolicy
from repro.core.channel import BatchConfig, ChannelConfig, ChannelKind
from repro.core.executive import ChannelBatcher, ChannelExecutive
from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core.memory import MemoryManager
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.core.offcode import Offcode
from repro.core.providers import (
    DmaChannelProvider,
    LoopbackProvider,
    PeerDmaProvider,
)
from repro.core.runtime import DeploymentSpec, HydraRuntime
from repro.core.sites import DeviceSite, HostSite
from repro.hw import BusSpec, DeviceClass, Machine, MachineSpec
from repro.sim import Simulator


class World:
    """Host + NIC + GPU with an executive carrying every provider."""

    def __init__(self):
        self.sim = Simulator()
        self.machine = Machine(self.sim)
        self.nic = self.machine.add_nic()
        self.gpu = self.machine.add_gpu()
        self.host_site = HostSite(self.machine)
        self.nic_site = DeviceSite(self.nic)
        self.gpu_site = DeviceSite(self.gpu)
        self.memory = MemoryManager(self.machine)
        self.executive = ChannelExecutive()
        self.executive.register_provider(LoopbackProvider(self.machine))
        self.executive.register_provider(PeerDmaProvider(self.machine))
        for device in (self.nic, self.gpu):
            self.executive.register_provider(
                DmaChannelProvider(self.machine, device, self.memory))

    def batched_channel(self, batch, policy=None):
        config = (ChannelConfig.unicast().reliable().sequential()
                  .zero_copy().batched(max_bytes=batch.max_bytes,
                                       max_calls=batch.max_calls,
                                       deadline_ns=batch.deadline_ns,
                                       adaptive=batch.adaptive))
        channel = self.executive.create_channel(config, self.nic_site)
        self.executive.connect_site(channel, self.gpu_site)
        if policy is not None:
            channel.batcher = ChannelBatcher(channel, self.sim,
                                             config.batch, policy=policy)
        return channel

    def drive(self, generator):
        event = self.sim.spawn(generator)
        self.sim.run()
        return event


@pytest.fixture()
def world():
    return World()


class FlakyProvider:
    """Delegates to a real provider after ``failures`` injected faults."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.vectored_attempts = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def transfer_vectored(self, channel, source, destinations, batch):
        self.vectored_attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise DeviceFailedError("injected vectored fault")
            yield  # unreachable: marks this function as a generator
        yield from self.inner.transfer_vectored(
            channel, source, destinations, batch)


# -- CallBatch basics ---------------------------------------------------------------

def test_call_batch_accounts_sizes_and_entries():
    batch = CallBatch()
    batch.add("a", 100, now_ns=0)
    batch.add("b", 50, now_ns=5)
    assert batch.count == 2
    assert batch.payload_bytes == 150
    assert batch.size_bytes == (CallBatch.HEADER_BYTES + 150
                                + 2 * CallBatch.PER_ENTRY_BYTES)
    assert batch.oldest_enqueued_at_ns == 0
    assert batch.entry_sizes() == [100, 50]


def test_call_batch_rejects_two_way_calls():
    from repro.core.call import ReturnDescriptor
    from repro.core.guid import guid_from_name
    descriptor = ReturnDescriptor(Simulator())
    call = Call(guid_from_name("IThing"), "Get", b"[]",
                return_descriptor=descriptor)
    assert not call.one_way
    with pytest.raises(ChannelError):
        CallBatch().add(call, call.size_bytes, now_ns=0)


def test_call_batch_drop_expired_keeps_fresh_entries():
    batch = CallBatch()
    batch.add("stale", 10, now_ns=0, deadline_at_ns=100)
    batch.add("fresh", 10, now_ns=0, deadline_at_ns=10_000)
    dropped = batch.drop_expired(now_ns=500)
    assert [e.payload for e in dropped] == ["stale"]
    assert [e.payload for e in batch] == ["fresh"]


def test_drop_expired_delivers_deadline_error_to_waiter():
    from repro.core.call import BatchEntry, ReturnDescriptor
    from repro.core.guid import guid_from_name
    from repro.errors import OffloadTimeoutError

    sim = Simulator()
    descriptor = ReturnDescriptor(sim)
    call = Call(guid_from_name("IThing"), "Get", b"[]",
                return_descriptor=descriptor)
    # add() rejects two-way calls, but drop_expired defends against a
    # descriptor-bearing payload anyway — its waiter must get a deadline
    # exception, never a silent hang.
    batch = CallBatch()
    batch.entries.append(BatchEntry(payload=call, size_bytes=call.size_bytes,
                                    enqueued_at_ns=0, deadline_at_ns=100))
    out = {}

    def waiter():
        try:
            yield descriptor.event
        except OffloadTimeoutError as exc:
            out["exc"] = exc

    process = sim.spawn(waiter())
    sim.run(until=10)
    dropped = batch.drop_expired(now_ns=500)
    sim.run_until_event(process)
    assert [e.payload for e in dropped] == [call]
    assert batch.count == 0
    assert descriptor.delivered
    assert "deadline passed before flush" in str(out["exc"])
    # A second expiry sweep must not re-fire the one-shot descriptor.
    assert batch.drop_expired(now_ns=1000) == []


# -- flush watermarks ---------------------------------------------------------------

def test_count_watermark_flushes_inline(world):
    channel = world.batched_channel(
        BatchConfig(max_calls=4, adaptive=False))
    source = channel.creator_endpoint

    def writer():
        for seq in range(4):
            yield from source.write(("m", seq), 64)

    world.drive(writer())
    stats = channel.batcher.stats()
    assert stats.flushed_on_count == 1
    assert stats.coalesced == 4
    assert channel.batches_sent == 1
    assert channel.messages_sent == 4
    sink = next(e for e in channel.endpoints if e is not source)
    assert sink.messages_in == 4


def test_bytes_watermark_flushes_inline(world):
    channel = world.batched_channel(
        BatchConfig(max_bytes=256, max_calls=1000, adaptive=False))
    source = channel.creator_endpoint

    def writer():
        for seq in range(3):
            yield from source.write(("m", seq), 128)

    world.drive(writer())
    stats = channel.batcher.stats()
    assert stats.flushed_on_bytes == 1
    # The third write opened a fresh batch that never reached a
    # watermark; drive() runs the queue dry, so its deadline flushed it
    # as a second (single-entry) batch.
    assert stats.flushed_on_deadline == 1
    assert channel.batches_sent == 2
    assert channel.messages_sent == 3


def test_deadline_watermark_flushes_stragglers(world):
    channel = world.batched_channel(
        BatchConfig(max_calls=100, deadline_ns=50_000, adaptive=False))
    source = channel.creator_endpoint

    def writer():
        yield from source.write("only", 64)

    world.drive(writer())
    stats = channel.batcher.stats()
    assert stats.flushed_on_deadline == 1
    assert stats.flushed_on_count == stats.flushed_on_bytes == 0
    assert channel.messages_sent == 1
    # The flush happened at (not before) the deadline.
    assert world.sim.now >= 50_000


def test_flush_all_quiesces_pending_batches(world):
    channel = world.batched_channel(
        BatchConfig(max_calls=100, deadline_ns=10**9, adaptive=False))
    source = channel.creator_endpoint

    def writer():
        yield from source.write("a", 64)
        yield from source.write("b", 64)
        assert channel.batcher.pending_entries == 2
        yield from channel.batcher.flush_all()
        assert channel.batcher.pending_entries == 0

    world.drive(writer())
    assert channel.messages_sent == 2


# -- adaptive bypass ----------------------------------------------------------------

def test_adaptive_bypass_for_paced_traffic(world):
    channel = world.batched_channel(BatchConfig())   # adaptive by default
    source = channel.creator_endpoint

    def writer():
        for seq in range(10):
            yield from source.write(("m", seq), 188)
            # Far too slow to fill a batch.
            yield world.sim.clock.timeout(100_000)

    world.drive(writer())
    stats = channel.batcher.stats()
    assert stats.bypassed == 10
    assert stats.coalesced == 0
    assert channel.batches_sent == 0
    assert channel.messages_sent == 10        # classic per-message path


def test_adaptive_batcher_engages_for_bursts(world):
    channel = world.batched_channel(BatchConfig(max_calls=8))
    source = channel.creator_endpoint

    def writer():
        for seq in range(33):                 # back-to-back burst
            yield from source.write(("m", seq), 188)
        yield from channel.batcher.flush_all()

    world.drive(writer())
    stats = channel.batcher.stats()
    assert stats.bypassed == 1                # only the history-less first
    assert stats.coalesced == 32
    assert channel.batches_sent >= 4
    assert channel.messages_sent == 33


# -- batch retry as a unit -----------------------------------------------------------

def _policy(**overrides):
    defaults = dict(deadline_ns=10**9, max_attempts=3,
                    backoff_base_ns=10_000, jitter_frac=0.0)
    defaults.update(overrides)
    return CallPolicy(**defaults)


def test_failed_batch_retries_as_a_unit(world):
    channel = world.batched_channel(
        BatchConfig(max_calls=4, adaptive=False), policy=_policy())
    flaky = FlakyProvider(channel.provider, failures=1)
    channel.provider = flaky
    source = channel.creator_endpoint

    def writer():
        for seq in range(4):
            yield from source.write(("m", seq), 64)

    before = marshal.counters(world.sim.metrics)[0].value
    world.drive(writer())
    assert flaky.vectored_attempts == 2       # one failure + one success
    assert channel.batches_sent == 1          # the batch moved whole
    assert channel.messages_sent == 4
    assert channel.drops == 0
    # The replayed batch re-sends the entries' cached bytes; nothing is
    # re-marshalled on the retry path.
    assert marshal.counters(world.sim.metrics)[0].value == before


def test_batch_retry_budget_exhaustion_charges_drops(world):
    channel = world.batched_channel(
        BatchConfig(max_calls=2, adaptive=False),
        policy=_policy(max_attempts=2))
    flaky = FlakyProvider(channel.provider, failures=99)
    channel.provider = flaky
    source = channel.creator_endpoint
    failures = []

    def writer():
        try:
            yield from source.write("a", 64)
            yield from source.write("b", 64)   # trips the count watermark
        except RetryBudgetExceededError as exc:
            failures.append(exc)

    world.drive(writer())
    assert len(failures) == 1
    assert flaky.vectored_attempts == 2
    assert channel.drops == 2
    assert channel.messages_sent == 0


def test_expired_entries_are_dropped_before_retry(world):
    # Deadline shorter than the backoff: the retry finds every entry
    # stale and delivers nothing, without burning more attempts.
    channel = world.batched_channel(
        BatchConfig(max_calls=2, adaptive=False),
        policy=_policy(deadline_ns=1_000, backoff_base_ns=50_000))
    flaky = FlakyProvider(channel.provider, failures=1)
    channel.provider = flaky
    source = channel.creator_endpoint

    def writer():
        yield from source.write("a", 64)
        yield from source.write("b", 64)

    world.drive(writer())
    assert flaky.vectored_attempts == 1       # retry had nothing to send
    assert channel.batcher.stats().expired == 2
    assert channel.messages_sent == 0


# -- vectored transfer accounting ----------------------------------------------------

def test_vectored_flush_is_one_scatter_gather_transaction(world):
    world.machine.bus.record_log = True
    channel = world.batched_channel(
        BatchConfig(max_calls=16, adaptive=False))
    source = channel.creator_endpoint

    def writer():
        for seq in range(16):
            yield from source.write(("m", seq), 188)

    world.drive(writer())
    assert channel.batches_sent == 1
    assert len(world.machine.bus.transfers) == 1
    assert world.machine.bus.sg_transfers == 1
    assert world.machine.bus.sg_entries == 16


def test_vectored_multicast_on_legacy_pci_counts_every_transaction():
    """Without peer-to-peer, a hardware-multicast batch stages each copy
    through host memory: the bus counts every transaction it performs
    as scatter-gather, the rule :meth:`Bus.transfer_scatter` uses."""
    sim = Simulator()
    machine = Machine(sim, MachineSpec(bus=BusSpec.pci_legacy()))
    nic, gpu, disk = machine.add_nic(), machine.add_gpu(), machine.add_disk()
    memory = MemoryManager(machine)
    executive = ChannelExecutive()
    executive.register_provider(PeerDmaProvider(machine))
    for device in (nic, gpu, disk):
        executive.register_provider(
            DmaChannelProvider(machine, device, memory))
    config = ChannelConfig(kind=ChannelKind.MULTICAST).batched(
        max_calls=8, adaptive=False)
    channel = executive.create_channel(config, DeviceSite(nic))
    for device in (gpu, disk):
        executive.connect_site(channel, DeviceSite(device))

    def writer():
        for seq in range(8):
            yield from channel.creator_endpoint.write(("m", seq), 188)

    sim.run_until_event(sim.spawn(writer()))
    assert channel.batches_sent == 1
    # Two destinations, each staged nic0 -> host memory -> device.
    assert machine.bus.total_crossings() == 4
    assert machine.bus.sg_transfers == 4
    assert machine.bus.sg_entries == 8


# -- the provider-cost cache ---------------------------------------------------------

def test_cost_cache_hits_on_repeat_selection(world):
    config = ChannelConfig.unicast()
    first = world.executive.select_provider(world.nic_site,
                                            world.gpu_site, config)
    again = world.executive.select_provider(world.nic_site,
                                            world.gpu_site, config)
    assert first is again
    assert world.executive.cost_cache_hits == 1
    assert world.executive.cost_cache_misses == 1


def test_registering_a_provider_invalidates_the_cache(world):
    config = ChannelConfig.unicast()
    world.executive.select_provider(world.nic_site, world.gpu_site, config)
    epoch = world.executive.layout_epoch
    world.executive.register_provider(LoopbackProvider(Machine(world.sim)))
    assert world.executive.layout_epoch == epoch + 1
    world.executive.select_provider(world.nic_site, world.gpu_site, config)
    assert world.executive.cost_cache_misses == 2
    assert world.executive.cost_cache_hits == 0


def test_layout_resolve_invalidates_the_cost_cache():
    """A deployment re-solves the layout; cached rankings must retire."""
    interface = InterfaceSpec.from_methods(
        "INull", (MethodSpec("Ping", result="int"),))

    class NullOffcode(Offcode):
        BINDNAME = "test.Null"
        INTERFACES = (interface,)

        def Ping(self):
            return 1

    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(bindname="test.Null",
                      guid=NullOffcode(runtime.host_site).guid,
                      interfaces=[interface],
                      targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/offcodes/null.odf", odf)
    runtime.depot.register(odf.guid, NullOffcode)

    # Prime the memo, then deploy: the re-solve bumps the epoch.
    runtime.executive.select_provider(
        runtime.host_site, runtime.device_runtime("nic0").site,
        ChannelConfig.unicast())
    epoch = runtime.executive.layout_epoch
    assert len(runtime.executive._cost_cache) == 1

    def app():
        yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/null.odf",)))

    sim.run_until_event(sim.spawn(app()))
    assert runtime.executive.layout_epoch > epoch
