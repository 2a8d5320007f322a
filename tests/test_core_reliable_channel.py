"""Ack/retransmit protocol tests — exactly-once is earned, not assumed.

PR 4's tentpole: a RELIABLE channel under fault injection arms a
sliding-window protocol (sequence numbers, cumulative acks, timeout
retransmission, duplicate suppression) instead of rejecting the fault
filter.  These tests drive the protocol corner by corner: loss,
corruption, ack loss (the natural source of duplicates), give-up after
``max_attempts``, mid-flight capture of the unacked buffer, and the
vectored-batch variant.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelError
from repro.core import (
    ChannelConfig,
    HydraRuntime,
    RetransmitConfig,
)
from repro.core.call import CallBatch
from repro.core.channel import conservation
from repro.hw import Machine
from repro.sim import Simulator


@pytest.fixture()
def world():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    return sim, machine, runtime


def make_channel(runtime, label="rel"):
    config = (ChannelConfig.unicast().reliable().sequential().copied()
              .labeled(label))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    device_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("nic0").site)
    return channel, device_ep


def drain(endpoint, into):
    def reader():
        while True:
            message = yield from endpoint.read()
            into.append(message.payload)
    return reader


def test_exactly_once_in_order_under_heavy_noise(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    rng = random.Random(42)

    def noise(message):
        draw = rng.random()
        if draw < 0.20:
            return "drop"
        if draw < 0.30:
            return "corrupt"
        return None

    channel.set_fault_filter(noise)
    got = []
    sim.spawn(drain(device_ep, got)())

    def writer():
        for i in range(50):
            yield from channel.creator_endpoint.write(("chunk", i), 128)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    # Exactly once, in order, despite 30% wire faults.
    assert got == [("chunk", i) for i in range(50)]
    assert stats.delivered == 50
    assert stats.retransmits > 0
    assert stats.sent == stats.delivered + stats.dropped
    assert stats.corrupted + stats.dup_dropped <= stats.dropped
    assert channel.unacked_messages() == []


def test_ack_loss_produces_suppressed_duplicate(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    dropped_acks = []

    def lose_first_ack(message):
        payload = message.payload
        if (isinstance(payload, tuple) and payload
                and payload[0] == "ack" and not dropped_acks):
            dropped_acks.append(payload)
            return "drop"
        return None

    channel.set_fault_filter(lose_first_ack)
    got = []
    sim.spawn(drain(device_ep, got)())

    def writer():
        yield from channel.creator_endpoint.write("frame", 64)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    # The frame arrived, its ack was lost, the retransmit was recognized
    # as a duplicate and suppressed — the receiver saw exactly one copy.
    assert got == ["frame"]
    assert dropped_acks == [("ack", 1)]
    assert stats.delivered == 1
    assert stats.retransmits == 1
    assert stats.dup_dropped == 1
    assert stats.sent == 2
    assert stats.sent == stats.delivered + stats.dropped
    assert channel.unacked_messages() == []


def test_corrupt_frame_fails_checksum_and_retransmits(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    verdicts = iter(["corrupt", None, None])    # frame mangled, retry, ack
    channel.set_fault_filter(lambda message: next(verdicts, None))
    got = []
    sim.spawn(drain(device_ep, got)())

    def writer():
        yield from channel.creator_endpoint.write("frame", 64)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    # Unlike an UNRELIABLE channel (CorruptedPayload surfaces to the
    # receiver), the reliable receiver's checksum rejects the frame and
    # the sender retransmits: the application never sees the mangling.
    assert got == ["frame"]
    assert stats.corrupted == 1
    assert stats.dropped == 1
    assert stats.retransmits == 1
    assert stats.delivered == 1
    assert stats.sent == stats.delivered + stats.dropped


def test_gives_up_after_max_attempts(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    channel.retransmit_config = RetransmitConfig(timeout_ns=10_000,
                                                 max_attempts=3)
    channel.set_fault_filter(lambda message: "drop")
    out = {}

    def writer():
        try:
            yield from channel.creator_endpoint.write("doomed", 64)
        except ChannelError as exc:
            out["exc"] = exc

    sim.run_until_event(sim.spawn(writer()))
    assert "gave up on seq 1" in str(out["exc"])
    stats = channel.stats()
    assert stats.sent == 3
    assert stats.dropped == 3
    assert stats.delivered == 0


def test_unacked_buffer_captured_mid_flight_then_drains(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    channel.retransmit_config = RetransmitConfig(timeout_ns=50_000,
                                                 max_attempts=1000)
    channel.set_fault_filter(lambda message: "drop")
    got = []
    sim.spawn(drain(device_ep, got)())
    writer = sim.spawn(channel.creator_endpoint.write("frame", 64))

    # While the medium eats every attempt the frame sits in the
    # retransmit buffer — this is what recovery replays after a crash.
    sim.run(until=sim.now + 2_000_000)
    assert channel.unacked_messages() == [("frame", 64)]
    assert got == []

    # The noise clears; the pending retransmit finally lands and the
    # buffer retires the sequence number.
    channel.set_fault_filter(None)
    sim.run_until_event(writer)
    assert got == ["frame"]
    assert channel.unacked_messages() == []
    stats = channel.stats()
    assert stats.sent == stats.delivered + stats.dropped


def test_backoff_grows_exponentially_and_caps(world):
    sim, machine, runtime = world
    channel, _ = make_channel(runtime)
    channel.retransmit_config = RetransmitConfig(
        timeout_ns=100, backoff_factor=2.0, max_timeout_ns=500)
    channel.set_fault_filter(lambda message: None)
    assert channel._reliable_backoff_ns(1) == 100
    assert channel._reliable_backoff_ns(2) == 200
    assert channel._reliable_backoff_ns(3) == 400
    assert channel._reliable_backoff_ns(4) == 500    # capped
    assert channel._reliable_backoff_ns(10) == 500


def test_retransmit_config_validation():
    with pytest.raises(ChannelError):
        RetransmitConfig(timeout_ns=0)
    with pytest.raises(ChannelError):
        RetransmitConfig(max_attempts=0)
    with pytest.raises(ChannelError):
        RetransmitConfig(window=0)


def test_window_backpressure_bounds_unacked(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    channel.retransmit_config = RetransmitConfig(timeout_ns=50_000,
                                                 max_attempts=1000,
                                                 window=1)
    channel.set_fault_filter(lambda message: "drop")
    got = []
    sim.spawn(drain(device_ep, got)())
    first = sim.spawn(channel.creator_endpoint.write("one", 64))
    second = sim.spawn(channel.creator_endpoint.write("two", 64))
    sim.run(until=sim.now + 2_000_000)
    # The second writer is backpressured outside the window: only one
    # message may occupy the bounded retransmit buffer at a time.
    assert channel.unacked_messages() == [("one", 64)]
    channel.set_fault_filter(None)
    sim.run_until_event(first)
    sim.run_until_event(second)
    assert got == ["one", "two"]
    assert channel.unacked_messages() == []


def test_vectored_batch_rides_the_protocol(world):
    sim, machine, runtime = world
    channel, device_ep = make_channel(runtime)
    rng = random.Random(7)
    channel.set_fault_filter(
        lambda message: "drop" if rng.random() < 0.3 else None)
    got = []
    sim.spawn(drain(device_ep, got)())

    batch = CallBatch()
    for i in range(8):
        batch.add(("entry", i), 256, now_ns=sim.now)

    def writer():
        yield from channel.send_vectored(channel.creator_endpoint, batch)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    # One scatter-gather transfer served as every entry's first attempt;
    # lost entries were recovered as per-entry singles.
    assert got == [("entry", i) for i in range(8)]
    assert stats.batches == 1
    assert stats.delivered == 8
    assert stats.sent == stats.delivered + stats.dropped
    assert channel.unacked_messages() == []


def test_multicast_reliable_delivers_to_every_endpoint():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    machine.add_gpu()
    machine.add_disk()
    runtime = HydraRuntime(machine)
    # Rooted at the NIC, like the Figure-8 data plane: peer-DMA multicast
    # fans out from a device, not from the host.
    config = (ChannelConfig.multicast().reliable().sequential().copied()
              .labeled("fanout"))
    channel = runtime.executive.create_channel(
        config, runtime.device_runtime("nic0").site)
    gpu_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("gpu0").site)
    disk_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("disk0").site)
    verdicts = iter(["drop", None, None])
    channel.set_fault_filter(lambda message: next(verdicts, None))
    disk_got, gpu_got = [], []
    sim.spawn(drain(disk_ep, disk_got)())
    sim.spawn(drain(gpu_ep, gpu_got)())

    def writer():
        yield from channel.creator_endpoint.write("frame", 64)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    # Both consumers got the frame; the protocol counts the message once.
    assert disk_got == ["frame"]
    assert gpu_got == ["frame"]
    assert stats.delivered == 1
    assert stats.retransmits == 1
    assert stats.sent == stats.delivered + stats.dropped


# -- exactly-once, property-checked ---------------------------------------------------

VERDICTS = st.sampled_from(["drop", "corrupt", None])


@given(ops=st.lists(st.one_of(st.just(1), st.integers(2, 6)),
                    min_size=1, max_size=8),
       noise=st.lists(VERDICTS, max_size=40))
@settings(max_examples=60, deadline=None)
def test_reliable_channel_delivers_exactly_once_in_order(ops, noise):
    """Single writes (``1``) and vectored batches (``2..6`` entries) over
    a sequential reliable channel whose filter rules a random finite
    verdict sequence, then clean frames.  The filter sees data frames
    and acks alike, so a verdict that lands on an ack is an ack loss."""
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    channel, device_ep = make_channel(runtime)
    verdicts = iter(noise)
    channel.set_fault_filter(lambda message: next(verdicts, None))
    got = []
    sim.spawn(drain(device_ep, got)())
    sent = []

    def writer():
        source = channel.creator_endpoint
        for count in ops:
            payloads = [("m", len(sent) + i) for i in range(count)]
            sent.extend(payloads)
            if count == 1:
                yield from source.write(payloads[0], 96)
                continue
            batch = CallBatch()
            for payload in payloads:
                batch.add(payload, 96, now_ns=sim.now)
            yield from channel.send_vectored(source, batch)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    assert got == sent
    assert stats.delivered == len(sent)
    assert conservation([channel])[1] == []
    assert stats.sent == len(sent) + stats.retransmits
    assert channel.unacked_messages() == []
