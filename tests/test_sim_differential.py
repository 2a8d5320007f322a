"""Heap-vs-wheel differential tests: the scheduler swap is invisible.

The timer-wheel queue replaced the binary heap as a pure *mechanical*
change: both implementations must pop in the identical ``(time,
priority, seq)`` order, so every seeded run computes byte-identical
results whichever queue is underneath.  These tests pin that property
on:

* the TiVoPC pipeline, diffing the telemetry hub's whole span tree and
  instants, field for field;
* the chaos harness across seeds 0..9 (fault injection, watchdogs,
  recovery — the densest timer workload in the repo), diffing
  order-sensitive run fingerprints;
* the ack/retransmit protocol at ``jitter=0``, whose deterministic
  backoff schedule is the paper-facing behaviour most sensitive to
  timer reordering;
* random traces of sleeps, timeouts, one-shot and periodic timers,
  cancellations, interrupts, resource holds, store puts/gets, fences
  and reclaim sweeps, with delays on every wheel boundary, diffing
  every step's time and the engine's counters;
* cascades of a level-1 slot holding one entry fewer than the refill
  batch, exactly the batch and one more, with cancels in the slot and
  in the window, diffing the trace and pinning the wheel's books.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelConfig, HydraRuntime
from repro.errors import InterruptError, ProcessError
from repro.faults.chaos import ChaosProfile, run_chaos_scenario
from repro.hw import Machine
from repro.sim import Simulator
from repro.sim.resources import Resource, Store
from repro.telemetry import Telemetry
from repro.tivopc.client import MeasurementClient
from repro.tivopc.server import SimpleServer
from repro.tivopc.testbed import Testbed, TestbedConfig

_SIM_SECONDS = 0.3


def _instants(tel):
    return [(e.time_ns, e.category, e.name, e.track, e.attrs)
            for e in tel.events]


def _traced_tivopc_run(scheduler: str, seed: int):
    testbed = Testbed(TestbedConfig(seed=seed, scheduler=scheduler))
    tel = Telemetry.attach(testbed.sim)
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    SimpleServer(testbed).start()
    testbed.run(_SIM_SECONDS)
    spans = [(s.name, s.category, s.track, s.trace_id, s.span_id,
              s.parent_id, s.start_ns, s.end_ns, s.attrs)
             for s in tel.spans]
    assert spans                        # the diff compares something
    return (spans, _instants(tel)), testbed.sim, client


def test_tivopc_traces_identical_on_heap_and_wheel():
    for seed in (0, 7):
        wheel_records, wheel_sim, wheel_client = _traced_tivopc_run(
            "wheel", seed)
        heap_records, heap_sim, heap_client = _traced_tivopc_run(
            "heap", seed)
        assert wheel_sim.events_processed == heap_sim.events_processed
        assert wheel_sim.now == heap_sim.now
        assert (wheel_client.jitter.arrivals_ns
                == heap_client.jitter.arrivals_ns)
        # Bit-identical traces: every span and instant, field for
        # field, in order.
        assert wheel_records == heap_records


def _chaos_fingerprint(seed: int, scheduler: str):
    """An order-sensitive digest of one chaos run.

    The chaos harness interleaves RNG draws with event dispatch, so any
    divergence in pop order immediately perturbs every field below
    (fault timing, retransmit counts, arrival times, final clock).
    """
    # 3.0 s is the shortest horizon the plan generator's crash/stall
    # windows admit; it still packs noise, transients, a stall and a
    # crash-recovery cycle into every seed.
    profile = replace(ChaosProfile(), seconds=3.0, scheduler=scheduler)
    run = run_chaos_scenario(seed, profile)
    channels = sorted(
        ((s.channel_id, s.label, s.sent, s.delivered, s.dropped,
          s.corrupted, s.retransmits, s.dup_dropped)
         for s in (c.stats()
                   for c in run.testbed.client_runtime.executive.channels)),
    )
    return {
        "events": run.testbed.sim.events_processed,
        "now": run.testbed.sim.now,
        "chunks": run.client.chunks_received,
        "frames": run.client.frames_shown,
        "packets": run.server.packets_sent,
        "plan": tuple(
            (event.at_ns, event.kind, event.target)
            for event in run.plan.events),
        "channels": channels,
        "incidents": len(run.testbed.client_runtime.incidents),
    }


def test_chaos_seeds_identical_on_heap_and_wheel():
    for seed in range(10):
        wheel = _chaos_fingerprint(seed, "wheel")
        heap = _chaos_fingerprint(seed, "heap")
        assert wheel == heap, f"seed {seed} diverged: {wheel} != {heap}"


def _retransmit_run(scheduler: str):
    """The noisy reliable channel with the deterministic (jitter=0)
    backoff; returns the full trace plus protocol outcomes.
    """
    sim = Simulator(scheduler=scheduler)
    tel = Telemetry.attach(sim)
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    config = (ChannelConfig.unicast().reliable().sequential().copied()
              .labeled("rel"))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    device_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("nic0").site)
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

    def reader():
        while True:
            message = yield from device_ep.read()
            got.append(message.payload)

    sim.spawn(reader())

    def writer():
        for i in range(50):
            yield from channel.creator_endpoint.write(("chunk", i), 128)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    return (_instants(tel), got, sim.now,
            (stats.sent, stats.delivered, stats.dropped,
             stats.retransmits, stats.dup_dropped))


def test_retransmit_backoff_byte_identical_at_zero_jitter():
    wheel_records, wheel_got, wheel_now, wheel_stats = _retransmit_run(
        "wheel")
    heap_records, heap_got, heap_now, heap_stats = _retransmit_run("heap")
    assert wheel_got == heap_got == [("chunk", i) for i in range(50)]
    assert wheel_now == heap_now
    assert wheel_stats == heap_stats
    assert wheel_stats[3] > 0           # the retransmit path actually fired
    assert wheel_records == heap_records


# -- random schedule / cancel / interrupt traces ---------------------------------

# Delays within a slot or two of a wheel boundary (L0 slot, L0 span, L1
# span), so slots and windows fill with entries out of time order, and
# arbitrary ones up to four times the L1 span (the overflow heap).
_NEAR_BOUNDARY = st.builds(
    lambda edge, offset: max(0, edge + offset),
    st.sampled_from([0, 256, 65_536, 1 << 24]),
    st.integers(min_value=-300, max_value=300))
_DELAYS = st.one_of(_NEAR_BOUNDARY, _NEAR_BOUNDARY,
                    st.integers(min_value=0, max_value=1 << 26))

_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("sleep_value"), _DELAYS),
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("timer"), _DELAYS),
    st.tuples(st.just("every"), _DELAYS.map(lambda d: d + 1),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("hold"), _DELAYS),
    st.tuples(st.just("put"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("get")),
    st.tuples(st.just("fence")),
    st.tuples(st.just("reclaim")),
)


def _random_trace_run(scheduler, actors):
    """Every step of every actor, with its time, and the engine's books."""
    sim = Simulator(scheduler=scheduler)
    store = Store(sim, capacity=2)
    resource = Resource(sim)
    log, timers, processes = [], [], []

    def fire(tag):
        def fn():
            log.append((sim.now, "fire", tag))
        return fn

    def every(tag, count):
        def fn():
            log.append((sim.now, "every", tag))
            if timer_box[tag].fires >= count:
                timer_box[tag].cancel()
        return fn

    timer_box = {}

    def actor(index, start, ops):
        for step, op in enumerate([("sleep", start)] + ops):
            tag = (index, step)
            kind = op[0]
            try:
                if kind == "sleep":
                    yield sim.clock.after(op[1])
                elif kind == "sleep_value":
                    got = yield sim.clock.after(op[1], value=tag)
                    log.append((sim.now, "value", got))
                elif kind == "timeout":
                    yield sim.clock.timeout(op[1])
                elif kind == "timer":
                    timers.append(sim.clock.after(op[1], fire(tag)))
                elif kind == "every":
                    timer_box[tag] = sim.clock.every(op[1], every(tag, op[2]))
                    timers.append(timer_box[tag])
                elif kind == "cancel":
                    if timers:
                        log.append((sim.now, "cancel",
                                    timers[op[1] % len(timers)].cancel()))
                elif kind == "interrupt":
                    target = processes[op[1] % len(processes)]
                    try:
                        target.interrupt(tag)
                    except ProcessError:
                        log.append((sim.now, "refused", tag))
                elif kind == "hold":
                    request = resource.request()
                    try:
                        yield request
                    except InterruptError:
                        resource.withdraw(request)
                        raise
                    try:
                        yield sim.clock.after(op[1])
                    finally:
                        resource.release()
                elif kind == "put":
                    yield store.put((tag, op[1]))
                elif kind == "get":
                    got = yield store.get()
                    log.append((sim.now, "got", got))
                elif kind == "fence":
                    yield sim.clock.fence()
                else:
                    # What a sweep finds is the scheduler's business (the
                    # heap leaves everything in its active window).
                    sim.reclaim()
            except InterruptError as stop:
                log.append((sim.now, "interrupted", tag, stop.args))
            log.append((sim.now, "step", tag))

    for index, (start, ops) in enumerate(actors):
        processes.append(sim.spawn(actor(index, start, ops)))
    sim.run(until=1 << 28)
    return ((log, sim.now, sim.fused_resumes, [p.alive for p in processes]),
            sim.events_processed)


@settings(max_examples=100, deadline=None)
@given(actors=st.lists(
    st.tuples(_DELAYS, st.lists(_OPS, max_size=16)), min_size=1, max_size=8))
def test_random_traces_identical_on_heap_and_wheel(actors):
    wheel, wheel_events = _random_trace_run("wheel", actors)
    heap, heap_events = _random_trace_run("heap", actors)
    assert wheel == heap
    # The wheel takes a cancelled timer out of its slot in place; the
    # heap drops it when it pops, which counts as a processed event.
    assert wheel_events <= heap_events


# -- L1 cascades around the refill batch size ------------------------------------

# One L1 slot spans the whole L0 wheel (65,536 ns).  Everything a run
# schedules from t=0 into [_CASCADE_AT, 2 * _CASCADE_AT) therefore waits
# in L1 slot 1, and the refill that follows the first window cascades it
# while L0 is empty.  A slot holding fewer entries than the refill batch
# (32) becomes the active window directly; 32 or more are spread over L0
# and gathered back a batch at a time.
_CASCADE_AT = 1 << 16


def _cascade_run(scheduler, held):
    """Cascade an L1 slot that holds ``held`` entries (one more is
    cancelled in the slot first); returns the heap-comparable trace and
    the wheel's own books."""
    sim = Simulator(scheduler=scheduler)
    log, dead = [], []
    slot_timers = []

    def offset(k):
        # Spread over L0 slots, out of time order, with some ties.
        return (k * 2053) % 8192 if k % 5 else 4096

    def fire(tag):
        def fn():
            log.append((sim.now, "fire", tag))
        return fn

    def sleeper(k, carry):
        if carry:
            got = yield sim.clock.after(_CASCADE_AT + offset(k), value=k)
        else:
            got = yield sim.clock.after(_CASCADE_AT + offset(k))
        log.append((sim.now, "woke", k, got))
        if k == timers:
            # Inside the window: cancel a timer from the slot, then one
            # set now past the slot's last entry but inside L0's span,
            # which only the sparse window covers.
            log.append((sim.now, "cancel", slot_timers[-1].cancel()))
            dead.append(sim.dead_timers)
            fresh = sim.clock.after(20_000, fire("fresh"))
            log.append((sim.now, "cancel", fresh.cancel()))
            dead.append(sim.dead_timers)
        # Near sleeps: in the window, or in L0 past a narrow one.
        got = yield sim.clock.after(100 + 300 * (k % 3), value=("near", k))
        log.append((sim.now, "near", got))
        # Value-carrying and plain sleeps beyond L0, into L1 ...
        got = yield sim.clock.after(100_000 + k, value=("l1", k))
        log.append((sim.now, "l1", got))
        yield sim.clock.after(70_000 + 3 * k)
        log.append((sim.now, "l1-plain", k))
        # ... and beyond L1, into the overflow heap.
        got = yield sim.clock.after((1 << 25) + k, value=("far", k))
        log.append((sim.now, "far", got))
        yield sim.clock.after((1 << 24) + 7 * k)
        log.append((sim.now, "far-plain", k))

    timers = held // 3
    for k in range(held):
        if k < timers - 1:
            slot_timers.append(
                sim.clock.after(_CASCADE_AT + offset(k), fire(k)))
        elif k == timers - 1:
            # The in-window cancel's target, last in the slot.
            slot_timers.append(
                sim.clock.after(_CASCADE_AT + 9000, fire("late")))
        else:
            sim.spawn(sleeper(k, carry=k % 2 == 0))
    doomed = sim.clock.after(_CASCADE_AT + 5000, fire("doomed"))

    def canceller():
        yield sim.clock.after(1000)
        log.append((sim.now, "cancel", doomed.cancel()))
        dead.append(sim.dead_timers)
        if scheduler == "wheel":
            # The premise: the slot holds ``held`` entries, L0 none.
            assert len(sim._l1[1]) == held
            assert not any(sim._l0_occ)

    sim.spawn(canceller())
    sim.run(until=1 << 26)
    dead.append(sim.dead_timers)
    return ((log, sim.now, sim.fused_resumes),
            (sim.events_processed, tuple(dead)))


# events_processed and the dead-timer gauge on the wheel (after the
# cancel in the L1 slot, after each cancel in the window, at the end),
# as the refill that scattered every cascaded slot over L0 gave them.
_CASCADE_BOOKS = {31: (182, (0, 1, 2, 0)),
                  32: (189, (0, 1, 1, 0)),
                  33: (189, (0, 0, 0, 0))}


def test_l1_cascades_around_the_batch_size_match_the_heap():
    for held, books in _CASCADE_BOOKS.items():
        wheel, wheel_books = _cascade_run("wheel", held)
        heap, heap_books = _cascade_run("heap", held)
        assert wheel == heap, f"{held} entries diverged"
        assert wheel_books == books, (held, wheel_books)
        # The heap pops every cancelled timer dead; the wheel takes
        # those still in a slot out in place.
        assert wheel_books[0] < heap_books[0]


def _slotted_sleeps_run(scheduler, carry):
    """32 processes start in one L0 slot, so the first window ends with
    it; each then sleeps from the run loop into L0 slot 10, where 32
    timers wait 200 ns later in the same slot."""
    sim = Simulator(scheduler=scheduler)
    log = []

    def sleeper(k):
        if carry:
            got = yield sim.clock.after(2600, value=k)
        else:
            got = yield sim.clock.after(2600)
        log.append((sim.now, "woke", k, got))

    for k in range(32):
        sim.spawn(sleeper(k))
    for k in range(32):
        sim.clock.after(2800, lambda k=k: log.append((sim.now, "fire", k)))
    sim.run()
    return log, sim.events_processed


def test_run_loop_sleeps_land_in_their_l0_slot():
    for carry in (False, True):
        # A sleep filed one slot late would pop after the timers.
        assert (_slotted_sleeps_run("wheel", carry)
                == _slotted_sleeps_run("heap", carry))
