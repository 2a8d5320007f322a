"""The lazy timer tick computes exactly what the eager tick process did.

The kernel keeps only its next tick time; every CPU request, L2 access
and utilization read on the host first brings the due ticks up to now
(:mod:`repro.hostos.kernel`).  The eager tick process of
:mod:`tests.eager_ticks` is the oracle: on random single-host traces,
on two hosts ticking in lockstep, and on whole TiVoPC and chaos runs,
both must produce identical observations, on both schedulers, while
the lazy tick pops far fewer queue entries.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import InterruptError
from repro.faults.chaos import (ChaosProfile, check_invariants,
                                 run_chaos_scenario)
from repro.hostos.kernel import Kernel, KernelConfig
from repro.hostos.scheduler import SchedulerSpec
from repro.hw import CpuSampler, Machine
from repro.sim import RandomStreams, Simulator
from repro.tivopc import (OffloadedClient, OffloadedServer, SimpleServer,
                          Testbed, TestbedConfig, UserSpaceClient)

from tests.eager_ticks import eager_ticks

SCHEDULERS = ["wheel", "heap"]
COST = KernelConfig().tick_cost_ns


# -- random single-host traces -------------------------------------------------------


def _boundaries(tick_ns, count):
    """Tick starts and ISR ends of an uncontended host, with neighbours."""
    times = []
    for k in range(1, count + 1):
        start = k * tick_ns + (k - 1) * COST
        for edge in (start, start + COST):
            times += [edge - 1, edge, edge + 1]
    return times


@st.composite
def traces(draw):
    hz = draw(st.sampled_from([1000, 100_000, 250_000]))
    tick_ns = units.SECOND // hz
    edges = _boundaries(tick_ns, 12)
    horizon = edges[-1] + tick_ns
    when = st.one_of(st.sampled_from(edges),
                     st.integers(min_value=0, max_value=horizon))
    work = st.one_of(st.sampled_from([1, COST - 1, COST, COST + 1,
                                      tick_ns, tick_ns + COST]),
                     st.integers(min_value=0, max_value=3 * tick_ns))
    read = st.tuples(st.just("read"), when)
    op = st.one_of(
        st.tuples(st.just("cpu"), when, work),
        st.tuples(st.just("interrupted"), when, work,
                  st.integers(min_value=1, max_value=2 * tick_ns)),
        st.tuples(st.just("sleep"), when, work),
        # Small touches, and sweeps big enough to evict the kernel text
        # the ticks touch, so the order of L2 touches shows in the counts.
        st.tuples(st.just("touch"), when,
                  st.integers(min_value=0, max_value=1 << 20),
                  st.one_of(st.integers(min_value=1, max_value=4096),
                            st.integers(min_value=256 << 10,
                                        max_value=640 << 10))),
        read, read,
    )
    ops = draw(st.lists(op, min_size=1, max_size=25))
    background = draw(st.booleans())
    return hz, ops, background, horizon + 2 * tick_ns


def _run_trace(trace, scheduler):
    """Observations of one trace: identical for the lazy and eager tick."""
    hz, ops, background, until = trace
    sim = Simulator(scheduler=scheduler)
    machine = Machine(sim)
    kernel = Kernel(machine, RandomStreams(3),
                    KernelConfig(scheduler=SchedulerSpec(hz=hz)))
    kernel.start(with_background=background)
    cpu, l2 = machine.cpu, machine.l2
    sampler = CpuSampler(cpu)
    log, pins = [], []

    def read():
        sampler.sample()
        pins.append(l2.stats_pin())
        log.append(("read", sim.now, kernel.ticks, cpu.busy, cpu.queue_depth,
                    cpu.busy_ns, cpu.total_busy,
                    sorted(cpu.busy_by_context.items())))

    def job(index, op):
        kind = op[0]
        yield sim.clock.at(op[1])
        if kind == "read":
            read()
        elif kind == "touch":
            l2.touch_range(op[2], op[3])
        elif kind == "sleep":
            yield from kernel.sleep(op[2])
        else:
            try:
                yield from cpu.execute(op[2], context=f"job-{index % 3}")
            except InterruptError:
                log.append(("interrupted", index, sim.now))
                return
        log.append(("done", index, sim.now))

    def interrupter(target, at):
        yield sim.clock.at(at)
        if target.alive:
            target.interrupt("stop")

    for index, op in enumerate(ops):
        process = sim.spawn(job(index, op))
        if op[0] == "interrupted":
            sim.spawn(interrupter(process, op[1] + op[3]))
    sim.run(until=until)
    read()
    log.append(("windows", sampler.samples,
                [vars(pin.resolve()) for pin in pins],
                cpu.utilization(), vars(l2.stats)))
    return log, sim.events_processed


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=100, deadline=None)
@given(trace=traces())
def test_lazy_tick_matches_eager_on_random_traces(scheduler, trace):
    lazy, lazy_events = _run_trace(trace, scheduler)
    with eager_ticks():
        eager, eager_events = _run_trace(trace, scheduler)
    assert lazy == eager
    assert lazy_events <= eager_events


# -- the three cases and the tie rule, one instant at a time ---------------------------


def _host(hz=1000):
    sim = Simulator()
    machine = Machine(sim)
    kernel = Kernel(machine, RandomStreams(1),
                    KernelConfig(scheduler=SchedulerSpec(hz=hz)))
    return sim, machine, kernel


def test_idle_ticks_cost_no_queue_entries():
    sim, machine, kernel = _host()
    kernel.start(with_background=False)
    sim.run(until=units.s_to_ns(0.1))
    assert sim.events_processed == 0
    # Ticks at k ms + (k-1) * 2 us, each charging its ISR on observation.
    assert kernel.ticks == 99
    assert machine.cpu.busy_by_context == {"kernel-tick": 99 * COST}
    assert machine.l2.stats.accesses == 99 * 512 // 64


def _first_tick_with_job(at, work):
    """A job asking for the CPU at ``at``: (its start, its end, events)."""
    sim, machine, kernel = _host()
    kernel.start(with_background=False)
    seen = []

    def job():
        yield sim.clock.at(at)
        asked = sim.now
        yield from machine.cpu.execute(work)
        seen.append((asked, sim.now - work, sim.now))

    sim.spawn(job())
    sim.run(until=units.MS + 10 * COST)
    return seen[0], sim.events_processed, kernel.ticks


def test_read_at_isr_end_sees_it_done():
    sim, machine, kernel = _host()
    kernel.start(with_background=False)
    sim.run(until=units.MS + COST)
    assert not machine.cpu.busy
    assert machine.cpu.total_busy == machine.cpu.busy_ns == COST
    assert sim.events_processed == 0


def test_read_inside_isr_sees_it_running():
    sim, machine, kernel = _host()
    kernel.start(with_background=False)
    sim.run(until=units.MS + COST - 1)
    assert machine.cpu.busy and machine.cpu.total_busy == 0
    assert machine.cpu.busy_ns == COST - 1
    sim.run(until=units.MS + COST)
    assert not machine.cpu.busy
    assert machine.cpu.total_busy == machine.cpu.busy_ns == COST
    # The running ISR cost one queue entry: its end.
    assert sim.events_processed == 1


def test_request_at_tick_start_queues_behind_the_isr():
    (asked, started, _), _, ticks = _first_tick_with_job(units.MS, 500)
    assert (asked, started) == (units.MS, units.MS + COST)
    assert ticks == 1


def test_request_at_isr_end_finds_the_cpu_free():
    (asked, started, _), _, _ = _first_tick_with_job(units.MS + COST, 500)
    assert started == asked == units.MS + COST


def test_request_inside_isr_waits_for_its_end():
    (_, started, _), events, _ = _first_tick_with_job(units.MS + 1, 500)
    assert started == units.MS + COST
    # The job's start, wake, grant, end of run and completion, and the
    # ISR's one entry at its end.
    assert events == 6


def _busy_at_tick_run():
    """A 500 ns job holds the CPU across the first tick's start."""
    sim, machine, kernel = _host()
    kernel.start(with_background=False)

    def job():
        yield sim.clock.at(units.MS - 200)
        yield from machine.cpu.execute(500)

    sim.spawn(job())
    # The first ISR runs when the job ends (MS + 300); the second tick
    # starts one period after that ISR.
    second_end = units.MS + 300 + COST + units.MS + COST
    sim.run(until=second_end)
    return kernel.ticks, machine.cpu.total_busy, machine.cpu.busy


def test_busy_cpu_delays_the_tick():
    lazy = _busy_at_tick_run()
    assert lazy == (2, 500 + 2 * COST, False)
    with eager_ticks():
        assert _busy_at_tick_run() == lazy


# -- several hosts ticking in lockstep ---------------------------------------------------


def _lockstep_run(scheduler, offsets):
    """Three idle hosts tick at the same instants; each host's job asks
    for its CPU inside (or at the edge of) the same ISR.  Jobs log the
    order in which they are granted."""
    sim = Simulator(scheduler=scheduler)
    order = []
    machines = []
    for index in range(3):
        machine = Machine(sim)
        Kernel(machine, RandomStreams(index)).start(with_background=False)
        machines.append(machine)

    def job(index, machine, at):
        yield sim.clock.at(at)
        yield from machine.cpu.execute(100)
        order.append((sim.now, index))

    for index, (machine, offset) in enumerate(zip(machines, offsets)):
        sim.spawn(job(index, machine, units.MS + offset))
    sim.run(until=3 * units.MS)
    return order, [m.cpu.total_busy for m in machines]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("offsets", [(1, 1, 1), (COST - 1, 1, 500),
                                     (0, COST, 1), (1500, 10, 1999)])
def test_lockstep_hosts_match_eager(scheduler, offsets):
    lazy = _lockstep_run(scheduler, offsets)
    with eager_ticks():
        eager = _lockstep_run(scheduler, offsets)
    assert lazy == eager


# -- whole runs --------------------------------------------------------------------------


def _host_rows(testbed):
    rows = {}
    for name in ("nas", "server", "client"):
        host = getattr(testbed, name)
        cpu, l2 = host.machine.cpu, host.machine.l2
        rows[name] = (host.kernel.ticks, cpu.total_busy,
                      sorted(cpu.busy_by_context.items()), cpu.busy_ns,
                      vars(l2.stats.snapshot()))
    return rows


def _stream_run(kind, scheduler):
    testbed = Testbed(TestbedConfig(seed=0, scheduler=scheduler))
    testbed.start()
    if kind == "host":
        client = UserSpaceClient(testbed)
        server = SimpleServer(testbed)
    else:
        client = OffloadedClient(testbed, host_fallback=True)
        server = OffloadedServer(testbed)
    client.start()
    server.start()
    testbed.run(0.5)
    return (_host_rows(testbed), client.chunks_received,
            testbed.sim.now), testbed.sim.events_processed


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("kind", ["host", "offloaded"])
def test_stream_runs_match_eager(kind, scheduler):
    lazy, lazy_events = _stream_run(kind, scheduler)
    with eager_ticks():
        eager, eager_events = _stream_run(kind, scheduler)
    assert lazy == eager
    # Three hosts x ~500 ticks x 3 entries, nearly all of them gone.
    assert eager_events - lazy_events > 3 * 3 * 400


def _chaos_outcome(seed):
    run = run_chaos_scenario(seed, replace(ChaosProfile(), seconds=3.0))
    testbed = run.testbed
    channels = sorted(
        (s.channel_id, s.label, s.sent, s.delivered, s.dropped, s.corrupted,
         s.retransmits, s.dup_dropped)
        for s in (c.stats() for c in testbed.client_runtime.executive.channels))
    return (check_invariants(run), run.client.chunks_received,
            run.client.frames_shown, channels,
            len(testbed.client_runtime.incidents), _host_rows(testbed),
            testbed.sim.now)


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_runs_match_eager(seed):
    lazy = _chaos_outcome(seed)
    with eager_ticks():
        eager = _chaos_outcome(seed)
    assert lazy == eager
