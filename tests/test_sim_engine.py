"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import InterruptError, ProcessError, SchedulingError
from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.clock.timeout(100)
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert fired == [100]
    assert sim.now == 100


def test_timeouts_fire_in_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.clock.timeout(delay)
        order.append(tag)

    sim.spawn(waiter(sim, 30, "c"))
    sim.spawn(waiter(sim, 10, "a"))
    sim.spawn(waiter(sim, 20, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo_by_schedule_order():
    sim = Simulator()
    order = []

    def waiter(sim, tag):
        yield sim.clock.timeout(5)
        order.append(tag)

    for tag in "abcde":
        sim.spawn(waiter(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_zero_delay_timeout():
    sim = Simulator()
    out = []

    def proc(sim):
        yield sim.clock.timeout(0)
        out.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert out == [0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.clock.timeout(-1)


def test_process_return_value_via_join():
    sim = Simulator()
    result = []

    def child(sim):
        yield sim.clock.timeout(7)
        return 42

    def parent(sim):
        value = yield sim.spawn(child(sim))
        result.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert result == [(7, 42)]


def test_join_already_finished_process():
    sim = Simulator()
    result = []

    def child(sim):
        yield sim.clock.timeout(1)
        return "done"

    def parent(sim, proc):
        yield sim.clock.timeout(50)
        value = yield proc
        result.append((sim.now, value))

    proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, proc))
    sim.run()
    assert result == [(50, "done")]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.clock.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_escapes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.clock.timeout(1)
        raise RuntimeError("unhandled")

    sim.spawn(bad(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 3

    with pytest.raises(ProcessError):
        sim.spawn(not_a_generator)  # type: ignore[arg-type]


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad(sim):
        yield "not an event"  # type: ignore[misc]

    sim.spawn(bad(sim))
    with pytest.raises(ProcessError):
        sim.run()


def test_yield_bare_int_sleeps():
    # A bare non-negative int is the blessed zero-allocation sleep token
    # (what clock.after(dt) returns when no fn/value is attached).
    sim = Simulator()
    out = []

    def sleeper(sim):
        yield 250
        out.append(sim.now)
        yield 0
        out.append(sim.now)

    sim.spawn(sleeper(sim))
    sim.run()
    assert out == [250, 250]


def test_manual_event_succeed():
    sim = Simulator()
    out = []
    gate = sim.event()

    def waiter(sim, gate):
        value = yield gate
        out.append((sim.now, value))

    def opener(sim, gate):
        yield sim.clock.timeout(33)
        gate.succeed("open")

    sim.spawn(waiter(sim, gate))
    sim.spawn(opener(sim, gate))
    sim.run()
    assert out == [(33, "open")]


def test_event_triggered_twice_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(ProcessError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(ProcessError):
        _ = event.value


def test_interrupt_wakes_waiter():
    sim = Simulator()
    out = []

    def sleeper(sim):
        try:
            yield sim.clock.timeout(1_000_000)
        except InterruptError as exc:
            out.append((sim.now, exc.cause))

    def interrupter(sim, proc):
        yield sim.clock.timeout(10)
        proc.interrupt("wakeup")

    proc = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, proc))
    sim.run()
    assert out == [(10, "wakeup")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.clock.timeout(1)

    proc = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(ProcessError):
        proc.interrupt()


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.clock.timeout(10)

    sim.spawn(ticker(sim))
    sim.run(until=95)
    assert sim.now == 95
    sim.run(until=105)
    assert sim.now == 105


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.run(until=100)
    with pytest.raises(SchedulingError):
        sim.run(until=50)


def test_run_until_event():
    sim = Simulator()

    def worker(sim):
        yield sim.clock.timeout(42)
        return "ok"

    proc = sim.spawn(worker(sim))
    assert sim.run_until_event(proc) == "ok"
    assert sim.now == 42


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(ProcessError, match="deadlock"):
        sim.run_until_event(event)


def test_any_of_triggers_on_first():
    sim = Simulator()
    out = []

    def proc(sim):
        t_short = sim.clock.timeout(5, "short")
        t_long = sim.clock.timeout(50, "long")
        result = yield sim.any_of([t_short, t_long])
        out.append((sim.now, sorted(result.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert out == [(5, ["short"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    out = []

    def proc(sim):
        events = [sim.clock.timeout(d, d) for d in (5, 20, 10)]
        result = yield sim.all_of(events)
        out.append((sim.now, sorted(result.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert out == [(20, [5, 10, 20])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    out = []

    def proc(sim):
        yield sim.all_of([])
        out.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert out == [0]


def test_nested_processes():
    sim = Simulator()
    trace = []

    def leaf(sim, tag):
        yield sim.clock.timeout(3)
        trace.append(tag)
        return tag

    def mid(sim):
        a = yield sim.spawn(leaf(sim, "a"))
        b = yield sim.spawn(leaf(sim, "b"))
        return a + b

    def root(sim):
        value = yield sim.spawn(mid(sim))
        trace.append(value)

    sim.spawn(root(sim))
    sim.run()
    assert trace == ["a", "b", "ab"]
    assert sim.now == 6


def test_peek_reports_next_timestamp():
    sim = Simulator()
    assert sim.peek() is None
    sim.clock.timeout(17)
    assert sim.peek() == 17


def test_many_processes_deterministic():
    def run_once():
        sim = Simulator()
        log = []

        def worker(sim, i):
            for k in range(5):
                yield sim.clock.timeout((i * 7 + k * 3) % 11 + 1)
                log.append((sim.now, i, k))

        for i in range(20):
            sim.spawn(worker(sim, i))
        sim.run()
        return log

    assert run_once() == run_once()
