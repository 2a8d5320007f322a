"""Additional engine edge cases: condition failures, event timing."""

import pytest

from repro.errors import ProcessError, SchedulingError
from repro.sim import Simulator


def test_any_of_fails_if_first_child_fails():
    sim = Simulator()
    caught = []

    def failer():
        yield sim.clock.timeout(5)
        raise ValueError("child died")

    def waiter():
        child = sim.spawn(failer())
        slow = sim.clock.timeout(100)
        try:
            yield sim.any_of([child, slow])
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.run()
    assert caught == ["child died"]


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()
    caught = []

    def failer():
        yield sim.clock.timeout(5)
        raise RuntimeError("boom")

    def waiter():
        child = sim.spawn(failer())
        slow = sim.clock.timeout(1_000)
        try:
            yield sim.all_of([child, slow])
        except RuntimeError:
            caught.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    # Failure surfaced at t=5, not after the slow timeout.
    assert caught == [5]


def test_any_of_with_already_processed_event():
    sim = Simulator()
    done = sim.clock.timeout(1)
    sim.run(until=10)
    out = []

    def waiter():
        result = yield sim.any_of([done, sim.clock.timeout(50)])
        out.append((sim.now, list(result.values())))

    sim.spawn(waiter())
    sim.run()
    assert out == [(10, [None])]


def test_succeed_with_delay():
    sim = Simulator()
    event = sim.event()
    event.succeed("late", delay=42)
    out = []

    def waiter():
        value = yield event
        out.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert out == [(42, "late")]


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_unwaited_failed_event_escalates():
    sim = Simulator()
    sim.event().fail(ValueError("nobody listened"))
    with pytest.raises(ValueError, match="nobody listened"):
        sim.run()


def test_run_until_event_with_limit():
    sim = Simulator()

    def slow():
        yield sim.clock.timeout(1_000)

    proc = sim.spawn(slow())
    with pytest.raises(ProcessError):
        sim.run_until_event(proc, limit=10)
    # Still completable afterwards.
    assert sim.run_until_event(proc) is None


def test_step_empty_queue_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.step()


def test_interrupt_non_waiting_process_rejected():
    sim = Simulator()
    started = []

    def immediate():
        started.append(True)
        if False:
            yield

    proc = sim.spawn(immediate())
    # The process has not begun (spawn schedules it); interrupting a
    # process that is not waiting on anything is an error.
    with pytest.raises(ProcessError):
        proc.interrupt()


def test_events_from_other_simulator_rejected():
    sim1 = Simulator()
    sim2 = Simulator()
    foreign = sim2.clock.timeout(5)

    def waiter():
        yield foreign

    sim1.spawn(waiter())
    with pytest.raises(ProcessError):
        sim1.run()
