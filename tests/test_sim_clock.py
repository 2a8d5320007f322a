"""The blessed ``sim.clock`` scheduling API.

Covers the surface the timer-wheel core exports — ``after`` / ``at`` /
``every`` / ``timeout`` / ``fence`` and cancellable :class:`Timer` —
and the zero-drift guarantee of ``clock.every`` over a million firings.
"""


import pytest

from repro.errors import SchedulingError
from repro.sim import Simulator, Timer


# -- after -----------------------------------------------------------------------


def test_after_plain_sleep_is_bare_int_token():
    sim = Simulator()
    token = sim.clock.after(1_000)
    assert token == 1_000 and isinstance(token, int)

    woke = []

    def sleeper():
        yield sim.clock.after(1_000)
        woke.append(sim.now)

    sim.spawn(sleeper())
    sim.run()
    assert woke == [1_000]


def test_after_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.clock.after(-1)
    with pytest.raises(SchedulingError):
        sim.clock.after(-1, value="x")


def test_after_value_resumes_generator_with_value():
    sim = Simulator()
    got = []

    def sleeper():
        got.append((yield sim.clock.after(500, value="payload")))

    sim.spawn(sleeper())
    sim.run()
    assert got == ["payload"]


def test_after_fn_returns_cancellable_timer():
    sim = Simulator()
    fired = []
    timer = sim.clock.after(2_000, lambda: fired.append(sim.now))
    assert isinstance(timer, Timer)
    assert timer.active
    sim.run()
    assert fired == [2_000]
    assert not timer.active
    assert timer.cancel() is False      # already fired


def test_after_fn_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = sim.clock.after(2_000, lambda: fired.append(sim.now))
    assert timer.cancel() is True
    sim.run()
    assert fired == []
    assert sim.dead_timers == 0         # removed in place, not left dead


# -- at --------------------------------------------------------------------------


def test_at_absolute_deadline():
    sim = Simulator()
    fired = []

    def starter():
        yield sim.clock.after(300)
        sim.clock.at(1_000, lambda: fired.append(sim.now))

    sim.spawn(starter())
    sim.run()
    assert fired == [1_000]


def test_at_in_the_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.clock.after(500)
        sim.clock.at(100, lambda: None)

    sim.spawn(proc())
    with pytest.raises(SchedulingError):
        sim.run()


# -- every -----------------------------------------------------------------------


def test_every_fires_at_exact_multiples():
    sim = Simulator()
    fires = []
    sim.clock.every(1_000, lambda: fires.append(sim.now))
    sim.run(until=5_500)
    assert fires == [1_000, 2_000, 3_000, 4_000, 5_000]


def test_every_first_overrides_initial_firing():
    sim = Simulator()
    fires = []
    sim.clock.every(1_000, lambda: fires.append(sim.now), first=100)
    sim.run(until=3_000)
    assert fires == [100, 1_100, 2_100, 3_000][:3]


def test_every_fn_may_cancel_its_own_timer():
    sim = Simulator()
    fires = []
    timer = sim.clock.every(1_000, lambda: (
        fires.append(sim.now),
        timer.cancel() if len(fires) >= 3 else None))
    sim.run(until=10_000)
    assert fires == [1_000, 2_000, 3_000]


def test_every_zero_drift_over_a_million_ticks():
    """The anchor-based schedule accumulates no drift: the millionth
    firing lands at exactly 1e6 * period, not 1e6 * period + epsilon.
    A naive ``now + period`` reschedule would need only one late firing
    (or one rounding slip) to shift every subsequent deadline.
    """
    sim = Simulator()
    period = 1_000
    count = [0]
    last = [0]

    def tick():
        count[0] += 1
        last[0] = sim.now

    timer = sim.clock.every(period, tick)
    sim.run(until=1_000_000 * period)
    assert count[0] == 1_000_000
    assert last[0] == 1_000_000 * period
    assert timer.fires == 1_000_000


def test_every_non_positive_period_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.clock.every(0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.clock.every(-5, lambda: None)


# -- timeout & fence -------------------------------------------------------------


def test_timeout_is_storable_and_combinable():
    sim = Simulator()
    got = []

    def waiter():
        first = sim.clock.timeout(1_000, "a")
        second = sim.clock.timeout(2_000, "b")
        result = yield sim.any_of([first, second])
        got.append((sim.now, list(result.values())))

    sim.spawn(waiter())
    sim.run()
    assert got == [(1_000, ["a"])]


def test_fence_runs_after_everything_at_the_instant():
    sim = Simulator()
    order = []

    def racer(tag):
        yield sim.clock.after(1_000)
        order.append(tag)

    def fencer():
        yield sim.clock.after(1_000)
        yield sim.clock.fence()
        order.append("fence")

    sim.spawn(fencer())
    for tag in ("a", "b"):
        sim.spawn(racer(tag))
    sim.run()
    assert order[-1] == "fence"
    assert set(order) == {"a", "b", "fence"}


# -- cancelled-timer hygiene ------------------------------------------------------


def test_far_future_cancel_counts_dead_then_reclaims():
    """A timer parked beyond the wheel horizon lives in the overflow
    heap; cancelling it cannot remove it in place, so it must show up
    in the ``dead_timers`` gauge until ``reclaim()`` sweeps it.
    """
    sim = Simulator()
    timers = [sim.clock.after(10 ** 12 + i, lambda: None)
              for i in range(16)]
    for timer in timers:
        assert timer.cancel() is True
    assert sim.dead_timers == len(timers)
    removed = sim.reclaim()
    assert removed == len(timers)
    assert sim.dead_timers == 0
    sim.run()                            # drains without firing anything
