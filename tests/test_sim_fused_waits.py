"""Fused waits: a wait satisfied at the moment it is created builds no Event.

An uncontended ``Resource.request()``, a ``Store.get()`` on a non-empty
store, a ``Store.put()`` that is accepted (or dropped) at once, and a
fresh ``spawn()`` all resume their process through the engine's fused
continuation path.  The queue entry keeps the time, priority and seq the
replaced Event would have had, so the simulation pops entries in exactly
the same order.  These tests pin that:

* two whole TiVoPC runs (offloaded under channel noise, and host
  resident) on both schedulers, down to the event count, the final
  clock and a digest of every chunk's arrival time and sequence number;
* one instant at a time, each fused wait resumes in the position of the
  Event it replaces, and the one ready ``get()`` that must stay an Event
  (it admits a blocked putter) still does;
* a fused handle cannot be stored in a condition.

The pinned run values were captured on the engine that still built an
Event for every one of these waits, before fusing them, and with the
eager kernel tick process; they still hold under that process (the
oracle of :mod:`tests.eager_ticks`).  The lazy tick pops fewer entries
and has its own event counts; everything else is the same.
"""

import hashlib

import pytest

from repro import units
from repro.errors import ProcessError
from repro.faults import FaultPlan
from repro.sim import Event, Simulator
from repro.sim.resources import Resource, Store
from repro.tivopc import (OffloadedClient, OffloadedServer, SimpleServer,
                          Testbed, TestbedConfig, UserSpaceClient)
from repro.tivopc.components import StreamerOffcode

from tests.eager_ticks import eager_ticks

NOISE_AT_NS = 150 * units.MS
WARMUP_S = 0.2
RUN_S = 1.0


def _tap(owner, attr, arrivals):
    """Record (arrival ns, seq) of every packet ``owner.attr`` yields."""
    receive = getattr(owner, attr)

    def tapped(*args, **kwargs):
        packet = yield from receive(*args, **kwargs)
        arrivals.append((packet.received_at_ns, packet.payload[1]))
        return packet

    setattr(owner, attr, tapped)


def _digest(arrivals):
    return hashlib.sha256(repr(arrivals).encode()).hexdigest()[:16]


def _offloaded_run(scheduler):
    plan = FaultPlan().channel_noise(
        NOISE_AT_NS, StreamerOffcode.DATA_LABEL, loss=0.04, corrupt=0.02)
    testbed = Testbed(TestbedConfig(seed=0, fault_plan=plan,
                                    scheduler=scheduler))
    testbed.start()
    client = OffloadedClient(testbed, host_fallback=True)
    client.start()
    testbed.run(WARMUP_S)
    OffloadedServer(testbed).start()
    arrivals = []
    _tap(client.net_streamer.binding, "recv", arrivals)
    testbed.run(RUN_S)
    return testbed.sim, arrivals


def _host_run(scheduler):
    testbed = Testbed(TestbedConfig(seed=0, scheduler=scheduler))
    testbed.start()
    client = UserSpaceClient(testbed)
    arrivals = []
    _tap(client.socket, "recvfrom", arrivals)
    client.start()
    SimpleServer(testbed).start()
    testbed.run(RUN_S)
    return testbed.sim, arrivals


# (events_processed, now, arrivals digest, arrival count) per run,
# identical on both schedulers.  Captured before the fused waits landed,
# with the eager tick process.
GOLDEN = {
    "offloaded": (_offloaded_run,
                  (36572, 1_200_000_000, "1031599b49970709", 198)),
    "host": (_host_run, (31779, 1_000_000_000, "cf4799c7d18bcf35", 141)),
}

# events_processed with the lazy kernel tick (the default).
LAZY_EVENTS = {"offloaded": 26441, "host": 23388}


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_run_matches_event_engine(run, scheduler):
    build, expected = GOLDEN[run]
    with eager_ticks():
        sim, arrivals = build(scheduler)
    assert (sim.events_processed, sim.now, _digest(arrivals),
            len(arrivals)) == expected


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_run_with_lazy_ticks(run, scheduler):
    build, (_, now, digest, count) = GOLDEN[run]
    sim, arrivals = build(scheduler)
    assert (sim.events_processed, sim.now, _digest(arrivals),
            len(arrivals)) == (LAZY_EVENTS[run], now, digest, count)


# -- one instant at a time ---------------------------------------------------------


def _position(setup):
    """Resume order at t=10 around a wait that ``setup`` prepares.

    ``setup(sim)`` builds the primitive at t=0 and returns ``(make,
    value)``: ``make()`` creates the wait and ``value`` is what it
    resumes with.  The actor triggers ``before`` and then makes the
    wait.  The bystander woken by ``before`` triggers ``after``; that
    entry is created after the wait's, so it must pop after it.
    """
    sim = Simulator()
    before, after = sim.event(), sim.event()
    make, expected = setup(sim)
    log = []

    def bystander():
        yield before
        log.append("before")
        after.succeed()

    def late():
        yield after
        log.append("after")

    def actor():
        yield sim.clock.after(10)
        before.succeed()
        value = yield make()
        log.append(("wait", value is expected or value == expected,
                    sim.now))

    sim.spawn(bystander())
    sim.spawn(late())
    sim.spawn(actor())
    sim.run()
    return log, sim.events_processed


def _grant(sim):
    resource = Resource(sim)
    return resource.request, resource


def _fill(sim, store, *items):
    def filler():
        for item in items:
            yield store.put(item)

    sim.spawn(filler())


def _ready_get(sim):
    store = Store(sim)
    _fill(sim, store, "item")
    return store.get, "item"


def _ready_put(sim):
    store = Store(sim, capacity=1)
    return (lambda: store.put("item")), True


def _handoff_put(sim):
    store = Store(sim)

    def getter():
        yield store.get()

    sim.spawn(getter())
    return (lambda: store.put("item")), True


def _dropped_put(sim):
    store = Store(sim, capacity=1, drop_when_full=True)
    _fill(sim, store, "kept")
    return (lambda: store.put("dropped")), False


# name -> (setup, events_processed as the Event engine counted them).
WAITS = {"grant": (_grant, 10), "ready_get": (_ready_get, 13),
         "ready_put": (_ready_put, 10), "handoff_put": (_handoff_put, 13),
         "dropped_put": (_dropped_put, 13)}


@pytest.mark.parametrize("name", sorted(WAITS))
def test_fused_wait_resumes_in_event_position(name):
    setup, events = WAITS[name]
    log, processed = _position(setup)
    assert log == ["before", ("wait", True, 10), "after"]
    assert processed == events


def test_fresh_spawn_starts_in_event_position():
    sim = Simulator()
    before, after = sim.event(), sim.event()
    log = []

    def bystander():
        yield before
        log.append("before")
        after.succeed()

    def late():
        yield after
        log.append("after")

    def child():
        log.append(("child", sim.now))
        yield sim.clock.after(0)

    def parent():
        yield sim.clock.after(10)
        before.succeed()
        sim.spawn(child())
        yield sim.clock.after(5)

    sim.spawn(bystander())
    sim.spawn(late())
    sim.spawn(parent())
    sim.run()
    # The start is queued right after `before`, so the child runs before
    # the entry the bystander creates when `before` pops.
    assert log == ["before", ("child", 10), "after"]
    assert (sim.events_processed, sim.now) == (13, 15)


def test_ready_get_admitting_a_blocked_putter_stays_an_event():
    sim = Simulator()
    store = Store(sim, capacity=1)
    _fill(sim, store, "first")
    log = []

    def putter():
        accepted = yield store.put("second")
        log.append(("put", accepted))

    def getter():
        yield sim.clock.after(10)
        handle = store.get()
        # The putter's admission is queued before this get resumes, so
        # the get must keep its own Event entry ahead of it.
        assert isinstance(handle, Event)
        item = yield handle
        log.append(("get", item))

    sim.spawn(putter())
    sim.spawn(getter())
    sim.run()
    assert log == [("get", "first"), ("put", True)]
    assert list(store.items) == ["second"]


def test_fused_grant_cannot_join_a_condition():
    sim = Simulator()
    resource = Resource(sim)

    def combiner():
        yield sim.any_of([resource.request()])

    sim.spawn(combiner())
    with pytest.raises(ProcessError, match="request"):
        sim.run()
