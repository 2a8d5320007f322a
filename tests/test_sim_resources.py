"""Unit tests for Store / Resource / Container primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Resource, Simulator, Store


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(3):
            yield store.put(i)
            yield sim.clock.timeout(1)

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.spawn(producer(sim, store))
    sim.spawn(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim, store):
        yield sim.clock.timeout(40)
        yield store.put("x")

    sim.spawn(consumer(sim, store))
    sim.spawn(producer(sim, store))
    sim.run()
    assert got == [(40, "x")]


def test_store_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer(sim, store):
        yield store.put("a")
        timeline.append(("put-a", sim.now))
        yield store.put("b")
        timeline.append(("put-b", sim.now))

    def consumer(sim, store):
        yield sim.clock.timeout(25)
        item = yield store.get()
        timeline.append(("got-" + item, sim.now))

    sim.spawn(producer(sim, store))
    sim.spawn(consumer(sim, store))
    sim.run()
    assert ("put-a", 0) in timeline
    assert ("put-b", 25) in timeline  # unblocked by the get at t=25


def test_store_drop_mode_counts_drops():
    sim = Simulator()
    store = Store(sim, capacity=2, drop_when_full=True)
    results = []

    def producer(sim, store):
        for i in range(5):
            ok = yield store.put(i)
            results.append(ok)

    sim.spawn(producer(sim, store))
    sim.run()
    assert results == [True, True, False, False, False]
    assert store.dropped == 3
    assert store.total_put == 2
    assert list(store.items) == [0, 1]


def test_store_handoff_to_waiting_getter_bypasses_capacity():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append(item)

    def producer(sim, store):
        yield sim.clock.timeout(1)
        yield store.put("direct")

    sim.spawn(consumer(sim, store))
    sim.spawn(producer(sim, store))
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(sim, store):
        yield sim.clock.timeout(5)
        yield store.put(1)
        yield store.put(2)

    sim.spawn(consumer(sim, store, "first"))
    sim.spawn(consumer(sim, store, "second"))
    sim.spawn(producer(sim, store))
    sim.run()
    assert got == [("first", 1), ("second", 2)]


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_serializes_holders():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    spans = []

    def job(sim, cpu, tag, work):
        yield cpu.request()
        start = sim.now
        yield sim.clock.timeout(work)
        cpu.release()
        spans.append((tag, start, sim.now))

    sim.spawn(job(sim, cpu, "a", 10))
    sim.spawn(job(sim, cpu, "b", 10))
    sim.run()
    assert spans == [("a", 0, 10), ("b", 10, 20)]


def test_resource_capacity_two_runs_in_parallel():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    spans = []

    def job(sim, res, tag):
        yield res.request()
        yield sim.clock.timeout(10)
        res.release()
        spans.append((tag, sim.now))

    for tag in "abc":
        sim.spawn(job(sim, res, tag))
    sim.run()
    assert spans == [("a", 10), ("b", 10), ("c", 20)]


def test_resource_release_without_request_rejected():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_utilization_tracking():
    sim = Simulator()
    res = Resource(sim)

    def job(sim, res):
        yield res.request()
        yield sim.clock.timeout(30)
        res.release()
        yield sim.clock.timeout(70)

    sim.spawn(job(sim, res))
    sim.run()
    assert sim.now == 100
    assert res.utilization() == pytest.approx(0.3)


def test_resource_utilization_spans_the_whole_run():
    """Busy over [0, 10), idle until 100: 0.1 of the run.  The old
    ``utilization(since)`` added busy time from t=0 to a window opening
    at ``since`` (0.2 for since=50, where the window was idle); windows
    are the samplers' job, so the parameter is gone."""
    sim = Simulator()
    res = Resource(sim)

    def job(sim, res):
        yield res.request()
        yield sim.clock.timeout(10)
        res.release()

    sim.spawn(job(sim, res))
    sim.run(until=100)
    assert res.busy_ns == 10
    assert res.utilization() == pytest.approx(0.1)
    with pytest.raises(TypeError):
        res.utilization(50)


def test_resource_utilization_counts_open_interval():
    sim = Simulator()
    res = Resource(sim)

    def holder(sim, res):
        yield res.request()
        yield sim.clock.timeout(1_000_000)

    sim.spawn(holder(sim, res))
    sim.run(until=100)
    assert res.utilization() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

def test_container_get_blocks_until_level():
    sim = Simulator()
    tank = Container(sim, capacity=100, init=0)
    out = []

    def consumer(sim, tank):
        yield tank.get(30)
        out.append(sim.now)

    def producer(sim, tank):
        yield sim.clock.timeout(10)
        yield tank.put(20)
        yield sim.clock.timeout(10)
        yield tank.put(20)

    sim.spawn(consumer(sim, tank))
    sim.spawn(producer(sim, tank))
    sim.run()
    assert out == [20]
    assert tank.level == pytest.approx(10)


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=50, init=40)
    out = []

    def producer(sim, tank):
        yield tank.put(20)
        out.append(sim.now)

    def consumer(sim, tank):
        yield sim.clock.timeout(15)
        yield tank.get(25)

    sim.spawn(producer(sim, tank))
    sim.spawn(consumer(sim, tank))
    sim.run()
    assert out == [15]


def test_container_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Container(sim, capacity=0)
    with pytest.raises(SimulationError):
        Container(sim, capacity=10, init=20)
    tank = Container(sim, capacity=10)
    with pytest.raises(SimulationError):
        tank.put(0)
    with pytest.raises(SimulationError):
        tank.get(-1)
