"""Determinism guarantees of the hot-path overhaul.

The pooled-timeout free list, lazy cancellation and the inlined run
loop are pure *mechanical* optimizations: they must never change what a
seeded run computes.  These tests pin that property by diffing the
telemetry hub's span tree and instants, and the engine's counters,
between a default simulator and one with pooling disabled (its
``_pool_limit`` zeroed before any event runs), and by exercising the
lazy-cancellation path that replaced ``interrupt()``'s O(n) callback
scans.
"""

from repro.errors import InterruptError
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.tivopc.client import MeasurementClient
from repro.tivopc.server import SimpleServer
from repro.tivopc.testbed import Testbed, TestbedConfig

# Short but non-trivial: a few thousand events through kernels, NICs,
# caches and the media pipeline.
_SIM_SECONDS = 0.5


def _traced_tivopc_run(pooling: bool):
    """One seeded TiVoPC run; returns (trace, simulator, client), the
    trace being every recorded span and instant, field for field."""
    testbed = Testbed(TestbedConfig(seed=7))
    if not pooling:
        # The testbed builds its own Simulator; zero its pool limit
        # before any event runs.
        testbed.sim._pool_limit = 0
    tel = Telemetry.attach(testbed.sim)
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    SimpleServer(testbed).start()
    testbed.run(_SIM_SECONDS)
    spans = [(s.name, s.category, s.track, s.trace_id, s.span_id,
              s.parent_id, s.start_ns, s.end_ns, s.attrs)
             for s in tel.spans]
    events = [(e.time_ns, e.category, e.name, e.track, e.attrs)
              for e in tel.events]
    assert spans                        # the diff compares something
    return (spans, events), testbed.sim, client


def test_tivopc_run_identical_with_pooling_disabled():
    pooled_records, pooled_sim, pooled_client = _traced_tivopc_run(True)
    plain_records, plain_sim, plain_client = _traced_tivopc_run(False)

    assert pooled_sim.events_processed == plain_sim.events_processed
    assert pooled_sim.now == plain_sim.now
    assert pooled_client.jitter.arrivals_ns == plain_client.jitter.arrivals_ns
    # Bit-identical traces: every span and instant, field for field,
    # in order.
    assert pooled_records == plain_records


def test_deferred_pool_recycles_value_carrying_sleeps():
    """Value-carrying sleeps go through the pooled ``_Deferred``; the
    pool must engage (``pool_recycled`` grows) without changing results,
    and zeroing the pool limit must disable recycling entirely.
    """

    def workload(sim):
        out = []

        def proc():
            for i in range(50):
                out.append((yield sim.clock.after(10, value=i)))

        sim.spawn(proc())
        sim.run()
        return out

    pooled = Simulator()
    expected = workload(pooled)
    assert expected == list(range(50))
    assert pooled.pool_recycled > 0

    plain = Simulator()
    plain._pool_limit = 0
    assert workload(plain) == expected
    assert plain.pool_recycled == 0
    assert pooled.now == plain.now


def test_seeded_tivopc_runs_are_reproducible():
    first, first_sim, _ = _traced_tivopc_run(True)
    second, second_sim, _ = _traced_tivopc_run(True)
    assert first_sim.events_processed == second_sim.events_processed
    assert first == second


def test_interrupt_abandons_large_condition_lazily():
    """Regression for the O(n) interrupt scan (satellite b).

    A waiter parked on a 1000-event condition is interrupted mid-wait.
    ``interrupt()`` must not walk the condition's callback list: the
    stale registration stays behind (asserted below) and ``_resume``
    discards the eventual wakeup.  The run must still complete with the
    interrupt delivered once and the process able to wait again.
    """
    sim = Simulator()
    waiters = [sim.clock.timeout(10_000 + i) for i in range(1_000)]
    condition = sim.all_of(waiters)
    seen = {}

    def waiter():
        try:
            yield condition
        except InterruptError as exc:
            seen["cause"] = exc.cause
            seen["interrupted_at"] = sim.now
        seen["value"] = yield sim.clock.timeout(5, "after")

    proc = sim.spawn(waiter())

    def interrupter():
        yield sim.clock.timeout(100)
        proc.interrupt("abandon")
        # Lazy cancellation: the abandoned condition still carries the
        # stale callback — no scan removed it.
        assert condition.callbacks

    sim.spawn(interrupter())
    sim.run()

    assert seen["cause"] == "abandon"
    assert seen["interrupted_at"] == 100
    assert seen["value"] == "after"
    # The condition fired long after the waiter left; the stale wakeup
    # was dropped without reviving the (finished) process.
    assert condition.triggered
    assert not proc.alive


def test_stale_pooled_timeout_wakeup_is_dropped():
    """A recycled fast-path timeout must not resume an old waiter.

    The waiter abandons a ``clock.after`` sleep via interrupt; when
    the original sleep fires (and its handle is recycled), the stale
    entry must be discarded by the continuation-sequence check.
    """
    sim = Simulator()
    order = []

    def sleeper():
        try:
            yield sim.clock.after(1_000)
        except InterruptError:
            order.append(("interrupted", sim.now))
        order.append(
            ("woke", (yield sim.clock.after(2_000, value="late")), sim.now))

    proc = sim.spawn(sleeper())

    def interrupter():
        yield sim.clock.timeout(10)
        proc.interrupt()

    sim.spawn(interrupter())
    sim.run()
    assert order == [("interrupted", 10), ("woke", "late", 2_010)]
