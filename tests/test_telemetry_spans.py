"""Tests for the causal-span layer of repro.telemetry.

Covers the Span/SpanContext API (ids, parenting, sim-time stamps), the
per-process dynamic context used to parent bus spans under channel
spans, the emit bridge, and — end to end — that one two-way proxy
call on a live runtime yields a single trace whose span tree covers
proxy -> marshal -> channel -> bus -> device -> reply.
"""

import pytest

from repro.core import (DeploymentSpec, HydraRuntime, InterfaceSpec,
                        MethodSpec, Offcode)
from repro.core.guid import Guid
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator
from repro.telemetry import SpanContext, Telemetry
from repro.telemetry.export import to_chrome_trace, validate_chrome_trace
from repro.telemetry.spans import emit

IDUMMY = InterfaceSpec.from_methods(
    "ITel", (MethodSpec("Nop", params=(), result="int"),))


class TelOffcode(Offcode):
    BINDNAME = "tel.Demo"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 7


GUID = Guid(909)


# -- span primitives ------------------------------------------------------------


def test_begin_end_stamp_sim_time():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    sim.run(until=1_000)
    span = tel.begin("op", "test", "track:a", detail=1)
    assert span.end_ns is None and span.duration_ns == 0
    assert span not in tel.spans          # open spans are not recorded
    sim.run(until=3_500)
    tel.end(span, ok=True)
    assert (span.start_ns, span.end_ns) == (1_000, 3_500)
    assert span.duration_ns == 2_500
    assert span.attrs == {"detail": 1, "ok": True}
    assert tel.spans == [span]
    hist = tel.registry.get("repro_span_duration_ns").labels(category="test")
    assert hist.count == 1 and hist.sum == 2_500


def test_parenting_and_trace_allocation():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    root_a = tel.end(tel.begin("a", "t", "x"))
    root_b = tel.end(tel.begin("b", "t", "x"))
    # Each parentless begin roots a fresh trace.
    assert root_a.trace_id != root_b.trace_id
    assert root_a.parent_id is None
    # Parent accepts a Span or a bare SpanContext (a Call's trace_ctx).
    child = tel.end(tel.begin("c", "t", "x", parent=root_a))
    grand = tel.end(tel.begin("d", "t", "x", parent=child.context))
    assert child.trace_id == grand.trace_id == root_a.trace_id
    assert child.parent_id == root_a.span_id
    assert grand.parent_id == child.span_id
    assert tel.trace(root_a.trace_id) == [root_a, child, grand]
    assert tel.trace_categories()[root_b.trace_id] == {"t"}


def test_instants_and_caps():
    sim = Simulator()
    tel = Telemetry.attach(sim, max_spans=2, max_events=1)
    mark = tel.instant("boom", "fault", "faults", kind="crash")
    assert mark in tel.events and mark.time_ns == 0
    assert tel.instant("again", "fault", "faults") is None
    assert tel.dropped_events == 1
    for _ in range(3):
        tel.end(tel.begin("s", "t", "x"))
    assert len(tel.spans) == 2 and tel.dropped_spans == 1


def test_attach_detach_roundtrip():
    sim = Simulator()
    assert sim.telemetry is None          # disabled is the default
    tel = Telemetry.attach(sim)
    assert sim.telemetry is tel
    tel.detach()
    assert sim.telemetry is None
    tel.detach()                          # idempotent


# -- per-process dynamic context ---------------------------------------------------


def test_enter_end_nests_lifo_and_restores_on_raise():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    assert tel.current_ctx() is None
    outer = tel.enter("outer", "test", "t")
    inner = tel.enter("inner", "test", "t", parent=outer)
    assert tel.current_ctx().span_id == inner.span_id
    tel.end(inner)
    assert tel.current_ctx().span_id == outer.span_id
    tel.end(outer)
    assert tel.current_ctx() is None

    # A body that raises still gets the displaced context back.
    outer = tel.enter("outer", "test", "t")
    with pytest.raises(RuntimeError):
        span = tel.enter("failing", "test", "t", parent=outer)
        try:
            raise RuntimeError("boom")
        finally:
            tel.end(span)
    assert tel.current_ctx().span_id == outer.span_id
    tel.end(outer)
    assert tel.current_ctx() is None
    # A span opened with begin() leaves the context alone.
    plain = tel.begin("plain", "test", "t")
    tel.end(plain)
    assert tel.current_ctx() is None


def test_ctx_is_keyed_per_process():
    """One process's entered context must be invisible to another."""
    sim = Simulator()
    tel = Telemetry.attach(sim)
    seen = {}

    def pusher():
        span = tel.enter("pusher", "test", "t")
        seen["pusher_span"] = span.span_id
        yield sim.clock.timeout(100)  # let the peer run in between
        seen["pusher_mid"] = tel.current_ctx()
        tel.end(span)

    def peer():
        yield sim.clock.timeout(50)  # runs while pusher's ctx is live
        seen["peer"] = tel.current_ctx()

    sim.spawn(pusher())
    done = sim.spawn(peer())
    sim.run_until_event(done)
    sim.run(until=200)
    assert seen["peer"] is None
    assert seen["pusher_mid"].span_id == seen["pusher_span"]


# -- the emit bridge -----------------------------------------------------------------


def test_emit_without_telemetry_is_noop():
    sim = Simulator()
    emit(sim, "x", "nothing listens")   # must not raise


def test_emit_with_telemetry_but_no_tracer():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    emit(sim, "channel", "frame dropped", seq=4)
    # The record is an instant on its category's log track.
    assert [(e.category, e.name, e.track, e.attrs) for e in tel.events] == [
        ("channel", "frame dropped", "log/channel", {"seq": 4})]


def test_emit_records_and_renders():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    sim.run(until=1_500_000)
    emit(sim, "custom", "something happened", key=5)
    assert [(e.time_ns, e.category, e.attrs) for e in tel.events] == [
        (1_500_000, "custom", {"key": 5})]
    # Rendered, the record is a Chrome trace instant at 1.5 ms.
    trace = to_chrome_trace(tel)
    assert validate_chrome_trace(trace) == []
    marks = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert [(m["name"], m["cat"], m["ts"], m["args"]) for m in marks] == [
        ("something happened", "custom", 1_500.0, {"key": 5})]


# -- end to end: one call, one tree ---------------------------------------------------


@pytest.fixture()
def traced_call():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(bindname="tel.Demo", guid=GUID,
                      interfaces=[IDUMMY],
                      targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/t.odf", odf)
    runtime.depot.register(GUID, TelOffcode)
    out = {}

    def app():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/t.odf",)))
        out["v"] = yield from result.proxy.Nop()

    sim.run_until_event(sim.spawn(app()))
    assert out["v"] == 7
    return tel


def test_proxy_call_produces_full_offload_tree(traced_call):
    tel = traced_call
    full = [tid for tid, cats in tel.trace_categories().items()
            if {"proxy", "marshal", "channel", "bus", "device",
                "reply"} <= cats]
    assert len(full) == 1, "exactly one trace covers the whole path"
    spans = tel.trace(full[0])
    by_cat = {s.category: s for s in spans}
    root = by_cat["proxy"]
    assert root.parent_id is None
    assert root.name == "ITel.Nop"
    # Marshal, channel write, device execution and the reply all hang
    # off the invocation root (the Call carries its context).
    for cat in ("marshal", "channel", "device", "reply"):
        assert by_cat[cat].parent_id == root.span_id
    # Bus transfers parent under whichever segment pushed its context:
    # the request crossing under the channel write, the reply crossing
    # under the reply span.
    buses = [s for s in spans if s.category == "bus"]
    assert {s.parent_id for s in buses} == {by_cat["channel"].span_id,
                                            by_cat["reply"].span_id}
    # Causal timing: children start within their parent's window.
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.parent_id is not None:
            assert span.start_ns >= by_id[span.parent_id].start_ns
            assert span.end_ns <= by_id[span.parent_id].end_ns


def test_tracing_adds_no_sim_events(traced_call):
    """Telemetry must observe the run, not perturb it: the same scenario
    with telemetry disabled processes the identical event count."""
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(bindname="tel.Demo", guid=GUID,
                      interfaces=[IDUMMY],
                      targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/t.odf", odf)
    runtime.depot.register(GUID, TelOffcode)

    def app():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/t.odf",)))
        yield from result.proxy.Nop()

    sim.run_until_event(sim.spawn(app()))
    assert sim.events_processed == traced_call.sim.events_processed
    assert sim.now == traced_call.sim.now


def test_deployment_and_channels_are_traced(traced_call):
    logs = [(e.time_ns, e.category, e.name) for e in traced_call.events
            if e.track.startswith("log/")]
    assert {"deploy", "offcode", "channel"} <= {c for _, c, _ in logs}
    offcode_msgs = [m for _, c, m in logs if c == "offcode"]
    assert any("initialized" in m for m in offcode_msgs)
    assert any("started" in m for m in offcode_msgs)
    assert any("complete" in m for _, c, m in logs if c == "deploy")
    # Records are time-ordered.
    times = [t for t, _, _ in logs]
    assert times == sorted(times)
