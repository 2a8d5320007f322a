"""Exporter round-trip tests.

Pins the four properties the artifacts promise: the Chrome trace parses
and loads (structure a viewer needs), span timestamps are monotonic and
children nest inside parents, the Prometheus exposition is well-formed,
and two runs with the same seed produce byte-identical artifact files.
"""

import json

import pytest

from repro.core import (DeploymentSpec, HydraRuntime, InterfaceSpec,
                        MethodSpec, Offcode)
from repro.core.guid import Guid
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.export import (
    to_chrome_trace,
    to_json_snapshot,
    to_prometheus_text,
    validate_chrome_trace,
    validate_prometheus_text,
    write_artifacts,
)

IDUMMY = InterfaceSpec.from_methods(
    "ITel", (MethodSpec("Nop", params=(), result="int"),))


class TelOffcode(Offcode):
    BINDNAME = "tel.Demo"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 7


GUID = Guid(909)


def run_scenario():
    """One deployment plus one two-way call — the smallest run whose
    trace exercises every span category."""
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

    def app():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/t.odf",)))
        yield from result.proxy.Nop()

    sim.run_until_event(sim.spawn(app()))
    return tel


@pytest.fixture(scope="module")
def telemetry():
    return run_scenario()


# -- Chrome trace --------------------------------------------------------------------


def test_chrome_trace_parses_and_validates(telemetry):
    trace = to_chrome_trace(telemetry)
    # Round-trips through JSON (what a viewer actually loads).
    loaded = json.loads(json.dumps(trace, sort_keys=True))
    assert loaded["traceEvents"]
    # This scenario is a single deterministic flow, so even strict
    # interval nesting must hold.
    assert validate_chrome_trace(loaded, strict_nesting=True) == []


def test_chrome_trace_structure(telemetry):
    trace = to_chrome_trace(telemetry)
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    # Metadata names the process and one thread per track.
    assert {m["args"]["name"] for m in meta if m["name"] == "process_name"} \
        == {"repro-sim"}
    thread_names = {m["args"]["name"] for m in meta
                    if m["name"] == "thread_name"}
    assert any(name.startswith("bus:") for name in thread_names)
    assert any(name.startswith("channel:") for name in thread_names)
    assert any(name.startswith("site:") for name in thread_names)
    # Span ts are globally monotonic (the emitter sorts by start).
    timestamps = [e["ts"] for e in spans]
    assert timestamps == sorted(timestamps)
    # Children nest inside their parents.
    by_id = {e["args"]["span_id"]: e for e in spans}
    for event in spans:
        parent_id = event["args"].get("parent_id")
        if parent_id is None:
            continue
        parent = by_id[parent_id]
        assert event["ts"] >= parent["ts"]
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]
        assert event["args"]["trace_id"] == parent["args"]["trace_id"]


def test_chrome_validator_catches_malformations():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad_phase = {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1}]}
    assert "unknown phase" in validate_chrome_trace(bad_phase)[0]
    orphan = {"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "ts": 5.0, "dur": 1.0,
         "args": {"span_id": 2, "parent_id": 99}}]}
    assert any("parent 99 not in trace" in p
               for p in validate_chrome_trace(orphan))
    backwards = {"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "ts": 5.0, "dur": 1.0,
         "args": {"span_id": 1}},
        {"ph": "X", "name": "b", "pid": 1, "ts": 2.0, "dur": 1.0,
         "args": {"span_id": 2, "parent_id": 1}}]}
    problems = validate_chrome_trace(backwards)
    assert any("not monotonic" in p for p in problems)
    assert any("starts before parent" in p for p in problems)


# -- Prometheus text ------------------------------------------------------------------


def test_prometheus_text_is_well_formed(telemetry):
    text = to_prometheus_text(telemetry.registry)
    assert validate_prometheus_text(text) == []
    assert "# TYPE repro_span_duration_ns histogram" in text
    # Histograms expose cumulative buckets ending at +Inf, plus sum/count.
    assert 'repro_span_duration_ns_bucket{category="proxy",le="+Inf"}' in text
    assert "repro_span_duration_ns_count" in text


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.gauge("g", labels=("path",)) \
        .labels(path='a\\b"c').set(1)
    text = to_prometheus_text(registry)
    assert r'g{path="a\\b\"c"} 1' in text
    assert validate_prometheus_text(text) == []


def test_prometheus_validator_catches_malformations():
    problems = validate_prometheus_text("x_total 1")
    assert "exposition must end with a newline" in problems
    assert any("has no # TYPE" in p for p in problems)
    bad = "# TYPE x_total counter\n?garbage 1\n"
    assert any("malformed sample" in p
               for p in validate_prometheus_text(bad))
    bad_comment = "# NOPE x_total counter\n"
    assert any("malformed comment" in p
               for p in validate_prometheus_text(bad_comment))


# -- snapshot and determinism -----------------------------------------------------------


def test_json_snapshot_round_trips(telemetry):
    snap = json.loads(json.dumps(to_json_snapshot(telemetry),
                                 sort_keys=True))
    assert len(snap["spans"]) == len(telemetry.spans)
    assert snap["dropped_spans"] == 0 and snap["dropped_events"] == 0
    categories = {s["category"] for s in snap["spans"]}
    assert {"proxy", "marshal", "channel", "bus", "device",
            "reply"} <= categories
    assert "repro_span_duration_ns" in snap["metrics"]


def test_same_seed_runs_are_byte_identical(tmp_path, telemetry):
    first = write_artifacts(telemetry, str(tmp_path / "a"))
    second = write_artifacts(run_scenario(), str(tmp_path / "b"))
    for kind in ("chrome", "prometheus", "snapshot"):
        with open(first[kind], "rb") as fh:
            a = fh.read()
        with open(second[kind], "rb") as fh:
            b = fh.read()
        assert a == b, f"{kind} artifact differs between same-seed runs"


def test_write_artifacts_paths(tmp_path, telemetry):
    paths = write_artifacts(telemetry, str(tmp_path), prefix="demo")
    assert sorted(paths) == ["chrome", "prometheus", "snapshot"]
    assert paths["chrome"].endswith("demo.trace.json")
    assert paths["prometheus"].endswith("demo.metrics.prom")
    assert paths["snapshot"].endswith("demo.snapshot.json")
    with open(paths["chrome"]) as fh:
        assert validate_chrome_trace(json.load(fh)) == []
    with open(paths["prometheus"]) as fh:
        assert validate_prometheus_text(fh.read()) == []


# -- the CLI ------------------------------------------------------------------------------


def test_cli_tivopc_scenario(tmp_path, capsys):
    """The CI smoke entry point: runs, validates, exits zero, and the
    trace provably contains a full proxy->...->reply tree."""
    from repro.telemetry.cli import main

    out_dir = tmp_path / "artifacts"
    assert main(["--scenario", "tivopc", "--seed", "0",
                 "--seconds", "0.8", "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "artifacts validated" in captured.out
    assert not captured.err
    trace_path = out_dir / "tivopc-seed0.trace.json"
    with open(trace_path) as fh:
        trace = json.load(fh)
    assert validate_chrome_trace(trace) == []
    # One trace id covers the whole offload path.
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_trace = {}
    for event in spans:
        by_trace.setdefault(event["args"]["trace_id"], set()).add(
            event["cat"])
    assert any({"proxy", "marshal", "channel", "bus", "device",
                "reply"} <= cats for cats in by_trace.values())


def test_cli_fails_on_a_conservation_violation(tmp_path, capsys,
                                               monkeypatch):
    """A violation gauge of 1 in the written snapshot fails the run and
    names the offending sample, even when every artifact is well-formed."""
    from repro.telemetry import cli

    def violated(seed, seconds):
        telemetry = cli.run_tivopc(seed, seconds)
        telemetry.registry.gauge(
            "repro_channel_conservation_violations",
            labels=("runtime",)).labels(runtime="injected").set(1)
        return telemetry

    monkeypatch.setattr(cli, "_SCENARIOS",
                        {**cli._SCENARIOS, "violated": violated})
    assert cli.main(["--scenario", "violated", "--seconds", "0.8",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAILED: conservation law broken: "
        "repro_channel_conservation_violations{'runtime': 'injected'} = 1"]


@pytest.mark.parametrize("scenario", ["tivopc", "chaos"])
def test_cli_seed0_scenarios_hold_every_law(scenario, tmp_path, capsys):
    """The packaged scenarios export the violation gauges the gate reads,
    and every one of them is zero."""
    from repro.telemetry.cli import main

    assert main(["--scenario", scenario, "--seed", "0", "--seconds", "0.8",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{scenario}-seed0.snapshot.json") as fh:
        metrics = json.load(fh)["metrics"]
    gauges = [name for name in metrics
              if name.endswith("_conservation_violations")]
    assert "repro_channel_conservation_violations" in gauges
    assert not capsys.readouterr().err
