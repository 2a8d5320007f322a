"""``harness.py run`` writes its record outside ``benchmarks/results``
and merges named rows; ``check`` compares two same-runner records."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import harness  # noqa: E402


def _fake_run_all(names=None, repeat=3):
    rows = {name: {"events": 7, "wall_s": 0.5, "sim_ns": 1}
            for name in (names or ["a", "b"])}
    return {"schema": 1, "benchmarks": rows}


def test_named_run_merges_into_existing_out(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_all", _fake_run_all)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"schema": 1, "benchmarks": {
        "a": {"events": 1}, "b": {"events": 2}}}))
    assert harness.main(["run", "b", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["benchmarks"]
    assert rows["a"] == {"events": 1}
    assert rows["b"]["events"] == 7


def test_full_run_replaces_out(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_all", _fake_run_all)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"schema": 1, "benchmarks": {
        "stale": {"events": 1}}}))
    assert harness.main(["run", "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["benchmarks"]) == ["a", "b"]


def test_run_writes_nothing_under_results(tmp_path, monkeypatch):
    results = ROOT / "benchmarks" / "results"
    assert results not in harness.RECORD_DIR.parents
    monkeypatch.setattr(harness, "run_all", _fake_run_all)
    monkeypatch.setattr(harness, "RECORD_DIR", tmp_path / ".harness")
    before = {path.name: path.read_bytes() for path in results.iterdir()}
    assert harness.main(["run"]) == 0
    assert {path.name: path.read_bytes()
            for path in results.iterdir()} == before
    assert (tmp_path / ".harness" / "run.json").exists()


@pytest.mark.parametrize("rate, sim_ns, status", [
    (0.79, 1_000_000, 1),      # > 20 % slower: a regression
    (0.81, 1_000_000, 0),      # within the 20 % band
    (1.50, 1_000_000, 0),      # faster
    (1.00, 2_000_000, 1),      # simulated a different span
])
def test_check_compares_two_same_runner_records(tmp_path, rate, sim_ns,
                                                status):
    baseline, current = tmp_path / "parent.json", tmp_path / "head.json"
    baseline.write_text(json.dumps({"schema": 1, "benchmarks": {
        "timeout_storm": {"sim_ns": 1_000_000, "wall_s": 1.0},
        "fleet": {"sim_ns": 1_000_000, "speedup_4w": 3.8}}}))
    current.write_text(json.dumps({"schema": 1, "benchmarks": {
        "timeout_storm": {"sim_ns": sim_ns, "wall_s": sim_ns / 1e6 / rate},
        "fleet": {"sim_ns": 1_000_000, "speedup_4w": 1.0}}}))
    assert harness.main(["check", "--baseline", str(baseline),
                         "--current", str(current),
                         "--tolerance", "0.20"]) == status
