"""``harness.py run NAME --out F`` regenerates one row and keeps the rest."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import harness  # noqa: E402


def _fake_run_all(names=None, repeat=3):
    rows = {name: {"events": 7, "wall_s": 0.5, "events_per_sec": 14.0,
                   "sim_ns": 1} for name in (names or ["a", "b"])}
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
