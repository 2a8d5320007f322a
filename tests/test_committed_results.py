"""Committed benchmark results hold only fields fixed by code and seed,
so ``git diff`` after a benchmark run compares every one of them."""

import fnmatch
import json
import pathlib

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / \
    "results"

# Wall times, rates and the ratios built on them, which vary with the
# machine that ran the benchmark.
MACHINE_KEYS = ("wall_s", "*_wall_s", "wall_s_*", "*_per_sec", "speedup_*w",
                "efficiency_*", "supervision_overhead", "tracing_cost",
                "affinity_cpus")


def _keys(data):
    if isinstance(data, dict):
        for key, value in data.items():
            yield key
            yield from _keys(value)
    elif isinstance(data, list):
        for value in data:
            yield from _keys(value)


def test_committed_results_hold_no_machine_fields():
    artifacts = sorted(RESULTS.glob("*.json"))
    assert artifacts
    found = sorted({(path.name, key) for path in artifacts
                    for key in _keys(json.loads(path.read_text()))
                    if any(fnmatch.fnmatchcase(key, pattern)
                           for pattern in MACHINE_KEYS)})
    assert found == []
