"""Shared machinery for the benchmark harness.

Several paper artifacts come from the *same* experimental run (Figure 9
and Tables 2/3 and Figure 10 all observe the four server scenarios;
Table 4 and the client-L2 claim share the client scenarios), exactly as
in the paper.  The cache below runs each underlying experiment once per
pytest session; the first benchmark that needs a result pays for it
inside its timed section, the rest reuse it.

Rendered tables are printed and also written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference them.
Everything written there depends only on code and seed, so CI compares
a fresh run with ``git diff``; wall-clock fields go to the git-ignored
``.harness/`` instead.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import pathlib
import sys
from typing import Dict, Optional

import pytest

from harness import RECORD_DIR
from repro.evaluation import (
    run_all_client_scenarios,
    run_all_server_scenarios,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Fields whose value depends on the machine, not only on code and seed:
# wall times, rates and the ratios built on them, and the CPU count that
# decides whether fleet scaling was measured or projected.
MACHINE_FIELDS = ("wall_s*", "*_wall_s", "*_per_sec", "speedup_*w",
                  "supervision_overhead", "tracing_cost", "affinity_cpus")

# The eager kernel tick oracle (tests/eager_ticks.py) lives with the
# tier-1 tests; the benchmarks that still pin its event counts import it.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

# Simulated seconds per scenario.  The paper ran 10 minutes; 25 s gives
# ~5000 packets per server scenario, plenty for stable medians.
SERVER_SECONDS = 25.0
CLIENT_SECONDS = 25.0

_cache: Dict[str, object] = {}


def server_results():
    if "server" not in _cache:
        _cache["server"] = run_all_server_scenarios(seconds=SERVER_SECONDS)
    return _cache["server"]


def client_results():
    if "client" not in _cache:
        _cache["client"] = run_all_client_scenarios(seconds=CLIENT_SECONDS)
    return _cache["client"]


def to_jsonable(obj):
    """Recursively convert experiment results to JSON-serializable data.

    Handles dataclasses (SummaryStats, SweepPoint, ...), ``__slots__``
    record classes, mappings and sequences; anything else falls back to
    ``str`` so publishing never fails on an exotic field.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        return {s: to_jsonable(getattr(obj, s)) for s in slots}
    return str(obj)


def split(data):
    """``(deterministic, machine)`` halves of ``data``: ``MACHINE_FIELDS``
    keys go to the second, at any depth of nested dicts."""
    if not isinstance(data, dict):
        return data, {}
    deterministic, machine = {}, {}
    for key, value in data.items():
        if any(fnmatch.fnmatchcase(key, p) for p in MACHINE_FIELDS):
            machine[key] = value
        else:
            deterministic[key], machine_part = split(value)
            if machine_part:
                machine[key] = machine_part
    return deterministic, machine


def publish(name: str, text: str, data: Optional[object] = None) -> None:
    """Print a rendered artifact and persist it under results/.

    ``data`` (when given) is written alongside as ``results/<name>.json``
    so downstream tooling can diff numbers without parsing tables; its
    machine fields are printed and written to ``.harness/<name>.json``
    instead.  ``text`` must render deterministic fields only.
    """
    deterministic, machine = split(to_jsonable(data))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(deterministic, indent=2, sort_keys=True) + "\n")
    print("\n" + text)
    if machine:
        RECORD_DIR.mkdir(exist_ok=True)
        record = json.dumps(machine, indent=2, sort_keys=True)
        (RECORD_DIR / f"{name}.json").write_text(record + "\n")
        print(record)


@pytest.fixture()
def one_shot(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
