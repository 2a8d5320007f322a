"""Golden hashes of the exported metrics artifacts.

``python -m repro.telemetry`` writes a JSON snapshot and a Prometheus
exposition of the simulator's metrics registry.  Both are pure
functions of the seed, so their sha256 pins every family name, label
set, help string and value the subsystems export.  The ``GOLDEN``
digests were captured before the counters moved out of scrape-time
adapters into the subsystems that bump them (each simulator's own
``sim.metrics``), with the eager kernel tick process; a refactor of the
metrics path must leave them unchanged, and they still hold under that
process (the oracle of :mod:`tests.eager_ticks`).  The chaos digests
were recaptured once since, when crash recovery began rebinding the
dead NIC's proxy: the run gains that proxy's channel (its zero-valued
series), one connect notice on the OOB channel and the few queue
entries and span that notice costs.

The lazy kernel tick (the default) pops fewer queue entries, so its
artifacts have their own digests, ``LAZY``; apart from the two engine
counters that count those entries they match the eager ones exactly.
"""

import hashlib
import json
import re

import pytest

from repro.telemetry.cli import main

from tests.eager_ticks import eager_ticks

GOLDEN = {
    ("tivopc", "snapshot.json"):
        "9b192ecaeefd512ad5af7b8237e24d8798c00534b9675b1f4efaa59058092e22",
    ("tivopc", "metrics.prom"):
        "1f4dbaa5275f713d30518124662d2e3e3854805820da2b79ad5b816d45b19e03",
    ("chaos", "snapshot.json"):
        "ad6b007fb2323dffb498fc59610d2c3d174849c117d98d72adedb47ba5e62541",
    ("chaos", "metrics.prom"):
        "55cf84f5b3995eb08667d2c8e967fc02202a1088ea4eb2dcc413f25e149dafd8",
}

LAZY = {
    ("tivopc", "snapshot.json"):
        "1396b2fb36bacc5cb5fc1bb5afe0028e78a9b8888e587d68dd789b0cf3bfa251",
    ("tivopc", "metrics.prom"):
        "9ed364232a0248cd7d615d759021a33dcf66f3f99edcd7c270f605ba02a193c7",
    ("chaos", "snapshot.json"):
        "7d4b66778045f296e263eb1194a2096078340eee68fc17ce242b49287a78fca4",
    ("chaos", "metrics.prom"):
        "612f939ff277f742e54c163c35d30cdefbf9389dfa7a11966e61ee18576f5907",
}

# The families that count queue entries: the only ones the tick moves.
ENTRY_COUNTERS = ("repro_sim_events_total", "repro_sim_fused_resumes_total")


def _export(scenario, out_dir):
    # tivopc streams for 1 s; chaos runs its 3 s minimum horizon.
    assert main(["--scenario", scenario, "--seed", "0", "--seconds", "1",
                 "--out", str(out_dir)]) == 0
    return {suffix: (out_dir / f"{scenario}-seed0.{suffix}").read_bytes()
            for suffix in ("snapshot.json", "metrics.prom")}


def _digests(scenario, artifacts):
    return {(scenario, suffix): hashlib.sha256(data).hexdigest()
            for suffix, data in artifacts.items()}


def _expected(golden, scenario):
    return {key: digest for key, digest in golden.items()
            if key[0] == scenario}


def _without_entry_counters(artifacts):
    snapshot = json.loads(artifacts["snapshot.json"])
    for family in ENTRY_COUNTERS:
        del snapshot["metrics"][family]
    counted = re.compile(rb"^(%s) " % b"|".join(
        name.encode() for name in ENTRY_COUNTERS))
    prom = [line for line in artifacts["metrics.prom"].splitlines()
            if not counted.match(line)]
    return snapshot, prom


@pytest.mark.parametrize("scenario", ["tivopc", "chaos"])
def test_exported_metrics_match_golden_digests(scenario, tmp_path, capsys):
    with eager_ticks():
        eager = _export(scenario, tmp_path / "eager")
    lazy = _export(scenario, tmp_path / "lazy")
    capsys.readouterr()
    assert _digests(scenario, eager) == _expected(GOLDEN, scenario)
    assert _digests(scenario, lazy) == _expected(LAZY, scenario)
    assert _without_entry_counters(lazy) == _without_entry_counters(eager)
