"""Golden hashes of the exported metrics artifacts.

``python -m repro.telemetry`` writes a JSON snapshot and a Prometheus
exposition of the simulator's metrics registry.  Both are pure
functions of the seed, so their sha256 pins every family name, label
set, help string and value the subsystems export.  The digests below
were captured before the counters moved out of scrape-time adapters
into the subsystems that bump them (each simulator's own
``sim.metrics``); a refactor of the metrics path must leave them
unchanged.
"""

import hashlib

import pytest

from repro.telemetry.cli import main

GOLDEN = {
    ("tivopc", "snapshot.json"):
        "9b192ecaeefd512ad5af7b8237e24d8798c00534b9675b1f4efaa59058092e22",
    ("tivopc", "metrics.prom"):
        "1f4dbaa5275f713d30518124662d2e3e3854805820da2b79ad5b816d45b19e03",
    ("chaos", "snapshot.json"):
        "5dc94bd5986cdefd1e9fdbb4d943a51f80b7d7357712d8dd89d9c2183b10e3c0",
    ("chaos", "metrics.prom"):
        "1abfd94ab60ec26c94d9c079f55c2e0b2b34d7c8eb40e6aeef53c4d93b2bca79",
}


@pytest.mark.parametrize("scenario", ["tivopc", "chaos"])
def test_exported_metrics_match_golden_digests(scenario, tmp_path, capsys):
    # tivopc streams for 1 s; chaos runs its 3 s minimum horizon.
    assert main(["--scenario", scenario, "--seed", "0", "--seconds", "1",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for (name, suffix), digest in GOLDEN.items():
        if name != scenario:
            continue
        data = (tmp_path / f"{scenario}-seed0.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix
