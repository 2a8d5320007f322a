"""``python -m repro.telemetry`` — run a scenario, write trace artifacts.

Runs a packaged scenario with telemetry attached and writes the three
artifact files (Perfetto-loadable Chrome trace, Prometheus text, JSON
snapshot), then validates them — a malformed artifact, an incomplete
span tree or a non-zero ``*_conservation_violations`` sample in the
written snapshot exits non-zero, which is what the CI smoke job keys on.

Scenarios:

* ``tivopc`` (default) — the offloaded TiVoPC pipeline streaming for
  ``--seconds`` of simulated time, plus GUI control calls (pause /
  query / play) over a two-way proxy so the trace provably contains a
  complete proxy -> marshal -> channel -> bus -> device -> reply tree
  under one trace id.
* ``chaos`` — one seeded chaos-soak scenario (faults, retransmits,
  recovery) with telemetry attached; exercises the retransmit and
  recovery branches of the span model.

Timestamps are sim time and ids are counters, so artifacts are
byte-identical for the same seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import MappingProxyType
from typing import List, Optional

# The full invocation tree the tivopc scenario must demonstrate
# (ISSUE acceptance criterion).
_REQUIRED_CATEGORIES = frozenset(
    {"proxy", "marshal", "channel", "bus", "device", "reply"})


def run_tivopc(seed: int, seconds: float):
    """The offloaded TiVoPC pipeline with GUI control calls."""
    from repro.tivopc.client import OffloadedClient
    from repro.tivopc.gui import GuiController
    from repro.tivopc.server import OffloadedServer
    from repro.tivopc.testbed import Testbed, TestbedConfig

    testbed = Testbed(TestbedConfig(seed=seed, telemetry=True))
    testbed.start()
    client = OffloadedClient(testbed)
    client.start()
    testbed.run(0.3)                    # client deploys
    server = OffloadedServer(testbed)
    server.start()
    testbed.run(seconds / 2)

    gui = GuiController(client)

    def control_script():
        yield from gui.pause()
        yield from gui.is_paused()
        yield from gui.play()

    testbed.sim.spawn(control_script(), name="gui-control-script")
    testbed.run(seconds / 2)
    server.stop()
    testbed.run(0.2)                    # drain in-flight frames
    return testbed.telemetry


def run_chaos(seed: int, seconds: float):
    """One chaos-soak scenario (faults + recovery) with telemetry."""
    from repro.faults.chaos import ChaosProfile, run_chaos_scenario

    run = run_chaos_scenario(
        seed, ChaosProfile(seconds=max(3.0, seconds), telemetry=True))
    return run.testbed.telemetry


_SCENARIOS = MappingProxyType({"tivopc": run_tivopc, "chaos": run_chaos})


def _check_completeness(telemetry) -> List[str]:
    """At least one trace must cover the whole offload path."""
    for categories in telemetry.trace_categories().values():
        if _REQUIRED_CATEGORIES <= categories:
            return []
    seen = set()
    for categories in telemetry.trace_categories().values():
        seen |= categories
    return ["no single trace covers the full offload path "
            f"{sorted(_REQUIRED_CATEGORIES)}; categories seen across "
            f"all traces: {sorted(seen)}"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Run a scenario with telemetry and write "
                    "trace/metrics artifacts.")
    parser.add_argument("--scenario", choices=sorted(_SCENARIOS),
                        default="tivopc")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="simulated streaming horizon (default 2.0)")
    parser.add_argument("--out", default="artifacts/telemetry",
                        help="output directory for the artifact files")
    args = parser.parse_args(argv)

    from repro.telemetry.export import (to_chrome_trace,
                                        validate_chrome_trace,
                                        validate_prometheus_text,
                                        write_artifacts)

    telemetry = _SCENARIOS[args.scenario](args.seed, args.seconds)
    paths = write_artifacts(telemetry, args.out,
                            prefix=f"{args.scenario}-seed{args.seed}")

    problems = validate_chrome_trace(to_chrome_trace(telemetry))
    with open(paths["prometheus"]) as fh:
        problems += validate_prometheus_text(fh.read())
    if args.scenario == "tivopc":
        problems += _check_completeness(telemetry)
    # A broken conservation law fails the run like a malformed artifact.
    with open(paths["snapshot"]) as fh:
        metrics = json.load(fh)["metrics"]
    problems += [
        f"conservation law broken: {name}{sample['labels']} = "
        f"{sample['value']}" for name, family in sorted(metrics.items())
        if name.endswith("_conservation_violations")
        for sample in family["samples"] if sample["value"]]

    with open(paths["chrome"]) as fh:
        n_events = len(json.load(fh)["traceEvents"])
    print(f"scenario={args.scenario} seed={args.seed} "
          f"sim_ns={telemetry.sim.now}")
    print(f"spans={len(telemetry.spans)} instants={len(telemetry.events)} "
          f"traces={len(telemetry.trace_categories())} "
          f"trace_events={n_events}")
    for kind, path in sorted(paths.items()):
        print(f"  {kind}: {path}")
    if problems:
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 1
    print("artifacts validated: trace parses, spans are causal, "
          "exposition is well-formed, conservation laws hold")
    return 0
