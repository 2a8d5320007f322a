"""Telemetry overhead benchmark: the disabled path must stay free.

Every instrumented site guards on ``sim.telemetry is None`` — one
attribute check — so with telemetry disabled (the default) the engine
microbenchmark budget is a <= 2 % events/sec regression against
``PRE_TELEMETRY_EVENTS_PER_SEC``, the same workload measured at the
commit before instrumentation landed.

Two kinds of assertion, split by what wall-clock noise can touch:

* **Noise-free invariants, gated on the live run**: telemetry observes
  and never perturbs, so event count and final sim clock must be
  *identical* with the hub attached or absent; enabled tracing must
  actually record spans.
* **The 2 % budget, gated on the committed baseline**: the reference
  machine's wall clock jitters ~20 % between runs, far above the budget
  being measured, so the <= 2 % claim is pinned by the committed
  ``benchmarks/results/bench.json`` — regenerated with a paired
  best-of-N protocol whenever a deliberate perf change lands — and this
  test verifies the committed artifact upholds it.  The live run is
  additionally held to the perf-smoke job's standard 30 % tolerance.

The *enabled* cost is reported in the published artifact, not gated:
tracing is an opt-in diagnostic mode.

``PRE_TELEMETRY_EVENTS_PER_SEC`` was measured when the run took 93,048
events with the eager kernel tick process; the lazy tick simulates the
same run in fewer events, so the live floor is stated as the wall time
of the fixed 5 s run, the same gate while the count was 93,048.
"""

import json

from conftest import publish

from harness import (
    DEFAULT_BENCH_JSON,
    PRE_TELEMETRY_EVENTS_PER_SEC,
    bench_engine_micro_telemetry,
    run_all,
)

from tests.eager_ticks import eager_ticks


def test_bench_telemetry_overhead(one_shot):
    report = one_shot(run_all,
                      ["engine_micro_tivopc", "engine_micro_telemetry"])
    disabled = report["benchmarks"]["engine_micro_tivopc"]
    enabled = report["benchmarks"]["engine_micro_telemetry"]
    publish("telemetry_overhead", "\n".join([
        "Telemetry overhead -- Simple server, 5 simulated seconds",
        f"disabled events/sec   {disabled['events_per_sec']:>12,.0f}",
        f"enabled events/sec    {enabled['events_per_sec']:>12,.0f}",
        f"pre-telemetry rate    {PRE_TELEMETRY_EVENTS_PER_SEC:>12,d}",
        f"disabled vs pre       {disabled['vs_pre_telemetry']:>12.3f}x",
        f"enabled tracing cost  {enabled['tracing_cost_vs_disabled']:>11.2f}x",
        f"spans recorded        {enabled['spans']:>12,d}",
    ]), data={"disabled": disabled, "enabled": enabled})

    # Telemetry observes, never perturbs: identical simulated work
    # whether the hub is attached or not (no events, no clock skew).
    assert disabled["events"] == 51_059
    assert enabled["events"] == 51_059
    assert disabled["sim_ns"] == enabled["sim_ns"] == 5_000_000_000
    # ... and so does the eager tick process, at its own count.
    with eager_ticks():
        eager = bench_engine_micro_telemetry()
    assert eager["events"] == 93_048
    assert eager["sim_ns"] == 5_000_000_000
    # Enabled tracing actually recorded the offload path.
    assert enabled["spans"] > 1_000
    # Live floor at the perf-smoke tolerance (30 %): catches a real
    # disabled-path pessimisation without flaking on host noise.
    assert disabled["wall_s"] <= 93_048 / (0.70 * PRE_TELEMETRY_EVENTS_PER_SEC)

    # The committed baseline carries the pinned <= 2 % budget.
    committed = json.loads(DEFAULT_BENCH_JSON.read_text())["benchmarks"]
    assert committed["engine_micro_tivopc"]["vs_pre_telemetry"] >= 0.98
    # ... and records the enabled-mode cost alongside it.
    assert "tracing_cost_vs_disabled" in committed["engine_micro_telemetry"]
