"""Telemetry benchmark: tracing observes the reference run, never
perturbs it.

Every instrumented site guards on ``sim.telemetry is None`` -- one
attribute check -- so the disabled path must stay free.  That is a
wall-clock claim, gated where wall clocks can be compared: the harness's
``telemetry`` row times the untraced run, and CI's ``harness.py check``
fails it on a > 20 % drop against the parent commit on the same runner.
The traced run's cost (``tracing_cost``) is reported, not gated: tracing
is an opt-in diagnostic mode.

Gated here, on the live run: the traced and untraced runs simulate the
identical work (no events, no clock skew), under the lazy and the eager
kernel tick alike, and tracing actually records the path.
"""

from conftest import publish

from harness import MICRO_SECONDS, bench_telemetry, reference_testbed

from tests.eager_ticks import eager_ticks


def test_bench_telemetry_overhead(one_shot):
    row = one_shot(bench_telemetry)
    publish("telemetry_overhead", "\n".join([
        "Telemetry -- Simple server, 5 simulated seconds, traced",
        f"spans recorded        {row['spans']:>12,d}",
        f"instants recorded     {row['instants']:>12,d}",
    ]), data={key: row[key] for key in ("spans", "instants", "wall_s",
                                        "traced_wall_s", "tracing_cost")})

    # Telemetry observes, never perturbs: identical simulated work
    # whether the hub is attached or not.
    assert row["events"] == row["traced_events"] == 51_059
    assert row["sim_ns"] == 5_000_000_000
    # ... and so does the eager tick process, at its own count.
    with eager_ticks():
        eager = reference_testbed(telemetry=True)
        eager.run(MICRO_SECONDS)
    assert eager.sim.events_processed == 93_048
    assert eager.sim.now == 5_000_000_000
    # Enabled tracing actually recorded the offload path.
    assert row["spans"] > 1_000
