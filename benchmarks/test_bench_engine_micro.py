"""Engine microbenchmark: loop throughput on the reference workload.

The hot-path overhaul (__slots__ event types, pooled fast-path timeouts,
lazy cancellation, dict-LRU cache inner loop) was accepted against a
>= 2x events/second bar on a CPU-bound TiVoPC run.  This benchmark
re-measures that workload through :mod:`harness` and publishes both the
human-readable summary and the machine-readable JSON entry.

The bars were set as events/second when the run took 93,048 events
with the eager kernel tick process.  The lazy tick simulates the same
run in fewer events, so the bars are stated as the wall time of the
fixed 5 s run: ``wall_s <= 93_048 / (2 * rate)``, the same gate while
the event count was 93,048.
"""

from conftest import publish

from harness import (
    ENGINE_MICRO_EVENTS,
    PRE_OVERHAUL_EVENTS_PER_SEC,
    PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC,
    bench_engine_micro_tivopc,
    run_all,
)

from tests.eager_ticks import eager_ticks


def test_bench_engine_micro(one_shot):
    report = one_shot(run_all, ["engine_micro_tivopc"])
    metrics = report["benchmarks"]["engine_micro_tivopc"]
    publish("engine_micro", "\n".join([
        "Engine microbenchmark -- Simple server, 5 simulated seconds",
        f"events processed      {metrics['events']:>12,d}",
        f"wall clock            {metrics['wall_s']:>12.3f} s",
        f"events/second         {metrics['events_per_sec']:>12,.0f}",
        f"fused resumes         {metrics['fused_resumes']:>12,d}",
        f"pre-overhaul rate     {PRE_OVERHAUL_EVENTS_PER_SEC:>12,d}",
        f"speedup               {metrics['speedup_vs_pre_overhaul']:>12.2f}x",
        f"pre-wheel rate        {PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC:>12,d}",
        f"speedup vs pre-wheel  {metrics['speedup_vs_pre_wheel']:>12.2f}x",
    ]), data=metrics)

    # The simulated work is fixed: same events, same final clock.  The
    # eager tick process still takes the pre-lazy event count.
    assert metrics["events"] == 51_059
    assert metrics["sim_ns"] == 5_000_000_000
    with eager_ticks():
        eager = bench_engine_micro_tivopc()
    assert eager["events"] == 93_048 == ENGINE_MICRO_EVENTS
    assert eager["sim_ns"] == metrics["sim_ns"]
    # The hot sleeps dispatch through the fused bare-int fast path (the
    # pooled _Deferred handles now serve only value-carrying sleeps, so
    # pool_recycled no longer measures the hot path).
    assert metrics["fused_resumes"] > 10_000
    # The overhaul's acceptance bar, measured best-of-N to shrug off
    # scheduler noise.  PRE_OVERHAUL_EVENTS_PER_SEC was recorded on the
    # reference machine immediately before the overhaul landed.
    assert metrics["wall_s"] <= 93_048 / (2.0 * PRE_OVERHAUL_EVENTS_PER_SEC)
    # The timer-wheel core's bar is >= 3x the committed pre-wheel
    # baseline; the full-strength gate is the perf-smoke check against
    # the committed bench.json (whose entry records the 3x), so this
    # in-test floor is set a noise margin below it.
    assert metrics["wall_s"] <= 93_048 / (
        2.0 * PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC)
