"""Engine reference scenario: the simulated work of the run the engine's
hot-path changes were measured on.

A Simple server streams to a measurement client for 5 simulated
seconds -- CPU-bound on the host models (copies, cache walks, per-packet
syscalls).  Its wall time is timed on the same runner by the harness's
``telemetry`` row (``harness.py check``) and, end to end, by perfbench's
``host_stream`` workload; this benchmark pins what the run does.
"""

from conftest import publish

from harness import MICRO_SECONDS, reference_testbed

from tests.eager_ticks import eager_ticks


def _run():
    testbed = reference_testbed()
    testbed.run(MICRO_SECONDS)
    sim = testbed.sim
    return {"sim_ns": sim.now, "events": sim.events_processed,
            "fused_resumes": sim.fused_resumes,
            "pool_recycled": sim.pool_recycled}


def test_bench_engine_micro(one_shot):
    metrics = one_shot(_run)
    publish("engine_micro", "\n".join([
        "Engine reference scenario -- Simple server, 5 simulated seconds",
        f"events processed      {metrics['events']:>12,d}",
        f"fused resumes         {metrics['fused_resumes']:>12,d}",
        f"pooled handles reused {metrics['pool_recycled']:>12,d}",
    ]), data=metrics)

    # The simulated work is fixed: same events, same final clock.  The
    # eager tick process still takes the pre-lazy event count.
    assert metrics["events"] == 51_059
    assert metrics["sim_ns"] == 5_000_000_000
    with eager_ticks():
        eager = _run()
    assert eager["events"] == 93_048
    assert eager["sim_ns"] == metrics["sim_ns"]
    # The hot sleeps dispatch through the fused bare-int fast path.
    assert metrics["fused_resumes"] > 10_000
