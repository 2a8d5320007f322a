"""The harness-only scenarios' simulated work: the engine loops and the
live-migration cutover.

``harness.py`` times these (perfbench covers none of them); this
benchmark commits what they simulate to ``results/bench.json``, so a
change to the wheel, the fused sleep path or the cutover shows up in
``git diff``.
"""

from conftest import publish

from harness import run_all


def test_bench_harness_scenarios(one_shot):
    rows = one_shot(run_all, ["migration_downtime", "timeout_storm",
                              "timer_churn"], repeat=1)["benchmarks"]
    storm, churn = rows["timeout_storm"], rows["timer_churn"]
    drain = rows["migration_downtime"]
    publish("bench", "\n".join([
        "Harness scenarios -- simulated work",
        f"timeout_storm       {storm['events']:>9,d} events  "
        f"{storm['fused_resumes']:>9,d} fused resumes",
        f"timer_churn         {churn['events']:>9,d} events  "
        f"{churn['timers_fired']:>9,d} timers fired  "
        f"{churn['dead_timers_at_exit']} dead at exit",
        f"migration_downtime  {drain['events']:>9,d} events  "
        f"{drain['downtime_ns']:>9,d} ns downtime  "
        f"{drain['chunks_received']}/{drain['packets_sent']} chunks",
    ]), data=rows)

    # Cancelled timers never accumulate in the wheel.
    assert churn["dead_timers_at_exit"] == 0
    # The cutover blacks callers out, and loses and duplicates nothing.
    assert drain["downtime_ns"] > 0
    assert drain["exactly_once"] == 1
