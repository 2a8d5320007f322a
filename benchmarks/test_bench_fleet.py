"""Fleet scaling benchmark: sharded work, scaling and supervision cost.

The sharded population's simulated work is seeded and exact whatever
the worker count, so it is committed and diffed: chunks are conserved
and the chunk tier dispatches ~1 simulation event per chunk.

The wall-clock claims are gated on the live run, as ratios of two
measurements taken in it:

* **>= 3x aggregate throughput at 4 workers vs 1** (``speedup_4w``).  It
  is measured when the CPU affinity mask covers 4 workers; on smaller
  runners it is the LPT projection from the measured shard walls, and
  ``speedup_basis_4w`` says so.
* **Supervision costs <= 3 % wall** over the bare pool it replaced
  (``supervision_overhead``, interleaved best-of-3 pairs).
"""

from conftest import publish

from harness import FLEET_CLIENTS, FLEET_SHARDS, bench_fleet


def test_bench_fleet_scaling(one_shot):
    fleet = one_shot(bench_fleet)
    publish("fleet_scaling", "\n".join([
        f"Fleet scaling -- {FLEET_CLIENTS} chunk-fidelity subscribers, "
        f"{FLEET_SHARDS} shards",
        f"events               {fleet['events']:>14,d}",
        f"simulated ns         {fleet['sim_ns']:>14,d}",
        f"conservation ok      {fleet['conservation_ok']:>14d}",
    ]), data=fleet)

    # Simulated work is seeded and exact whatever the worker count.
    assert fleet["conservation_ok"] == 1
    assert fleet["sim_ns"] == FLEET_SHARDS * 2_000_000_000
    # The chunk tier's reason to exist: ~1 event per chunk.  399 chunks
    # per subscriber over 2 s at 5 ms pacing, plus one horizon wakeup.
    assert fleet["events"] == FLEET_CLIENTS * 401
    # Scaling numbers must declare what they are.
    assert fleet["speedup_basis_2w"] in ("measured", "projected_lpt")
    assert fleet["speedup_basis_4w"] in ("measured", "projected_lpt")
    assert fleet["speedup_4w"] >= 3.0
    assert fleet["supervision_overhead"] <= 1.03
