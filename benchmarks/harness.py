"""Wall-clock harness for the scenarios perfbench does not time.

``perfbench/run.py`` times the repository benchmark's workloads.  This
times the rest: the engine-only loops, the sPIN filter, the migration
cutover, tracing on against off, and the fleet's scaling and supervision
ratios, each from two measurements of the same run.  ``run`` writes a
record to ``.harness/`` (git-ignored), never ``benchmarks/results``;
``check`` compares two records taken on the same runner.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections import deque
from typing import Callable, Dict, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sim.engine import Simulator                     # noqa: E402
from repro.tivopc import (MeasurementClient, PopulationConfig,  # noqa: E402
                          SimpleServer, Testbed, TestbedConfig)

RECORD_DIR = ROOT / ".harness"

# Simulated seconds per testbed scenario, and a chunk-fidelity fleet big
# enough that per-shard simulation dominates dispatch + merge.
MICRO_SECONDS = 5.0
FLEET_CLIENTS = 1024
FLEET_SHARDS = 8
FLEET_SECONDS = 2.0


def reference_testbed(telemetry: bool = False) -> Testbed:
    """The engine reference scenario, started: Simple server, seed 0."""
    testbed = Testbed(TestbedConfig(seed=0, telemetry=telemetry))
    testbed.start()
    MeasurementClient(testbed).start()
    SimpleServer(testbed).start()
    return testbed


def _row(sim: Simulator, start: float) -> Dict:
    """What ``sim`` did, and the wall seconds since ``start``."""
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "sim_ns": sim.now,
            "events": sim.events_processed,
            "pool_recycled": sim.pool_recycled,
            "fused_resumes": sim.fused_resumes}


def bench_telemetry() -> Dict:
    """The reference scenario untraced, then traced; ``wall_s`` is the
    untraced run, so ``check`` gates the disabled path."""
    rows = []
    for telemetry in (False, True):
        testbed = reference_testbed(telemetry)
        start = time.perf_counter()
        testbed.run(MICRO_SECONDS)
        rows.append(_row(testbed.sim, start))
    plain, traced = rows
    return {**plain, "traced_events": traced["events"],
            "spans": len(testbed.telemetry.spans),
            "instants": len(testbed.telemetry.events),
            "traced_wall_s": traced["wall_s"],
            "tracing_cost": traced["wall_s"] / plain["wall_s"]}


def bench_migration_downtime() -> Dict:
    """The chaos ``drain`` preset migrates the network Streamer onto
    ``nic1`` mid-stream: ``downtime_ns`` is the simulated window the proxy
    gate holds callers, chunks vs packets the exactly-once evidence."""
    from dataclasses import replace
    from repro.faults.chaos import PROFILES, run_chaos_scenario

    start = time.perf_counter()
    run = run_chaos_scenario(
        0, replace(PROFILES["drain"], seconds=MICRO_SECONDS))
    record = run.migration["record"]
    sent, handled = run.server.packets_sent, run.client.chunks_received
    return {**_row(run.testbed.sim, start),
            "downtime_ns": record.downtime_ns,
            "migration_replayed": record.replayed,
            "migration_shed": record.shed, "packets_sent": sent,
            "chunks_received": handled, "exactly_once": int(sent == handled)}


def bench_timeout_storm() -> Dict:
    """64 processes trading bare-int sleeps, no hardware models: the
    wheel, dispatch and process resumption alone."""
    sim = Simulator()

    def ticker(period_ns: int):
        while True:
            yield period_ns

    for i in range(64):
        sim.spawn(ticker(1_000 + i), name=f"storm-{i}")
    start = time.perf_counter()
    sim.run(until=10_000_000)
    return _row(sim, start)


def bench_timer_churn() -> Dict:
    """32 processes each keep a sliding fan of ``clock.after`` timers and
    cancel three quarters well before the deadline (the retransmit
    pattern): the wheel's removal and reclaim paths."""
    sim = Simulator()
    fired = [0]

    def _tick() -> None:
        fired[0] += 1

    def churner(k: int):
        pending = deque()
        i = 0
        while True:
            pending.append(
                sim.clock.after(4_000 + ((i * 37 + k) % 512), _tick))
            if len(pending) >= 8:
                timer = pending.popleft()
                if i % 4:
                    timer.cancel()
            i += 1
            yield 250

    for k in range(32):
        sim.spawn(churner(k), name=f"churn-{k}")
    start = time.perf_counter()
    sim.run(until=2_000_000)
    return {**_row(sim, start), "timers_fired": fired[0],
            "dead_timers_at_exit": sim.dead_timers}


def bench_spin_filter() -> Dict:
    """The sPIN telemetry filter: packets through in-NIC handlers, and
    the share of the line the host never saw."""
    from repro.rdma.filter import run_filter_scenario

    start = time.perf_counter()
    report = run_filter_scenario(packets=400)
    wall_s = time.perf_counter() - start
    rx = report["rx_packets"]
    return {"wall_s": wall_s, **{key: report[key] for key in (
        "sim_ns", "events", "rx_packets", "spin_handled", "spin_dropped",
        "spin_to_host", "budget_overruns", "host_rx_packets", "host_cpu_ns")},
        "packets_per_sim_sec": rx * 1e9 / report["elapsed_ns"],
        "host_absorption": 1.0 - report["host_rx_packets"] / rx,
        "accounted": 1.0 if report["accounted"] else 0.0}


def bench_fleet() -> Dict:
    """Fleet scaling at 2 and 4 workers against 1, and supervision cost.
    Below the worker count in CPUs a multi-worker run would measure
    oversubscription, so its wall is projected from the 1-worker shard
    walls with the pool's longest-processing-time dispatch model plus the
    dispatch+merge wall; ``speedup_basis_<n>w`` says which."""
    from repro.evaluation.fleet import (FleetConfig, _run_shard,
                                        lpt_makespan, run_fleet)
    from repro.evaluation.parallel import default_workers, fork_context
    from repro.evaluation.supervised import SupervisedPool, SupervisionPolicy

    population = PopulationConfig(clients=FLEET_CLIENTS,
                                  seconds=FLEET_SECONDS, fleet_seed=0)
    affinity = default_workers()
    base = run_fleet(FleetConfig(population=population,
                                 shards=FLEET_SHARDS, workers=1))
    shard_walls = [s.wall_s for s in base.shards]
    # Pickling, unpickling, snapshot merge and QoE folds.
    overhead_s = max(0.0, base.wall_s - sum(shard_walls))
    metrics = {"sim_ns": sum(s.sim_ns for s in base.shards),
               "events": base.events, "clients": FLEET_CLIENTS,
               "shards": FLEET_SHARDS, "conservation_ok": int(base.ok),
               "affinity_cpus": affinity, "wall_s_1w": base.wall_s,
               "dispatch_merge_wall_s": overhead_s}
    for workers in (2, 4):
        if affinity >= workers:
            wall = run_fleet(FleetConfig(population=population,
                                         shards=FLEET_SHARDS,
                                         workers=workers)).wall_s
            basis = "measured"
        else:
            wall = lpt_makespan(shard_walls, workers) + overhead_s
            basis = "projected_lpt"
        metrics[f"wall_s_{workers}w"] = wall
        metrics[f"speedup_{workers}w"] = base.wall_s / wall
        metrics[f"speedup_basis_{workers}w"] = basis
    # Supervision cost: one shard batch through the SupervisedPool and
    # the bare Pool.imap_unordered it replaced.  Hedging is off: it
    # spends CPU speculatively, which on 2 CPUs measures contention.
    config = FleetConfig(population=population, shards=FLEET_SHARDS,
                         workers=2)
    tasks = [(shard_id, config) for shard_id in range(FLEET_SHARDS)]

    def timed(supervised: bool) -> float:
        start = time.perf_counter()
        if supervised:            # the same dispatch call run_fleet makes
            pool = SupervisedPool(_run_shard, workers=2,
                                  policy=SupervisionPolicy(hedge=False))
            pool.run(tasks)
            if pool.failures:
                raise RuntimeError(f"lost shards {sorted(pool.failures)}")
        else:
            with fork_context().Pool(2) as pool:
                list(pool.imap_unordered(_run_shard, tasks))
        return time.perf_counter() - start

    # The median pair by ratio of 5 interleaved pairs: drift in clock
    # frequency and cache warmth cancels within a pair, and no single
    # outlier run on either side moves the median.
    unsupervised, supervised = sorted(
        ((timed(False), timed(True)) for _ in range(5)),
        key=lambda pair: pair[1] / pair[0])[2]
    return {**metrics, "unsupervised_wall_s": unsupervised,
            "supervised_wall_s": supervised,
            "supervision_overhead": supervised / unsupervised}


BENCHMARKS: Dict[str, Callable[[], Dict]] = {
    "fleet": bench_fleet, "migration_downtime": bench_migration_downtime,
    "spin_filter": bench_spin_filter, "telemetry": bench_telemetry,
    "timeout_storm": bench_timeout_storm, "timer_churn": bench_timer_churn,
}


def run_all(names: Optional[Sequence[str]] = None,
            repeat: int = 3) -> Dict[str, Dict]:
    """Run the named benchmarks (default: all); keep the lowest ``wall_s``
    of ``repeat`` runs (the fleet row has none and runs once)."""
    benches = {name: BENCHMARKS[name] for name in names or BENCHMARKS}
    rows = {}
    for name, bench in benches.items():
        runs = [bench()]
        while "wall_s" in runs[0] and len(runs) < repeat:
            runs.append(bench())
        rows[name] = min(runs, key=lambda m: m.get("wall_s", 0.0))
    return {"schema": 1, "benchmarks": rows}


def _cmd_run(args) -> int:
    report = run_all(args.benchmarks)
    out = pathlib.Path(args.out) if args.out else RECORD_DIR / "run.json"
    if args.benchmarks and out.exists():
        # Named benchmarks replace only their own rows of the record.
        kept = json.loads(out.read_text())["benchmarks"]
        report["benchmarks"] = {**kept, **report["benchmarks"]}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["benchmarks"], indent=1), f"wrote {out}", sep="\n")
    return 0


def _cmd_check(args) -> int:
    """Fail on a changed span or a drop in sim ns per wall second."""
    baseline, current = (json.loads(pathlib.Path(path).read_text())
                         for path in (args.baseline, args.current))
    problems = []
    for name, cur in current["benchmarks"].items():
        base = baseline["benchmarks"].get(name)
        if base is None or "wall_s" not in base or "wall_s" not in cur:
            continue
        ratio = (cur["sim_ns"] / cur["wall_s"]) / (
            base["sim_ns"] / base["wall_s"])
        print(f"{name:20s} {ratio:.2f}x the baseline's sim ns per wall s")
        if cur["sim_ns"] != base["sim_ns"]:
            problems.append(f"{name}: sim_ns {base['sim_ns']} -> "
                            f"{cur['sim_ns']}")
        elif ratio < 1.0 - args.tolerance:
            problems.append(f"{name}: {ratio:.2f}x")
    print(*(f"PERF REGRESSION: {problem}" for problem in problems),
          "perf check " + ("failed" if problems else "passed"), sep="\n")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python benchmarks/harness.py",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run; named ones merge into --out")
    run_p.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help=", ".join(BENCHMARKS))
    run_p.add_argument("--out", help="default: .harness/run.json")
    run_p.set_defaults(func=_cmd_run)
    check_p = sub.add_parser("check", help="compare two same-runner records")
    check_p.add_argument("--baseline", required=True)
    check_p.add_argument("--current", required=True)
    check_p.add_argument("--tolerance", type=float, default=0.20,
                         help="allowed drop in sim ns per wall second")
    check_p.set_defaults(func=_cmd_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
