"""Machine-readable performance harness.

Times a fixed set of simulator workloads and writes the numbers as JSON
so regressions are caught by a diff, not by eyeballing pytest-benchmark
output.  Two subcommands:

``run``
    Execute every harness benchmark and write
    ``benchmarks/results/bench.json`` (or ``--out``).  Each entry
    records wall-clock seconds, simulated nanoseconds, events processed
    and events/second.  ``run NAME...`` runs only the named benchmarks
    and merges their rows into an existing ``--out`` file.

``check``
    Compare a fresh ``--current`` run against the committed
    ``--baseline`` and exit non-zero if any benchmark simulated a
    different amount of time, or if its simulated work per wall second
    (``sim_ns / wall_s``) dropped by more than ``--tolerance`` (default
    20 %) below the baseline row's own.  CI runs this on every push
    (the *perf-smoke* job).  The gate counts simulated time, not
    events: a change that removes queue entries without changing the
    simulation (the lazy kernel tick) does the same work in fewer
    events.  While a row's event count is unchanged the two gates are
    the same gate.

The committed ``benchmarks/results/bench.json`` is the baseline; re-run
``python benchmarks/harness.py run`` on the reference machine and commit
the result whenever a deliberate perf change lands.

``PRE_OVERHAUL_EVENTS_PER_SEC`` pins the hot-path overhaul's "before"
number (same machine, same scenario, commit e5fa1f2) so the recorded
speedup is visible in the JSON artifact itself.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import units                                   # noqa: E402
from repro.faults import FaultPlan                        # noqa: E402
from repro.sim.engine import Simulator                    # noqa: E402
from repro.tivopc.client import (                         # noqa: E402
    MeasurementClient,
    OffloadedClient,
)
from repro.tivopc.components import StreamerOffcode       # noqa: E402
from repro.tivopc.server import OffloadedServer, SimpleServer  # noqa: E402
from repro.tivopc.testbed import Testbed, TestbedConfig   # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_BENCH_JSON = RESULTS_DIR / "bench.json"

# events/sec of the engine microbenchmark *before* the hot-path overhaul
# (__slots__, pooled timeouts, lazy cancellation, cache fast path),
# measured on the reference machine.  The overhaul's acceptance bar is
# >= 2x this number; `run` records the achieved ratio in bench.json.
PRE_OVERHAUL_EVENTS_PER_SEC = 51_373

# events/sec of the same microbenchmark immediately *before* the
# telemetry instrumentation landed (commit 1b84aef, best of 8 on the
# reference machine the same session the instrumented baseline was
# committed — wall-clock noise on that machine is ~5 %, so paired
# best-of-N is the only fair protocol).  The instrumentation's
# acceptance bar: with telemetry disabled (the default) the hot path
# pays one attribute check per site and may not regress more than 2 %
# against this number (benchmarks/test_bench_telemetry.py).
PRE_TELEMETRY_EVENTS_PER_SEC = 114_888

# events/sec immediately *before* the timer-wheel scheduler core landed
# (the committed bench.json baselines of that commit — the binary-heap
# queue, eager cache classification).  The wheel's acceptance bar is
# >= 3x on both the reference workload and the pure-loop storm; `run`
# records the achieved ratios in bench.json.
PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC = 114_837
PRE_WHEEL_TIMEOUT_STORM_EVENTS_PER_SEC = 784_790

# The engine microbenchmark's event count when the rates above were
# measured, with the eager kernel tick process.  The lazy tick runs the
# same simulation in fewer events, so each rate is compared as the wall
# time that run took: ENGINE_MICRO_EVENTS / rate.
ENGINE_MICRO_EVENTS = 93_048


def engine_micro_wall_s(events_per_sec: float) -> float:
    """Wall seconds of the engine microbenchmark at a recorded rate."""
    return ENGINE_MICRO_EVENTS / events_per_sec


# Simulated seconds per harness scenario: long enough to amortize setup,
# short enough for a CI smoke job.
MICRO_SECONDS = 5.0

# The sharded fleet scenario: a chunk-fidelity population big enough
# that per-shard simulation dominates dispatch + merge, small enough
# for a smoke job.
FLEET_CLIENTS = 1024
FLEET_SHARDS = 8
FLEET_SECONDS = 2.0


def _timed_testbed_run(server_cls, seconds: float,
                       telemetry: bool = False) -> Dict[str, float]:
    """Run one TiVoPC scenario and report loop throughput."""
    testbed = Testbed(TestbedConfig(seed=0, telemetry=telemetry))
    testbed.start()
    MeasurementClient(testbed).start()
    server_cls(testbed).start()
    start = time.perf_counter()
    testbed.run(seconds)
    wall_s = time.perf_counter() - start
    events = testbed.sim.events_processed
    metrics = {
        "wall_s": wall_s,
        "sim_ns": testbed.sim.now,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "pool_recycled": testbed.sim.pool_recycled,
        "fused_resumes": testbed.sim.fused_resumes,
    }
    if testbed.telemetry is not None:
        metrics["spans"] = len(testbed.telemetry.spans)
        metrics["instants"] = len(testbed.telemetry.events)
    return metrics


def bench_engine_micro_tivopc() -> Dict[str, float]:
    """The overhaul's reference workload: Simple server, 5 sim-seconds.

    CPU-bound on the host models (copies, cache walks, per-packet
    syscalls), so it exercises the pooled-timeout fast path, lazy
    cancellation and the cache inner loop together.
    """
    metrics = _timed_testbed_run(SimpleServer, MICRO_SECONDS)
    wall_s = metrics["wall_s"]
    metrics["pre_overhaul_events_per_sec"] = PRE_OVERHAUL_EVENTS_PER_SEC
    metrics["speedup_vs_pre_overhaul"] = (
        engine_micro_wall_s(PRE_OVERHAUL_EVENTS_PER_SEC) / wall_s)
    # Telemetry is disabled here, so this ratio is the disabled-path
    # cost of the instrumentation (one attribute check per site).
    metrics["pre_telemetry_events_per_sec"] = PRE_TELEMETRY_EVENTS_PER_SEC
    metrics["vs_pre_telemetry"] = (
        engine_micro_wall_s(PRE_TELEMETRY_EVENTS_PER_SEC) / wall_s)
    metrics["pre_wheel_events_per_sec"] = (
        PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC)
    metrics["speedup_vs_pre_wheel"] = (
        engine_micro_wall_s(PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC) / wall_s)
    return metrics


def bench_engine_micro_telemetry() -> Dict[str, float]:
    """The reference workload with a telemetry hub attached.

    Same simulated work as ``engine_micro_tivopc`` — spans are recorded
    without creating sim events, so ``events`` must match exactly — but
    every instrumented site now mints spans/instants.  The recorded
    ``tracing_cost_vs_disabled`` is the price of *enabled* tracing;
    the disabled-path bar lives in the plain microbenchmark against
    ``PRE_TELEMETRY_EVENTS_PER_SEC``.
    """
    metrics = _timed_testbed_run(SimpleServer, MICRO_SECONDS,
                                 telemetry=True)
    metrics["pre_telemetry_events_per_sec"] = PRE_TELEMETRY_EVENTS_PER_SEC
    metrics["tracing_cost_vs_disabled"] = (
        metrics["wall_s"] / engine_micro_wall_s(PRE_TELEMETRY_EVENTS_PER_SEC))
    return metrics


def bench_offloaded_tivopc() -> Dict[str, float]:
    """The offloaded scenario: lighter host, heavier device/bus models."""
    return _timed_testbed_run(OffloadedServer, MICRO_SECONDS)


def bench_retransmit_path() -> Dict[str, float]:
    """The offloaded pipeline with the ack/retransmit protocol under fire.

    8 % loss + 4 % corruption armed on the media label before the server
    starts, so every chunk crosses the sliding-window protocol: sequence
    stamping, checksum verification, retransmit timers and duplicate
    suppression all sit on the timed path.  The retransmit counters are
    recorded so the artifact proves the protocol actually fired.
    """
    plan = FaultPlan().channel_noise(
        150 * units.MS, StreamerOffcode.DATA_LABEL, loss=0.08, corrupt=0.04)
    testbed = Testbed(TestbedConfig(seed=0, fault_plan=plan))
    testbed.start()
    client = OffloadedClient(testbed, host_fallback=True)
    client.start()
    testbed.run(0.2)                      # noise arms during warmup
    OffloadedServer(testbed).start()
    start = time.perf_counter()
    testbed.run(MICRO_SECONDS)
    wall_s = time.perf_counter() - start
    events = testbed.sim.events_processed
    reliable = [channel
                for channel in testbed.client_runtime.executive.channels
                if channel._rel is not None]
    return {
        "wall_s": wall_s,
        "sim_ns": testbed.sim.now,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "pool_recycled": testbed.sim.pool_recycled,
        "retransmits": sum(c.stats().retransmits for c in reliable),
        "dup_dropped": sum(c.stats().dup_dropped for c in reliable),
        "chunks_received": client.chunks_received,
    }


def bench_migration_downtime() -> Dict[str, float]:
    """Live-migration cutover cost: the drain scenario's blackout window.

    Runs the chaos ``drain`` preset (offloaded pipeline, channel noise,
    standby NIC) and migrates the network Streamer onto ``nic1``
    mid-stream.  ``downtime_ns`` is the simulated quiesce→restore
    window during which the proxy gate holds callers — the number the
    paper's availability story turns on — and the exactly-once evidence
    (chunks handled vs packets sent) is recorded alongside it.  The
    simulated work is seeded, so every field except wall-clock is
    byte-stable.
    """
    from dataclasses import replace
    from repro.faults.chaos import PROFILES, run_chaos_scenario

    profile = replace(PROFILES["drain"], seconds=MICRO_SECONDS)
    start = time.perf_counter()
    run = run_chaos_scenario(0, profile)
    wall_s = time.perf_counter() - start
    sim = run.testbed.sim
    record = run.migration.get("record")
    sent = run.server.packets_sent
    handled = run.client.chunks_received
    return {
        "wall_s": wall_s,
        "sim_ns": sim.now,
        "events": sim.events_processed,
        "events_per_sec": sim.events_processed / wall_s if wall_s else 0.0,
        "pool_recycled": sim.pool_recycled,
        "downtime_ns": (record.downtime_ns if record is not None
                        and record.downtime_ns is not None else -1),
        "migration_replayed": record.replayed if record else -1,
        "migration_shed": record.shed if record else -1,
        "packets_sent": sent,
        "chunks_received": handled,
        "exactly_once": 1 if sent == handled else 0,
    }


def bench_timeout_storm() -> Dict[str, float]:
    """Pure event-loop throughput: 64 processes trading pooled timeouts.

    No hardware models at all — isolates Event allocation, heap churn
    and Process resumption, the layers the free list targets.
    """
    sim = Simulator()

    def ticker(period_ns: int):
        # Bare-int yield: the allocation-free fast-path sleep token
        # (what sim.clock.after(dt) returns).
        while True:
            yield period_ns

    for i in range(64):
        sim.spawn(ticker(1_000 + i), name=f"storm-{i}")
    horizon_ns = int(units.MS) * 10
    start = time.perf_counter()
    sim.run(until=horizon_ns)
    wall_s = time.perf_counter() - start
    rate = sim.events_processed / wall_s if wall_s else 0.0
    return {
        "wall_s": wall_s,
        "sim_ns": sim.now,
        "events": sim.events_processed,
        "events_per_sec": rate,
        "pool_recycled": sim.pool_recycled,
        "fused_resumes": sim.fused_resumes,
        "pre_wheel_events_per_sec": PRE_WHEEL_TIMEOUT_STORM_EVENTS_PER_SEC,
        "speedup_vs_pre_wheel": rate / PRE_WHEEL_TIMEOUT_STORM_EVENTS_PER_SEC,
    }


def bench_timer_churn() -> Dict[str, float]:
    """Timer arm/cancel churn: the wheel's removal and reclaim paths.

    32 processes each keep a sliding fan of pending ``clock.after(fn)``
    timers and cancel three quarters of them well before the deadline —
    the retransmit pattern (arm a timeout per packet, cancel on ack)
    that a heap serves badly: cancelled entries pile up until pop time.
    Exercises in-slot removal, lazy cancellation inside the active
    window, and the dead-timer reclaim sweep.  ``dead_timers`` at exit
    is recorded to prove cancellations cannot accumulate.
    """
    from collections import deque

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
    horizon_ns = int(units.MS) * 2
    start = time.perf_counter()
    sim.run(until=horizon_ns)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "sim_ns": sim.now,
        "events": sim.events_processed,
        "events_per_sec": sim.events_processed / wall_s if wall_s else 0.0,
        "timers_fired": fired[0],
        "dead_timers_at_exit": sim.dead_timers,
        "fused_resumes": sim.fused_resumes,
    }


def bench_fleet() -> Dict[str, float]:
    """Sharded fleet throughput and its parallel scaling efficiency.

    Runs the chunk-fidelity population (``FLEET_CLIENTS`` subscribers,
    ``FLEET_SHARDS`` shards) at 1, 2 and 4 workers.  The regression-
    gated ``events_per_sec`` is the 1-worker aggregate rate — stable on
    any runner.  Scaling is *measured* whenever the CPU affinity mask
    covers the worker count; on smaller runners the multi-worker runs
    would only measure oversubscription, so the harness instead projects
    the makespan from the measured per-shard walls with the pool's
    longest-processing-time dispatch model plus the measured
    dispatch+merge overhead, and says so via ``speedup_basis`` — the
    artifact never passes a projection off as a measurement.
    """
    from repro.evaluation.fleet import FleetConfig, lpt_makespan, run_fleet
    from repro.evaluation.parallel import default_workers
    from repro.tivopc.population import PopulationConfig

    population = PopulationConfig(clients=FLEET_CLIENTS,
                                  seconds=FLEET_SECONDS, fleet_seed=0)
    affinity = default_workers()

    base = run_fleet(FleetConfig(population=population,
                                 shards=FLEET_SHARDS, workers=1))
    shard_walls = [s.wall_s for s in base.shards]
    # Everything the 1-worker wall spends outside shard simulation:
    # task pickling, result unpickling, snapshot merge, QoE folds.
    overhead_s = max(0.0, base.wall_s - sum(shard_walls))

    rate_1w = base.events_per_sec
    metrics: Dict[str, float] = {
        "wall_s": base.wall_s,
        "sim_ns": sum(s.sim_ns for s in base.shards),
        "events": base.events,
        "events_per_sec": rate_1w,
        "clients": FLEET_CLIENTS,
        "shards": FLEET_SHARDS,
        "conservation_ok": 1 if base.ok else 0,
        "affinity_cpus": affinity,
        "dispatch_merge_overhead_s": overhead_s,
    }
    for workers in (2, 4):
        if affinity >= workers:
            wall = run_fleet(FleetConfig(population=population,
                                         shards=FLEET_SHARDS,
                                         workers=workers)).wall_s
            basis = "measured"
        else:
            wall = lpt_makespan(shard_walls, workers) + overhead_s
            basis = "projected_lpt"
        speedup = base.wall_s / wall if wall > 0 else 0.0
        metrics[f"wall_s_{workers}w"] = wall
        metrics[f"events_per_sec_{workers}w"] = (
            base.events / wall if wall > 0 else 0.0)
        metrics[f"speedup_{workers}w"] = speedup
        metrics[f"efficiency_{workers}w"] = speedup / workers
        metrics[f"speedup_basis_{workers}w"] = basis
    metrics.update(_fleet_supervision_overhead(population))
    return metrics


def _fleet_supervision_overhead(population) -> Dict[str, float]:
    """Cost of crash-safe dispatch: SupervisedPool vs bare Pool.

    Times the same shard batch through the supervised dispatcher (pipes,
    liveness scans, timeout/retry bookkeeping) and through the bare
    ``Pool.imap_unordered`` baseline it replaced, best of 3 each.  The
    acceptance bar — supervision costs <= 3 % wall — is gated on the
    committed bench.json by ``test_bench_fleet.py``.  Hedging is off
    here: it is a latency *optimization* that spends CPU speculatively,
    which on a small affinity mask would measure CPU contention, not
    dispatcher overhead.
    """
    from repro.evaluation.fleet import FleetConfig, _run_shard
    from repro.evaluation.parallel import fork_context
    from repro.evaluation.supervised import SupervisedPool, SupervisionPolicy

    config = FleetConfig(population=population, shards=FLEET_SHARDS,
                         workers=2)
    tasks = [(shard_id, config) for shard_id in range(FLEET_SHARDS)]
    policy = SupervisionPolicy(hedge=False)

    def timed(supervised: bool) -> float:
        start = time.perf_counter()
        if supervised:
            # The same dispatch call run_fleet makes.
            pool = SupervisedPool(_run_shard, workers=2, policy=policy)
            pool.run(tasks)
            if pool.failures:
                raise RuntimeError("supervised overhead run lost shards: "
                                   f"{sorted(pool.failures)}")
        else:
            with fork_context().Pool(2) as pool:
                for _ in pool.imap_unordered(_run_shard, tasks):
                    pass
        return time.perf_counter() - start

    # Interleaved best-of-3 pairs: frequency scaling and cache warmth
    # drift over seconds, so timing all of one variant then all of the
    # other folds that drift into the ratio.
    pairs = [(timed(False), timed(True)) for _ in range(3)]
    unsupervised = min(u for u, _ in pairs)
    supervised = min(s for _, s in pairs)
    return {
        "unsupervised_wall_s": unsupervised,
        "supervised_wall_s": supervised,
        "supervision_overhead": (supervised / unsupervised
                                 if unsupervised > 0 else 0.0),
    }


def bench_rdma_kv() -> Dict[str, float]:
    """One-sided RDMA gets vs two-sided RPC gets on the KV cache.

    The scenario runs both paths over the same populated cache: batched
    one-sided reads (one doorbell per batch, no remote dispatch) and the
    equivalent two-sided ``Get`` RPCs.  ``speedup_sim`` is the paper-
    style claim — simulated time for the RPC sweep over the one-sided
    sweep — gated on the committed baseline by ``test_bench_rdma.py``;
    ``events_per_sec`` is the usual wall-clock regression gate.
    """
    from repro.rdma.kv import run_kv_scenario

    start = time.perf_counter()
    report = run_kv_scenario(keys=192, batch=8)
    wall_s = time.perf_counter() - start
    one_sided_ns = report["one_sided_ns"]
    rpc_ns = report["rpc_ns"]
    return {
        "wall_s": wall_s,
        "sim_ns": report["sim_ns"],
        "events": report["events"],
        "events_per_sec": (report["events"] / wall_s if wall_s > 0
                           else 0.0),
        "keys": report["keys"],
        "one_sided_ns": one_sided_ns,
        "rpc_ns": rpc_ns,
        "speedup_sim": rpc_ns / one_sided_ns if one_sided_ns else 0.0,
        "one_sided_gets_per_sim_sec": (report["keys"] * 1e9 / one_sided_ns
                                       if one_sided_ns else 0.0),
        "rpc_gets_per_sim_sec": (report["keys"] * 1e9 / rpc_ns
                                 if rpc_ns else 0.0),
        "one_sided_host_cpu_ns": report["one_sided_host_cpu_ns"],
        "rpc_host_cpu_ns": report["rpc_host_cpu_ns"],
        "doorbells": report["doorbells"],
        "rdma_reads": report["rdma_reads"],
        "correct": 1.0 if report["correct"] else 0.0,
        "conservation_ok": 1.0 if report["imbalance"] == 0 else 0.0,
    }


def bench_spin_filter() -> Dict[str, float]:
    """The sPIN telemetry filter: packets through in-NIC handlers.

    Reports the in-network absorption rate (what fraction of the line
    the host never saw) alongside the wall-clock gate.
    """
    from repro.rdma.filter import run_filter_scenario

    start = time.perf_counter()
    report = run_filter_scenario(packets=400)
    wall_s = time.perf_counter() - start
    rx = report["rx_packets"]
    return {
        "wall_s": wall_s,
        "sim_ns": report["sim_ns"],
        "events": report["events"],
        "events_per_sec": (report["events"] / wall_s if wall_s > 0
                           else 0.0),
        "rx_packets": rx,
        "packets_per_sim_sec": (rx * 1e9 / report["elapsed_ns"]
                                if report["elapsed_ns"] else 0.0),
        "spin_handled": report["spin_handled"],
        "spin_dropped": report["spin_dropped"],
        "spin_to_host": report["spin_to_host"],
        "budget_overruns": report["budget_overruns"],
        "host_rx_packets": report["host_rx_packets"],
        "host_absorption": (1.0 - report["host_rx_packets"] / rx
                            if rx else 0.0),
        "host_cpu_ns": report["host_cpu_ns"],
        "accounted": 1.0 if report["accounted"] else 0.0,
    }


BENCHMARKS: Dict[str, Callable[[], Dict[str, float]]] = {
    "engine_micro_tivopc": bench_engine_micro_tivopc,
    "engine_micro_telemetry": bench_engine_micro_telemetry,
    "fleet": bench_fleet,
    "migration_downtime": bench_migration_downtime,
    "offloaded_tivopc": bench_offloaded_tivopc,
    "rdma_kv": bench_rdma_kv,
    "retransmit_path": bench_retransmit_path,
    "spin_filter": bench_spin_filter,
    "timeout_storm": bench_timeout_storm,
    "timer_churn": bench_timer_churn,
}


def run_all(names: Optional[Sequence[str]] = None,
            repeat: int = 3) -> Dict[str, Dict]:
    """Execute the named benchmarks (all by default); return the report.

    Each benchmark runs ``repeat`` times and the fastest run (lowest
    ``wall_s``) is reported — best-of-N is the standard defence against
    scheduler noise on shared CI runners.  The simulated work is
    deterministic, so only the wall-clock fields vary between runs.
    """
    selected = list(names) if names else sorted(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmarks: {unknown}; "
                       f"available: {sorted(BENCHMARKS)}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1: {repeat}")
    report: Dict[str, Dict] = {"schema": 1, "benchmarks": {}}
    for name in selected:
        runs = [BENCHMARKS[name]() for _ in range(repeat)]
        report["benchmarks"][name] = min(runs, key=lambda m: m["wall_s"])
    return report


def _work_rate(metrics: Dict) -> float:
    """Simulated ns per wall second."""
    wall_s = metrics.get("wall_s", 0.0)
    return metrics.get("sim_ns", 0) / wall_s if wall_s > 0 else 0.0


def check(baseline: Dict, current: Dict, tolerance: float) -> list:
    """Regressions: ``(name, problem)`` for every benchmark that simulated
    a different span, or whose simulated ns per wall second dropped past
    ``tolerance`` below the baseline row's own."""
    failures = []
    for name, base in baseline.get("benchmarks", {}).items():
        base_rate = _work_rate(base)
        cur = current.get("benchmarks", {}).get(name)
        if not base_rate or cur is None:
            continue
        if cur.get("sim_ns") != base.get("sim_ns"):
            failures.append((name, f"sim_ns {base.get('sim_ns')} -> "
                                   f"{cur.get('sim_ns')}"))
            continue
        cur_rate = _work_rate(cur)
        if cur_rate < base_rate * (1.0 - tolerance):
            failures.append((name, f"{base_rate:,.0f} -> {cur_rate:,.0f} "
                                   f"sim ns/s ({cur_rate / base_rate:.2f}x)"))
    return failures


def _cmd_run(args) -> int:
    report = run_all(args.benchmarks or None, repeat=args.repeat)
    fresh = report["benchmarks"]
    out = pathlib.Path(args.out)
    if args.benchmarks and out.exists():
        # Named benchmarks replace only their own rows of an existing
        # file, so one row can be regenerated without losing the rest.
        kept = json.loads(out.read_text()).get("benchmarks", {})
        report["benchmarks"] = {**kept, **fresh}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, metrics in fresh.items():
        print(f"{name:24s} {metrics['events']:>9d} events  "
              f"{metrics['wall_s']:7.3f} s  "
              f"{metrics['events_per_sec']:>12,.0f} ev/s")
    print(f"wrote {out}")
    return 0


def _cmd_check(args) -> int:
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    current = json.loads(pathlib.Path(args.current).read_text())
    failures = check(baseline, current, args.tolerance)
    for name, base in baseline.get("benchmarks", {}).items():
        cur = current.get("benchmarks", {}).get(name, {})
        base_rate = _work_rate(base)
        cur_rate = _work_rate(cur)
        ratio = cur_rate / base_rate if base_rate else float("nan")
        print(f"{name:24s} baseline {base_rate:>16,.0f} sim ns/s  "
              f"current {cur_rate:>16,.0f} sim ns/s  ({ratio:.2f}x)")
    if failures:
        print(f"\nPERF REGRESSION (tolerance {args.tolerance:.0%}):")
        for name, problem in failures:
            print(f"  {name}: {problem}")
        return 1
    print("\nperf check passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/harness.py",
        description="Machine-readable simulator performance harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run benchmarks, write JSON")
    run_p.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help=f"subset of {sorted(BENCHMARKS)} (default: all)")
    run_p.add_argument("--out", default=str(DEFAULT_BENCH_JSON),
                       help=f"output path (default: {DEFAULT_BENCH_JSON})")
    run_p.add_argument("--repeat", type=int, default=3,
                       help="runs per benchmark, best kept (default: 3)")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="compare two bench.json files")
    check_p.add_argument("--baseline", required=True)
    check_p.add_argument("--current", required=True)
    check_p.add_argument("--tolerance", type=float, default=0.20,
                         help="allowed drop in simulated ns per wall "
                              "second (default: 0.20)")
    check_p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
