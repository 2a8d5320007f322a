"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload host_stream --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` repeats set-up + timed run for ``--seconds`` and reports
the end-to-end metrics (medians of the host timings; the simulated
metrics are deterministic per seed).  ``--trace 1`` runs the workload
untraced, then again with every layer wrapped, and reports the
per-layer ledger.  Each run checks its outputs; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record -- run manifest, every repetition, the ledger -- goes to
``.perfbench/`` in the checkout, and a traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")
# A seed never used while the benchmark was tuned; run it to check a
# claim on inputs the tuning did not see.
HELD_OUT_SEED = 7919
MIN_REPS = 3
# Set-ups are short, so each run adds this many set-up-only repetitions
# to the median it reports.
SETUP_REPS = 8
# The reference loop: about 10 ms of interpreter work on a 2-core x86
# host at full speed, which is what one reported second is scaled to.
REFERENCE_ITERATIONS = 50_000
REFERENCE_LOOP_S = 0.01

END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "gap_p50_ms": "sim_ms", "gap_p99_ms": "sim_ms",
}
# The paper's orderings (Tables 3/4, Fig. 10): the offloaded pipeline is
# below the host pipeline on each of these.
PAPER_ORDERINGS = ("server_cpu_pct", "client_cpu_pct", "server_l2_miss_rate")
COMPANION = {"host_stream": "offload_stream",
             "offload_stream": "host_stream"}


def _load_program():
    """Import the program from this checkout's ``src``, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {src}; run "
                         "from the root of a full checkout\n")
        raise SystemExit(2)
    sys.path[:0] = [src, HERE]
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: imported {repro.__file__}, not the "
                         "checkout's own source\n")
        raise SystemExit(2)


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def manifest(workload: str, seed: int, trace: bool) -> dict:
    """Which code, machine, seed and parameters produced a record."""
    from workloads import PARAMS, WHY
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload, "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED, "trace": trace,
        "params": PARAMS[workload], "why": WHY[workload],
    }


def peak_rss_mb() -> float:
    """Peak resident set of the largest benchmark process (fleet workers
    included)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def reference_loop() -> float:
    """Wall time of a fixed piece of interpreter work."""
    start = time.perf_counter()
    table, x = {}, 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = x
        x += i * i % 7
    return time.perf_counter() - start


class SpeedClock:
    """Times steps in seconds at the reference speed.

    A shared host's speed drifts by up to 2x within seconds (other
    tenants, frequency scaling), which swamps any change to the program.
    So each step's wall time is scaled by ``REFERENCE_LOOP_S`` over the
    reference loop's wall time measured just before and just after it:
    the same work reads the same on a fast or a slow stretch.
    """

    def __init__(self) -> None:
        self._before = reference_loop()

    def time(self, step: Callable[[], object]) -> tuple:
        """``(scaled s, wall s, result)`` of ``step()``."""
        start = time.perf_counter()
        result = step()
        wall = time.perf_counter() - start
        after = reference_loop()
        scaled = wall * 2 * REFERENCE_LOOP_S / (self._before + after)
        self._before = after
        return scaled, wall, result


def setup_only(workload: str, seed: int) -> float:
    """Scaled seconds of one more set-up of ``workload``."""
    from workloads import WORKLOADS
    gc.collect()
    instance = WORKLOADS[workload](seed)
    return SpeedClock().time(instance.setup)[0]


def repetition(workload: str, seed: int, tracer=None) -> dict:
    """One set-up + timed run + check of ``workload``."""
    from workloads import WORKLOADS
    # The previous repetition's world is garbage now; collect it here
    # rather than inside the next timed span.
    gc.collect()
    instance = WORKLOADS[workload](seed)
    marks = [tracer.snapshot()] if tracer else []
    clock = SpeedClock()
    setup_s, setup_wall, _ = clock.time(instance.setup)
    if tracer:
        marks.append(tracer.snapshot())
    slices = instance.run()
    done = object()
    run_s = run_wall = 0.0
    while True:
        scaled, wall, step = clock.time(lambda: next(slices, done))
        run_s += scaled
        run_wall += wall
        if step is done:
            break
    rep = {"setup_s": setup_s, "run_s": run_s, "setup_wall_s": setup_wall,
           "run_wall_s": run_wall}
    if tracer:
        rep["setup_delta"] = tracer.delta(marks[0])
        rep["run_delta"] = tracer.delta(marks[1])
    rep["outcome"] = instance.finish()
    return rep


def _ordering_problems(workload: str, outcome, companion) -> List[str]:
    """The paper's orderings between the host and offloaded pipelines."""
    offloaded, host = ((outcome, companion) if workload == "offload_stream"
                       else (companion, outcome))
    return [f"paper ordering: offloaded {key} {offloaded.paper[key]:.4f} "
            f"not below host {host.paper[key]:.4f}"
            for key in PAPER_ORDERINGS
            if not offloaded.paper[key] < host.paper[key]]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced repetitions for ``seconds``; end-to-end metrics."""
    began = time.perf_counter()
    problems: List[str] = []
    companion = None
    if workload in COMPANION:
        # Also warms the shared code paths before the first timed rep.
        companion = repetition(COMPANION[workload], seed)["outcome"]
        problems += companion.problems
    setups = [setup_only(workload, seed) for _ in range(SETUP_REPS)]
    reps = []
    while True:
        rep = repetition(workload, seed)
        # Keep the digest, not the bulky outputs: objects retained across
        # repetitions would slow the collector in every later one.
        rep["fingerprint"] = rep["outcome"].fingerprint()
        rep["outcome"].fingerprint_data = None
        reps.append(rep)
        elapsed = time.perf_counter() - began
        per_rep = elapsed / (len(reps) + (companion is not None))
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
    outcome = reps[0]["outcome"]
    fingerprints = [r["fingerprint"] for r in reps]
    if len(set(fingerprints)) != 1:
        problems.append(f"repetitions of seed {seed} differ: "
                        f"{sorted(set(fingerprints))}")
    if companion is not None:
        problems += _ordering_problems(workload, outcome, companion)
    attempted = sum(r["outcome"].attempted for r in reps)
    failed = sum(r["outcome"].failed for r in reps)
    for rep in reps:
        problems += rep["outcome"].problems
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": peak_rss_mb(),
        "gap_p50_ms": outcome.gap_p50_ms,
        "gap_p99_ms": outcome.gap_p99_ms,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprint": fingerprints[0],
        "paper": outcome.paper,
        "companion_paper": companion.paper if companion else None,
        "reps": [{"setup_s": r["setup_s"], "run_s": r["run_s"],
                  "setup_wall_s": r["setup_wall_s"],
                  "run_wall_s": r["run_wall_s"], "fingerprint": f}
                 for r, f in zip(reps, fingerprints)],
    }


def traced_repetition(workload: str, seed: int) -> tuple:
    """One repetition with every layer wrapped; (rep, tracer, records)."""
    import layers
    from tracer import Tracer

    worker_dir = os.path.join(OUT_DIR, f"workers-{os.getpid()}")
    os.makedirs(worker_dir, exist_ok=True)
    tracer = Tracer()
    layers.install(tracer, worker_dir)
    try:
        rep = repetition(workload, seed, tracer)
    finally:
        tracer.uninstall()
    records = layers.worker_records(worker_dir)
    for name in os.listdir(worker_dir):
        os.remove(os.path.join(worker_dir, name))
    os.rmdir(worker_dir)
    return rep, tracer, records


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced and traced repetitions in pairs for ``seconds``; the
    per-layer ledger of the first traced one."""
    import layers
    from tracer import fold_ledger

    began = time.perf_counter()
    repetition(workload, seed)                 # warm the code paths
    pairs = []
    while True:
        untraced = repetition(workload, seed)
        traced, tracer, records = traced_repetition(workload, seed)
        if pairs:
            tracer = records = None            # keep the first one's spans
        pairs.append((untraced, traced, tracer, records))
        elapsed = time.perf_counter() - began
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    untraced, traced, tracer, records = pairs[0]

    problems: List[str] = []
    base, outcome = untraced["outcome"], traced["outcome"]
    for rep_untraced, rep_traced, _, _ in pairs:
        problems += (rep_untraced["outcome"].problems
                     + rep_traced["outcome"].problems)
        for rep in (rep_untraced, rep_traced):
            if rep["outcome"].fingerprint() != base.fingerprint():
                problems.append(f"fingerprint {rep['outcome'].fingerprint()}"
                                f" != untraced {base.fingerprint()}")
    run_s = traced["run_wall_s"]          # spans are wall time too
    ledger = fold_ledger(traced["run_delta"], run_s)
    layers.merge_workers(ledger, records)
    unknown = sorted(set(ledger) - set(layers.LEDGER_METRICS))
    if unknown:
        problems.append(f"ledger layers without a metric: {unknown}")
    residual = sum(ledger.values()) - run_s
    if abs(residual) > 0.01 * run_s:
        problems.append(f"ledger sums to {sum(ledger.values()):.4f} s, "
                        f"traced run_s is {run_s:.4f} s")
    values = layers.metrics(traced["setup_delta"], traced["run_delta"],
                            ledger, outcome.layers, outcome.paper, records)
    values["trace.run_s"] = run_s
    values["trace.overhead_ratio"] = (
        statistics.median(p[1]["run_s"] for p in pairs)
        / statistics.median(p[0]["run_s"] for p in pairs))
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
    tracer.write_spans(spans_path)
    return {
        "metrics": {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]}
                    for k, v in values.items()},
        "attempted": sum(p[0]["outcome"].attempted
                         + p[1]["outcome"].attempted for p in pairs),
        "failed": sum(p[0]["outcome"].failed + p[1]["outcome"].failed
                      for p in pairs),
        "problems": problems,
        "fingerprint": outcome.fingerprint(),
        "ledger": ledger, "ledger_residual_s": residual,
        "pairs": [{"untraced_run_s": p[0]["run_s"],
                   "traced_run_s": p[1]["run_s"]} for p in pairs],
        "spans": spans_path, "span_count": len(tracer.spans),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Run one benchmark workload; print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from "
                     f"{sorted(WORKLOADS)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    run = (measure_traced if args.trace else measure)(
        args.workload, args.seed, args.seconds)
    record = {"manifest": manifest(args.workload, args.seed,
                                   bool(args.trace)), **run}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")

    for name, metric in run["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    from layers import PER_LAYER_UNITS
    for name, value in sorted(run.get("paper", {}).items()):
        name = "paper." + name
        print(f"{name:42s} {value:>16.6g} {PER_LAYER_UNITS[name]}")
    for problem in run["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"record: {os.path.relpath(path, ROOT)}  fingerprint: "
          f"{run['fingerprint']}")
    correct = not run["problems"] and run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
