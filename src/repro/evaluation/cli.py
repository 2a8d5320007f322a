"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.evaluation table2 [--seconds 30] [--seed 0]
    python -m repro.evaluation all --seconds 25

Artifacts: ``fig1``, ``fig9``, ``fig10``, ``table2``, ``table3``,
``table4``, ``ilp``, ``power``, ``profile``, ``sweeps``, or ``all``.
Output is the same paper-vs-measured rendering the benchmarks produce;
``profile`` prints the simulator's hot-loop attribution and ``--workers``
fans sweep points out over a process pool.

The ``fleet`` artifact is an *operation*, not just a table: it exits
non-zero (3) when the merged report fails conservation or is degraded
(shards missing after retry exhaustion) unless ``--allow-degraded`` is
passed, resumes from a previous run's artifacts via ``--resume DIR``,
and takes deterministic host-fault injection (``--chaos-kill`` /
``--chaos-stall`` / ``--chaos-slow``) for supervision drills.
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

from repro.evaluation.experiments import (
    run_all_client_scenarios,
    run_all_server_scenarios,
    run_fig1,
    run_ilp_vs_greedy,
    run_power_comparison,
)
from repro.evaluation.reporting import (
    render_client_l2,
    render_fig1,
    render_fig9,
    render_fig10,
    render_ilp_ablation,
    render_power_ablation,
    render_table2,
    render_table3,
    render_table4,
)

__all__ = ["main", "ARTIFACTS"]


class _Run:
    """One :func:`main` call: its options, and the server and client
    scenario runs that several artifacts share, memoized for this call
    only."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seconds: float = args.seconds
        self.seed: int = args.seed
        self.workers = None if args.workers == 0 else args.workers

    @cached_property
    def server_results(self):
        return run_all_server_scenarios(seconds=self.seconds, seed=self.seed)

    @cached_property
    def client_results(self):
        return run_all_client_scenarios(seconds=self.seconds, seed=self.seed)


def _artifact_table4(run: _Run) -> str:
    return (render_table4(run.client_results) + "\n\n"
            + render_client_l2(run.client_results))


def _artifact_power(run: _Run) -> str:
    return render_power_ablation(
        run_power_comparison(seconds=min(run.seconds, 20.0), seed=run.seed))


def _artifact_sweeps(run: _Run) -> str:
    from repro.evaluation.sweeps import (
        render_sweep,
        run_chunk_size_sweep,
        run_rate_sweep,
    )
    per_point = min(run.seconds, 10.0)
    rate = render_sweep(
        "Extension: jitter/CPU vs stream rate",
        run_rate_sweep(seconds=per_point, seed=run.seed, workers=run.workers),
        "interval ms")
    chunk = render_sweep(
        "Extension: jitter/CPU vs chunk size at 5 ms",
        run_chunk_size_sweep(seconds=per_point, seed=run.seed,
                             workers=run.workers),
        "chunk bytes")
    return rate + "\n\n" + chunk


class FleetRunError(ReproError):
    """A fleet run whose merged report must fail the CLI (conservation
    violation, or a degraded report without ``--allow-degraded``).  The
    rendered report travels along so the operator still sees exactly
    what completed before the non-zero exit."""

    def __init__(self, message: str, rendered: str) -> None:
        super().__init__(message)
        self.rendered = rendered


def _parse_chaos_picks(kills: Sequence[str], stalls: Sequence[str],
                       slows: Sequence[str], stall_s: float):
    """``SHARD[:ATTEMPT]`` / ``SHARD:ATTEMPT:SECONDS`` specs →
    :class:`~repro.faults.fleet.FleetChaos` (None when no picks)."""
    from repro.faults.fleet import FleetChaos

    def pick(spec: str, want_seconds: bool) -> Tuple:
        parts = spec.split(":")
        try:
            if want_seconds:
                if len(parts) == 2:
                    return int(parts[0]), int(parts[1]), stall_s
                shard, attempt, seconds = parts
                return int(shard), int(attempt), float(seconds)
            if len(parts) == 1:
                return int(parts[0]), 0
            shard, attempt = parts
            return int(shard), int(attempt)
        except ValueError as exc:
            raise ReproError(f"bad chaos pick {spec!r}: {exc}") from exc

    if not (kills or stalls or slows):
        return None
    return FleetChaos(
        kills=tuple(pick(spec, False) for spec in kills),
        stalls=tuple(pick(spec, True) for spec in stalls),
        slows=tuple(pick(spec, True) for spec in slows))


def _artifact_fleet(run: _Run) -> str:
    from repro.evaluation.fleet import FleetConfig, run_fleet
    from repro.evaluation.supervised import SupervisionPolicy
    from repro.evaluation.reporting import render_fleet_report
    from repro.tivopc.population import PopulationConfig

    args = run.args
    report = run_fleet(FleetConfig(
        population=PopulationConfig(
            clients=args.clients, seconds=min(run.seconds, 5.0),
            fidelity=args.fidelity, loss_rate=args.loss_rate,
            fleet_seed=run.seed),
        shards=args.shards, workers=run.workers,
        supervision=SupervisionPolicy(max_retries=args.max_retries,
                                      shard_timeout_s=args.shard_timeout,
                                      hedge=not args.no_hedge)),
        artifacts_dir=args.artifacts, resume_dir=args.resume,
        chaos=_parse_chaos_picks(args.chaos_kill, args.chaos_stall,
                                 args.chaos_slow, stall_s=30.0))
    rendered = render_fleet_report(report)
    problems: List[str] = []
    if not report.ok:
        problems.append(f"{len(report.violations)} conservation/sum "
                        "violation(s)")
    if report.degraded and not args.allow_degraded:
        problems.append(f"degraded report: shards "
                        f"{report.missing_shards} missing (pass "
                        "--allow-degraded to accept a partial run)")
    if problems:
        raise FleetRunError("; ".join(problems), rendered)
    return rendered


def _artifact_profile(run: _Run) -> str:
    """Hot-loop attribution for a Simple-server TiVoPC run."""
    from repro.sim.profile import profiled
    from repro.tivopc.client import MeasurementClient
    from repro.tivopc.server import SimpleServer
    from repro.tivopc.testbed import Testbed, TestbedConfig

    testbed = Testbed(TestbedConfig(seed=run.seed))
    testbed.start()
    MeasurementClient(testbed).start()
    SimpleServer(testbed).start()
    with profiled(testbed.sim) as profiler:
        testbed.run(min(run.seconds, 5.0))
    return profiler.render()


ARTIFACTS: Mapping[str, Callable[[_Run], str]] = MappingProxyType({
    "fig1": lambda run: render_fig1(run_fig1()),
    "fig9": lambda run: render_fig9(run.server_results),
    "fig10": lambda run: render_fig10(run.server_results),
    "table2": lambda run: render_table2(run.server_results),
    "table3": lambda run: render_table3(run.server_results),
    "table4": _artifact_table4,
    "fleet": _artifact_fleet,
    "ilp": lambda run: render_ilp_ablation(
        run_ilp_vs_greedy(seed=run.seed or 7)),
    "power": _artifact_power,
    "profile": _artifact_profile,
    "sweeps": _artifact_sweeps,
})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("artifact",
                        choices=sorted(ARTIFACTS) + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="simulated seconds per scenario "
                             "(default: 25; the paper ran 600)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for sweep/fleet artifacts "
                             "(default: 1 = sequential; 0 = one per CPU)")
    parser.add_argument("--clients", type=int, default=64,
                        help="fleet: subscriber count (default: 64)")
    parser.add_argument("--shards", type=int, default=4,
                        help="fleet: shard count (default: 4)")
    parser.add_argument("--fidelity", choices=("chunk", "detailed"),
                        default="chunk",
                        help="fleet: model tier (default: chunk)")
    parser.add_argument("--loss-rate", type=float, default=0.0,
                        help="fleet: chunk-tier Bernoulli loss "
                             "(default: 0)")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="fleet: write shard-*.json + fleet.json + "
                             "fleet.canonical.json here")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="fleet: skip shards whose fingerprint-"
                             "validated shard-<id>.json already exists "
                             "in DIR")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="fleet: extra dispatch attempts per shard "
                             "(default: 2)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="fleet: wall-clock budget per shard "
                             "dispatch (default: none)")
    parser.add_argument("--no-hedge", action="store_true",
                        help="fleet: disable speculative straggler "
                             "duplicates")
    parser.add_argument("--allow-degraded", action="store_true",
                        help="fleet: exit 0 even when shards are "
                             "missing after retry exhaustion")
    parser.add_argument("--chaos-kill", action="append", default=[],
                        metavar="SHARD[:ATTEMPT]",
                        help="fleet: kill the worker picking up this "
                             "shard attempt (repeatable)")
    parser.add_argument("--chaos-stall", action="append", default=[],
                        metavar="SHARD:ATTEMPT[:SECONDS]",
                        help="fleet: stall that worker pick "
                             "(default 30s; repeatable)")
    parser.add_argument("--chaos-slow", action="append", default=[],
                        metavar="SHARD:ATTEMPT:SECONDS",
                        help="fleet: delay that worker pick by SECONDS "
                             "(repeatable)")
    args = parser.parse_args(argv)
    if (args.chaos_stall and args.shard_timeout is None
            and args.workers != 1):
        # Without a watchdog a multiprocess stall pick just sleeps and
        # the run succeeds slowly — the drill would exercise nothing
        # (at workers=1 the stall raises in-process instead, so the
        # retry path is hit without a timeout).
        parser.error(
            "--chaos-stall needs --shard-timeout when workers != 1: "
            "the stall models a wedged worker and only the wall-clock "
            "watchdog reaps it; pass a timeout below the stall duration")
    run = _Run(args)
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in names:
        try:
            print(ARTIFACTS[name](run))
        except FleetRunError as exc:
            print(exc.rendered)
            print(f"\nFLEET FAILURE: {exc}", file=sys.stderr)
            return 3
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
