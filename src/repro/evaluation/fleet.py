"""The sharded fleet runner: populations across worker processes.

A single simulator process tops out near ~4×10^5 events/sec (PR 7's
timer wheel); the next order of magnitude is horizontal.  This module
partitions a subscriber population (:mod:`repro.tivopc.population`)
into shards, runs each shard's simulator in a persistent fork-context
worker pool, and folds the per-shard artifacts into one fleet report.

Determinism contract (pinned by ``tests/test_evaluation_fleet.py``):

* shard seeds derive as ``hash(fleet_seed, shard_id)`` through
  :class:`~repro.sim.rng.RandomStreams` (:func:`shard_seed`);
* a subscriber's trajectory depends only on the fleet seed and its
  *global* id, so ``shards=4, workers=4`` is point-identical to
  ``shards=4, workers=1``, and re-partitioning the same population into
  a different shard count preserves every per-client number — hence the
  aggregate conservation totals exactly;
* shard results are collected unordered (warm workers, no head-of-line
  blocking) but merged in shard-id order, and metric snapshots merge
  via :func:`repro.telemetry.merge.merge_snapshots` — so the canonical
  report is byte-identical whatever the completion order.

Wall-clock timings are the one intentionally non-deterministic part;
:meth:`FleetReport.canonical` exposes the report with them stripped,
which is what the determinism tests and artifact diffs compare.
Supervision activity (retries, hedges, worker deaths) is likewise
schedule-dependent and lives only in :meth:`FleetReport.artifact` —
a chaos-killed worker or a hedged straggler changes *how* the run got
there, never the canonical report.

Crash safety (pinned by the ``fleet-chaos`` CI job): dispatch runs
through :class:`~repro.evaluation.supervised.SupervisedPool`, so a
dead or wedged worker is detected, replaced and its shard retried with
capped backoff; shards that exhaust their retries are quarantined and
the run degrades into a partial report (``degraded=True``, exact
``missing_shards`` accounting, conservation checked over the shards
that completed) instead of dying wholesale.  ``resume_dir`` makes runs
restartable: shards whose ``shard-<id>.json`` artifact already exists
(and matches the run's seed/config fingerprint) are loaded, not rerun.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.evaluation.parallel import default_workers
from repro.evaluation.supervised import SupervisedPool, SupervisionPolicy
from repro.sim.rng import RandomStreams
from repro.telemetry.merge import merge_snapshots
from repro.telemetry.metrics import MetricsRegistry
from repro.tivopc.population import (CHUNK_LAW, PopulationConfig,
                                     run_population)
from repro import units

__all__ = ["FleetConfig", "ShardResult", "FleetReport", "shard_seed",
           "partition", "lpt_makespan", "run_fleet", "config_fingerprint",
           "SupervisionPolicy"]


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: a population plus its sharding/dispatch shape."""

    population: PopulationConfig = field(default_factory=PopulationConfig)
    shards: int = 4
    # None -> one worker per available CPU (affinity-aware).
    workers: Optional[int] = 1
    # Shards handed to a worker per pickup; 0 -> auto (1, i.e. dynamic
    # load balancing — shards are coarse enough that batching them would
    # only re-create stragglers).  Supervised dispatch always picks up
    # one shard at a time (retry/timeout granularity is the shard).
    chunksize: int = 0
    # Fault handling for the dispatch layer: retries/backoff, per-shard
    # wall-clock timeout, straggler hedging.
    supervision: SupervisionPolicy = field(
        default_factory=SupervisionPolicy)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ReproError(f"fleet needs >= 1 shard: {self.shards}")
        if self.shards > self.population.clients:
            raise ReproError(
                f"more shards ({self.shards}) than clients "
                f"({self.population.clients})")
        if self.chunksize < 0:
            raise ReproError(f"chunksize must be >= 0: {self.chunksize}")


def config_fingerprint(config: FleetConfig) -> str:
    """Stable digest of everything a shard artifact's numbers depend on.

    Stamped into every ``shard-<id>.json``; a resume run recomputes it
    and refuses artifacts minted under a different population, stream
    shape, seed or shard count — mixing those would silently splice two
    different experiments into one report.
    """
    pop = config.population
    payload = json.dumps({
        "clients": pop.clients, "seconds": pop.seconds,
        "fidelity": pop.fidelity, "loss_rate": pop.loss_rate,
        "fleet_seed": pop.fleet_seed,
        "stream_chunk_bytes": pop.stream.chunk_bytes,
        "stream_interval_ns": pop.stream.interval_ns,
        "shards": config.shards,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def shard_seed(fleet_seed: int, shard_id: int) -> int:
    """``hash(fleet_seed, shard_id)`` via the blessed stream derivation."""
    return RandomStreams(fleet_seed).derive(f"shard:{shard_id}")


def partition(clients: int, shards: int) -> List[range]:
    """Contiguous global-id slices, sizes differing by at most one."""
    if shards < 1 or shards > clients:
        raise ReproError(
            f"cannot partition {clients} clients into {shards} shards")
    base, extra = divmod(clients, shards)
    out: List[range] = []
    start = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def lpt_makespan(walls: Sequence[float], workers: int) -> float:
    """Longest-processing-time makespan of ``walls`` over ``workers``.

    The dispatch model of the pool (greedy, longest-first is the
    adversarial bound): used by the bench harness to project multi-
    worker wall clock from measured per-shard walls when the local
    affinity mask is too small to measure the real thing.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1: {workers}")
    loads = [0.0] * workers
    for wall in sorted(walls, reverse=True):
        loads[loads.index(min(loads))] += wall
    return max(loads) if loads else 0.0


@dataclass
class ShardResult:
    """One shard's run, as returned from a worker process."""

    shard_id: int
    seed: int                      # hash(fleet_seed, shard_id)
    clients: int
    events: int
    sim_ns: int
    wall_s: float                  # measured inside the worker
    totals: Dict[str, int]
    # Per-subscriber QoE series in global-id order (primitives, not
    # SubscriberStats objects: a 10^5-client shard must pickle fast).
    gids: List[int]
    first_ms: List[float]
    completion_ms: List[float]
    mean_gap_ms: List[float]
    max_gap_ms: List[float]
    snapshot: Dict[str, Any]       # per-shard metrics snapshot
    violations: List[str]

    def to_artifact(self, fingerprint: str) -> Dict[str, Any]:
        """The shard's full on-disk form — everything :func:`run_fleet`
        needs to resume without rerunning it, plus the config
        fingerprint the resume path validates."""
        return {
            "fingerprint": fingerprint,
            "shard_id": self.shard_id, "seed": self.seed,
            "clients": self.clients, "events": self.events,
            "sim_ns": self.sim_ns, "wall_s": self.wall_s,
            "totals": self.totals, "gids": self.gids,
            "first_ms": self.first_ms,
            "completion_ms": self.completion_ms,
            "mean_gap_ms": self.mean_gap_ms,
            "max_gap_ms": self.max_gap_ms,
            "snapshot": self.snapshot, "violations": self.violations,
        }

    _ARTIFACT_FIELDS = ("shard_id", "seed", "clients", "events", "sim_ns",
                        "wall_s", "totals", "gids", "first_ms",
                        "completion_ms", "mean_gap_ms", "max_gap_ms",
                        "snapshot", "violations")

    @classmethod
    def from_artifact(cls, data: Dict[str, Any]) -> "ShardResult":
        missing = [name for name in cls._ARTIFACT_FIELDS
                   if name not in data]
        if missing:
            raise ReproError(
                f"shard artifact is missing {missing} (written by an "
                "older release? rerun without resume_dir)")
        return cls(**{name: data[name] for name in cls._ARTIFACT_FIELDS})


def _completion_buckets(config: PopulationConfig) -> Tuple[int, ...]:
    """Histogram bounds for completion times: eighths of the horizon.

    Derived from the population config alone so every shard declares
    identical bounds (the merge requires it).
    """
    horizon_ns = units.s_to_ns(config.seconds)
    return tuple(sorted({max(1, horizon_ns * i // 8)
                         for i in range(1, 9)}))


def _shard_snapshot(shard_id: int, result, config: PopulationConfig
                    ) -> Dict[str, Any]:
    """The shard's mergeable metrics snapshot.

    Two views of every conservation counter: an aggregate family whose
    samples sum across shards at merge time, and a shard-labelled family
    whose samples stay disjoint — so the merged fleet snapshot carries
    both the fleet totals and the per-shard breakdown, and the exact-sum
    equality between them is checkable from the artifact alone.
    """
    registry = MetricsRegistry()
    totals = result.totals()
    chunks = registry.counter(
        "fleet_chunks_total", "Chunks by disposition", labels=("state",))
    by_shard = registry.counter(
        "fleet_shard_chunks_total", "Chunks by shard and disposition",
        labels=("shard", "state"))
    for state, key in (("sent", "chunks_sent"),
                       ("delivered", "chunks_delivered"),
                       ("lost", "chunks_lost")):
        chunks.labels(state=state).inc(totals[key])
        by_shard.labels(shard=str(shard_id), state=state).inc(totals[key])
    registry.counter(
        "fleet_frames_decoded_total",
        "Frames completed by subscriber decoders"
    ).inc(totals["frames_decoded"])
    registry.counter(
        "fleet_sim_events_total", "Simulation events dispatched"
    ).inc(result.events)
    registry.counter(
        "fleet_subscribers_total", "Subscriber appliances simulated"
    ).inc(len(result.subscribers))
    completion = registry.histogram(
        "fleet_completion_ns", "Per-subscriber last-arrival times",
        buckets=_completion_buckets(config))
    for stats in result.subscribers:
        if stats.completion_ns >= 0:
            completion.observe(stats.completion_ns)
    return registry.snapshot()


def _run_shard(task: Tuple[int, "FleetConfig"]) -> ShardResult:
    """Module-level worker body (must be picklable for the pool)."""
    shard_id, config = task
    pop = config.population
    gids = partition(pop.clients, config.shards)[shard_id]
    seed = shard_seed(pop.fleet_seed, shard_id)
    start = time.perf_counter()
    result = run_population(gids, pop, stream_seed=seed)
    wall_s = time.perf_counter() - start

    violations = [
        problem for s in result.subscribers
        for problem in CHUNK_LAW.check(
            vars(s), where=f"shard {shard_id} client {s.gid}")]
    violations.extend(
        f"shard {shard_id}: {problem}"
        for problem in getattr(result, "channel_violations", []))

    return ShardResult(
        shard_id=shard_id, seed=seed, clients=len(result.subscribers),
        events=result.events, sim_ns=result.sim_ns, wall_s=wall_s,
        totals=result.totals(),
        gids=[s.gid for s in result.subscribers],
        first_ms=[units.ns_to_ms(s.first_arrival_ns)
                  for s in result.subscribers],
        completion_ms=[units.ns_to_ms(s.completion_ns)
                       for s in result.subscribers],
        mean_gap_ms=[s.mean_gap_ms for s in result.subscribers],
        max_gap_ms=[s.gap_max_ms for s in result.subscribers],
        snapshot=_shard_snapshot(shard_id, result, pop),
        violations=violations)


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted series."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _qoe_summary(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    return {"p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "max": ordered[-1] if ordered else 0.0}


@dataclass
class FleetReport:
    """The merged outcome of one fleet run."""

    config: FleetConfig
    workers: int
    shards: List[ShardResult]      # completed shards, in shard-id order
    totals: Dict[str, int]
    events: int
    wall_s: float                  # dispatch + shards + merge, measured
    events_per_sec: float          # events / wall_s
    qoe: Dict[str, Dict[str, float]]
    snapshot: Dict[str, Any]       # merged metrics snapshot
    violations: List[str]
    # Graceful degradation: shards quarantined after retry exhaustion
    # are *missing*, not fatal — totals/qoe/conservation cover the
    # shards that completed and the report says exactly what is absent.
    degraded: bool = False
    missing_shards: List[int] = field(default_factory=list)
    # Supervision activity (retries/hedges/timeouts/worker deaths,
    # resumed-shard count, quarantine reasons, metrics snapshot).
    # Schedule-dependent, hence artifact-only — never canonical.
    supervision: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every conservation and sum-equality check held."""
        return not self.violations

    @property
    def complete(self) -> bool:
        """True when every shard completed and every check held."""
        return self.ok and not self.degraded

    def canonical(self) -> Dict[str, Any]:
        """The deterministic projection of the report.

        Everything except measured wall-clock: byte-identical across
        worker counts, shard completion orders and machines for a given
        ``FleetConfig``.  ``json.dumps(..., sort_keys=True)`` of this is
        the determinism oracle the tests diff.
        """
        pop = self.config.population
        return {
            "population": {
                "clients": pop.clients, "seconds": pop.seconds,
                "fidelity": pop.fidelity, "loss_rate": pop.loss_rate,
                "fleet_seed": pop.fleet_seed,
            },
            "shards": [{
                "shard_id": s.shard_id, "seed": s.seed,
                "clients": s.clients, "events": s.events,
                "sim_ns": s.sim_ns, "totals": s.totals,
                "gids": s.gids, "first_ms": s.first_ms,
                "completion_ms": s.completion_ms,
                "mean_gap_ms": s.mean_gap_ms, "max_gap_ms": s.max_gap_ms,
                "snapshot": s.snapshot, "violations": s.violations,
            } for s in self.shards],
            "totals": self.totals,
            "events": self.events,
            "qoe": self.qoe,
            "snapshot": self.snapshot,
            "violations": self.violations,
            "degraded": self.degraded,
            "missing_shards": self.missing_shards,
        }

    def canonical_json(self) -> str:
        """Canonical projection as sorted-key JSON (byte-comparable)."""
        return json.dumps(self.canonical(), sort_keys=True, indent=2)

    def artifact(self) -> Dict[str, Any]:
        """The full report: canonical content plus measured timing and
        supervision activity (both schedule-dependent by nature)."""
        out = self.canonical()
        out["timing"] = {
            "workers": self.workers,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "shard_walls_s": [s.wall_s for s in self.shards],
        }
        out["supervision"] = self.supervision
        return out


def _check_sums(shards: Sequence[ShardResult], totals: Dict[str, int],
                merged: Dict[str, Any]) -> List[str]:
    """Exact sum equality: merged snapshot vs the shard totals."""
    problems: List[str] = []
    state_keys = (("sent", "chunks_sent"), ("delivered", "chunks_delivered"),
                  ("lost", "chunks_lost"))
    # The merged aggregate family equals the shard sums (``totals``)
    # exactly.
    by_state = {s["labels"]["state"]: s["value"]
                for s in merged["fleet_chunks_total"]["samples"]}
    for state, key in state_keys:
        if by_state.get(state, 0) != totals[key]:
            problems.append(
                f"merged fleet_chunks_total{{state={state}}} is "
                f"{by_state.get(state, 0)}, expected {totals[key]}")
    # And the shard-labelled family still carries each shard verbatim.
    by_shard = {(s["labels"]["shard"], s["labels"]["state"]): s["value"]
                for s in merged["fleet_shard_chunks_total"]["samples"]}
    for shard in shards:
        for state, key in state_keys:
            got = by_shard.get((str(shard.shard_id), state), 0)
            if got != shard.totals[key]:
                problems.append(
                    f"merged shard {shard.shard_id} {state} is {got}, "
                    f"shard artifact says {shard.totals[key]}")
    # Conservation in aggregate (per-client was checked in the workers).
    problems.extend(CHUNK_LAW.check(totals, where="aggregate conservation"))
    return problems


def _assert_distinct_seeds(seeds: Dict[int, int]) -> None:
    """Guard against a silent shard-seed collision.

    Two shards sharing a derived seed would draw identical named
    streams — in a pathological hash collision that means double-
    counted trajectories with no conservation check able to notice
    (each shard is internally consistent).  Fail loudly, naming the
    colliding shard ids.
    """
    by_seed: Dict[int, List[int]] = {}
    for shard_id, seed in seeds.items():
        by_seed.setdefault(seed, []).append(shard_id)
    collisions = {seed: ids for seed, ids in by_seed.items()
                  if len(ids) > 1}
    if collisions:
        detail = "; ".join(
            f"shards {sorted(ids)} all derive seed {seed}"
            for seed, ids in sorted(collisions.items()))
        raise ReproError(f"shard seed collision: {detail}")


def _load_resumed(resume_dir: str, config: FleetConfig,
                  seeds: Dict[int, int]) -> Dict[int, ShardResult]:
    """Load completed shards from a previous run's artifact directory.

    Every ``shard-<id>.json`` present must carry this run's config
    fingerprint and the shard's derived seed — a mismatch means the
    directory belongs to a different experiment, and splicing it in
    would corrupt the report, so it raises instead of being skipped.
    """
    fingerprint = config_fingerprint(config)
    resumed: Dict[int, ShardResult] = {}
    for shard_id in range(config.shards):
        path = os.path.join(resume_dir, f"shard-{shard_id}.json")
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("fingerprint") != fingerprint:
            raise ReproError(
                f"resume artifact {path} has fingerprint "
                f"{data.get('fingerprint')!r}, this run's config is "
                f"{fingerprint!r} — different population/seed/shard "
                "count; refusing to splice experiments")
        if data.get("seed") != seeds[shard_id]:
            raise ReproError(
                f"resume artifact {path} ran with seed "
                f"{data.get('seed')}, this run derives "
                f"{seeds[shard_id]}")
        resumed[shard_id] = ShardResult.from_artifact(data)
    return resumed


def run_fleet(config: FleetConfig,
              artifacts_dir: Optional[str] = None,
              resume_dir: Optional[str] = None,
              chaos=None) -> FleetReport:
    """Run the fleet; optionally write per-shard + merged artifacts.

    ``artifacts_dir`` gets one ``shard-<id>.json`` per completed shard
    (the worker's full result, fingerprinted for resume), a
    ``fleet.json`` holding :meth:`FleetReport.artifact`, and a
    ``fleet.canonical.json`` holding the byte-comparable deterministic
    projection.

    ``resume_dir`` skips shards whose validated artifact already exists
    there (pass the previous run's ``artifacts_dir``); ``chaos`` is a
    :class:`~repro.faults.fleet.FleetChaos` host-fault schedule for the
    dispatch layer.  Shards that exhaust their retries degrade the run
    (``degraded=True`` with exact missing-shard accounting) instead of
    failing it.
    """
    workers = config.workers
    if workers is None:
        workers = default_workers()
    seeds = {shard_id: shard_seed(config.population.fleet_seed, shard_id)
             for shard_id in range(config.shards)}
    _assert_distinct_seeds(seeds)

    start = time.perf_counter()
    by_id: Dict[int, ShardResult] = {}
    if resume_dir is not None:
        by_id.update(_load_resumed(resume_dir, config, seeds))
    resumed_ids = sorted(by_id)

    todo = [shard_id for shard_id in range(config.shards)
            if shard_id not in by_id]
    pool = SupervisedPool(
        _run_shard, workers=max(1, min(workers, len(todo))),
        policy=config.supervision, chaos=chaos, task_keys=todo)
    for result in pool.run(
            [(shard_id, config) for shard_id in todo]).values():
        by_id[result.shard_id] = result
    # The pool's registry is the supervision snapshot: same schema as
    # the shard snapshots, so artifacts of several runs fold through
    # merge_snapshots like any other counter family.
    pool.metrics.counter(
        "repro_fleet_shard_resumed_total",
        "Shards restored from resume artifacts instead of rerun"
    ).inc(len(resumed_ids))

    shards = [by_id[shard_id] for shard_id in sorted(by_id)]
    missing = sorted(shard_id for shard_id in range(config.shards)
                     if shard_id not in by_id)
    degraded = bool(missing)

    merged = merge_snapshots([s.snapshot for s in shards])
    totals = ({key: sum(s.totals[key] for s in shards)
               for key in shards[0].totals} if shards else {})
    violations = [v for s in shards for v in s.violations]
    if shards:
        violations.extend(_check_sums(shards, totals, merged))
    qoe = {
        "first_ms": _qoe_summary([v for s in shards for v in s.first_ms]),
        "completion_ms": _qoe_summary(
            [v for s in shards for v in s.completion_ms]),
        "mean_gap_ms": _qoe_summary(
            [v for s in shards for v in s.mean_gap_ms]),
        "max_gap_ms": _qoe_summary(
            [v for s in shards for v in s.max_gap_ms]),
    }
    wall_s = time.perf_counter() - start

    supervision = dict(pool.stats.as_dict())
    supervision["resumed"] = len(resumed_ids)
    supervision["resumed_shards"] = resumed_ids
    supervision["quarantine_reasons"] = [
        failure.summary() for failure in sorted(
            pool.failures.values(), key=lambda failure: failure.key)]
    supervision["snapshot"] = pool.metrics.snapshot()

    report = FleetReport(
        config=config, workers=workers, shards=shards, totals=totals,
        events=sum(s.events for s in shards), wall_s=wall_s,
        events_per_sec=sum(s.events for s in shards) / wall_s
        if wall_s > 0 else 0.0,
        qoe=qoe, snapshot=merged, violations=violations,
        degraded=degraded, missing_shards=missing,
        supervision=supervision)

    if artifacts_dir is not None:
        fingerprint = config_fingerprint(config)
        os.makedirs(artifacts_dir, exist_ok=True)
        for shard in shards:
            path = os.path.join(artifacts_dir,
                                f"shard-{shard.shard_id}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(shard.to_artifact(fingerprint), handle,
                          sort_keys=True, indent=2)
                handle.write("\n")
        path = os.path.join(artifacts_dir, "fleet.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.artifact(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        path = os.path.join(artifacts_dir, "fleet.canonical.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.canonical_json())
            handle.write("\n")
    return report
