"""Subscriber-appliance populations at two fidelity tiers.

The paper evaluates ONE TiVoPC appliance; the ROADMAP's north star is
"heavy traffic from millions of users".  This module makes a *population*
of independent subscriber appliances a first-class workload, at two
fidelity tiers sharing one result schema:

* ``fidelity="detailed"`` — every subscriber is a full
  :class:`~repro.tivopc.testbed.Testbed` running the absolutely-paced
  offloaded pipeline (:class:`~repro.tivopc.server.OffloadedServer`
  firmware timer → switch → client NIC →
  :class:`~repro.tivopc.client.MeasurementClient`).  ~90 simulation
  events per chunk: NIC rings, switch hops, bus transactions, kernel
  ticks.  The ground truth.

* ``fidelity="chunk"`` — the scale model: one simulator hosts every
  subscriber in the shard, each subscriber is a single process taking
  ONE event per chunk on the Streamer→Decoder path.  Timing constants
  (deploy delay, wire latency, firmware timer jitter) are calibrated
  against the detailed tier and *validated* by
  :func:`validate_fidelity` within pinned tolerances
  (:data:`CHUNK_TOLERANCES`), so a 10^6-subscriber capacity run is a
  laptop job whose error bars are measured, not assumed.

Determinism contract: a subscriber's result depends only on
``(population config, fleet_seed, global client id)`` — per-client RNG
streams derive from the *fleet* seed and the *global* id (never the
shard seed), so re-partitioning the same population into a different
shard count reproduces every subscriber point-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro import units
from repro.errors import ReproError
from repro.media.decoder import ChunkDecodeModel
from repro.media.mpeg import StreamConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.metrics import Law

__all__ = ["PopulationConfig", "SubscriberStats", "PopulationResult",
           "FidelityTolerances", "FidelityValidation", "CHUNK_TOLERANCES",
           "client_seed", "run_population", "validate_fidelity"]

# -- calibrated chunk-tier constants ----------------------------------------------------
#
# Measured against the detailed tier (OffloadedServer at 1 kB / 5 ms,
# seeds 0..7): HYDRA deploy completes ~0.82 ms after start, the first
# chunk leaves one interval later, and an arrival trails its firmware
# deadline by the NIC/switch wire time.  The firmware timer's one-sided
# granularity jitter is the BroadcastOffcode constant.
CHUNK_DEPLOY_NS = 820_000            # Figure-5 deployment pipeline latency
CHUNK_WIRE_NS = 55_000               # NIC ring + switch + NIC ring
CHUNK_TIMER_JITTER_SIGMA_NS = 43_000  # BroadcastOffcode.TIMER_JITTER_SIGMA_NS


@dataclass(frozen=True)
class PopulationConfig:
    """One population workload, independent of how it is sharded."""

    clients: int = 64
    seconds: float = 2.0
    stream: StreamConfig = field(default_factory=StreamConfig)
    fidelity: str = "chunk"            # "chunk" | "detailed"
    # Per-chunk Bernoulli delivery loss of the scale model (the detailed
    # tier's baseline media path is lossless, so fidelity validation
    # runs at 0.0).
    loss_rate: float = 0.0
    fleet_seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ReproError(f"population needs >= 1 client: {self.clients}")
        if self.seconds <= 0:
            raise ReproError(f"seconds must be positive: {self.seconds}")
        if self.fidelity not in ("chunk", "detailed"):
            raise ReproError(
                f"unknown fidelity tier: {self.fidelity!r} "
                "(expected 'chunk' or 'detailed')")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ReproError(f"loss_rate out of [0, 1): {self.loss_rate}")


@dataclass
class SubscriberStats:
    """One subscriber appliance's run, in either fidelity tier."""

    gid: int                      # global client id within the fleet
    chunks_sent: int = 0
    chunks_delivered: int = 0
    chunks_lost: int = 0
    bytes_delivered: int = 0
    frames_decoded: int = 0
    first_arrival_ns: int = -1    # startup delay (QoE)
    completion_ns: int = -1       # last chunk arrival (QoE)
    gap_sum_ms: float = 0.0       # inter-arrival accumulators (QoE jitter)
    gap_count: int = 0
    gap_max_ms: float = 0.0

    @property
    def mean_gap_ms(self) -> float:
        """Mean inter-arrival gap — the per-client jitter figure."""
        return self.gap_sum_ms / self.gap_count if self.gap_count else 0.0

    def conservation_imbalance(self) -> int:
        """``sent - (delivered + lost)`` — must be exactly 0."""
        return CHUNK_LAW.imbalance(vars(self))


# The chunk law over a subscriber's stats or a population's totals;
# ``where`` names the books that broke it.
CHUNK_LAW = Law(
    total="chunks_sent", parts=("chunks_delivered", "chunks_lost"),
    leak="{where}: sent {chunks_sent} != delivered {chunks_delivered} "
         "+ lost {chunks_lost}")


@dataclass
class PopulationResult:
    """All subscribers of one (sub-)population plus engine accounting."""

    fidelity: str
    subscribers: List[SubscriberStats]
    events: int                   # simulation events dispatched
    sim_ns: int                   # simulated time covered

    def totals(self) -> Dict[str, int]:
        """Summed conservation counters over the population."""
        return {
            "chunks_sent": sum(s.chunks_sent for s in self.subscribers),
            "chunks_delivered": sum(s.chunks_delivered
                                    for s in self.subscribers),
            "chunks_lost": sum(s.chunks_lost for s in self.subscribers),
            "frames_decoded": sum(s.frames_decoded
                                  for s in self.subscribers),
        }


def client_seed(fleet_seed: int, gid: int) -> int:
    """The per-subscriber seed: ``hash(fleet_seed, "client", gid)``.

    Derived through :class:`~repro.sim.rng.RandomStreams` from the fleet
    root and the *global* client id, so the draw sequence of subscriber
    ``gid`` does not depend on which shard runs it.
    """
    return RandomStreams(fleet_seed).derive(f"client:{gid}")


# -- chunk fidelity: the scale model ----------------------------------------------------


def _chunk_subscriber(sim: Simulator, stats: SubscriberStats,
                      rng: random.Random, config: PopulationConfig,
                      horizon_ns: int) -> Generator[int, None, None]:
    """One subscriber as ONE process with ONE event per chunk.

    Mirrors the detailed pipeline's timing structure: the firmware pacer
    is *anchored* (``deadline += interval``; jitter never accumulates as
    drift, exactly like :class:`~repro.tivopc.components.
    BroadcastOffcode`), a chunk's arrival trails its deadline by the
    wire constant, and delivery is Bernoulli under ``loss_rate``.  The
    Streamer→Decoder work — extraction, forwarding, frame accumulation —
    collapses into :class:`~repro.media.decoder.ChunkDecodeModel`
    arithmetic inside the single wakeup.
    """
    interval = config.stream.interval_ns
    chunk_bytes = config.stream.chunk_bytes
    loss = config.loss_rate
    sigma = CHUNK_TIMER_JITTER_SIGMA_NS
    decoder = ChunkDecodeModel()
    gauss = rng.gauss
    rand = rng.random
    deadline = CHUNK_DEPLOY_NS
    prev_arrival = -1
    while True:
        deadline += interval
        if deadline > horizon_ns:
            break
        # One-sided firmware timer granularity, as the detailed model.
        target = deadline + abs(round(gauss(0.0, sigma)))
        wait = target - sim.now
        if wait > 0:
            yield wait              # bare-int fused sleep: zero allocation
        stats.chunks_sent += 1
        if loss and rand() < loss:
            stats.chunks_lost += 1
            continue
        arrival = sim.now + CHUNK_WIRE_NS
        stats.chunks_delivered += 1
        stats.bytes_delivered += chunk_bytes
        stats.frames_decoded += decoder.on_chunk(chunk_bytes)
        if stats.first_arrival_ns < 0:
            stats.first_arrival_ns = arrival
        elif prev_arrival >= 0:
            gap_ms = units.ns_to_ms(arrival - prev_arrival)
            stats.gap_sum_ms += gap_ms
            stats.gap_count += 1
            if gap_ms > stats.gap_max_ms:
                stats.gap_max_ms = gap_ms
        stats.completion_ns = arrival
        prev_arrival = arrival


def _run_chunk_population(gids: Sequence[int], config: PopulationConfig,
                          stream_seed: Optional[int] = None
                          ) -> PopulationResult:
    """All subscribers of the shard share one simulator."""
    sim = Simulator()
    sim.rng_streams = RandomStreams(
        config.fleet_seed if stream_seed is None else stream_seed)
    horizon_ns = units.s_to_ns(config.seconds)
    subscribers = []
    for gid in gids:
        stats = SubscriberStats(gid=gid)
        rng = random.Random(client_seed(config.fleet_seed, gid))
        sim.spawn(_chunk_subscriber(sim, stats, rng, config, horizon_ns),
                  name=f"subscriber-{gid}")
        subscribers.append(stats)
    sim.run(until=horizon_ns)
    return PopulationResult(fidelity="chunk", subscribers=subscribers,
                            events=sim.events_processed, sim_ns=sim.now)


# -- detailed fidelity: one full appliance per subscriber -------------------------------


def _run_detailed_subscriber(gid: int,
                             config: PopulationConfig) -> SubscriberStats:
    """One subscriber = one Testbed running the offloaded pipeline."""
    from repro.tivopc.client import MeasurementClient
    from repro.tivopc.server import OffloadedServer
    from repro.tivopc.testbed import Testbed, TestbedConfig

    testbed = Testbed(TestbedConfig(
        seed=client_seed(config.fleet_seed, gid), stream=config.stream))
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    server = OffloadedServer(testbed)
    server.start()
    testbed.run(config.seconds)

    stats = SubscriberStats(gid=gid)
    stats.chunks_sent = server.packets_sent
    arrivals = client.jitter.arrivals_ns
    stats.chunks_delivered = len(arrivals)
    # The media path is lossless; anything outstanding is in flight at
    # the horizon, which the conservation accounting records as lost.
    stats.chunks_lost = stats.chunks_sent - stats.chunks_delivered
    stats.bytes_delivered = stats.chunks_delivered * \
        config.stream.chunk_bytes
    decoder = ChunkDecodeModel()
    for _ in range(stats.chunks_delivered):
        stats.frames_decoded += decoder.on_chunk(config.stream.chunk_bytes)
    if arrivals:
        stats.first_arrival_ns = arrivals[0]
        stats.completion_ns = arrivals[-1]
        for a, b in zip(arrivals, arrivals[1:]):
            gap_ms = units.ns_to_ms(b - a)
            stats.gap_sum_ms += gap_ms
            stats.gap_count += 1
            if gap_ms > stats.gap_max_ms:
                stats.gap_max_ms = gap_ms
    stats._events = testbed.sim.events_processed   # type: ignore[attr-defined]
    stats._violations = _channel_violations(testbed)  # type: ignore[attr-defined]
    return stats


def _channel_violations(testbed) -> List[str]:
    from repro.telemetry.adapters import check_channel_conservation
    problems = []
    for runtime in (testbed.server_runtime, testbed.client_runtime):
        problems.extend(check_channel_conservation(runtime.executive))
    return problems


def _run_detailed_population(gids: Sequence[int],
                             config: PopulationConfig) -> PopulationResult:
    subscribers = []
    events = 0
    violations: List[str] = []
    for gid in gids:
        stats = _run_detailed_subscriber(gid, config)
        events += stats.__dict__.pop("_events", 0)
        violations.extend(stats.__dict__.pop("_violations", []))
        subscribers.append(stats)
    result = PopulationResult(fidelity="detailed", subscribers=subscribers,
                              events=events,
                              sim_ns=units.s_to_ns(config.seconds))
    result.channel_violations = violations   # type: ignore[attr-defined]
    return result


def run_population(gids: Sequence[int], config: PopulationConfig,
                   stream_seed: Optional[int] = None) -> PopulationResult:
    """Run the subscribers ``gids`` of ``config``'s population.

    ``gids`` are *global* client ids (the fleet runner passes one
    shard's slice); results depend only on ``(config, gid)`` per
    subscriber, never on the grouping.  ``stream_seed`` roots the shared
    simulator's named streams (the fleet runner passes the shard seed);
    subscriber behaviour never draws from them, so it cannot perturb
    the per-client determinism contract.
    """
    if config.fidelity == "chunk":
        return _run_chunk_population(gids, config, stream_seed)
    return _run_detailed_population(gids, config)


# -- fidelity validation ----------------------------------------------------------------


@dataclass(frozen=True)
class FidelityTolerances:
    """Pinned acceptance bands for the scale model vs the ground truth."""

    # Relative error allowed on per-subscriber delivered-chunk counts.
    chunks_rel: float = 0.02
    # Relative error allowed on per-subscriber completion times.
    completion_rel: float = 0.02
    # Absolute error allowed on loss totals (the lossless baseline must
    # agree exactly; in-flight horizon chunks grant the slack).
    loss_abs: int = 1
    # Relative error allowed on per-subscriber mean inter-arrival gaps.
    gap_rel: float = 0.02


# The committed bar: the chunk tier must stay inside these bands against
# the detailed tier or the fleet's capacity numbers are meaningless.
CHUNK_TOLERANCES = FidelityTolerances()


@dataclass
class FidelityValidation:
    """Outcome of one chunk-vs-detailed comparison."""

    clients: int
    tolerances: FidelityTolerances
    failures: List[str]
    max_chunks_rel: float
    max_completion_rel: float
    max_loss_abs: int
    max_gap_rel: float

    @property
    def ok(self) -> bool:
        """True when every subscriber stayed inside the bands."""
        return not self.failures


def _rel(measured: float, truth: float) -> float:
    return abs(measured - truth) / truth if truth else abs(measured)


def validate_fidelity(config: Optional[PopulationConfig] = None,
                      tolerances: FidelityTolerances = CHUNK_TOLERANCES
                      ) -> FidelityValidation:
    """Run both tiers on a small population; compare subscriber by
    subscriber.

    The detailed tier is the truth.  Chunk counts, completion times,
    loss totals and mean gaps must land inside ``tolerances`` for every
    subscriber — the returned :class:`FidelityValidation` lists each
    violation with its numbers, and the maxima are reported so the
    margin is visible even when the validation passes.
    """
    config = config or PopulationConfig(clients=2, seconds=2.0)
    if config.loss_rate:
        raise ReproError(
            "fidelity validation needs loss_rate=0.0: the detailed "
            "tier's media path is lossless")
    gids = list(range(config.clients))
    from dataclasses import replace
    detailed = run_population(
        gids, replace(config, fidelity="detailed"))
    chunk = run_population(gids, replace(config, fidelity="chunk"))

    failures: List[str] = []
    max_chunks = max_completion = max_gap = 0.0
    max_loss = 0
    for truth, model in zip(detailed.subscribers, chunk.subscribers):
        chunks_rel = _rel(model.chunks_delivered, truth.chunks_delivered)
        completion_rel = _rel(model.completion_ns, truth.completion_ns)
        loss_abs = abs(model.chunks_lost - truth.chunks_lost)
        gap_rel = _rel(model.mean_gap_ms, truth.mean_gap_ms)
        max_chunks = max(max_chunks, chunks_rel)
        max_completion = max(max_completion, completion_rel)
        max_loss = max(max_loss, loss_abs)
        max_gap = max(max_gap, gap_rel)
        if chunks_rel > tolerances.chunks_rel:
            failures.append(
                f"client {truth.gid}: delivered chunks off by "
                f"{chunks_rel:.2%} ({model.chunks_delivered} vs "
                f"{truth.chunks_delivered})")
        if completion_rel > tolerances.completion_rel:
            failures.append(
                f"client {truth.gid}: completion off by "
                f"{completion_rel:.2%} ({model.completion_ns} vs "
                f"{truth.completion_ns} ns)")
        if loss_abs > tolerances.loss_abs:
            failures.append(
                f"client {truth.gid}: loss totals differ by {loss_abs} "
                f"({model.chunks_lost} vs {truth.chunks_lost})")
        if gap_rel > tolerances.gap_rel:
            failures.append(
                f"client {truth.gid}: mean gap off by {gap_rel:.2%} "
                f"({model.mean_gap_ms:.4f} vs {truth.mean_gap_ms:.4f} ms)")
    return FidelityValidation(
        clients=config.clients, tolerances=tolerances, failures=failures,
        max_chunks_rel=max_chunks, max_completion_rel=max_completion,
        max_loss_abs=max_loss, max_gap_rel=max_gap)
