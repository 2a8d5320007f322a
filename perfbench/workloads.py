"""The benchmark's four workloads, each generated from one seed.

Every workload splits into ``setup`` (build the world, deploy, start the
pool -- timed as ``setup_s``), ``run`` (the fixed simulated work plus
reading its simulated results -- timed as ``run_s``) and ``finish``
(drain, check correctness, collect outputs -- untimed).  ``run`` is a
generator that yields between slices of the work, so the runner can
measure the host's speed beside each slice; slicing a simulation run
does not change it (``Simulator.run(until=...)`` calls compose).  The program is
driven only through its public API; nothing here adds a knob to it.

``WHY`` records, per workload, which layers it stresses and which it
bypasses -- the reason it is in the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro import units
from repro.evaluation import fleet
from repro.evaluation.supervised import SupervisionPolicy
from repro.faults import FaultPlan
from repro.rdma.kv import KvClient, build_kv_world, deploy_cache
from repro.telemetry.adapters import (check_channel_conservation,
                                      check_rdma_conservation)
from repro.tivopc import (OffloadedClient, OffloadedServer, SimpleServer,
                          Testbed, TestbedConfig, UserSpaceClient)
from repro.tivopc.components import StreamerOffcode
from repro.tivopc.metrics import PeriodicSampler
from repro.tivopc.population import PopulationConfig

WHY = {
    "host_stream": "SimpleServer streams to a UserSpaceClient (Tables 3/4 "
                   "host rows): stresses hostos, hw.cache and net; no "
                   "offcode on the data path, so core.* and rdma idle",
    "offload_stream": "OffloadedServer to OffloadedClient with 4% loss and "
                      "2% corruption: stresses core proxy/channel/executive/"
                      "providers, hw.bus and device dispatch; hosts idle",
    "kv_mixed": "closed-loop skewed Put/one-sided get/RPC get mix on the "
                "RDMA KV cache: the only call/reply and rdma workload; no "
                "streaming and no hostos",
    "fleet_chunk": "run_fleet over a chunk-fidelity population on <=2 "
                   "workers: engine-bound fused sleeps, fleet dispatch and "
                   "telemetry merge; no hardware models",
}

# Sizes: each run() is ~2 s of host time on a 2-core x86 box, long
# enough for >= 1000 gap samples so p99 has ten samples beyond it.
STREAM_SECONDS = 10.0          # simulated seconds per stream run
STREAM_SLICE_S = 0.25
STREAM_DRAIN_S = 0.3           # simulated drain before the checks
SAMPLE_PERIOD_NS = units.SECOND
NOISE_LOSS, NOISE_CORRUPT = 0.04, 0.02
NOISE_AT_NS = 150 * units.MS
KV_CLIENTS, KV_KEYS, KV_SLOTS, KV_OPS = 4, 256, 256, 2000
KV_BATCH = 4
KV_MIX = (("put", 0.2), ("get_batch", 0.5), ("get_rpc", 0.3))
KV_ZIPF_S = 0.9
KV_SLICE_NS = units.MS // 2
FLEET_CLIENTS, FLEET_SECONDS, FLEET_SHARDS = 256, 6.0, 8
# Hedging launches speculative duplicates whose timing depends on the
# host scheduler; the benchmark measures plain supervised dispatch.
FLEET_POLICY = SupervisionPolicy(hedge=False)


def fleet_workers() -> int:
    """min(2, CPUs this process may run on)."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


PARAMS = {
    "host_stream": {"sim_seconds": STREAM_SECONDS, "drain_s": STREAM_DRAIN_S,
                    "sample_period_ns": SAMPLE_PERIOD_NS, "loop": "open"},
    "offload_stream": {"sim_seconds": STREAM_SECONDS,
                       "drain_s": STREAM_DRAIN_S, "loss": NOISE_LOSS,
                       "noise_at_ns": NOISE_AT_NS,
                       "corrupt": NOISE_CORRUPT, "loop": "open",
                       "sample_period_ns": SAMPLE_PERIOD_NS},
    "kv_mixed": {"clients": KV_CLIENTS, "keys": KV_KEYS, "slots": KV_SLOTS,
                 "ops_per_client": KV_OPS, "batch": KV_BATCH,
                 "mix": dict(KV_MIX), "zipf_s": KV_ZIPF_S, "loop": "closed"},
    "fleet_chunk": {"clients": FLEET_CLIENTS, "sim_seconds": FLEET_SECONDS,
                    "shards": FLEET_SHARDS, "fidelity": "chunk",
                    "hedge": False},
}


@dataclass
class Outcome:
    """What one run produced, beyond its timings."""

    attempted: int
    failed: int
    problems: List[str]
    gap_p50_ms: float
    gap_p99_ms: float
    paper: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    fingerprint_data: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Digest of every deterministic output of the run."""
        blob = json.dumps(self.fingerprint_data, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def gap_stats(receivers: Sequence[Sequence[int]]) -> tuple:
    """(p50, p99) in simulated ms of the inter-arrival gaps at each
    receiver (one arrival-time list per receiver), pooled."""
    gaps = []
    for times_ns in receivers:
        ordered = sorted(times_ns)
        gaps += [units.ns_to_ms(b - a) for a, b in zip(ordered, ordered[1:])]
    return percentile(gaps, 0.5), percentile(gaps, 0.99)


def _cache_totals(machines) -> Dict[str, int]:
    stats = [machine.l2.stats.snapshot() for machine in machines]
    return {"touches": sum(s.accesses for s in stats),
            "misses": sum(s.misses for s in stats)}


def _channel_totals(executives) -> Dict[str, int]:
    totals = {"sent": 0, "delivered": 0, "retransmits": 0, "dup_dropped": 0}
    for executive in executives:
        for channel in executive.channels:
            stats = channel.stats()
            for key in totals:
                totals[key] += getattr(stats, key)
    return totals


class _World:
    """Layer counters a timed span moves, read from the world's stats."""

    def __init__(self, sim, machines, executives) -> None:
        self.sim = sim
        self.machines = machines
        self.executives = executives
        self.t0_ns = sim.now
        self.events0 = sim.events_processed
        self.fused0 = sim.fused_resumes
        self.cache0 = _cache_totals(machines)
        self.channel0 = _channel_totals(executives)

    def layers(self) -> Dict[str, float]:
        sim = self.sim
        cache = _cache_totals(self.machines)
        channel = {k: v - self.channel0[k]
                   for k, v in _channel_totals(self.executives).items()}
        span_ns = sim.now - self.t0_ns
        return {
            "sim.events": sim.events_processed - self.events0,
            "sim.fused_resumes": sim.fused_resumes - self.fused0,
            "sim.dead_timers": sim.dead_timers,
            "hw.cache.touches": cache["touches"] - self.cache0["touches"],
            "hw.cache.misses": cache["misses"] - self.cache0["misses"],
            "hw.bus.busy_ns": sum(m.bus.utilization(self.t0_ns) * span_ns
                                  for m in self.machines),
            "core.channel.retransmits": channel["retransmits"],
            "core.channel.dup_dropped": channel["dup_dropped"],
            "core.channel.delivered_ratio": (
                channel["delivered"] / channel["sent"]
                if channel["sent"] else 0.0),
        }

    def conservation(self) -> List[str]:
        return [v for executive in self.executives
                for v in check_channel_conservation(executive)]


# -- the two streaming workloads ---------------------------------------------


class _Stream:
    """Open loop: the server paces chunks on its own schedule; a tap at
    the receiver records each chunk's sequence number and arrival."""

    name = "abstract"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _tap(self, owner, attr: str) -> None:
        """Record (arrival ns, seq) of every packet ``owner.attr`` yields."""
        receive = getattr(owner, attr)
        arrivals = self.arrivals

        def tapped(*args, **kwargs):
            packet = yield from receive(*args, **kwargs)
            arrivals.append((packet.received_at_ns, packet.payload[1]))
            return packet

        setattr(owner, attr, tapped)

    def _start_sampling(self) -> None:
        tb = self.tb
        self.samplers = [
            PeriodicSampler(tb.sim, host.machine.cpu, host.machine.l2,
                            period_ns=SAMPLE_PERIOD_NS)
            for host in (tb.server, tb.client)]
        for sampler in self.samplers:
            tb.sim.spawn(sampler.process(), name="bench-sampler")
        self.world = _World(
            tb.sim, [h.machine for h in (tb.nas, tb.server, tb.client)],
            [tb.server_runtime.executive, tb.client_runtime.executive])
        self.sent0 = self.server.packets_sent

    def run(self) -> Iterator[None]:
        for _ in range(round(STREAM_SECONDS / STREAM_SLICE_S)):
            self.tb.run(STREAM_SLICE_S)
            yield
        self.sent_end = self.server.packets_sent
        server, client = self.samplers
        self.paper = {
            "server_cpu_pct": 100.0 * server.cpu_stats().average,
            "client_cpu_pct": 100.0 * client.cpu_stats().average,
            "server_l2_miss_rate": server.miss_rate_stats().average,
        }
        self.layers = self.world.layers()

    def _consumer_problems(self) -> List[str]:
        return []

    def finish(self) -> Outcome:
        """Exactly-once, in-order delivery of every counted chunk.

        Counted chunks are those sent strictly after set-up ended and by
        the end of the timed span; after a drain each must have reached
        the receiver exactly once, in order.
        """
        self.tb.run(STREAM_DRAIN_S)
        wanted = range(self.sent0 + 1, self.sent_end)
        seen: Dict[int, int] = {}
        times, order = [], []
        for arrival_ns, seq in self.arrivals:
            if seq in wanted:
                seen[seq] = seen.get(seq, 0) + 1
                times.append(arrival_ns)
                order.append(seq)
        missing = sum(1 for seq in wanted if seq not in seen)
        dups = sum(n - 1 for n in seen.values())
        disorder = sum(1 for a, b in zip(order, order[1:]) if b <= a)
        problems = self._consumer_problems() + self.world.conservation()
        if missing or dups or disorder:
            problems.append(f"{self.name}: {missing} chunks lost, {dups} "
                            f"duplicated, {disorder} out of order")
        layers = dict(self.layers)
        layers["tivopc.chunks_sent"] = len(wanted)
        layers["tivopc.chunks_delivered"] = len(seen)
        p50, p99 = gap_stats([times])
        failed = min(len(wanted), missing + dups + disorder + len(problems))
        return Outcome(
            attempted=len(wanted), failed=failed, problems=problems,
            gap_p50_ms=p50, gap_p99_ms=p99, paper=self.paper, layers=layers,
            fingerprint_data={"events": layers["sim.events"],
                              "paper": self.paper, "sequence": order,
                              "arrivals": times})


class HostStream(_Stream):
    name = "host_stream"

    def setup(self) -> None:
        self.arrivals = []
        tb = self.tb = Testbed(TestbedConfig(seed=self.seed))
        tb.start()
        self.client = UserSpaceClient(tb)
        self._tap(self.client.socket, "recvfrom")
        self.client.start()
        self.server = SimpleServer(tb)
        self.server.start()
        self._start_sampling()


class OffloadStream(_Stream):
    name = "offload_stream"

    def setup(self) -> None:
        self.arrivals = []
        # Noise arms on the channels that exist when it fires, so it
        # fires once the client's data channel is up and before the
        # server starts streaming.
        plan = FaultPlan().channel_noise(
            NOISE_AT_NS, StreamerOffcode.DATA_LABEL, loss=NOISE_LOSS,
            corrupt=NOISE_CORRUPT)
        tb = self.tb = Testbed(TestbedConfig(seed=self.seed,
                                             fault_plan=plan))
        tb.start()
        self.client = OffloadedClient(tb, host_fallback=True)
        self.client.start()
        tb.run(units.ns_to_s(NOISE_AT_NS) + 0.05)
        if self.client.data_channel is None:
            raise RuntimeError("offloaded client not deployed before the "
                               "channel noise armed")
        self.server = OffloadedServer(tb)
        self.server.start()
        while (self.server.broadcast is None
               or self.client.data_channel is None):
            tb.run(0.01)
        # The receive loop looks its binding up on every iteration.
        self._tap(self.client.net_streamer.binding, "recv")
        self._start_sampling()

    def _consumer_problems(self) -> List[str]:
        """Both consumers of the multicast saw what the NIC forwarded
        (one chunk may be mid-forward when the check runs)."""
        client = self.client
        net = client.net_streamer.chunks_handled
        decoder = client.decoder
        consumed = {
            "disk": client.disk_streamer.chunks_handled,
            "decoder": ((decoder.frames_decoded * decoder.frame_bytes
                         + decoder.bytes_buffered)
                        // self.tb.config.stream.chunk_bytes),
        }
        return [f"offload_stream: {name} consumed {count} chunks, NIC "
                f"streamer forwarded {net}"
                for name, count in consumed.items() if abs(count - net) > 1]


# -- the KV call/reply workload ------------------------------------------------


def _kv_value(key: str, version: int) -> str:
    return f"v{version}:{key}"


class KvMixed:
    """Closed loop: each simulated client issues its next op only after
    the previous reply.  Clients own disjoint key sets (no write races),
    so every read has one reference value."""

    name = "kv_mixed"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        keys = [f"key-{i:04d}" for i in range(KV_KEYS)]
        rng.shuffle(keys)
        self.owned = [keys[c::KV_CLIENTS] for c in range(KV_CLIENTS)]
        kinds, weights = zip(*KV_MIX)
        self.scripts = []
        for own in self.owned:
            zipf = [1.0 / (rank + 1) ** KV_ZIPF_S for rank in range(len(own))]
            script = []
            for _ in range(KV_OPS):
                kind = rng.choices(kinds, weights)[0]
                count = KV_BATCH if kind == "get_batch" else 1
                script.append((kind, rng.choices(own, zipf, k=count)))
            self.scripts.append(script)

    def setup(self) -> None:
        world = self.kv = build_kv_world(slots=KV_SLOTS)
        sim = world.sim

        def populate():
            yield from deploy_cache(world, slots=KV_SLOTS)
            for own in self.owned:
                for key in own:
                    yield from world.proxy.Put(key, _kv_value(key, 0))

        sim.run_until_event(sim.spawn(populate()))
        self.clients = [
            KvClient(world.provider.create_qp(world.runtime.host_site),
                     world.region, world.proxy, KV_SLOTS)
            for _ in range(KV_CLIENTS)]
        self.world = _World(sim, [world.machine], [world.runtime.executive])
        self.host_busy0 = world.machine.cpu.total_busy
        self.disk_busy0 = world.disk.cpu.total_busy
        self.records: List[tuple] = []
        self.wrong: List[str] = []

    def _client(self, index: int):
        client = self.clients[index]
        sim = self.kv.sim
        proxy = self.kv.proxy
        reference = {key: _kv_value(key, 0) for key in self.owned[index]}
        for op, (kind, keys) in enumerate(self.scripts[index]):
            started = sim.now
            if kind == "put":
                value = _kv_value(keys[0], op + 1)
                yield from proxy.Put(keys[0], value)
                reference[keys[0]] = value
                got = {}
            elif kind == "get_batch":
                got = yield from client.get_batch(list(dict.fromkeys(keys)))
            else:
                got = yield from client.get_rpc(keys)
            for key, value in got.items():
                if value != reference[key]:
                    self.wrong.append(f"client {index} op {op} {key}: "
                                      f"{value!r} != {reference[key]!r}")
            self.records.append((sim.now, sim.now - started, index, op,
                                 sorted(got.items())))

    def run(self) -> Iterator[None]:
        sim = self.kv.sim
        clients = [sim.spawn(self._client(index), name=f"kv-client-{index}")
                   for index in range(KV_CLIENTS)]
        while any(client.alive for client in clients):
            sim.run(until=sim.now + KV_SLICE_NS)
            yield
        span_ns = max(r[0] for r in self.records) - self.world.t0_ns
        latencies = [r[1] for r in self.records]
        host_ns = self.kv.machine.cpu.total_busy - self.host_busy0
        self.paper = {
            "kv_op_p50_us": percentile(latencies, 0.5) / 1e3,
            "kv_op_p99_us": percentile(latencies, 0.99) / 1e3,
            "kv_host_cpu_ns_per_op": host_ns / len(self.records),
            "server_cpu_pct": 100.0 * (self.kv.disk.cpu.total_busy
                                       - self.disk_busy0) / span_ns,
            "client_cpu_pct": 100.0 * host_ns / span_ns,
        }
        self.layers = self.world.layers()

    def finish(self) -> Outcome:
        attempted = KV_CLIENTS * KV_OPS
        problems = self.wrong[:5]
        failed = len(self.wrong) + attempted - len(self.records)
        if len(self.records) != attempted:
            problems.append(f"kv_mixed: {len(self.records)} of {attempted} "
                            "ops completed")
        violations = (check_rdma_conservation(self.kv.provider)
                      + self.world.conservation())
        if violations:
            problems.extend(violations)
            failed = attempted
        hits = sum(c.one_sided_hits for c in self.clients)
        fallback = sum(c.fallback_gets for c in self.clients)
        layers = dict(self.layers)
        layers["rdma.fallback_gets"] = fallback
        layers["rdma.one_sided_hit_ratio"] = (
            hits / (hits + fallback) if hits + fallback else 0.0)
        # Each client is a receiver; in a closed loop its reply gap is the
        # latency of its next op.
        p50, p99 = gap_stats([[r[0] for r in self.records if r[2] == c]
                              for c in range(KV_CLIENTS)])
        return Outcome(
            attempted=attempted, failed=failed, problems=problems,
            gap_p50_ms=p50, gap_p99_ms=p99, paper=self.paper, layers=layers,
            fingerprint_data={"events": layers["sim.events"],
                              "paper": self.paper,
                              "results": sorted(self.records)})


# -- the sharded fleet -----------------------------------------------------------


class FleetChunk:
    """Measured run_fleet: real worker processes, no projections."""

    name = "fleet_chunk"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workers = fleet_workers()
        self.config = fleet.FleetConfig(
            population=PopulationConfig(clients=FLEET_CLIENTS,
                                        seconds=FLEET_SECONDS,
                                        fleet_seed=seed),
            shards=FLEET_SHARDS, workers=self.workers,
            supervision=FLEET_POLICY)

    def setup(self) -> None:
        # The pool's fixed cost -- fork the workers, dispatch, merge --
        # measured on one trivial shard per worker.
        bring_up = fleet.FleetConfig(
            population=PopulationConfig(clients=self.workers, seconds=0.01,
                                        fleet_seed=self.seed),
            shards=self.workers, workers=self.workers,
            supervision=FLEET_POLICY)
        if not fleet.run_fleet(bring_up).complete:
            raise RuntimeError("fleet bring-up run failed")

    def run(self) -> Iterator[None]:
        # Through the module, so a traced run sees its wrapper.
        self.report = fleet.run_fleet(self.config)
        yield

    def finish(self) -> Outcome:
        report = self.report
        attempted = report.totals.get("chunks_sent", 0)
        problems = report.violations[:5]
        failed = 0
        if not report.complete:
            problems.append(f"fleet_chunk: ok={report.ok} degraded="
                            f"{report.degraded} missing="
                            f"{report.missing_shards}")
            failed = attempted
        walls = [s.wall_s for s in report.shards]
        layers = {
            "sim.events": report.events,
            "tivopc.chunks_sent": attempted,
            "tivopc.chunks_delivered": report.totals.get("chunks_delivered",
                                                         0),
            "tivopc.population.events_per_chunk": report.events / attempted,
            "evaluation.fleet.shard_wall_p50_s": statistics.median(walls),
            "evaluation.fleet.shard_wall_max_s": max(walls),
            "evaluation.supervised.retries": report.supervision["retries"],
        }
        # The report keeps each subscriber's worst gap, not every gap:
        # the median and p99 subscriber's worst gap stand in for them.
        return Outcome(
            attempted=attempted, failed=failed, problems=problems,
            gap_p50_ms=report.qoe["max_gap_ms"]["p50"],
            gap_p99_ms=report.qoe["max_gap_ms"]["p99"], layers=layers,
            fingerprint_data={"canonical": report.canonical_json()})


WORKLOADS = {cls.name: cls for cls in
             (HostStream, OffloadStream, KvMixed, FleetChunk)}
