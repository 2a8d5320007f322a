"""Which public functions the traced run wraps, and the per-layer metrics.

``install`` puts a span around a public entry point of every layer; the
hooks count the work each call does (bytes, WRs, busy ns).  ``metrics``
folds one traced run into the fixed per-layer metric set that
``BENCHMARK.json`` lists; a layer a workload never enters reads 0.

Fleet shards run in forked workers.  Each worker folds its own ledger
around ``run_population`` and writes it to ``worker_dir``; the parent
charges those worker layers onto its own wait in the pool, scaled so the
ledger still sums to the parent's wall time.
"""

from __future__ import annotations

import glob
import json
import os
from collections import Counter
from time import perf_counter
from typing import Dict, List

from tracer import Tracer, fold_ledger
from workloads import percentile

# Ledger layer -> the per-layer metric holding its self time.
LEDGER_METRICS = {
    "sim.loop": "sim.loop_self_s",
    "hw.cache": "hw.cache.host_s",
    "hw.cpu": "hw.cpu.host_s",
    "hw.bus": "hw.bus.host_s",
    "hw.nic": "hw.nic.host_s",
    "net": "net.host_s",
    "hostos": "hostos.host_s",
    "core.proxy": "core.proxy.host_s",
    "core.marshal": "core.marshal.host_s",
    "core.channel": "core.channel.host_s",
    "core.executive": "core.executive.host_s",
    "core.providers": "core.providers.host_s",
    "core.sites": "core.sites.host_s",
    "core.layout": "core.layout.host_s",
    "core.runtime": "core.runtime.host_s",
    "rdma": "rdma.host_s",
    "tivopc.population": "tivopc.population.host_s",
    "evaluation.fleet": "evaluation.fleet.dispatch_merge_s",
    "evaluation.supervised": "evaluation.supervised.host_s",
    "telemetry": "telemetry.merge_host_s",
    "unattributed": "trace.unattributed_host_s",
}

PROVIDER_FAMILIES = ("loopback", "dma", "peer-dma", "rdma")

# Every per-layer metric, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count", "sim.fused_resumes": "count",
    "sim.dead_timers": "count",
    "hw.cache.touches": "count", "hw.cache.misses": "count",
    "hw.cpu.queue_wait_ns": "sim_ns",
    "hw.bus.transfers": "count", "hw.bus.bytes": "bytes",
    "hw.bus.busy_ns": "sim_ns",
    "hw.nic.rx_packets": "count",
    "net.frames": "count",
    "hostos.syscalls": "count", "hostos.copy_bytes": "bytes",
    "core.proxy.calls": "count", "core.proxy.call_p99_ns": "sim_ns",
    "core.marshal.encodes": "count", "core.marshal.decodes": "count",
    "core.marshal.bytes": "bytes",
    "core.channel.writes": "count", "core.channel.calls": "count",
    "core.channel.retransmits": "count", "core.channel.dup_dropped": "count",
    "core.channel.delivered_ratio": "ratio",
    "core.executive.selects": "count",
    "core.executive.cost_cache_hit_ratio": "ratio",
    **{f"core.providers.transfers.{family}": "count"
       for family in PROVIDER_FAMILIES},
    "core.sites.device_execs": "count", "core.sites.device_busy_ns": "sim_ns",
    "core.sites.host_execs": "count", "core.sites.host_busy_ns": "sim_ns",
    "core.layout.solves": "count", "core.layout.solve_host_s": "s",
    "core.runtime.deploy_host_s": "s",
    "rdma.doorbells": "count", "rdma.wrs_per_doorbell": "ratio",
    "rdma.fallback_gets": "count", "rdma.one_sided_hit_ratio": "ratio",
    "tivopc.chunks_sent": "count", "tivopc.chunks_delivered": "count",
    "tivopc.population.events_per_chunk": "ratio",
    "evaluation.fleet.shard_wall_p50_s": "s",
    "evaluation.fleet.shard_wall_max_s": "s",
    "evaluation.supervised.retries": "count",
    **{metric: "s" for metric in LEDGER_METRICS.values()},
    "trace.run_s": "s", "trace.overhead_ratio": "ratio",
    "paper.server_cpu_pct": "sim_%", "paper.client_cpu_pct": "sim_%",
    "paper.server_l2_miss_rate": "ratio",
    "paper.kv_op_p50_us": "sim_us", "paper.kv_op_p99_us": "sim_us",
    "paper.kv_host_cpu_ns_per_op": "sim_ns",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _add(key: str, index: int, name: str):
    """Hook adding argument ``index``/``name`` (an int) to ``key``."""
    def hook(tracer, args, kwargs):
        tracer.counts[key] += _arg(args, kwargs, index, name)
    return hook


def _add_sum(key: str, index: int, name: str):
    def hook(tracer, args, kwargs):
        tracer.counts[key] += sum(_arg(args, kwargs, index, name))
    return hook


def _count_result_len(key: str):
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.counts[key] += len(result)
    return hook


def _count_arg_len(key: str, index: int, name: str):
    def hook(tracer, args, kwargs):
        tracer.counts[key] += len(_arg(args, kwargs, index, name))
    return hook


def _sample(key: str):
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.samples[key].append(elapsed)
    return hook


def _queue_wait(tracer, args, kwargs, result, elapsed):
    duration = _arg(args, kwargs, 1, "duration_ns")
    tracer.counts["hw.cpu.queue_wait_ns"] += elapsed - duration


def _provider_transfer(tracer, args, kwargs):
    name = args[0].name
    family = "dma" if name.startswith("dma-") else (
        "rdma" if name.startswith("rdma-") else name)
    tracer.counts[f"core.providers.transfers.{family}"] += 1


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer, worker_dir: str) -> None:
    """Wrap each layer's public entry points; profile every new sim."""
    from repro.core import marshal
    from repro.core.channel import Channel, Endpoint
    from repro.core.executive import ChannelExecutive
    from repro.core.layout import BranchAndBoundSolver
    from repro.core.providers import ChannelProvider
    from repro.core.proxy import Proxy
    from repro.core.runtime import HydraRuntime
    from repro.core.sites import DeviceSite, HostSite
    from repro.evaluation import fleet
    from repro.evaluation.supervised import SupervisedPool
    from repro.hostos.kernel import Kernel
    from repro.hw.bus import Bus
    from repro.hw.cache import Cache, StatsPin
    from repro.hw.cpu import Cpu
    from repro.hw.nic import Nic
    from repro.rdma.provider import RdmaProvider  # noqa: F401 - subclass
    from repro.rdma.verbs import QueuePair

    wrap = tracer.wrap
    for attr in ("touch_range", "access", "access_range", "stats"):
        wrap(Cache, attr, "hw.cache")
    wrap(StatsPin, "resolve", "hw.cache")
    wrap(Cpu, "execute", "hw.cpu", on_done=_queue_wait)
    wrap(Bus, "transfer", "hw.bus",
         on_call=_add("hw.bus.bytes", 3, "size_bytes"))
    wrap(Bus, "transfer_scatter", "hw.bus",
         on_call=_add_sum("hw.bus.bytes", 3, "sizes"))
    wrap(Bus, "multicast_transfer", "hw.bus",
         on_call=_add("hw.bus.bytes", 3, "size_bytes"))
    for attr in ("receive_packet", "transmit_from_host",
                 "transmit_from_device"):
        wrap(Nic, attr, "hw.nic")
    wrap(Kernel, "syscall", "hostos")
    wrap(Kernel, "copy_to_user", "hostos",
         on_call=_add("hostos.copy_bytes", 1, "size"))
    wrap(Kernel, "copy_from_user", "hostos",
         on_call=_add("hostos.copy_bytes", 1, "size"))
    wrap(marshal, "encode", "core.marshal",
         on_done=_count_result_len("core.marshal.bytes"))
    wrap(marshal, "decode", "core.marshal",
         on_call=_count_arg_len("core.marshal.bytes", 0, "data"))
    wrap(Proxy, "invoke", "core.proxy",
         on_done=_sample("core.proxy.call_ns"))
    wrap(Endpoint, "write", "core.channel")
    wrap(Channel, "send_call", "core.channel")
    wrap(Channel, "send_vectored", "core.channel")
    wrap(ChannelExecutive, "select_provider", "core.executive")
    for cls in _subclasses(ChannelProvider):
        if "cost" in vars(cls):
            wrap(cls, "cost", "core.executive")
        for attr in ("transfer", "transfer_vectored"):
            if attr in vars(cls):
                wrap(cls, attr, "core.providers", on_call=_provider_transfer)
    wrap(HostSite, "execute", "core.sites",
         on_call=_add("core.sites.host_busy_ns", 1, "duration_ns"))
    wrap(DeviceSite, "execute", "core.sites",
         on_call=_add("core.sites.device_busy_ns", 1,
                      "duration_ns"))
    wrap(BranchAndBoundSolver, "solve", "core.layout")
    wrap(HydraRuntime, "deploy", "core.runtime")
    wrap(QueuePair, "ring_doorbell", "rdma")
    for attr in ("post_read", "post_write", "post_compare_and_swap"):
        wrap(QueuePair, attr, "rdma")
    wrap(SupervisedPool, "run", "evaluation.supervised")
    wrap(fleet, "run_fleet", "evaluation.fleet")
    wrap(fleet, "merge_snapshots", "telemetry")
    _capture_workers(tracer, fleet, worker_dir)
    tracer.attach_simulators()


def _capture_workers(tracer: Tracer, fleet, worker_dir: str) -> None:
    """In a forked fleet worker, fold and write each shard's ledger."""
    original = fleet.run_population
    parent = os.getpid()

    def run_population(gids, config, stream_seed=None):
        if os.getpid() == parent:       # in-process pool: traced as usual
            return original(gids, config, stream_seed)
        # Spans the parent had open when it forked are not this
        # process's: the shard's callbacks are top-level here.
        tracer.reset_stack()
        before = tracer.snapshot()
        start = perf_counter()
        result = original(gids, config, stream_seed)
        wall = perf_counter() - start
        delta = tracer.delta(before)
        sim = tracer.sim
        record = {"wall_s": wall, "ledger": fold_ledger(delta, wall),
                  "counts": {"sim.fused_resumes": sim.fused_resumes,
                             "sim.dead_timers": sim.dead_timers}}
        path = os.path.join(worker_dir,
                            f"shard-{os.getpid()}-{gids[0]}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return result

    tracer._patches.append((fleet, "run_population", original))
    fleet.run_population = run_population


def worker_records(worker_dir: str) -> List[dict]:
    """The ledgers fleet workers wrote during the traced run."""
    records = []
    for path in sorted(glob.glob(os.path.join(worker_dir, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def merge_workers(ledger: Dict[str, float], records: List[dict]) -> None:
    """Charge worker-side layers onto the parent's wait in the pool.

    The parent's self time inside ``SupervisedPool.run`` is the wall it
    spent waiting on workers running in parallel; it is split among the
    workers' layers in proportion to their summed self times, so the
    ledger keeps summing to the parent's wall time.
    """
    total = sum(r["wall_s"] for r in records)
    wait = ledger.get("evaluation.supervised", 0.0)
    if not records or total <= 0:
        return
    ledger["evaluation.supervised"] = 0.0
    for record in records:
        for layer, seconds in record["ledger"].items():
            ledger[layer] = ledger.get(layer, 0.0) + seconds * wait / total


def metrics(setup: dict, run: dict, ledger: Dict[str, float],
            world: Dict[str, float], paper: Dict[str, float],
            records: List[dict]) -> Dict[str, float]:
    """The per-layer metric set of one traced run.

    ``setup`` and ``run`` are tracer deltas over the set-up and timed
    spans, ``ledger`` the folded self times of the timed span, ``world``
    the counts the workload read from the program's own stats, and
    ``records`` the fleet workers' ledgers.
    """
    counts = run["counts"]
    call_ns = run["samples"].get("core.proxy.call_ns")

    def calls(*names: str) -> float:
        return sum(counts.get(f"calls:{name}", 0) for name in names)

    out = {name: 0.0 for name in PER_LAYER_UNITS}
    # Providers are picked when a channel binds, which is set-up work on
    # every workload, so the executive counts cover set-up and run.
    bind_counts = Counter(setup["counts"])
    bind_counts.update(counts)
    selects = bind_counts["calls:ChannelExecutive.select_provider"]
    cost_calls = sum(v for k, v in bind_counts.items()
                     if k.startswith("calls:") and k.endswith(".cost"))
    doorbells = calls("QueuePair.ring_doorbell")
    out.update({
        "hw.cpu.queue_wait_ns": counts.get("hw.cpu.queue_wait_ns", 0),
        "hw.bus.transfers": calls("Bus.transfer", "Bus.transfer_scatter",
                                  "Bus.multicast_transfer"),
        "hw.bus.bytes": counts.get("hw.bus.bytes", 0),
        "hw.nic.rx_packets": calls("Nic.receive_packet"),
        "net.frames": sum(n for label, n in run["cb_events"].items()
                          if label == "switch-fwd"
                          or label.endswith("-tx")),
        "hostos.syscalls": calls("Kernel.syscall"),
        "hostos.copy_bytes": counts.get("hostos.copy_bytes", 0),
        "core.proxy.calls": calls("Proxy.invoke"),
        "core.proxy.call_p99_ns": (percentile(call_ns, 0.99)
                                   if call_ns else 0.0),
        "core.marshal.encodes": calls("marshal.encode"),
        "core.marshal.decodes": calls("marshal.decode"),
        "core.marshal.bytes": counts.get("core.marshal.bytes", 0),
        "core.channel.writes": calls("Endpoint.write"),
        "core.channel.calls": calls("Channel.send_call",
                                    "Channel.send_vectored"),
        "core.executive.selects": selects,
        "core.executive.cost_cache_hit_ratio": (
            1.0 - cost_calls / selects if selects else 0.0),
        "core.sites.device_execs": calls("DeviceSite.execute"),
        "core.sites.device_busy_ns": counts.get("core.sites.device_busy_ns",
                                                0),
        "core.sites.host_execs": calls("HostSite.execute"),
        "core.sites.host_busy_ns": counts.get("core.sites.host_busy_ns", 0),
        "core.layout.solves": setup["counts"].get(
            "calls:BranchAndBoundSolver.solve", 0),
        "core.layout.solve_host_s": setup["incl_s"].get("core.layout", 0.0),
        "core.runtime.deploy_host_s": setup["incl_s"].get("core.runtime",
                                                          0.0),
        "rdma.doorbells": doorbells,
        "rdma.wrs_per_doorbell": (
            calls("QueuePair.post_read", "QueuePair.post_write",
                  "QueuePair.post_compare_and_swap") / doorbells
            if doorbells else 0.0),
    })
    for family in PROVIDER_FAMILIES:
        key = f"core.providers.transfers.{family}"
        out[key] = counts.get(key, 0)
    for layer, metric in LEDGER_METRICS.items():
        out[metric] = ledger.get(layer, 0.0)
    for record in records:
        for key, value in record["counts"].items():
            out[key] += value
    out.update(world)
    out.update({f"paper.{k}": v for k, v in paper.items()})
    return out
