"""Offloaded key-value cache: one-sided gets against a smart disk.

The first non-video workload.  A :class:`KvCacheOffcode` lives on the
smart disk and owns the table; its slot array is registered as an RDMA
region through the RNIC, so a **get is a one-sided read** — the host
posts read WRs against the disk's registered region, rings one doorbell
per batch, and the RNIC bus-masters the slots back.  Neither the disk's
CPU nor the host kernel runs on the hot path: no descriptor rings, no
dispatch, no interrupt.

Slot discipline makes the one-sided read safe without a lookup RPC:
``slot_offset(key)`` hashes the key to a fixed 64-byte slot, and the
slot stores the ``(key, value)`` pair, so the reader *validates* the
key it got.  A hash collision (two keys, one slot) or a missing entry
reads back the wrong key or ``None`` — the client falls back to the
two-sided :meth:`KvCacheOffcode.Get` RPC, which consults the full
table.  Fallback is therefore a correctness path, not just a failure
path, and the chaos drill leans on it: **crash the RNIC mid-get** and
every in-flight verb completes as ``status="error"``, the client flips
to the RPC path (the disk and its DMA channel are untouched), and the
existing watchdog/recovery machinery fences the dead NIC.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.core.offcode import Offcode
from repro.core.runtime import DeploymentSpec, HydraRuntime
from repro.core.watchdog import WatchdogConfig
from repro.faults import FaultInjector, FaultPlan
from repro.hw import DeviceClass, Machine, NicSpec
from repro.rdma.mr import RdmaRegion
from repro.rdma.provider import RDMA_FEATURE
from repro.sim.engine import Event, Simulator

__all__ = ["IKVCACHE", "KvCacheOffcode", "KvClient", "KvWorld",
           "SLOT_BYTES", "build_kv_world", "slot_offset",
           "run_kv_scenario", "run_kv_chaos"]

# One cache slot: key digest + length-prefixed value, padded — the unit
# a one-sided get reads.
SLOT_BYTES = 64

IKVCACHE = InterfaceSpec.from_methods(
    "IKvCache",
    (MethodSpec("Get", params=(("key", "string"),), result="any"),
     MethodSpec("Put", params=(("key", "string"), ("value", "any")),
                result="int"),
     MethodSpec("Size", params=(), result="int")))


def slot_offset(key: str, slots: int) -> int:
    """The fixed region offset of ``key``'s slot (stable across runs)."""
    return (zlib.crc32(key.encode("utf-8")) % slots) * SLOT_BYTES


class KvCacheOffcode(Offcode):
    """The table owner: serves two-sided RPCs, mirrors slots for RDMA."""

    BINDNAME = "rdma.KvCache"
    INTERFACES = (IKVCACHE,)
    # A get is a hash-table probe, far lighter than the media pipeline.
    DISPATCH_COST_NS = 800

    def __init__(self, site, guid=None) -> None:
        super().__init__(site, guid)
        self.table: Dict[str, object] = {}
        self.region: Optional[RdmaRegion] = None
        self.slots = 0

    def bind_region(self, region: RdmaRegion) -> None:
        """Adopt a registered region as the slot array's public face."""
        self.region = region
        self.slots = region.size // SLOT_BYTES
        for key, value in self.table.items():
            region.write_object(slot_offset(key, self.slots), (key, value))

    # -- IKvCache -----------------------------------------------------------------

    def Get(self, key):
        """Two-sided get: the fallback (and collision-proof) path."""
        yield from self.site.execute(600, context="kv-probe")
        return self.table.get(key)

    def Put(self, key, value):
        """Insert/update; mirrors the slot so one-sided readers see it."""
        self.table[key] = value
        if self.region is not None and not self.region.revoked:
            self.region.write_object(slot_offset(key, self.slots),
                                     (key, value))
        yield from self.site.execute(900, context="kv-insert")
        return len(self.table)

    def Size(self):
        yield from self.site.execute(200, context="kv-probe")
        return len(self.table)


class KvClient:
    """Host-side cache client: one-sided fast path, RPC slow path.

    ``get_batch`` posts one read WR per key and rings a single doorbell;
    completions carrying the wrong key (collision), no value (miss), or
    an error status (dead engine) are re-fetched through the two-sided
    proxy.  The first errored batch flips :attr:`one_sided_ok` off so a
    crashed RNIC costs one failed doorbell, not one per batch.
    """

    def __init__(self, qp, region: RdmaRegion, proxy, slots: int) -> None:
        self.qp = qp
        self.region = region
        self.proxy = proxy
        self.slots = slots
        self.one_sided_ok = True
        self.one_sided_hits = 0
        self.fallback_gets = 0

    def get_batch(self, keys: List[str]
                  ) -> Generator[Event, None, Dict[str, object]]:
        """Fetch every key exactly once; returns ``{key: value}``."""
        results: Dict[str, object] = {}
        fallback: List[str] = []
        if self.one_sided_ok:
            wr_to_key: Dict[int, str] = {}
            for key in keys:
                wr_id = self.qp.post_read(
                    self.region, slot_offset(key, self.slots), SLOT_BYTES)
                wr_to_key[wr_id] = key
            # Take the batch off the client's own CQ, which would
            # otherwise keep every completion of the run.
            yield from self.qp.ring_doorbell()
            completions = self.qp.cq.poll()
            for completion in completions:
                key = wr_to_key[completion.wr_id]
                slot = completion.value if completion.ok else None
                if (isinstance(slot, tuple) and len(slot) == 2
                        and slot[0] == key):
                    results[key] = slot[1]
                    self.one_sided_hits += 1
                else:
                    fallback.append(key)
            if any(not c.ok for c in completions):
                self.one_sided_ok = False
        else:
            fallback = list(keys)
        for key in fallback:
            results[key] = yield from self.proxy.Get(key)
            self.fallback_gets += 1
        return results

    def get_rpc(self, keys: List[str]
                ) -> Generator[Event, None, Dict[str, object]]:
        """The all-two-sided baseline the benchmark compares against."""
        results: Dict[str, object] = {}
        for key in keys:
            results[key] = yield from self.proxy.Get(key)
        return results


@dataclass
class KvWorld:
    """Everything a scenario or test needs to drive the cache."""

    sim: Simulator
    machine: Machine
    runtime: HydraRuntime
    nic: object
    disk: object
    provider: object = None
    cache: Optional[KvCacheOffcode] = None
    proxy: object = None
    region: Optional[RdmaRegion] = None
    client: Optional[KvClient] = None
    report: dict = field(default_factory=dict)


def build_kv_world(slots: int = 256) -> KvWorld:
    """One machine: an RDMA-capable NIC (the engine) + a smart disk."""
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic(NicSpec(extra_features=(RDMA_FEATURE,)))
    disk = machine.add_disk()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(
        bindname=KvCacheOffcode.BINDNAME,
        guid=KvCacheOffcode(runtime.host_site).guid,
        interfaces=[IKVCACHE],
        targets=[DeviceClassFilter(DeviceClass.STORAGE),
                 DeviceClassFilter(DeviceClass.HOST)],
        image_bytes=48 * 1024)
    runtime.library.register("/offcodes/kv_cache.odf", odf)
    runtime.depot.register(odf.guid, KvCacheOffcode)
    world = KvWorld(sim=sim, machine=machine, runtime=runtime, nic=nic,
                    disk=disk)
    world.report["slots"] = slots
    return world


def deploy_cache(world: KvWorld, slots: int = 256
                 ) -> Generator[Event, None, None]:
    """Deploy the offcode, register the MR, build the client."""
    result = yield from world.runtime.deploy(
        DeploymentSpec(odf_paths=("/offcodes/kv_cache.odf",)))
    world.proxy = result.proxy
    world.cache = world.runtime.get_offcode(KvCacheOffcode.BINDNAME)
    world.report["placement"] = world.cache.location
    provider = world.runtime.rdma_provider(world.nic.name)
    world.provider = provider
    world.region = yield from provider.register_mr(
        world.cache.location if world.cache.location != "host" else "host",
        slots * SLOT_BYTES, label="kv-table")
    world.cache.bind_region(world.region)
    world.client = KvClient(provider.create_qp(world.runtime.host_site),
                            world.region, world.proxy, slots)


def _value_of(key: str) -> str:
    return f"v:{key}"


def run_kv_scenario(keys: int = 96, batch: int = 8,
                    slots: int = 256) -> dict:
    """Populate the cache, then fetch everything both ways.

    Returns the timing/accounting report the benchmark and the example
    read: one-sided batched gets vs the same gets as two-sided RPCs.
    """
    world = build_kv_world(slots=slots)
    sim = world.sim
    names = [f"key-{i:04d}" for i in range(keys)]

    def application():
        yield from deploy_cache(world, slots=slots)
        for name in names:
            yield from world.proxy.Put(name, _value_of(name))
        host_cpu_before = world.machine.cpu.total_busy
        started = sim.now
        one_sided: Dict[str, object] = {}
        for start in range(0, len(names), batch):
            got = yield from world.client.get_batch(
                names[start:start + batch])
            one_sided.update(got)
        one_sided_ns = sim.now - started
        one_sided_cpu = world.machine.cpu.total_busy - host_cpu_before
        host_cpu_before = world.machine.cpu.total_busy
        started = sim.now
        rpc: Dict[str, object] = {}
        for start in range(0, len(names), batch):
            got = yield from world.client.get_rpc(
                names[start:start + batch])
            rpc.update(got)
        rpc_ns = sim.now - started
        rpc_cpu = world.machine.cpu.total_busy - host_cpu_before
        stats = world.provider.stats
        world.report.update(
            keys=keys, batch=batch,
            one_sided_ns=one_sided_ns, rpc_ns=rpc_ns,
            one_sided_host_cpu_ns=one_sided_cpu,
            rpc_host_cpu_ns=rpc_cpu,
            one_sided_hits=world.client.one_sided_hits,
            fallback_gets=world.client.fallback_gets,
            rdma_reads=stats.reads, doorbells=stats.doorbells,
            imbalance=stats.imbalance,
            sim_ns=sim.now, events=sim.events_processed,
            correct=(one_sided == rpc
                     and one_sided == {n: _value_of(n) for n in names}))

    sim.run_until_event(sim.spawn(application()))
    return world.report


def run_kv_chaos(seed: int = 0, keys: int = 80, batch: int = 8,
                 slots: int = 256, crash_at_ns: int = 2_000_000) -> dict:
    """The chaos drill: crash the RNIC mid-get, recover via fallback.

    Asserts exactly-once results (every key fetched once, correct
    value), the one-sided conservation law, and a recovered watchdog
    incident for the dead NIC.  Returns the report for the CLI/CI.
    """
    world = build_kv_world(slots=slots)
    sim = world.sim
    names = [f"key-{i:04d}" for i in range(keys)]
    results: Dict[str, object] = {}
    fetched: List[str] = []

    def application():
        yield from deploy_cache(world, slots=slots)
        world.runtime.start_watchdog(WatchdogConfig())
        for name in names:
            yield from world.proxy.Put(name, _value_of(name))
        for start in range(0, len(names), batch):
            chunk = names[start:start + batch]
            got = yield from world.client.get_batch(chunk)
            results.update(got)
            fetched.extend(chunk)
            # Pace the batches so the crash lands mid-run.
            yield sim.clock.timeout(250_000)

    plan = FaultPlan().crash_device(crash_at_ns, world.nic.name)
    injector = FaultInjector(sim, plan,
                             devices={world.nic.name: world.nic},
                             rng=random.Random(seed))
    injector.start()
    done = sim.spawn(application())
    sim.run_until_event(done)
    # Let the watchdog declare the death and finish the incident.
    sim.run(until=sim.now + 50_000_000)

    stats = world.provider.stats
    incidents = [i for i in world.runtime.incidents
                 if i.device == world.nic.name]
    report = {
        "seed": seed,
        "keys": keys,
        "exactly_once": (sorted(fetched) == sorted(names)
                         and len(fetched) == len(set(fetched))),
        "correct": results == {n: _value_of(n) for n in names},
        "one_sided_hits": world.client.one_sided_hits,
        "fallback_gets": world.client.fallback_gets,
        "fell_back": not world.client.one_sided_ok,
        "posted": stats.posted,
        "completed": stats.completed,
        "failed": stats.failed,
        "conservation_ok": not stats.violations(world.provider.name),
        "incident_recovered": bool(incidents) and incidents[0].recovered,
    }
    report["ok"] = (report["exactly_once"] and report["correct"]
                    and report["fell_back"] and report["conservation_ok"]
                    and report["incident_recovered"]
                    and report["failed"] > 0)
    return report
