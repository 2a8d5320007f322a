"""Chaos and scenario tests for the RDMA substrate.

The drill: crash the RNIC mid-get and require that (a) every key is
still fetched exactly once with the right value (the client flips to
the two-sided RPC fallback), (b) the one-sided conservation law
``posted == completed + failed`` holds through the crash, and (c) the
watchdog machinery fences the dead NIC as a recovered incident.  The
simulator's metrics registry, which the verbs count into, must report
the same story.
"""

import pytest

from repro.rdma.filter import run_filter_scenario
from repro.rdma.kv import run_kv_chaos, run_kv_scenario
from repro.telemetry.adapters import check_rdma_conservation


# -- the happy-path scenario --------------------------------------------------------

def test_kv_scenario_one_sided_wins():
    report = run_kv_scenario(keys=32, batch=8)
    assert report["correct"]
    assert report["one_sided_ns"] < report["rpc_ns"]
    assert report["one_sided_host_cpu_ns"] < report["rpc_host_cpu_ns"]
    assert report["imbalance"] == 0
    # Batching amortizes: far fewer doorbells than reads.
    assert report["doorbells"] * 2 <= report["rdma_reads"]
    assert report["one_sided_hits"] + report["fallback_gets"] >= 32


def test_kv_scenario_places_cache_off_host():
    report = run_kv_scenario(keys=8, batch=4)
    assert report["placement"] == "disk0"


# -- the chaos drill ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_kv_chaos_recovers_exactly_once(seed):
    report = run_kv_chaos(seed=seed)
    assert report["ok"], report
    assert report["exactly_once"]
    assert report["correct"]
    assert report["fell_back"]            # the crash forced the RPC path
    assert report["failed"] > 0           # in-flight verbs errored...
    assert report["conservation_ok"]      # ...but none were lost
    assert report["incident_recovered"]   # watchdog fenced the dead NIC


def test_kv_chaos_telemetry_after_crash():
    """The metrics registry tells the chaos story: failures counted,
    conservation law intact."""
    from repro.rdma.kv import build_kv_world, deploy_cache

    world = build_kv_world(slots=128)
    names = [f"key-{i}" for i in range(16)]

    def application():
        yield from deploy_cache(world, slots=128)
        for name in names:
            yield from world.proxy.Put(name, name.upper())
        yield from world.client.get_batch(names[:8])
        world.nic.health.crash()
        yield from world.client.get_batch(names[8:])

    world.sim.run_until_event(world.sim.spawn(application()))

    assert check_rdma_conservation(world.provider) == []
    snapshot = world.sim.metrics.snapshot()
    stats = world.provider.stats

    def value(metric):
        (sample,) = snapshot[metric]["samples"]
        assert sample["labels"] == {"provider": "host/rdma-nic0"}
        return sample["value"]

    assert value("repro_rdma_reads_total") == stats.reads
    assert value("repro_rdma_writes_total") == stats.writes
    assert value("repro_rdma_doorbells_total") == stats.doorbells
    assert value("repro_rdma_posted_total") == stats.posted
    assert value("repro_rdma_failed_total") == stats.failed > 0
    assert (value("repro_rdma_completed_total") + stats.failed
            == stats.posted)
    assert value("repro_rdma_conservation_imbalance") == 0
    assert value("repro_rdma_conservation_violations") == 0


def test_conservation_check_flags_cooked_books():
    from repro.rdma.verbs import RdmaStats

    class FakeProvider:
        name = "rdma-fake"
        stats = RdmaStats(posted=10, completed=6, failed=1, reads=6)

    violations = check_rdma_conservation(FakeProvider())
    assert violations and "leaks work requests" in violations[0]


# -- the sPIN filter scenario ------------------------------------------------------------

@pytest.mark.slow
def test_filter_scenario_accounts_every_packet():
    report = run_filter_scenario(packets=200)
    assert report["placement"] == "nic0"       # layout honored `spin`
    assert report["accounted"]                 # handled + punted == rx
    assert report["spin_dropped"] > 0          # denylist fired in-network
    assert report["spin_to_host"] > 0          # sampling escalated
    assert report["budget_overruns"] > 0       # jumbos punted by budget
    assert report["spin_consumed"] > 0
    # The host only saw escalated and punted packets, nothing else.
    assert report["host_rx_packets"] < report["rx_packets"] / 4
    assert report["flows_observed"] >= 8
