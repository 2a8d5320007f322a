"""Stats views read the registry: no count lives beside it.

A batcher's ``BatcherStats``, a supervisor's decision and drain counts
and its admission controller's sheds are read-only views over children their owner holds in
``sim.metrics``, so the exported series and the value the code reads
are one number, and two owners exported under the same labels never
read each other's counts.
"""

from repro.core import ChannelConfig, HydraRuntime
from repro.hw import Machine
from repro.resilience import SupervisorConfig
from repro.resilience.supervisor import SupervisorDecision
from repro.sim import Simulator


def sample(snapshot, metric, **labels):
    """The value of ``metric``'s sample whose labels are ``labels``."""
    (value,) = [s["value"] for s in snapshot[metric]["samples"]
                if s["labels"] == labels]
    return value


def test_batcher_stats_are_its_exported_counters():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    config = (ChannelConfig.unicast().labeled("bulk")
              .batched(max_calls=4, adaptive=False))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    runtime.executive.connect_site(channel, runtime.site_of("nic0"))

    def writer():
        for seq in range(6):
            yield from channel.creator_endpoint.write(("m", seq), 64)

    sim.spawn(writer())
    sim.run()
    stats = channel.batcher.stats()
    assert (stats.coalesced, stats.flushed_on_count,
            stats.flushed_on_deadline) == (6, 1, 1)
    snapshot = sim.metrics.snapshot()
    labels = {"channel": str(channel.channel_id), "label": "bulk",
              "runtime": "host"}
    for field in ("coalesced", "bypassed", "flushed_on_bytes",
                  "flushed_on_count", "flushed_on_deadline", "expired"):
        assert sample(snapshot, f"repro_batcher_{field}_total",
                      **labels) == getattr(stats, field), field


def test_namesake_supervisors_keep_their_own_counts():
    sim = Simulator()
    first, second = (HydraRuntime(Machine(sim)).start_supervisor(
        SupervisorConfig()) for _ in range(2))
    assert first.runtime.metrics.name == second.runtime.metrics.name
    first._decide(SupervisorDecision(at_ns=0, action="quarantine"))
    first._decide(SupervisorDecision(at_ns=0, action="drain"))
    second._decide(SupervisorDecision(at_ns=0, action="unquarantine"))
    assert (first.quarantines, first.drains_started,
            first.unquarantines) == (1, 1, 0)
    assert (second.quarantines, second.drains_started,
            second.unquarantines) == (0, 0, 1)
    # The first runtime built owns the exported series.
    snapshot = sim.metrics.snapshot()
    decided = {s["labels"]["action"]: s["value"] for s in
               snapshot["repro_supervisor_decisions_total"]["samples"]}
    assert decided == {"quarantine": 1, "unquarantine": 0, "drain": 1,
                       "shed-on": 0, "shed-off": 0}
    assert sample(snapshot, "repro_supervisor_drains_total",
                  outcome="completed", runtime="host") == 0


def test_admission_sheds_are_their_exported_counters():
    sim = Simulator()
    first, second = (HydraRuntime(Machine(sim)).start_supervisor(
        SupervisorConfig(protect_priority=2)).admission for _ in range(2))
    first.engage()
    second.engage()
    assert [first.admit(p) for p in (0, 1, 1, 2)] == [False] * 3 + [True]
    assert not second.admit(0)
    assert first.shed_by_priority == {0: 1, 1: 2}
    assert second.shed_by_priority == {0: 1}
    # The first controller to shed at a priority owns its series.
    snapshot = sim.metrics.snapshot()
    shed = {s["labels"]["priority"]: s["value"] for s in
            snapshot["repro_admission_shed_total"]["samples"]}
    assert shed == {"0": 1, "1": 2}
