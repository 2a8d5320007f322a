"""Property tests for the unified conservation evaluation.

Each conservation law is evaluated in one place, and that evaluation
feeds both the violation lists the chaos soak checks and the gauges the
metrics registry exports.  Hypothesis writes random counter totals into
a live channel's and a live RDMA provider's counters (through the
simulator's registry, the store their stats read from) and checks that
a violation is reported exactly when a law is broken and that the
exported imbalance gauge equals the law's imbalance.  The fleet's chunk
law gets the same treatment over random per-client books run through
the fleet runner itself.  The sPIN filter's packet law and the chaos
soak's exactly-once law get doctored books off by one either way.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import ChannelConfig
from repro.core.runtime import HydraRuntime
from repro.evaluation import fleet
from repro.faults.chaos import EXACTLY_ONCE_LAW
from repro.hw import Machine
from repro.hw.nic import NicSpec
from repro.rdma.filter import FILTER_LAW
from repro.rdma.provider import RDMA_FEATURE
from repro.sim import Simulator
from repro.telemetry.adapters import (check_channel_conservation,
                                      check_rdma_conservation)
from repro.tivopc.population import (PopulationConfig, PopulationResult,
                                     SubscriberStats)


def sample(snapshot, metric, **labels):
    """The value of ``metric``'s sample whose labels include ``labels``."""
    (value,) = [s["value"] for s in snapshot[metric]["samples"]
                if labels.items() <= s["labels"].items()]
    return value


@st.composite
def channel_totals(draw):
    """Counter totals near the balanced point, so both outcomes occur."""
    delivered = draw(st.integers(0, 6))
    dropped = draw(st.integers(0, 6))
    sent = max(0, delivered + dropped + draw(st.integers(-2, 2)))
    return {"sent": sent, "delivered": delivered, "dropped": dropped,
            "corrupted": draw(st.integers(0, dropped + 1)),
            "dup_dropped": draw(st.integers(0, 2)),
            "retransmits": draw(st.integers(0, 3))}


@given(totals=channel_totals(), reliable=st.booleans(), closed=st.booleans())
@settings(max_examples=80, deadline=None)
def test_channel_law_reports_exactly_the_broken_books(totals, reliable,
                                                      closed):
    sim = Simulator()
    runtime = HydraRuntime(Machine(sim))
    config = ChannelConfig().labeled("prop")
    config = config.reliable() if reliable else config.unreliable()
    channel = runtime.executive.create_channel(config, runtime.host_site)
    channel.set_fault_filter(lambda message: None)   # arms reliable only
    labels = {"runtime": "host", "channel": str(channel.channel_id),
              "label": "prop"}
    for field, value in totals.items():
        sim.metrics.get(f"repro_channel_{field}_total").labels(
            **labels).inc(value)
    if closed:
        channel.close()

    imbalance = totals["sent"] - (totals["delivered"] + totals["dropped"])
    broken = reliable and (
        not 0 <= imbalance <= (1 if closed else 0)
        or totals["corrupted"] + totals["dup_dropped"] > totals["dropped"])
    violations = check_channel_conservation(runtime.executive)
    assert bool(violations) == broken
    snapshot = sim.metrics.snapshot()
    assert sample(snapshot, "repro_channel_conservation_imbalance",
                  **labels) == imbalance
    assert sample(snapshot, "repro_channel_conservation_violations",
                  runtime="host") == len(violations)


@st.composite
def rdma_totals(draw):
    """One-sided totals near the balanced point."""
    reads, writes, cas = (draw(st.integers(0, 4)) for _ in range(3))
    completed = max(0, reads + writes + cas + draw(st.integers(-1, 1)))
    failed = draw(st.integers(0, 3))
    posted = max(0, completed + failed + draw(st.integers(-2, 2)))
    return {"posted": posted, "completed": completed, "failed": failed,
            "reads": reads, "writes": writes, "cas": cas,
            "doorbells": draw(st.integers(0, 3))}


@given(totals=rdma_totals())
@settings(max_examples=60, deadline=None)
def test_rdma_law_reports_exactly_the_broken_books(totals):
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic(NicSpec(extra_features=(RDMA_FEATURE,)))
    provider = HydraRuntime(machine).rdma_providers["nic0"]
    label = {"provider": "host/rdma-nic0"}
    for field, value in totals.items():
        sim.metrics.get(f"repro_rdma_{field}_total").labels(**label).inc(
            value)

    imbalance = totals["posted"] - (totals["completed"] + totals["failed"])
    broken = (imbalance != 0 or totals["reads"] + totals["writes"]
              + totals["cas"] != totals["completed"])
    violations = check_rdma_conservation(provider)
    assert bool(violations) == broken
    assert provider.stats.imbalance == imbalance
    snapshot = sim.metrics.snapshot()
    assert sample(snapshot, "repro_rdma_conservation_imbalance",
                  **label) == imbalance
    assert sample(snapshot, "repro_rdma_conservation_violations",
                  **label) == len(violations)


@st.composite
def fleet_books(draw):
    """Per-client ``(sent, delivered, lost)`` near the balanced point,
    split into a random number of shards."""
    books = []
    for _ in range(draw(st.integers(1, 6))):
        delivered = draw(st.integers(0, 5))
        lost = draw(st.integers(0, 3))
        sent = max(0, delivered + lost + draw(st.integers(-1, 1)))
        books.append((sent, delivered, lost))
    return books, draw(st.integers(1, len(books)))


@given(drawn=fleet_books())
@settings(max_examples=60, deadline=None)
def test_fleet_law_reports_exactly_the_broken_books(drawn):
    books, shards = drawn

    def population(gids, config, stream_seed=None):
        return PopulationResult(
            "chunk", [SubscriberStats(gid, *books[gid]) for gid in gids],
            events=0, sim_ns=0)

    config = fleet.FleetConfig(
        population=PopulationConfig(clients=len(books)), shards=shards)
    with patch.object(fleet, "run_population", population):
        report = fleet.run_fleet(config)

    expected = [
        f"shard {shard_id} client {gid}: sent {books[gid][0]} != "
        f"delivered {books[gid][1]} + lost {books[gid][2]}"
        for shard_id, gids in enumerate(fleet.partition(len(books), shards))
        for gid in gids if books[gid][0] != books[gid][1] + books[gid][2]]
    sent, delivered, lost = (sum(column) for column in zip(*books))
    if sent != delivered + lost:
        expected.append(f"aggregate conservation: sent {sent} != "
                        f"delivered {delivered} + lost {lost}")
    assert report.violations == expected
    assert report.ok == (not expected)


@pytest.mark.parametrize("off_by", (1, -1))
def test_filter_law_flags_a_doctored_book(off_by):
    books = {"rx_packets": 10, "spin_handled": 7, "budget_overruns": 3}
    assert FILTER_LAW.check(books) == []
    books["rx_packets"] += off_by
    assert FILTER_LAW.check(books) == [
        f"sPIN filter leaks packets: rx {10 + off_by} != handled 7 "
        f"+ over budget 3"]


@pytest.mark.parametrize("off_by", (1, -1))
def test_exactly_once_law_keeps_the_chaos_text(off_by):
    assert EXACTLY_ONCE_LAW.check({"sent": 40, "handled": 40}) == []
    handled = 40 + off_by
    assert EXACTLY_ONCE_LAW.check({"sent": 40, "handled": handled}) == [
        "stream not exactly-once across migration: "
        f"server sent 40, client handled {handled}"]
