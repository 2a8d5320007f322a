"""Tests for the metrics registry and the legacy-counter adapters.

The registry half is pure unit testing (Prometheus semantics: monotone
counters, labelled families, cumulative histogram buckets).  The
adapter half runs the chaos soak's fast subset with telemetry attached
and asserts the channel conservation law — ``sent == delivered +
dropped`` on every noise-armed reliable channel — holds and is exported
as a first-class metric, alongside the absorbed ``marshal.stats``
counters; hand-built channels check that each violation is reported.
"""

import pytest

from repro.core.channel import ChannelStats
from repro.errors import ReproError
from repro.faults.chaos import ChaosProfile, run_chaos_scenario
from repro.telemetry import MetricsRegistry
from repro.telemetry.adapters import check_channel_conservation

# -- counters / gauges / histograms ------------------------------------------------


def test_counter_is_monotone():
    registry = MetricsRegistry()
    calls = registry.counter("calls_total")
    calls.inc()
    calls.inc(4)
    assert calls.value == 5
    with pytest.raises(ReproError):
        calls.inc(-1)
    calls.set_total(9)                    # absorbing a larger total is fine
    assert calls.value == 9
    with pytest.raises(ReproError):
        calls.set_total(3)                # counters never regress


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("queue_depth")
    gauge.set(10)
    gauge.inc(2)
    gauge.dec(5)
    assert gauge.value == 7


def test_histogram_buckets_are_inclusive_and_cumulative():
    hist = MetricsRegistry().histogram("lat", buckets=(10, 100)).labels()
    for value in (5, 10, 11, 250):
        hist.observe(value)
    # le=10 counts the exact-boundary observation; +Inf counts all.
    assert hist.cumulative() == [(10, 2), (100, 3), (float("inf"), 4)]
    assert (hist.count, hist.sum) == (4, 276)


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ReproError):
        registry.histogram("h1", buckets=(100, 10))     # unsorted
    with pytest.raises(ReproError):
        registry.histogram("h2", buckets=(10, 10))      # duplicate
    with pytest.raises(ReproError):
        registry.histogram("h3", buckets=())            # empty


# -- families and labels ------------------------------------------------------------


def test_label_validation():
    registry = MetricsRegistry()
    with pytest.raises(ReproError):
        registry.counter("bad name")
    with pytest.raises(ReproError):
        registry.counter("ok_total", labels=("bad-label",))
    with pytest.raises(ReproError):
        registry.counter("dup_total", labels=("a", "a"))
    family = registry.counter("good_total", labels=("method",))
    with pytest.raises(ReproError):
        family.labels(wrong="x")          # label set must match exactly
    with pytest.raises(ReproError):
        family.inc()                      # labelled family needs .labels()


def test_labelled_children_are_cached_and_sorted():
    family = MetricsRegistry().counter("hits_total", labels=("method",))
    family.labels(method="Pause").inc(2)
    family.labels(method="Play").inc()
    assert family.labels(method="Pause").value == 2   # same child back
    assert [values for values, _ in family.samples()] == [
        ("Pause",), ("Play",)]


def test_registry_idempotent_registration_and_conflicts():
    registry = MetricsRegistry()
    first = registry.counter("x_total", labels=("a",))
    assert registry.counter("x_total", labels=("a",)) is first
    with pytest.raises(ReproError):
        registry.gauge("x_total", labels=("a",))      # kind conflict
    with pytest.raises(ReproError):
        registry.counter("x_total", labels=("b",))    # label conflict
    with pytest.raises(ReproError):
        registry.get("never_registered")
    assert registry.get("x_total") is first


def test_collectors_run_at_snapshot_time():
    registry = MetricsRegistry()
    registry.counter("absorbed_total")
    live = {"count": 3}
    registry.register_collector(
        lambda reg: reg.get("absorbed_total").set_total(live["count"]))
    assert registry.snapshot()["absorbed_total"]["samples"][0]["value"] == 3
    live["count"] = 8                     # legacy counter stays authoritative
    assert registry.snapshot()["absorbed_total"]["samples"][0]["value"] == 8


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.gauge("depth", help="queue depth", labels=("q",)) \
        .labels(q="rx").set(4)
    registry.histogram("lat", buckets=(10,)).observe(3)
    snap = registry.snapshot()
    assert snap["depth"] == {
        "type": "gauge", "help": "queue depth",
        "samples": [{"labels": {"q": "rx"}, "value": 4}]}
    assert snap["lat"]["samples"][0] == {
        "labels": {}, "count": 1, "sum": 3, "buckets": [[10, 1]]}


# -- the conservation checker on hand-built channels -------------------------------


class _FakeChannel:
    def __init__(self, channel_id, sent, delivered, dropped, corrupted=0,
                 dup_dropped=0, closed=False, rel=True):
        self._rel = object() if rel else None
        self.closed = closed
        self._stats = ChannelStats(
            channel_id=channel_id, label="fake", sent=sent,
            delivered=delivered, dropped=dropped, corrupted=corrupted,
            bytes=0, dup_dropped=dup_dropped)

    def stats(self):
        return self._stats


class _FakeExecutive:
    def __init__(self, *channels):
        self.channels = list(channels)


def test_conservation_checker_reports_each_violation():
    executive = _FakeExecutive(
        _FakeChannel(1, sent=5, delivered=3, dropped=1),
        _FakeChannel(2, sent=6, delivered=4, dropped=0, closed=True),
        _FakeChannel(3, sent=4, delivered=2, dropped=2, corrupted=2,
                     dup_dropped=1),
        _FakeChannel(4, sent=5, delivered=4, dropped=0, closed=True),
        _FakeChannel(5, sent=9, delivered=0, dropped=0, rel=False))
    assert check_channel_conservation(executive) == [
        "channel #1 ('fake') leaks accounting: sent=5 delivered=3 "
        "dropped=1",
        "channel #2 ('fake') leaks accounting: sent=6 delivered=4 "
        "dropped=0",
        "channel #3 ('fake') drop breakdown exceeds total drops",
    ]


# -- conservation law under chaos ----------------------------------------------------


@pytest.fixture(scope="module")
def chaos_run():
    """The soak's fast subset: one seeded scenario, telemetry attached."""
    return run_chaos_scenario(5, ChaosProfile(seconds=3.0, telemetry=True))


def test_conservation_law_holds_after_chaos(chaos_run):
    testbed = chaos_run.testbed
    assert check_channel_conservation(testbed.server_runtime.executive) == []
    assert check_channel_conservation(testbed.client_runtime.executive) == []
    # The law is also a first-class exported metric, not just a test
    # helper: the violation gauge reads zero for both runtimes.
    snap = testbed.telemetry.registry.snapshot()
    violations = snap["repro_channel_conservation_violations"]["samples"]
    assert {s["labels"]["runtime"]: s["value"] for s in violations} == {
        "server": 0, "client": 0}


def test_chaos_metrics_absorb_legacy_counters(chaos_run):
    testbed = chaos_run.testbed
    snap = testbed.telemetry.registry.snapshot()
    # marshal.stats flows through the registry (bind-time baseline).
    # Decodes stay zero here — the chaos pipeline is all one-way media
    # calls — so only assert the family is exported.
    assert snap["repro_marshal_encodes_total"]["samples"][0]["value"] > 0
    assert snap["repro_marshal_decodes_total"]["samples"][0]["value"] >= 0
    # Channel accounting: the noisy media channel moved real traffic and
    # the per-channel samples mirror the authoritative ChannelStats.
    sent = {tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["repro_channel_sent_total"]["samples"]}
    assert sum(sent.values()) > 0
    stats = {str(c.stats().channel_id): c.stats()
             for c in testbed.client_runtime.executive.channels}
    for labels, value in sent.items():
        labels = dict(labels)
        if labels["runtime"] != "client":
            continue
        assert value == stats[labels["channel"]].sent
    # The fault injector's schedule progress is visible too.
    outcomes = {s["labels"]["outcome"]: s["value"]
                for s in snap["repro_faults_total"]["samples"]}
    assert outcomes["applied"] == len(testbed.fault_injector.applied)
    assert outcomes["applied"] > 0


def test_chaos_traces_cover_recovery_and_faults(chaos_run):
    telemetry = chaos_run.testbed.telemetry
    # The crash produced a recovery span with its outcome recorded ...
    recoveries = telemetry.spans_of("recovery")
    assert recoveries and all(s.attrs["recovered"] for s in recoveries)
    # ... and the injector's events appear as instants on the faults
    # track (the log bridge mirrors other category-"fault" emits onto
    # "log/fault", so filter by track).
    fault_marks = [e for e in telemetry.events if e.track == "faults"]
    assert len(fault_marks) == len(chaos_run.testbed.fault_injector.applied)
    # Retransmit branches of the span model fired under channel noise.
    assert any(s.name == "channel.exchange" for s in telemetry.spans)
