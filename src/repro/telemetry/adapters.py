"""Adapters absorbing the repo's scattered counters into the registry.

Instrumentation grew up in four ad-hoc places — :class:`ChannelStats`
snapshots, ``marshal.stats``, :class:`RecoveryIncident` lists, bus
crossing dicts — each with its own access idiom.  The adapters here
leave those counters authoritative (no behaviour change, no hot-path
cost) and register scrape-time *collectors* that mirror them into a
:class:`~repro.telemetry.metrics.MetricsRegistry`, so one
``registry.snapshot()`` carries the whole quantitative state of a run.

The channel conservation law (``sent == delivered + dropped``) becomes a
first-class metric here: every channel exports its imbalance as a gauge
and rel-armed channels are checked against the chaos soak's slack rule
(:func:`check_channel_conservation`), with the violation count exported
per runtime.

Collectors read live objects lazily at collect time, so channels or
watchdogs created *after* binding are picked up automatically.
"""

from __future__ import annotations

from typing import List

from repro.core import marshal
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["bind_marshal", "bind_bus", "bind_sim", "bind_runtime",
           "bind_injector", "bind_rdma", "bind_testbed",
           "check_channel_conservation", "check_rdma_conservation"]

_CHANNEL_COUNTERS = (
    ("repro_channel_sent_total", "sent", "Messages sent (wire attempts)"),
    ("repro_channel_delivered_total", "delivered",
     "Messages delivered to receivers"),
    ("repro_channel_dropped_total", "dropped",
     "Messages lost, mangled or duplicate-suppressed in flight"),
    ("repro_channel_corrupted_total", "corrupted",
     "Messages corrupted in flight"),
    ("repro_channel_bytes_total", "bytes", "Payload bytes sent"),
    ("repro_channel_batches_total", "batches", "Vectored batches sent"),
    ("repro_channel_retransmits_total", "retransmits",
     "Reliable-protocol retransmissions"),
    ("repro_channel_dup_dropped_total", "dup_dropped",
     "Duplicate frames suppressed by the receiver"),
)


def bind_marshal(registry: MetricsRegistry) -> None:
    """Export ``marshal.stats`` encode/decode counts.

    ``marshal.stats`` is process-global, so a baseline is captured at
    bind time and the registry exports the *delta* — keeping snapshots
    of a seeded run identical however many runs preceded it in the same
    interpreter.
    """
    base_encodes = marshal.stats.encodes
    base_decodes = marshal.stats.decodes
    encodes = registry.counter(
        "repro_marshal_encodes_total",
        help="Full argument serializations since telemetry bind")
    decodes = registry.counter(
        "repro_marshal_decodes_total",
        help="Argument deserializations since telemetry bind")

    def collect(_registry: MetricsRegistry) -> None:
        encodes.set_total(marshal.stats.encodes - base_encodes)
        decodes.set_total(marshal.stats.decodes - base_decodes)

    registry.register_collector(collect)


def bind_bus(registry: MetricsRegistry, bus, name: str) -> None:
    """Export one bus's movement counters under the ``bus`` label."""
    bytes_moved = registry.counter(
        "repro_bus_bytes_moved_total", help="Bytes moved over the bus",
        labels=("bus",)).labels(bus=name)
    transfers = registry.counter(
        "repro_bus_transfers_total", help="Completed bus transactions",
        labels=("bus",)).labels(bus=name)
    sg_transfers = registry.counter(
        "repro_bus_sg_transfers_total",
        help="Scatter-gather transactions", labels=("bus",)).labels(bus=name)
    transients = registry.counter(
        "repro_bus_transient_faults_total",
        help="Injected transient faults replayed on the bus",
        labels=("bus",)).labels(bus=name)

    def collect(_registry: MetricsRegistry) -> None:
        bytes_moved.set_total(bus.bytes_moved)
        transfers.set_total(sum(bus.crossings.values()))
        sg_transfers.set_total(bus.sg_transfers)
        transients.set_total(bus.transient_faults)

    registry.register_collector(collect)


def bind_sim(registry: MetricsRegistry, sim) -> None:
    """Export the scheduler core's observability counters.

    ``repro_sim_dead_timers`` is the wheel's cancelled-but-unreclaimed
    entry gauge: cancellations that could not be removed in place (the
    entry had already been promoted to the sorted window or parked in
    the overflow heap) sit in the queue until popped or swept by
    ``Simulator.reclaim()``.  A gauge stuck high means cancelled timers
    are accumulating faster than the reclaim threshold sweeps them.
    """
    events = registry.counter(
        "repro_sim_events_total", help="Events dispatched by the scheduler")
    fused = registry.counter(
        "repro_sim_fused_resumes_total",
        help="Events dispatched via the fused-sleep fast path")
    dead = registry.gauge(
        "repro_sim_dead_timers",
        help="Cancelled timer entries awaiting lazy removal from the wheel")

    def collect(_registry: MetricsRegistry) -> None:
        events.set_total(sim.events_processed)
        fused.set_total(sim.fused_resumes)
        dead.set(sim.dead_timers)

    registry.register_collector(collect)


def check_channel_conservation(executive) -> List[str]:
    """The conservation law as a checkable predicate.

    The chaos soak's oracle: on every noise-armed reliable channel
    ``sent - (delivered + dropped)`` must be 0, with one frame of slack
    on a channel torn down mid-flight.  Returns human-readable
    violations (empty = law holds).
    """
    violations: List[str] = []
    for channel in executive.channels:
        if channel._rel is None:
            continue
        stats = channel.stats()
        imbalance = stats.sent - (stats.delivered + stats.dropped)
        slack = 1 if channel.closed else 0
        if not 0 <= imbalance <= slack:
            violations.append(
                f"channel #{stats.channel_id} ({stats.label!r}) leaks "
                f"accounting: sent={stats.sent} "
                f"delivered={stats.delivered} dropped={stats.dropped}")
        if stats.corrupted + stats.dup_dropped > stats.dropped:
            violations.append(
                f"channel #{stats.channel_id} ({stats.label!r}) drop "
                "breakdown exceeds total drops")
    return violations


_RDMA_COUNTERS = (
    ("repro_rdma_reads_total", "reads", "One-sided read verbs completed"),
    ("repro_rdma_writes_total", "writes",
     "One-sided write verbs completed"),
    ("repro_rdma_cas_total", "cas",
     "One-sided compare-and-swap verbs completed"),
    ("repro_rdma_doorbells_total", "doorbells",
     "Doorbell rings (one per submitted batch)"),
    ("repro_rdma_posted_total", "posted", "Work requests posted"),
    ("repro_rdma_completed_total", "completed",
     "Work requests completed successfully"),
    ("repro_rdma_failed_total", "failed",
     "Work requests completed with error status"),
    ("repro_rdma_bytes_read_total", "bytes_read",
     "Bytes moved by one-sided reads"),
    ("repro_rdma_bytes_written_total", "bytes_written",
     "Bytes moved by one-sided writes"),
)


def check_rdma_conservation(provider) -> List[str]:
    """The one-sided conservation law as a checkable predicate.

    Verbs never traverse the two-sided dispatch path, so
    ``sent == delivered + dropped`` cannot describe them; the one-sided
    law is ``posted == completed + failed`` — every posted work request
    terminates as exactly one completion, successful or errored, even
    when the engine crashes mid-doorbell.  Returns human-readable
    violations (empty = law holds).
    """
    stats = provider.stats
    violations: List[str] = []
    if stats.imbalance != 0:
        violations.append(
            f"provider {provider.name} leaks work requests: "
            f"posted={stats.posted} completed={stats.completed} "
            f"failed={stats.failed} (imbalance {stats.imbalance})")
    if stats.reads + stats.writes + stats.cas != stats.completed:
        violations.append(
            f"provider {provider.name} verb breakdown "
            f"(reads={stats.reads} writes={stats.writes} cas={stats.cas}) "
            f"does not sum to completed={stats.completed}")
    return violations


def bind_rdma(registry: MetricsRegistry, provider, name: str) -> None:
    """Export one RDMA provider's one-sided verb counters.

    Mirrors :attr:`~repro.rdma.verbs.RdmaStats` into the registry under
    the ``provider`` label and exports the one-sided conservation law
    (``posted == completed + failed``) as an imbalance gauge plus a
    violation count, the same shape as the channel law.
    """
    labels = {"provider": name}
    families = [(registry.counter(metric, help=help_text,
                                  labels=("provider",)).labels(**labels),
                 attr)
                for metric, attr, help_text in _RDMA_COUNTERS]
    imbalance_gauge = registry.gauge(
        "repro_rdma_conservation_imbalance",
        help="posted - (completed + failed); nonzero = work requests "
             "lost in flight",
        labels=("provider",)).labels(**labels)
    violation_gauge = registry.gauge(
        "repro_rdma_conservation_violations",
        help="RDMA providers violating the one-sided conservation law",
        labels=("provider",)).labels(**labels)

    def collect(_registry: MetricsRegistry) -> None:
        stats = provider.stats
        for family, attr in families:
            family.set_total(getattr(stats, attr))
        imbalance_gauge.set(stats.imbalance)
        violation_gauge.set(len(check_rdma_conservation(provider)))

    registry.register_collector(collect)


def bind_runtime(registry: MetricsRegistry, runtime, name: str) -> None:
    """Export one HYDRA runtime: channels, conservation, recovery,
    watchdog.

    Channels are enumerated at collect time, so channels created after
    binding (recovery replacements included) appear automatically.
    """
    channel_labels = ("runtime", "channel", "label")
    families = [(registry.counter(metric, help=help_text,
                                  labels=channel_labels), attr)
                for metric, attr, help_text in _CHANNEL_COUNTERS]
    imbalance_gauge = registry.gauge(
        "repro_channel_conservation_imbalance",
        help="sent - (delivered + dropped); in-flight frames on "
             "unreliable or multicast channels keep this non-zero",
        labels=channel_labels)
    violation_gauge = registry.gauge(
        "repro_channel_conservation_violations",
        help="Rel-armed channels violating the conservation law",
        labels=("runtime",)).labels(runtime=name)
    incident_gauge = registry.gauge(
        "repro_recovery_incidents",
        help="Device-failure incidents by outcome",
        labels=("runtime", "state"))
    replayed = registry.counter(
        "repro_recovery_replayed_total",
        help="Unacked messages replayed on replacement channels",
        labels=("runtime",)).labels(runtime=name)
    beats = registry.counter(
        "repro_watchdog_beats_total",
        help="Completed heartbeat rounds", labels=("runtime", "device"))
    missed = registry.gauge(
        "repro_watchdog_missed_beats",
        help="Consecutive missed heartbeats (0 = healthy)",
        labels=("runtime", "device"))
    migrations = registry.gauge(
        "repro_migrations",
        help="Live offcode migrations by outcome",
        labels=("runtime", "state"))
    migration_replayed = registry.counter(
        "repro_migration_replayed_total",
        help="Unacked messages replayed during migration cutovers",
        labels=("runtime",)).labels(runtime=name)
    migration_shed = registry.counter(
        "repro_migration_shed_total",
        help="Calls shed at migration holding gates (queue overflow)",
        labels=("runtime",)).labels(runtime=name)
    quarantined = registry.gauge(
        "repro_quarantined_devices",
        help="Devices currently quarantined by the supervisor",
        labels=("runtime",)).labels(runtime=name)
    supervisor_actions = registry.counter(
        "repro_supervisor_decisions_total",
        help="Supervisor policy decisions by action",
        labels=("runtime", "action"))
    admission_shed = registry.counter(
        "repro_admission_shed_total",
        help="Calls shed by admission control, by channel priority",
        labels=("runtime", "priority"))
    admission_engaged = registry.gauge(
        "repro_admission_engaged",
        help="1 while priority-aware load shedding is engaged",
        labels=("runtime",)).labels(runtime=name)

    def collect(_registry: MetricsRegistry) -> None:
        for channel in runtime.executive.channels:
            stats = channel.stats()
            labels = {"runtime": name,
                      "channel": str(stats.channel_id),
                      "label": stats.label}
            for family, attr in families:
                family.labels(**labels).set_total(getattr(stats, attr))
            imbalance_gauge.labels(**labels).set(
                stats.sent - (stats.delivered + stats.dropped))
        violation_gauge.set(
            len(check_channel_conservation(runtime.executive)))
        counts = {"recovered": 0, "failed": 0, "pending": 0}
        total_replayed = 0
        for incident in runtime.incidents:
            if incident.recovered:
                counts["recovered"] += 1
            elif incident.failed:
                counts["failed"] += 1
            else:
                counts["pending"] += 1
            total_replayed += incident.replayed
        for state, count in counts.items():
            incident_gauge.labels(runtime=name, state=state).set(count)
        replayed.set_total(total_replayed)
        watchdog = runtime.watchdog
        if watchdog is not None:
            for device, watch in watchdog._watches.items():
                beats.labels(runtime=name, device=device).set_total(
                    watch.beats)
                missed.labels(runtime=name, device=device).set(watch.missed)
        migration_counts = {"completed": 0, "failed": 0, "pending": 0}
        replayed_in_migration = shed_at_gates = 0
        for record in runtime.migrations:
            if record.completed:
                migration_counts["completed"] += 1
            elif record.failed:
                migration_counts["failed"] += 1
            else:
                migration_counts["pending"] += 1
            replayed_in_migration += record.replayed
            shed_at_gates += record.shed
        for state, count in migration_counts.items():
            migrations.labels(runtime=name, state=state).set(count)
        migration_replayed.set_total(replayed_in_migration)
        migration_shed.set_total(shed_at_gates)
        quarantined.set(len(runtime.quarantined_devices))
        supervisor = runtime.supervisor
        if supervisor is not None:
            actions: dict = {}
            for decision in supervisor.decisions:
                actions[decision.action] = actions.get(
                    decision.action, 0) + 1
            for action, count in actions.items():
                supervisor_actions.labels(
                    runtime=name, action=action).set_total(count)
            for priority, count in supervisor.admission.shed_by_priority.items():
                admission_shed.labels(
                    runtime=name, priority=str(priority)).set_total(count)
            admission_engaged.set(1 if supervisor.admission.engaged else 0)

    registry.register_collector(collect)
    # One-sided substrates ride along: every RDMA provider the runtime
    # registered gets its verb counters and conservation gauge too.
    for provider in getattr(runtime, "rdma_providers", {}).values():
        bind_rdma(registry, provider, f"{name}/{provider.name}")


def bind_injector(registry: MetricsRegistry, injector) -> None:
    """Export the fault injector's applied/skipped schedule progress."""
    counts = registry.counter(
        "repro_faults_total", help="Scheduled fault events by outcome",
        labels=("outcome",))
    applied = counts.labels(outcome="applied")
    skipped = counts.labels(outcome="skipped")

    def collect(_registry: MetricsRegistry) -> None:
        applied.set_total(len(injector.applied))
        skipped.set_total(len(injector.skipped))

    registry.register_collector(collect)


def bind_testbed(registry: MetricsRegistry, testbed) -> None:
    """Bind every observable subsystem of a TiVoPC testbed."""
    bind_marshal(registry)
    bind_sim(registry, testbed.sim)
    for host in (testbed.nas, testbed.server, testbed.client):
        bind_bus(registry, host.machine.bus, host.name)
    bind_runtime(registry, testbed.server_runtime, "server")
    bind_runtime(registry, testbed.client_runtime, "client")
    if testbed.fault_injector is not None:
        bind_injector(registry, testbed.fault_injector)
