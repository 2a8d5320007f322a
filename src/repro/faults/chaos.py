"""Seeded chaos soak — randomized fault schedules with invariants.

The fault plan and injector make single scripted failures replayable;
this module turns them into a *soak*: a seed deterministically generates
a randomized :class:`~repro.faults.plan.FaultPlan` (channel noise, bus
transients, firmware stalls, a device crash), runs the full offloaded
TiVoPC pipeline under it, and checks a fixed set of invariants — every
incident recovered, crashed devices fenced, exactly-once accounting on
every noise-armed reliable channel, the media pipeline still running
and making progress.  A failing seed is its own reproduction recipe::

    PYTHONPATH=src python -m repro.faults.chaos --seeds 17:18

Everything derives from ``random.Random(seed)`` streams — never wall
clock — so the same seed replays the same failure history byte for
byte (see ``test_chaos_plan_is_deterministic``).
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.core.checkpoint import CheckpointConfig
from repro.core.offcode import OffcodeState
from repro.core.watchdog import WatchdogConfig
from repro.faults.plan import FaultPlan
from repro.resilience import SupervisorConfig
from repro.telemetry.adapters import check_channel_conservation
from repro.telemetry.metrics import Law
from repro.tivopc.client import OffloadedClient
from repro.tivopc.components import StreamerOffcode
from repro.tivopc.server import OffloadedServer
from repro.tivopc.testbed import Testbed, TestbedConfig

__all__ = ["ChaosProfile", "ChaosRun", "ChaosReport", "PROFILES",
           "generate_plan", "run_chaos_scenario", "check_invariants",
           "soak", "main"]

# Mixed into the seed so the plan stream never collides with the
# testbed's own RandomStreams substreams for the same seed.
_PLAN_SALT = 0x5EEDFA17

# The Figure-8 client components every healthy run must keep deployed.
_CLIENT_BINDNAMES = ("tivopc.NetStreamer", "tivopc.DiskStreamer",
                     "tivopc.Decoder", "tivopc.Display", "tivopc.File")

# Exactly-once across a live migration: the client handled every chunk
# the server sent, once.
EXACTLY_ONCE_LAW = Law(
    total="sent", parts=("handled",),
    leak="stream not exactly-once across migration: "
         "server sent {sent}, client handled {handled}")


@dataclass(frozen=True)
class ChaosProfile:
    """Bounds of the randomized fault schedule.

    Defaults are tuned so every draw stays *recoverable*: crashes hit
    only devices the client depot carries fallback builds for, and
    stalls stay shorter than the watchdog's death threshold (a wedged
    firmware that resumes in time is latency, not an incident).
    """

    name: str = "default"
    seconds: float = 6.0                # streaming horizon after warmup
    warmup_seconds: float = 0.2         # client bring-up before the server
    drain_seconds: float = 0.3          # settle time after server stop
    noise_at_s: float = 0.15            # must precede the first chunk
    loss_range: Tuple[float, float] = (0.05, 0.15)
    corrupt_range: Tuple[float, float] = (0.0, 0.05)
    crash_targets: Tuple[str, ...] = ("client.nic0",)
    crash_probability: float = 1.0
    stall_targets: Tuple[str, ...] = ("server.nic0",)
    stall_probability: float = 0.5
    stall_ns_range: Tuple[int, int] = (1 * units.MS, 3 * units.MS)
    bus_targets: Tuple[str, ...] = ("client",)
    max_bus_transients: int = 3
    checkpoint: bool = True
    telemetry: bool = False             # attach a repro.telemetry hub
    scheduler: str = "wheel"            # event queue: "wheel" or "heap"
    # Resilience knobs (the flap/overload/drain presets in PROFILES).
    standby_nic: bool = False           # add "nic1" as a migration target
    supervisor: Optional[SupervisorConfig] = None
    # Scripted live migration mid-stream: > 0 migrates
    # ``migrate_bindname`` at that offset (relative to server start).
    migrate_at_s: float = 0.0
    migrate_bindname: str = "tivopc.NetStreamer"
    migrate_target: Optional[str] = None
    # Deterministic flap schedule: repeated short stalls (well below the
    # watchdog death threshold) that exercise quarantine, not recovery.
    flap_target: str = "client.nic0"
    flap_count: int = 0
    flap_at_s: float = 1.0              # first stall, after server start
    flap_spacing_s: float = 0.02
    flap_stall_ns: int = 3_500_000
    # Which supervisor outcomes the invariant checker demands.
    expect_quarantine: bool = False
    expect_admission: bool = False


# Named presets for the chaos CLI (``--profile``).  Each is a complete
# ChaosProfile; command-line overrides (``--seconds``) are applied on
# top with dataclasses.replace.
PROFILES: Dict[str, ChaosProfile] = {
    # The original soak: noise + transients + one hard crash.
    "default": ChaosProfile(),
    # Planned drain: no failures at all — a scripted live migration of
    # the network Streamer onto the client's standby NIC mid-stream.
    # The invariants demand a completed cutover and an exactly-once
    # stream (every packet the server sent handled exactly once).
    "drain": ChaosProfile(
        name="drain", crash_probability=0.0, stall_probability=0.0,
        standby_nic=True, supervisor=SupervisorConfig(),
        migrate_at_s=2.0, migrate_target="nic1"),
    # Flapping firmware: bursts of sub-threshold stalls on the client
    # NIC.  No device ever dies; the supervisor must quarantine the
    # flapper (exactly once per burst), drain it, and un-quarantine it
    # after probation.
    "flap": ChaosProfile(
        name="flap", crash_probability=0.0, stall_probability=0.0,
        flap_count=3, supervisor=SupervisorConfig(),
        expect_quarantine=True),
    # Overload: heavy channel noise drives the retransmit-rate EWMA
    # over the brownout threshold; the supervisor must engage
    # priority-aware admission control at the executive.
    "overload": ChaosProfile(
        name="overload", crash_probability=0.0, stall_probability=0.0,
        loss_range=(0.25, 0.35),
        supervisor=SupervisorConfig(brownout_enter=50.0,
                                    brownout_exit=10.0),
        expect_admission=True),
}


def generate_plan(seed: int, profile: Optional[ChaosProfile] = None
                  ) -> FaultPlan:
    """Deterministically derive a fault schedule from ``seed``."""
    profile = profile or ChaosProfile()
    rng = random.Random((seed << 1) ^ _PLAN_SALT)
    plan = FaultPlan()

    # Channel noise arms before the first media chunk flows, so the
    # reliable data plane's wire-attempt accounting covers the whole
    # stream and the exactly-once identity is checkable afterwards.
    plan.channel_noise(
        round(profile.noise_at_s * units.SECOND),
        StreamerOffcode.DATA_LABEL,
        loss=rng.uniform(*profile.loss_range),
        corrupt=rng.uniform(*profile.corrupt_range))

    start_ns = round(profile.warmup_seconds * units.SECOND)
    horizon_ns = start_ns + round(profile.seconds * units.SECOND)

    # Bus transients: soft errors sprinkled through the stream.
    for _ in range(rng.randint(0, profile.max_bus_transients)):
        plan.bus_transients(rng.randint(start_ns, horizon_ns),
                            rng.choice(profile.bus_targets),
                            count=rng.randint(1, 3))

    # A short firmware stall — below the watchdog threshold, so it must
    # NOT produce an incident.
    if profile.stall_targets and rng.random() < profile.stall_probability:
        plan.stall_device(
            rng.randint(start_ns + round(0.5 * units.SECOND),
                        horizon_ns - round(1.0 * units.SECOND)),
            rng.choice(profile.stall_targets),
            duration_ns=rng.randint(*profile.stall_ns_range))

    # One hard crash mid-stream; the window leaves room for detection,
    # degraded redeploy, and a meaningful post-recovery stream.
    if profile.crash_targets and rng.random() < profile.crash_probability:
        plan.crash_device(
            rng.randint(start_ns + round(0.8 * units.SECOND),
                        horizon_ns - round(2.0 * units.SECOND)),
            rng.choice(profile.crash_targets))

    # Deterministic flap burst (flap profile): each stall is shorter
    # than the watchdog's death threshold, so the device oscillates
    # suspect→alive without ever producing an incident — exactly the
    # signal the supervisor's flap detector quarantines on.
    for i in range(profile.flap_count):
        plan.stall_device(
            start_ns + round((profile.flap_at_s
                              + i * profile.flap_spacing_s) * units.SECOND),
            profile.flap_target, duration_ns=profile.flap_stall_ns)
    return plan


@dataclass
class ChaosRun:
    """Everything a completed scenario exposes to the invariant checker."""

    seed: int
    profile: ChaosProfile
    plan: FaultPlan
    testbed: Testbed
    client: OffloadedClient
    server: OffloadedServer
    # Scripted-migration outcome: {"record": MigrationRecord} on
    # success, {"error": exc} on failure, empty when none was scheduled.
    migration: dict = field(default_factory=dict)


@dataclass
class ChaosReport:
    """Verdict for one seed."""

    seed: int
    violations: List[str] = field(default_factory=list)
    incidents: int = 0
    retransmits: int = 0
    dup_dropped: int = 0
    chunks_received: int = 0
    migrations: int = 0

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations


def run_chaos_scenario(seed: int, profile: Optional[ChaosProfile] = None
                       ) -> ChaosRun:
    """Run the offloaded TiVoPC pipeline under the seed's fault plan.

    Staging matters: the client deploys and the noise arms during the
    warmup window, *then* the server starts — so every media chunk
    crosses an already-noise-armed reliable channel.  After the horizon
    the server stops and the run drains, letting in-flight frames land
    before the invariants take their snapshot.
    """
    profile = profile or ChaosProfile()
    plan = generate_plan(seed, profile)
    testbed = Testbed(TestbedConfig(
        seed=seed, fault_plan=plan, watchdog=WatchdogConfig(),
        checkpoint=CheckpointConfig() if profile.checkpoint else None,
        telemetry=profile.telemetry,
        standby_nic=profile.standby_nic,
        supervisor=profile.supervisor,
        scheduler=profile.scheduler))
    testbed.start()
    client = OffloadedClient(testbed, host_fallback=True)
    client.start()
    testbed.run(profile.warmup_seconds)
    server = OffloadedServer(testbed)
    server.start()
    migration: dict = {}
    if profile.migrate_at_s > 0.0:
        before = min(profile.migrate_at_s, profile.seconds)
        testbed.run(before)
        testbed.sim.spawn(
            _scripted_migration(testbed, profile, migration),
            name="chaos-migrate")
        testbed.run(profile.seconds - before)
    else:
        testbed.run(profile.seconds)
    server.stop()
    testbed.run(profile.drain_seconds)
    return ChaosRun(seed=seed, profile=profile, plan=plan,
                    testbed=testbed, client=client, server=server,
                    migration=migration)


def _scripted_migration(testbed: Testbed, profile: ChaosProfile,
                        outcome: dict):
    """Disposable wrapper: a failed migration must surface as an
    invariant violation, not crash the simulator (nobody awaits this)."""
    try:
        record = yield from testbed.client_runtime.migrate(
            profile.migrate_bindname, target=profile.migrate_target)
    except Exception as exc:
        outcome["error"] = exc
    else:
        outcome["record"] = record


def check_invariants(run: ChaosRun) -> List[str]:
    """The soak's pass/fail oracle; returns human-readable violations."""
    violations: List[str] = []
    testbed = run.testbed
    injector = testbed.fault_injector

    # 1. The schedule actually executed.
    for event in injector.skipped:
        violations.append(
            f"fault event not applied: {event.kind.value} "
            f"on {event.target!r} at {event.at_ns} ns")

    # 2. Every incident recovered (and none failed outright).
    runtimes = {"client": testbed.client_runtime,
                "server": testbed.server_runtime}
    for name, runtime in runtimes.items():
        for incident in runtime.incidents:
            if incident.failed or not incident.recovered:
                violations.append(
                    f"{name} incident on {incident.device!r} not "
                    f"recovered (error={incident.error!r})")

    # 3. Crashed devices were detected and fenced.
    for event in injector.applied:
        if event.kind.value != "device-crash":
            continue
        host, _, device = event.target.partition(".")
        runtime = runtimes.get(host)
        if runtime is None or device not in runtime.failed_devices:
            violations.append(
                f"crashed device {event.target!r} never detected")
            continue
        health = injector.devices[event.target].health
        if health.state not in (health.CRASHED, health.FENCED):
            violations.append(
                f"crashed device {event.target!r} is {health.state}, "
                "neither crashed nor fenced")

    # 4. Exactly-once accounting on every noise-armed reliable channel.
    for runtime in runtimes.values():
        violations.extend(check_channel_conservation(runtime.executive))

    # 5. The Figure-8 pipeline survived: every component deployed and
    #    running on a healthy site.
    for bindname in _CLIENT_BINDNAMES:
        offcode = testbed.client_runtime.locate(bindname)
        if offcode is None:
            violations.append(f"{bindname} missing after the soak")
        elif offcode.state != OffcodeState.RUNNING:
            violations.append(
                f"{bindname} is {offcode.state.name}, not RUNNING")

    # 6. The stream made real progress end to end.
    if run.server.packets_sent == 0:
        violations.append("server sent no packets")
    if run.client.chunks_received == 0:
        violations.append("client handled no chunks")
    if run.client.frames_shown == 0:
        violations.append("no frames reached the display")
    if run.client.bytes_recorded == 0:
        violations.append("nothing reached the recording")

    # 7. Scripted live migration (drain profile): the cutover completed
    #    on the requested target with every unacked queue drained, and
    #    the stream stayed exactly-once across it — every chunk the
    #    server sent was handled exactly once (no loss, no duplicates).
    profile = run.profile
    if profile.migrate_at_s > 0.0:
        record = run.migration.get("record")
        error = run.migration.get("error")
        if error is not None:
            violations.append(f"live migration raised: {error!r}")
        elif record is None:
            violations.append("live migration never completed")
        else:
            if not record.completed:
                violations.append(
                    f"migration of {record.bindname!r} did not complete "
                    f"(error={record.error!r})")
            if (profile.migrate_target is not None
                    and record.destination != profile.migrate_target):
                violations.append(
                    f"migration landed on {record.destination!r}, "
                    f"wanted {profile.migrate_target!r}")
            if not record.drained:
                violations.append(
                    "migration cut over with unacked messages in flight")
        violations.extend(EXACTLY_ONCE_LAW.check(
            {"sent": run.server.packets_sent,
             "handled": run.client.chunks_received}))

    # 8. Supervisor policy outcomes demanded by the profile.
    supervisor = testbed.client_runtime.supervisor
    if profile.expect_quarantine:
        if supervisor is None or supervisor.quarantines != 1:
            count = supervisor.quarantines if supervisor else 0
            violations.append(
                f"expected exactly one quarantine, saw {count}")
        elif supervisor.config.drain and supervisor.drains_completed == 0:
            violations.append(
                "quarantine drained nothing "
                f"(started={supervisor.drains_started} "
                f"failed={supervisor.drains_failed})")
        if testbed.client_runtime.incidents:
            violations.append(
                "sub-threshold flapping produced a recovery incident")
    if profile.expect_admission:
        if supervisor is None or supervisor.admission.engagements == 0:
            violations.append(
                "overload never engaged admission control "
                f"(retransmit EWMA peaked below the brownout threshold)")
    return violations


def _report(run: ChaosRun) -> ChaosReport:
    retransmits = dup_dropped = 0
    for runtime in (run.testbed.client_runtime, run.testbed.server_runtime):
        for channel in runtime.executive.channels:
            stats = channel.stats()
            retransmits += stats.retransmits
            dup_dropped += stats.dup_dropped
    return ChaosReport(
        seed=run.seed, violations=check_invariants(run),
        incidents=(len(run.testbed.client_runtime.incidents)
                   + len(run.testbed.server_runtime.incidents)),
        retransmits=retransmits, dup_dropped=dup_dropped,
        chunks_received=run.client.chunks_received,
        migrations=(len(run.testbed.client_runtime.migrations)
                    + len(run.testbed.server_runtime.migrations)))


def soak(seeds: Sequence[int],
         profile: Optional[ChaosProfile] = None,
         verbose: bool = False) -> List[ChaosReport]:
    """Run every seed and report; printing is left to :func:`main`."""
    reports = []
    for seed in seeds:
        report = _report(run_chaos_scenario(seed, profile))
        reports.append(report)
        if verbose:
            status = "ok" if report.ok else "FAIL"
            print(f"seed {seed:4d}: {status}  "
                  f"incidents={report.incidents} "
                  f"migrations={report.migrations} "
                  f"retransmits={report.retransmits} "
                  f"dup_dropped={report.dup_dropped} "
                  f"chunks={report.chunks_received}")
            for violation in report.violations:
                print(f"           - {violation}")
    return reports


def _parse_seeds(spec: str) -> List[int]:
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        return list(range(int(lo), int(hi)))
    return [int(part) for part in spec.split(",")]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.faults.chaos --seeds 0:50 --profile drain``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0:10",
                        help="seed range 'LO:HI' (half-open) or 'a,b,c'")
    parser.add_argument("--profile", default="default",
                        choices=sorted(PROFILES),
                        help="fault-schedule preset: default (noise + "
                             "crash), drain (scripted live migration), "
                             "flap (quarantine), overload (admission)")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="streaming horizon per seed (sim seconds)")
    parser.add_argument("--no-checkpoint", action="store_true",
                        help="soak without periodic checkpointing")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="run the first seed with telemetry attached "
                             "and write trace/metrics artifacts to DIR")
    args = parser.parse_args(argv)
    profile = replace(PROFILES[args.profile], seconds=args.seconds,
                      checkpoint=not args.no_checkpoint)
    seeds = _parse_seeds(args.seeds)
    reports: List[ChaosReport] = []
    if args.artifacts and seeds:
        from repro.telemetry.export import write_artifacts
        traced = run_chaos_scenario(seeds[0],
                                    replace(profile, telemetry=True))
        paths = write_artifacts(
            traced.testbed.telemetry, args.artifacts,
            prefix=f"chaos-{args.profile}-seed{seeds[0]}")
        for fmt, path in sorted(paths.items()):
            print(f"artifact [{fmt}]: {path}")
        report = _report(traced)
        reports.append(report)
        status = "ok" if report.ok else "FAIL"
        print(f"seed {report.seed:4d}: {status}  (traced)")
        for violation in report.violations:
            print(f"           - {violation}")
        seeds = seeds[1:]
    reports.extend(soak(seeds, profile, verbose=True))
    failed = [r for r in reports if not r.ok]
    print(f"{len(reports) - len(failed)}/{len(reports)} seeds passed")
    for report in failed:
        print(f"reproduce: PYTHONPATH=src python -m repro.faults.chaos "
              f"--seeds {report.seed}:{report.seed + 1} "
              f"--profile {args.profile} "
              f"--seconds {args.seconds}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
