"""Resilience tests: live migration, supervisor policy, jittered backoff.

The robustness PR's tentpole is ``HydraRuntime.migrate`` — a planned,
lossless cutover — plus the self-healing supervisor that uses it.
These tests drive each piece in the small world fixture (one machine,
two NICs, ``nic1`` standby): the migration verb itself (state carried,
proxies rebound, downtime measured), the watchdog's deduplicated
status-transition log, exactly-one-quarantine-per-flap-episode, the
holding gate's bounded queue, priority shedding, and the decorrelated
retransmit jitter's spread + determinism.
"""

import random

import pytest

from repro.errors import (AdmissionShedError, ChannelClosedError,
                          MigrationError)
from repro.core import (
    ChannelConfig,
    DeploymentSpec,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    RetransmitConfig,
    WatchdogConfig,
)
from repro.core.guid import Guid
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.core.offcode import OffcodeState
from repro.hw import DeviceClass, Machine
from repro.hw.nic import NicSpec
from repro.resilience import (
    AdmissionController,
    HoldingGate,
    SupervisorConfig,
)
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.adapters import check_channel_conservation

IWORK = InterfaceSpec.from_methods(
    "IWork", (MethodSpec("Poke", params=(), result="int"),))

WORKER_GUID = Guid(9101)


class WorkerOffcode(Offcode):
    BINDNAME = "res.Worker"
    INTERFACES = (IWORK,)

    def __init__(self, site):
        super().__init__(site)
        self.pokes = 0
        self.restored_state = None

    def Poke(self):
        self.pokes += 1
        return self.pokes

    def snapshot(self):
        return {"pokes": self.pokes}

    def restore(self, state):
        self.pokes = state["pokes"]
        self.restored_state = dict(state)


@pytest.fixture()
def world():
    sim = Simulator()
    sim.rng_streams = RandomStreams(7)
    machine = Machine(sim)
    machine.add_nic()
    machine.add_nic(NicSpec(name="nic1"))
    runtime = HydraRuntime(machine)
    runtime.standby_devices.add("nic1")
    doc = OdfDocument(
        bindname="res.Worker", guid=WORKER_GUID, interfaces=[IWORK],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=16 * 1024)
    runtime.library.register("/worker.odf", doc)
    runtime.depot.register(WORKER_GUID, WorkerOffcode)
    return sim, machine, runtime


def deploy(sim, runtime, path="/worker.odf"):
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=(path,)))

    sim.run_until_event(sim.spawn(app()))
    return out["result"]


def run_proc(sim, generator):
    out = {}

    def wrapper():
        out["value"] = yield from generator

    sim.run_until_event(sim.spawn(wrapper()))
    return out["value"]


# -- live migration -----------------------------------------------------------------


def test_standby_device_excluded_from_baseline_placement(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    assert result.offcode.location == "nic0"


def test_migrate_moves_state_and_rebinds_proxy(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    assert run_proc(sim, result.proxy.Poke()) == 1

    record = run_proc(sim, runtime.migrate("res.Worker", target="nic1"))
    assert record.completed and not record.failed
    assert record.destination == "nic1"
    assert record.source == "nic0"
    assert record.drained
    assert record.downtime_ns is not None and record.downtime_ns > 0
    assert runtime.migrations == [record]

    replacement = runtime.get_offcode("res.Worker")
    assert replacement is not result.offcode
    assert replacement.location == "nic1"
    assert replacement.state == OffcodeState.RUNNING
    # The checkpoint carried the call count across the cutover.
    assert record.restored
    assert replacement.pokes == 1

    # The original proxy was rebound to a fresh channel and the gate
    # cleared; calls flow again and land on the replacement.
    assert result.proxy.gate is None
    assert run_proc(sim, result.proxy.Poke()) == 2
    assert replacement.pokes == 2


def test_migrate_rejects_bad_targets(world):
    sim, machine, runtime = world
    deploy(sim, runtime)

    def attempt(target):
        def proc():
            yield from runtime.migrate("res.Worker", target=target)
        sim.spawn(proc())
        sim.run()

    with pytest.raises(MigrationError):
        attempt("nic0")          # already there
    with pytest.raises(MigrationError):
        attempt("bogus9")        # no such device
    # Failed validation never killed the offcode.
    assert runtime.get_offcode("res.Worker").state == OffcodeState.RUNNING


def test_migrate_requires_running_offcode(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.get_offcode("res.Worker").state = OffcodeState.STOPPED

    def proc():
        yield from runtime.migrate("res.Worker", target="nic1")

    sim.spawn(proc())
    with pytest.raises(MigrationError):
        sim.run()


def test_channel_conservation_holds_across_migration(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    channel = result.channel
    channel.retransmit_config = RetransmitConfig(timeout_ns=20_000,
                                                 jitter=0.5)
    rng = random.Random(5)
    channel.set_fault_filter(
        lambda message: "drop" if rng.random() < 0.2 else None)

    def pokes(proxy, count):
        for _ in range(count):
            yield from proxy.Poke()

    run_proc(sim, pokes(result.proxy, 10))
    record = run_proc(sim, runtime.migrate("res.Worker", target="nic1"))
    assert record.completed
    run_proc(sim, pokes(result.proxy, 10))
    # Migration moves accounting between channels, it never leaks it:
    # the noise-armed channel it closed still balances, and so does
    # every channel the rewire created.
    assert check_channel_conservation(runtime.executive) == []
    assert runtime.get_offcode("res.Worker").pokes == 20


class FeederOffcode(Offcode):
    BINDNAME = "res.Feeder"
    INTERFACES = ()


FEEDER_GUID = Guid(9102)


def test_timed_out_drain_replays_a_survivors_frames(world):
    # The feeder survives the migration; its reliable channel to the
    # victim holds frames the medium ate, so the drain times out.  The
    # cutover must then replay them to the replacement the way crash
    # recovery would, not drop them with the channel.
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.library.register("/feeder.odf", OdfDocument(
        bindname="res.Feeder", guid=FEEDER_GUID,
        targets=[DeviceClassFilter(DeviceClass.HOST)]))
    runtime.depot.register(FEEDER_GUID, FeederOffcode,
                           device_class=DeviceClass.HOST)
    run_proc(sim, runtime.deploy(DeploymentSpec(
        odf_paths=("/feeder.odf",), proxy=False)))
    feeder = runtime.get_offcode("res.Feeder")
    assert feeder.location == "host"
    config = ChannelConfig.unicast().reliable().labeled("feed")
    channel = runtime.executive.create_channel_for_offcode(config, feeder)
    runtime.executive.connect_offcode(channel,
                                      runtime.get_offcode("res.Worker"))
    channel.retransmit_config = RetransmitConfig(timeout_ns=50_000,
                                                 max_attempts=1000)
    channel.set_fault_filter(lambda message: "drop")

    def send():
        try:
            yield from channel.creator_endpoint.write("frame", 64)
        except ChannelClosedError:
            pass   # the cutover closes the channel under the retransmit

    sim.spawn(send())
    sim.run(until=sim.now + 1_000_000)
    assert channel.unacked_messages() == [("frame", 64)]

    got = []

    def rewire(device, record):
        replacement = runtime.get_offcode("res.Worker")
        fresh = runtime.executive.create_channel_for_offcode(
            ChannelConfig.unicast().labeled("feed"), feeder)
        endpoint = runtime.executive.connect_offcode(fresh, replacement)

        def reader():
            while True:
                message = yield from endpoint.read()
                got.append(message.payload)

        sim.spawn(reader())
        yield from ()

    runtime.add_recovery_hook(rewire)
    record = run_proc(sim, runtime.migrate(
        "res.Worker", target="nic1", drain_timeout_ns=1_000_000))
    sim.run(until=sim.now + 1_000_000)
    assert record.completed and not record.drained
    assert record.replayed == 1
    assert got == ["frame"]
    assert record.hook_errors == []


# -- watchdog flap transitions -------------------------------------------------------


def _flap(sim, nic, cycles, stall_ns=3_500_000, gap_ns=8_000_000):
    """Stall/resume bursts shorter than the watchdog death threshold."""
    for _ in range(cycles):
        sim.run(until=sim.now + gap_ns)
        nic.health.stall()
        sim.run(until=sim.now + stall_ns)
        nic.health.resume()
    sim.run(until=sim.now + 15_000_000)


def test_watchdog_flap_transitions_monotone_and_deduplicated(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.start_watchdog(WatchdogConfig())
    _flap(sim, machine.device("nic0"), cycles=3)

    transitions = runtime.watchdog.transitions_of("nic0")
    assert transitions, "flapping produced no status transitions"
    times = [at for at, _ in transitions]
    assert times == sorted(times)
    statuses = [status for _, status in transitions]
    # Only changes are recorded: never two equal entries in a row, and
    # the steady initial "alive" is not logged — so every "alive" here
    # is a genuine recovery, one per stall.
    assert all(a != b for a, b in zip(statuses, statuses[1:]))
    assert statuses.count("alive") == 3
    assert "dead" not in statuses
    assert runtime.watchdog.status_of("nic0") == "alive"
    # Sub-threshold stalls are latency, not incidents.
    assert runtime.incidents == []
    # The untouched standby NIC never changed status.
    assert runtime.watchdog.transitions_of("nic1") == []


def test_supervisor_quarantines_exactly_once_per_episode(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.start_watchdog(WatchdogConfig())
    supervisor = runtime.start_supervisor(SupervisorConfig(
        drain=False, probation_ns=40_000_000))
    nic = machine.device("nic0")

    # Burst 1: three recoveries inside the flap window -> exactly one
    # quarantine decision, however many transitions the burst produced.
    _flap(sim, nic, cycles=3)
    assert supervisor.quarantines == 1
    assert "nic0" in runtime.quarantined_devices

    # Quiet probation (plus one relapse-extension, since the burst's
    # tail lands after the quarantine) returns the device to service.
    sim.run(until=sim.now + 150_000_000)
    assert supervisor.unquarantines == 1
    assert "nic0" not in runtime.quarantined_devices
    assert supervisor.quarantines == 1      # probation consumed the burst

    # A fresh burst is a fresh episode: one more decision, no more.
    _flap(sim, nic, cycles=3)
    assert supervisor.quarantines == 2
    actions = [d.action for d in supervisor.decisions]
    assert actions.count("quarantine") == 2
    assert actions.count("unquarantine") >= 1


def test_supervisor_drains_quarantined_device(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.start_watchdog(WatchdogConfig())
    supervisor = runtime.start_supervisor(SupervisorConfig(drain=True))
    _flap(sim, machine.device("nic0"), cycles=3)

    assert supervisor.quarantines == 1
    assert supervisor.drains_started == 1
    assert supervisor.drains_completed == 1
    assert supervisor.drains_failed == 0
    moved = runtime.get_offcode("res.Worker")
    assert moved.location != "nic0"
    assert moved.state == OffcodeState.RUNNING
    assert len(runtime.migrations) == 1
    assert runtime.migrations[0].completed


# -- holding gate and admission control ----------------------------------------------


def test_holding_gate_parks_sheds_and_releases():
    sim = Simulator()
    gate = HoldingGate(sim, capacity=4)
    gate.close()
    passed = []
    errors = []

    def waiter(i):
        try:
            yield from gate.wait()
        except AdmissionShedError as exc:
            errors.append((i, exc))
        else:
            passed.append(i)

    for i in range(6):
        sim.spawn(waiter(i))
    sim.run()
    assert passed == []
    assert [i for i, _ in errors] == [4, 5]   # overflow shed immediately
    assert gate.shed == 2 and gate.held_peak == 4

    gate.open()
    sim.run()
    assert sorted(passed) == [0, 1, 2, 3]
    assert gate.released == 4
    # Open gate: callers pass straight through.
    sim.spawn(waiter(99))
    sim.run()
    assert 99 in passed


def test_admission_controller_sheds_below_protected_priority():
    controller = AdmissionController(protect_priority=2)
    assert controller.admit(0) and controller.admit(1)
    controller.engage()
    assert controller.engagements == 1
    assert controller.admit(2)               # protected class passes
    assert not controller.admit(1)
    assert not controller.admit(0)
    controller.engage()                      # idempotent
    assert controller.engagements == 1
    controller.disengage()
    assert controller.admit(1)
    assert controller.shed_by_priority == {0: 1, 1: 1}
    assert controller.shed_total == 2


def test_executive_sheds_calls_while_engaged(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    controller = AdmissionController(protect_priority=2)
    # set_admission stamps existing channels too, not just new ones.
    runtime.executive.set_admission(controller)
    controller.engage()

    def poke():
        yield from result.proxy.Poke()

    sim.spawn(poke())
    with pytest.raises(AdmissionShedError):
        sim.run()
    assert controller.shed_total == 1

    controller.disengage()
    assert run_proc(sim, result.proxy.Poke()) >= 1


# -- decorrelated retransmit jitter --------------------------------------------------


def _backoff_schedule(seed, jitter, attempts=8):
    sim = Simulator()
    sim.rng_streams = RandomStreams(seed)
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    config = (ChannelConfig.unicast().reliable().sequential().copied()
              .labeled("jitter"))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    channel.retransmit_config = RetransmitConfig(timeout_ns=100_000,
                                                 jitter=jitter)
    channel.set_fault_filter(lambda message: None)   # arm the protocol
    return [channel._reliable_backoff_ns(attempt)
            for attempt in range(1, attempts + 1)]


def test_zero_jitter_keeps_legacy_schedule_byte_identical():
    legacy = [100_000, 200_000, 400_000, 800_000,
              1_600_000, 3_200_000, 5_000_000, 5_000_000]
    assert _backoff_schedule(seed=1, jitter=0.0) == legacy
    assert _backoff_schedule(seed=99, jitter=0.0) == legacy


def test_decorrelated_jitter_spreads_and_stays_deterministic():
    legacy = _backoff_schedule(seed=1, jitter=0.0)
    jittered = _backoff_schedule(seed=1, jitter=0.8)
    assert jittered != legacy
    # Genuine spread, not a constant offset — and always in bounds.
    assert len(set(jittered)) >= 5
    assert all(1 <= delay <= 5_000_000 for delay in jittered)
    # Deterministic: same seed reproduces the schedule exactly;
    # a different seed draws a different one.
    assert _backoff_schedule(seed=1, jitter=0.8) == jittered
    assert _backoff_schedule(seed=2, jitter=0.8) != jittered
