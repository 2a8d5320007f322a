"""Checkpoint/restore tests — state survives the device it lived on.

The service periodically snapshots every opted-in Offcode, ships the
state over the OOB management channel to the host-side store in the
depot, and recovery restores the latest checkpoint into the re-deployed
replacement — so a crash costs at most one period of state, not all of
it.
"""

import pytest

from repro.errors import HydraError
from repro.core import (
    Checkpoint,
    CheckpointConfig,
    CheckpointStore,
    DeploymentSpec,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    OffcodeState,
    WatchdogConfig,
    checkpointable,
)
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.core.guid import Guid
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator

ICOUNT = InterfaceSpec.from_methods(
    "ICount", (MethodSpec("Value", params=(), result="int"),))

COUNTER_GUID = Guid(9100)


class CounterOffcode(Offcode):
    """Accumulates state worth preserving across a device death."""

    BINDNAME = "fault.Counter"
    INTERFACES = (ICOUNT,)

    def __init__(self, site):
        super().__init__(site)
        self.count = 0

    def Value(self):
        return self.count

    def main(self):
        while True:
            yield self.site.sim.clock.timeout(1_000_000)
            self.count += 1

    def snapshot(self):
        return {"count": self.count}

    def restore(self, state):
        self.count = int(state.get("count", 0))


class PlainOffcode(Offcode):
    BINDNAME = "fault.Plain"
    INTERFACES = ()


@pytest.fixture()
def world():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    runtime.library.register("/counter.odf", OdfDocument(
        bindname="fault.Counter", guid=COUNTER_GUID, interfaces=[ICOUNT],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=8 * 1024))
    runtime.depot.register(COUNTER_GUID, CounterOffcode)
    return sim, machine, runtime


def deploy(sim, runtime, path="/counter.odf"):
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=(path,)))

    sim.run_until_event(sim.spawn(app()))
    return out["result"]


# -- store and contract --------------------------------------------------------------


def test_store_keeps_newest_checkpoint():
    store = CheckpointStore()
    store.save(Checkpoint("a", seq=1, taken_at_ns=10, state={"n": 1}))
    store.save(Checkpoint("a", seq=3, taken_at_ns=30, state={"n": 3}))
    store.save(Checkpoint("a", seq=2, taken_at_ns=20, state={"n": 2}))
    assert store.latest("a").state == {"n": 3}     # stale seq 2 ignored
    assert store.saved == 3
    assert len(store) == 1
    assert store.bindnames() == ["a"]
    assert store.latest("missing") is None
    store.forget("a")
    assert store.latest("a") is None


def test_checkpointable_requires_snapshot_override(world):
    sim, machine, runtime = world
    site = runtime.host_site
    assert checkpointable(CounterOffcode(site))
    assert not checkpointable(PlainOffcode(site))
    # The base contract: snapshot() opts out, restore() without an
    # override is a contract violation.
    plain = PlainOffcode(site)
    assert plain.snapshot() is None
    from repro.errors import OffcodeError
    with pytest.raises(OffcodeError):
        plain.restore({"anything": 1})


def test_config_validation():
    with pytest.raises(HydraError):
        CheckpointConfig(period_ns=0)
    with pytest.raises(HydraError):
        CheckpointConfig(snapshot_cost_ns=-1)


# -- the shipping path ----------------------------------------------------------------


def test_service_ships_snapshots_over_oob(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    service = runtime.start_checkpoints(
        CheckpointConfig(period_ns=5_000_000))
    sim.run(until=sim.now + 26_000_000)

    assert service.shipped >= 4
    assert service.failed == 0
    assert service.stray_messages == []
    checkpoint = runtime.depot.checkpoints.latest("fault.Counter")
    assert checkpoint is not None
    assert checkpoint.seq == service.shipped
    # The shipped state tracks the live counter (at most one period old).
    live = runtime.get_offcode("fault.Counter").count
    assert 0 < checkpoint.state["count"] <= live
    assert checkpoint.size_bytes > 0


def test_start_checkpoints_is_guarded(world):
    sim, machine, runtime = world
    runtime.start_checkpoints()
    with pytest.raises(HydraError):
        runtime.start_checkpoints()


# -- restore on recovery --------------------------------------------------------------


def test_recovery_restores_last_checkpoint(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.depot.register(COUNTER_GUID, CounterOffcode,
                           device_class=DeviceClass.HOST)
    runtime.start_watchdog(WatchdogConfig())
    runtime.start_checkpoints(CheckpointConfig(period_ns=5_000_000))
    sim.run(until=sim.now + 30_000_000)
    dead_instance = runtime.get_offcode("fault.Counter")
    machine.device("nic0").health.crash()
    sim.run(until=sim.now + 40_000_000)

    incident = runtime.incidents[0]
    assert incident.recovered
    assert "fault.Counter" in incident.restored
    replacement = runtime.get_offcode("fault.Counter")
    assert replacement is not dead_instance
    assert replacement.location == "host"
    assert replacement.state == OffcodeState.RUNNING
    # Cold start would begin at zero; the restored counter resumed from
    # the last shipped checkpoint and kept counting.
    checkpoint = runtime.depot.checkpoints.latest("fault.Counter")
    assert replacement.count >= checkpoint.state["count"] > 0


def test_uncheckpointed_offcode_recovers_cold(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.depot.register(COUNTER_GUID, CounterOffcode,
                           device_class=DeviceClass.HOST)
    runtime.start_watchdog(WatchdogConfig())
    # No checkpoint service: recovery still works, state starts cold.
    sim.run(until=sim.now + 30_000_000)
    machine.device("nic0").health.crash()
    crash_now = sim.now
    sim.run(until=sim.now + 40_000_000)

    incident = runtime.incidents[0]
    assert incident.recovered
    assert incident.restored == []
    replacement = runtime.get_offcode("fault.Counter")
    # The replacement counts only what it saw after the recovery.
    elapsed_ms = (sim.now - crash_now) // 1_000_000
    assert replacement.count <= elapsed_ms
