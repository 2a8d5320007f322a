"""Failure-injection tests: crashing Offcodes, hierarchical teardown.

The paper's Resource Management unit exists for exactly this: "robust
clean-up of child resources in the case of a failing parent object"
(Section 4).  These tests deploy Offcodes, crash them, and verify the
device memory, channels and registrations all come back.
"""

import pytest

from repro.errors import ChannelClosedError, HydraError
from repro.core import (
    Buffering,
    CallPolicy,
    ChannelConfig,
    ChannelKind,
    CorruptedPayload,
    DeploymentSpec,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    Reliability,
    RetryBudgetExceededError,
    SyncMode,
    WatchdogConfig,
)
from repro.core.call import CallBatch
from repro.core.odf import DeviceClassFilter, OdfDocument, OdfImport
from repro.core.guid import Guid
from repro.core.layout.constraints import ConstraintType
from repro.core.offcode import OffcodeState
from repro.faults import FaultInjector, FaultPlan
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator
from repro.telemetry import Telemetry

IWORK = InterfaceSpec.from_methods(
    "IWork", (MethodSpec("Poke", params=(), result="int"),))


class WorkerOffcode(Offcode):
    BINDNAME = "fault.Worker"
    INTERFACES = (IWORK,)

    def __init__(self, site):
        super().__init__(site)
        self.loop_iterations = 0

    def Poke(self):
        return 1

    def main(self):
        while True:
            yield self.site.sim.clock.timeout(1_000_000)
            self.loop_iterations += 1


class HelperOffcode(Offcode):
    BINDNAME = "fault.Helper"
    INTERFACES = ()


WORKER_GUID = Guid(9001)
HELPER_GUID = Guid(9002)


@pytest.fixture()
def world():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    helper = OdfDocument(
        bindname="fault.Helper", guid=HELPER_GUID,
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=8 * 1024)
    worker = OdfDocument(
        bindname="fault.Worker", guid=WORKER_GUID, interfaces=[IWORK],
        imports=[OdfImport(file="/helper.odf", bindname="fault.Helper",
                           guid=HELPER_GUID,
                           reference=ConstraintType.GANG)],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=16 * 1024)
    runtime.library.register("/helper.odf", helper)
    runtime.library.register("/worker.odf", worker)
    runtime.depot.register(WORKER_GUID, WorkerOffcode)
    runtime.depot.register(HELPER_GUID, HelperOffcode)
    return sim, machine, runtime


def deploy(sim, runtime, path="/worker.odf"):
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=(path,)))

    sim.run_until_event(sim.spawn(app()))
    return out["result"]


def test_fail_offcode_releases_device_memory(world):
    sim, machine, runtime = world
    nic = machine.device("nic0")
    before = nic.memory.used_bytes
    deploy(sim, runtime)
    during = nic.memory.used_bytes
    assert during > before

    report = runtime.fail_offcode("fault.Worker")
    assert report.ok
    assert report.failures == []
    # The worker's image is gone; the helper's remains resident.
    helper_image = runtime.resources.lookup("fault.Helper/image")
    assert helper_image.payload is None or not helper_image.freed
    assert before < nic.memory.used_bytes < during


def test_fail_offcode_closes_channels(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    oob = result.offcode.oob_channel
    proxy_channel = result.channel
    runtime.fail_offcode("fault.Worker")
    assert oob.closed
    assert proxy_channel.closed

    def late_call():
        yield from proxy_channel.creator_endpoint.write("x", 10)

    sim.spawn(late_call())
    with pytest.raises(ChannelClosedError):
        sim.run()


def test_fail_offcode_stops_thread_of_control(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    worker = result.offcode
    sim.run(until=sim.now + 10_000_000)
    iterations = worker.loop_iterations
    assert iterations > 5
    runtime.fail_offcode("fault.Worker")
    assert worker.state == OffcodeState.FAILED
    sim.run(until=sim.now + 10_000_000)
    assert worker.loop_iterations == iterations


def test_fail_offcode_deregisters(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.fail_offcode("fault.Worker")
    assert runtime.locate("fault.Worker") is None
    assert runtime.device_runtime("nic0").find("fault.Worker") is None
    with pytest.raises(HydraError):
        runtime.get_offcode("fault.Worker")
    # A sibling from the same deployment is untouched.
    assert runtime.locate("fault.Helper") is not None


def test_redeploy_after_failure(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    runtime.fail_offcode("fault.Worker")
    result = deploy(sim, runtime)
    assert result.offcode.state == OffcodeState.RUNNING
    assert "fault.Helper" in result.report.reused
    out = {}

    def poke():
        out["v"] = yield from result.proxy.Poke()

    sim.run_until_event(sim.spawn(poke()))
    assert out["v"] == 1


def test_stop_offcode_frees_device_memory(world):
    sim, machine, runtime = world
    nic = machine.device("nic0")
    before = nic.memory.used_bytes
    deploy(sim, runtime)

    def stop():
        yield from runtime.stop_offcode("fault.Worker")
        yield from runtime.stop_offcode("fault.Helper")

    sim.run_until_event(sim.spawn(stop()))
    assert nic.memory.used_bytes == before


def test_finalizer_errors_are_collected_not_raised(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    node = runtime.resources.lookup("fault.Worker")

    def bad_finalizer():
        raise RuntimeError("teardown bug")

    runtime.resources.track("fault.Worker/bad", parent=node,
                            finalizer=bad_finalizer)
    report = runtime.fail_offcode("fault.Worker")
    assert len(report) == 1
    assert not report.ok
    assert isinstance(report.errors[0], RuntimeError)
    assert report.failures[0].key == "fault.Worker/bad"
    # Cleanup still completed.
    assert runtime.locate("fault.Worker") is None
    assert result.offcode.oob_channel.closed


# -- watchdog, retry and recovery ---------------------------------------------------


def add_host_builds(runtime):
    """Host-fallback builds for the recovery tests (Section 3.4)."""
    runtime.depot.register(WORKER_GUID, WorkerOffcode,
                           device_class=DeviceClass.HOST)
    runtime.depot.register(HELPER_GUID, HelperOffcode,
                           device_class=DeviceClass.HOST)


def test_watchdog_beats_while_healthy(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    watchdog = runtime.start_watchdog(WatchdogConfig())
    sim.run(until=sim.now + 20_000_000)
    assert watchdog.status_of("nic0") == "alive"
    assert watchdog.beats_of("nic0") >= 5
    assert watchdog.declared_dead_at("nic0") is None
    assert runtime.incidents == []


def test_watchdog_tolerates_short_stall(world):
    # False-positive guard: a stall shorter than the miss threshold
    # must never be declared a death.
    sim, machine, runtime = world
    deploy(sim, runtime)
    watchdog = runtime.start_watchdog(WatchdogConfig())
    sim.run(until=sim.now + 6_500_000)
    nic = machine.device("nic0")
    nic.health.stall()
    sim.run(until=sim.now + 3_000_000)      # at most 2 of 3 allowed misses
    nic.health.resume()
    sim.run(until=sim.now + 20_000_000)
    assert watchdog.status_of("nic0") == "alive"
    assert watchdog.declared_dead_at("nic0") is None
    assert runtime.incidents == []
    assert nic.health.ok


def test_watchdog_detects_crash_and_redeploys_on_host(world):
    sim, machine, runtime = world
    deploy(sim, runtime)
    add_host_builds(runtime)
    watchdog = runtime.start_watchdog(WatchdogConfig())
    sim.run(until=sim.now + 10_000_000)
    machine.device("nic0").health.crash()
    sim.run(until=sim.now + 40_000_000)

    assert watchdog.status_of("nic0") == "dead"
    assert "nic0" in runtime.failed_devices
    incident = runtime.incidents[0]
    assert incident.device == "nic0"
    assert sorted(incident.victims) == ["fault.Helper", "fault.Worker"]
    assert incident.recovered
    assert incident.latency_ns > 0
    # The victims live again, on the host processor.
    assert runtime.get_offcode("fault.Worker").location == "host"
    assert runtime.get_offcode("fault.Helper").location == "host"
    assert runtime.get_offcode("fault.Worker").state == OffcodeState.RUNNING


def test_proxy_retry_budget_exhausted_on_stalled_device(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    proxy = result.proxy
    proxy.set_policy(CallPolicy(deadline_ns=100_000, max_attempts=2,
                                backoff_base_ns=10_000))
    machine.device("nic0").health.stall()
    out = {}

    def call():
        try:
            yield from proxy.Poke()
        except RetryBudgetExceededError as exc:
            out["exc"] = exc

    sim.run_until_event(sim.spawn(call()))
    assert out["exc"].attempts == 2
    assert proxy.timeouts == 2


def test_proxy_retry_succeeds_within_budget(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    proxy = result.proxy
    proxy.set_policy(CallPolicy(deadline_ns=5_000_000, max_attempts=3))
    out = {}

    def call():
        out["v"] = yield from proxy.Poke()

    sim.run_until_event(sim.spawn(call()))
    assert out["v"] == 1
    assert proxy.timeouts == 0


def test_proxy_call_is_the_same_with_and_without_a_met_policy(world):
    """One invoke body: a policy whose deadline is met changes nothing
    the caller sees, and its marshal span carries the same bytes."""
    sim, machine, runtime = world
    tel = Telemetry.attach(sim)
    proxy = deploy(sim, runtime).proxy
    seen = []
    for policy in (None, CallPolicy(deadline_ns=5_000_000, max_attempts=3)):
        proxy.set_policy(policy)
        before = proxy.invocations
        out = {}

        def call():
            out["v"] = yield from proxy.Poke()

        sim.run_until_event(sim.spawn(call()))
        root = tel.spans_of("proxy")[-1]
        marshal = [s for s in tel.spans_of("marshal")
                   if s.parent_id == root.span_id]
        assert len(marshal) == 1
        seen.append((out["v"], proxy.invocations - before,
                     marshal[0].attrs["bytes"]))
        if policy is not None:
            assert root.attrs["policy"] is True
            assert marshal[0].attrs["attempt"] == 1
        else:
            assert "policy" not in root.attrs
            assert "attempt" not in marshal[0].attrs
    assert seen[0] == seen[1]
    assert seen[0][:2] == (1, 1)
    assert proxy.timeouts == 0


def test_channel_noise_filter_and_stats(world):
    sim, machine, runtime = world
    config = ChannelConfig(kind=ChannelKind.UNICAST,
                           reliability=Reliability.UNRELIABLE,
                           sync=SyncMode.NONE,
                           buffering=Buffering.COPY,
                           label="noisy")
    channel = runtime.executive.create_channel(config, runtime.host_site)
    device_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("nic0").site)
    verdicts = iter(["drop", "corrupt", None])
    channel.set_fault_filter(lambda message: next(verdicts))

    def writer():
        for _ in range(3):
            yield from channel.creator_endpoint.write("payload", 64)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    assert stats.sent == 3
    assert stats.dropped == 1
    assert stats.corrupted == 1
    assert stats.delivered == 2
    assert any(s.label == "noisy" for s in runtime.channel_stats())

    out = {}

    def reader():
        message = yield from device_ep.read()
        out["payload"] = message.payload

    sim.run_until_event(sim.spawn(reader()))
    assert isinstance(out["payload"], CorruptedPayload)
    assert out["payload"].original == "payload"


def _noisy_batch(world, verdict, entries=5):
    """Send one ``entries``-long batch over an unreliable channel whose
    filter always rules ``verdict``; return (channel, fault records)."""
    sim, machine, runtime = world
    config = (ChannelConfig.unicast().unreliable().unordered().copied()
              .labeled("noisy-batch"))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    runtime.executive.connect_site(channel,
                                   runtime.device_runtime("nic0").site)
    channel.set_fault_filter(lambda message: verdict)
    tel = Telemetry.attach(sim)
    batch = CallBatch()
    for index in range(entries):
        batch.add(("entry", index), 64, now_ns=sim.now)
    sim.run_until_event(sim.spawn(
        channel.send_vectored(channel.creator_endpoint, batch)))
    return channel, [e.name for e in tel.events if e.track == "log/fault"]


def test_corrupt_batched_frames_leave_one_fault_record_each(world):
    channel, faults = _noisy_batch(world, "corrupt")
    # The same record a corrupted single message leaves, once per entry.
    assert faults == [
        f"#{channel.channel_id} message corrupted in flight"] * 5
    stats = channel.stats()
    assert (stats.sent, stats.corrupted, stats.delivered) == (5, 5, 5)


def test_dropped_batched_frames_use_the_single_message_record(world):
    channel, faults = _noisy_batch(world, "drop")
    assert faults == [
        f"#{channel.channel_id} message dropped in flight"] * 5
    stats = channel.stats()
    assert (stats.sent, stats.dropped, stats.delivered) == (5, 5, 0)


def test_fault_filter_on_reliable_channel_arms_retransmit(world):
    # PR 4 lifted the old rejection: noise on a RELIABLE channel arms
    # the ack/retransmit protocol instead of raising.
    sim, machine, runtime = world
    config = (ChannelConfig.unicast().reliable().copied()
              .labeled("earned"))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    device_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("nic0").site)
    verdicts = iter(["drop", None, None])   # data lost, retry ok, ack ok
    channel.set_fault_filter(lambda message: next(verdicts, None))
    assert channel._rel is not None

    got = []

    def reader():
        message = yield from device_ep.read()
        got.append(message.payload)

    def writer():
        yield from channel.creator_endpoint.write("frame", 64)

    sim.spawn(reader())
    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    assert got == ["frame"]
    assert stats.sent == 2                  # original + one retransmit
    assert stats.retransmits == 1
    assert stats.dropped == 1
    assert stats.delivered == 1
    assert stats.sent == stats.delivered + stats.dropped
    assert channel.unacked_messages() == []


def test_bus_transient_replays_transfer(world):
    sim, machine, runtime = world
    nic = machine.device("nic0")
    bus = machine.bus
    out = {}

    def xfer(key):
        start = sim.now
        yield from nic.dma_to_host(4096)
        out[key] = sim.now - start

    sim.run_until_event(sim.spawn(xfer("clean")))
    bus.inject_transients(1)
    sim.run_until_event(sim.spawn(xfer("faulty")))
    assert bus.transient_faults == 1
    assert out["faulty"] > out["clean"]


def _chaos_run(seed):
    """One seeded crash-and-recover run; returns its observable history."""
    sim = Simulator()
    tel = Telemetry.attach(sim)
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    helper = OdfDocument(
        bindname="fault.Helper", guid=HELPER_GUID,
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=8 * 1024)
    worker = OdfDocument(
        bindname="fault.Worker", guid=WORKER_GUID, interfaces=[IWORK],
        imports=[OdfImport(file="/helper.odf", bindname="fault.Helper",
                           guid=HELPER_GUID,
                           reference=ConstraintType.GANG)],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=16 * 1024)
    runtime.library.register("/helper.odf", helper)
    runtime.library.register("/worker.odf", worker)
    runtime.depot.register(WORKER_GUID, WorkerOffcode)
    runtime.depot.register(HELPER_GUID, HelperOffcode)
    add_host_builds(runtime)
    deploy(sim, runtime)
    runtime.start_watchdog(WatchdogConfig())

    import random
    plan = FaultPlan().crash_device(15_000_000, "nic0")
    injector = FaultInjector(sim, plan,
                             devices={"nic0": machine.device("nic0")},
                             rng=random.Random(seed))
    injector.start()
    sim.run(until=60_000_000)
    incident = runtime.incidents[0]
    assert incident.recovered
    faults = [(e.time_ns, e.category, e.name, e.attrs)
              for e in tel.events if e.track == "log/fault"]
    return faults, incident.latency_ns


def test_fault_history_is_deterministic():
    # Same seed, same plan: byte-identical fault traces and identical
    # recovery latency.  Guards against wall-clock seeding sneaking in.
    first_trace, first_latency = _chaos_run(7)
    second_trace, second_latency = _chaos_run(7)
    assert first_trace == second_trace
    assert first_latency == second_latency
    assert first_latency > 0
    assert any("declaring nic0 dead" in name
               for _, _, name, _ in first_trace)
