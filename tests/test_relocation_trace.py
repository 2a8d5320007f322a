"""Golden cutover traces: one crash recovery and one live migration.

Crash recovery (``HydraRuntime.on_device_failure``) and live migration
(``HydraRuntime.migrate``) share their teardown and rewire halves.  This
module pins, for one run of each, the ordered ``(time_ns, category,
name)`` of every telemetry span (at its start) and every log instant,
so a change to either path that moves a step, adds or drops a trace
line, or shifts simulated time shows up here.

* crash — the ``tests/test_core_faults`` world: ``fault.Worker`` and its
  gang-imported ``fault.Helper`` on ``nic0``, host builds registered,
  the watchdog armed, two recovery hooks (one sleeps, one raises), then
  ``nic0`` crashes.
* migrate — the ``tests/test_resilience_supervisor`` world:
  ``res.Worker`` on ``nic0`` with ``nic1`` on standby, one proxy call,
  ``migrate("res.Worker", target="nic1")`` with a sleeping recovery
  hook, then one more proxy call on the rebound proxy.

The values in ``GOLDEN`` were captured before the two paths shared their
halves; the crash run's last two ``channel`` marks came in when
recovery started rebinding the victim's proxy (the new channel's
connect notice on the OOB channel).  Run this file as a script to print
the observed sequences.
"""

from repro.core import HydraRuntime, WatchdogConfig
from repro.core.odf import DeviceClassFilter, OdfDocument, OdfImport
from repro.core.layout.constraints import ConstraintType
from repro.hw import DeviceClass, Machine
from repro.hw.nic import NicSpec
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import Telemetry
from tests import test_core_faults as faults
from tests import test_resilience_supervisor as resilience

GOLDEN = {'crash': [(0, 'bus', 'bus.transfer'),
                    (0, 'deploy', 'layout resolved for fault.Worker'),
                    (45664, 'bus', 'bus.transfer'),
                    (87248, 'bus', 'bus.transfer'),
                    (131112, 'bus', 'bus.transfer'),
                    (169504, 'offcode', 'fault.Worker@nic0 initialized'),
                    (174504, 'offcode', 'fault.Helper@nic0 initialized'),
                    (176504, 'offcode', 'fault.Worker@nic0 started'),
                    (178504, 'channel', 'channel.write'),
                    (178504, 'offcode', 'fault.Helper@nic0 started'),
                    (178504, 'deploy', 'deployment of fault.Worker complete'),
                    (178504, 'fault', 'watchdog armed over 1 device(s)'),
                    (179047, 'bus', 'bus.transfer'),
                    (180195, 'channel', '#1 host -> nic0'),
                    (2178504, 'channel', 'channel.write'),
                    (2179018, 'bus', 'bus.transfer'),
                    (2180134, 'channel', '#4 host -> nic0'),
                    (2182134, 'channel', 'channel.write'),
                    (2183034, 'bus', 'bus.transfer'),
                    (2183264, 'channel', '#4 nic0 -> host'),
                    (4183264, 'channel', 'channel.write'),
                    (4183778, 'bus', 'bus.transfer'),
                    (4184894, 'channel', '#4 host -> nic0'),
                    (4186894, 'channel', 'channel.write'),
                    (4187794, 'bus', 'bus.transfer'),
                    (4188024, 'channel', '#4 nic0 -> host'),
                    (6188024, 'channel', 'channel.write'),
                    (6188538, 'bus', 'bus.transfer'),
                    (6189654, 'channel', '#4 host -> nic0'),
                    (6191654, 'channel', 'channel.write'),
                    (6192554, 'bus', 'bus.transfer'),
                    (6192784, 'channel', '#4 nic0 -> host'),
                    (8192784, 'channel', 'channel.write'),
                    (8193298, 'bus', 'bus.transfer'),
                    (8194414, 'channel', '#4 host -> nic0'),
                    (8196414, 'channel', 'channel.write'),
                    (8197314, 'bus', 'bus.transfer'),
                    (8197544, 'channel', '#4 nic0 -> host'),
                    (10178504, 'fault', 'nic0 crashed'),
                    (10197544, 'channel', 'channel.write'),
                    (11197544, 'recovery', 'recover.nic0'),
                    (11197544,
                     'fault',
                     'watchdog: declaring nic0 dead (crash detected)'),
                    (11197544,
                     'fault',
                     'device nic0 declared failed; 2 victim offcode(s)'),
                    (11197544, 'fault', 'nic0 fenced (fixed-function mode)'),
                    (11197544,
                     'deploy',
                     'layout resolved for fault.Worker, fault.Helper'),
                    (11202544, 'offcode', 'fault.Worker@host initialized'),
                    (11207544, 'offcode', 'fault.Helper@host initialized'),
                    (11209544, 'offcode', 'fault.Worker@host started'),
                    (11211544, 'offcode', 'fault.Helper@host started'),
                    (11211544,
                     'deploy',
                     'deployment of fault.Worker, fault.Helper complete'),
                    (11261544, 'channel', 'channel.write'),
                    (11261544,
                     'fault',
                     "recovery hook failed after nic0: RuntimeError('hook "
                     "broke')"),
                    (11261544, 'fault', 'device nic0 recovery complete'),
                    (11261587, 'channel', '#5 host -> host')],
          'migrate': [(0, 'bus', 'bus.transfer'),
                      (0, 'deploy', 'layout resolved for res.Worker'),
                      (44764, 'bus', 'bus.transfer'),
                      (91348, 'offcode', 'res.Worker@nic0 initialized'),
                      (93348, 'marshal', 'marshal'),
                      (93348, 'channel', 'channel.write'),
                      (93348, 'proxy', 'IWork.Poke'),
                      (93348, 'offcode', 'res.Worker@nic0 started'),
                      (93348, 'deploy', 'deployment of res.Worker complete'),
                      (93992, 'channel', 'channel.write'),
                      (94492, 'bus', 'bus.transfer'),
                      (95592, 'bus', 'bus.transfer'),
                      (95640, 'channel', '#1 host -> nic0'),
                      (96725, 'device', 'execute.Poke'),
                      (96725, 'channel', '#2 host -> nic0'),
                      (98725, 'reply', 'reply'),
                      (99625, 'bus', 'bus.transfer'),
                      (99856, 'migrate', 'migrate.quiesce'),
                      (99856, 'migrate', 'migrate.checkpoint'),
                      (99856, 'migrate', 'migrate.res.Worker'),
                      (99856,
                       'fault',
                       'migrating res.Worker off nic0 (target: nic1)'),
                      (119856, 'migrate', 'migrate.teardown'),
                      (119856, 'bus', 'bus.transfer'),
                      (119856, 'migrate', 'migrate.redeploy'),
                      (119856, 'deploy', 'layout resolved for res.Worker'),
                      (164620, 'bus', 'bus.transfer'),
                      (211204, 'offcode', 'res.Worker@nic1 initialized'),
                      (213204, 'migrate', 'migrate.restore'),
                      (213204, 'migrate', 'migrate.rewire'),
                      (213204, 'offcode', 'res.Worker@nic1 started'),
                      (213204, 'deploy', 'deployment of res.Worker complete'),
                      (263204, 'marshal', 'marshal'),
                      (263204, 'channel', 'channel.write'),
                      (263204, 'proxy', 'IWork.Poke'),
                      (263204,
                       'fault',
                       'res.Worker migrated nic0 -> nic1 (downtime 163348 ns, '
                       'replayed 0)'),
                      (263848, 'channel', 'channel.write'),
                      (264348, 'bus', 'bus.transfer'),
                      (264848, 'bus', 'bus.transfer'),
                      (265496, 'channel', '#3 host -> nic1'),
                      (266396, 'device', 'execute.Poke'),
                      (266396, 'channel', '#4 host -> nic1'),
                      (268396, 'reply', 'reply'),
                      (269296, 'bus', 'bus.transfer')]}


def sequence(tel):
    """Spans (at their start) and log instants, ordered by time."""
    marks = [(span.start_ns, span.category, span.name)
             for span in tel.spans]
    marks += [(event.time_ns, event.category, event.name)
              for event in tel.events if event.track.startswith("log/")]
    return sorted(marks, key=lambda mark: mark[0])


def _sleeping_hook(sim):
    def hook(device, incident):
        yield sim.clock.timeout(50_000)
    return hook


def crash_script():
    sim = Simulator()
    tel = Telemetry.attach(sim)
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    helper = OdfDocument(
        bindname="fault.Helper", guid=faults.HELPER_GUID,
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=8 * 1024)
    worker = OdfDocument(
        bindname="fault.Worker", guid=faults.WORKER_GUID,
        interfaces=[faults.IWORK],
        imports=[OdfImport(file="/helper.odf", bindname="fault.Helper",
                           guid=faults.HELPER_GUID,
                           reference=ConstraintType.GANG)],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=16 * 1024)
    runtime.library.register("/helper.odf", helper)
    runtime.library.register("/worker.odf", worker)
    runtime.depot.register(faults.WORKER_GUID, faults.WorkerOffcode)
    runtime.depot.register(faults.HELPER_GUID, faults.HelperOffcode)
    faults.deploy(sim, runtime)
    faults.add_host_builds(runtime)

    def broken_hook(device, incident):
        raise RuntimeError("hook broke")
        yield  # pragma: no cover - makes this a generator

    runtime.add_recovery_hook(_sleeping_hook(sim))
    runtime.add_recovery_hook(broken_hook)
    runtime.start_watchdog(WatchdogConfig())
    sim.run(until=sim.now + 10_000_000)
    machine.device("nic0").health.crash()
    sim.run(until=sim.now + 40_000_000)
    assert runtime.incidents[0].recovered
    return sequence(tel)


def migrate_script():
    sim = Simulator()
    sim.rng_streams = RandomStreams(7)
    tel = Telemetry.attach(sim)
    machine = Machine(sim)
    machine.add_nic()
    machine.add_nic(NicSpec(name="nic1"))
    runtime = HydraRuntime(machine)
    runtime.standby_devices.add("nic1")
    runtime.library.register("/worker.odf", OdfDocument(
        bindname="res.Worker", guid=resilience.WORKER_GUID,
        interfaces=[resilience.IWORK],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=16 * 1024))
    runtime.depot.register(resilience.WORKER_GUID,
                           resilience.WorkerOffcode)
    result = resilience.deploy(sim, runtime)
    runtime.add_recovery_hook(_sleeping_hook(sim))
    resilience.run_proc(sim, result.proxy.Poke())
    record = resilience.run_proc(
        sim, runtime.migrate("res.Worker", target="nic1"))
    assert record.completed
    resilience.run_proc(sim, result.proxy.Poke())
    return sequence(tel)


def test_crash_recovery_trace_is_pinned():
    assert crash_script() == GOLDEN["crash"]


def test_migration_trace_is_pinned():
    assert migrate_script() == GOLDEN["migrate"]


if __name__ == "__main__":
    import pprint
    pprint.pprint({"crash": crash_script(), "migrate": migrate_script()},
                  width=70)
