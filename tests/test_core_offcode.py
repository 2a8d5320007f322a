"""Tests for Offcode lifecycle, dispatch and execution sites."""

import pytest

from repro.errors import HydraError, InterfaceError, OffcodeError
from repro.core.call import make_call
from repro.core.guid import guid_from_name
from repro.core.interfaces import IOFFCODE, InterfaceSpec, MethodSpec
from repro.core import marshal
from repro.core.offcode import Offcode, OffcodeState
from repro.core.sites import DeviceSite, HostSite
from repro.hw import Bus, DeviceClass, DeviceSpec, Machine, ProgrammableDevice
from repro.sim import Simulator

ICOUNTER = InterfaceSpec.from_methods(
    "ICounter",
    (MethodSpec("Increment", params=(("by", "int"),), result="int"),
     MethodSpec("Fail", params=(), result="int"),
     MethodSpec("Notify", one_way=True)))


class CounterOffcode(Offcode):
    BINDNAME = "test.Counter"
    INTERFACES = (ICOUNTER,)

    def __init__(self, site):
        super().__init__(site)
        self.count = 0
        self.notifies = 0

    def Increment(self, by):
        # Generator form: charges its own device time.
        yield from self.site.execute(1_000, context="counter")
        self.count += by
        return self.count

    def Fail(self):
        raise ValueError("intentional")

    def Notify(self):
        self.notifies += 1


class TickerOffcode(Offcode):
    BINDNAME = "test.Ticker"
    INTERFACES = ()

    def __init__(self, site):
        super().__init__(site)
        self.ticks = 0

    def main(self):
        while True:
            yield self.site.sim.clock.timeout(10_000)
            self.ticks += 1


def host_site():
    sim = Simulator()
    return sim, HostSite(Machine(sim))


def device_site():
    sim = Simulator()
    device = ProgrammableDevice(
        sim, DeviceSpec(name="dev", device_class=DeviceClass.NETWORK),
        Bus(sim))
    return sim, DeviceSite(device), device


def bring_up(sim, offcode):
    def proc():
        yield from offcode.initialize()
        yield from offcode.start()

    sim.run_until_event(sim.spawn(proc()))


# -- lifecycle -----------------------------------------------------------------------

def test_lifecycle_order_enforced():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    assert offcode.state == OffcodeState.CREATED

    def start_without_init():
        yield from offcode.start()

    sim.spawn(start_without_init())
    with pytest.raises(OffcodeError):
        sim.run()


def test_lifecycle_happy_path():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    bring_up(sim, offcode)
    assert offcode.state == OffcodeState.RUNNING

    def stop():
        yield from offcode.stop()

    sim.run_until_event(sim.spawn(stop()))
    assert offcode.state == OffcodeState.STOPPED


def test_double_initialize_rejected():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    bring_up(sim, offcode)

    def again():
        yield from offcode.initialize()

    sim.spawn(again())
    with pytest.raises(OffcodeError):
        sim.run()


def test_main_thread_runs_and_stops():
    sim, site = host_site()
    offcode = TickerOffcode(site)
    bring_up(sim, offcode)
    sim.run(until=sim.now + 100_000)
    assert offcode.ticks >= 5

    def stop():
        yield from offcode.stop()

    sim.run_until_event(sim.spawn(stop()))
    ticks_at_stop = offcode.ticks
    sim.run(until=sim.now + 100_000)
    assert offcode.ticks == ticks_at_stop     # main interrupted


def test_missing_bindname_rejected():
    sim, site = host_site()

    class Anonymous(Offcode):
        pass

    with pytest.raises(OffcodeError):
        Anonymous(site)


# -- interfaces ------------------------------------------------------------------------

def test_query_interface():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    assert offcode.query_interface(ICOUNTER.guid) is ICOUNTER
    assert offcode.query_interface(IOFFCODE.guid) is IOFFCODE
    assert offcode.implements(ICOUNTER.guid)
    with pytest.raises(InterfaceError):
        offcode.query_interface(guid_from_name("IUnknown"))


# -- dispatch --------------------------------------------------------------------------

def test_dispatch_two_way_returns_result():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    bring_up(sim, offcode)
    call = make_call(sim, ICOUNTER, "Increment", (5,))

    def run():
        yield from offcode.dispatch(call)

    sim.run_until_event(sim.spawn(run()))
    assert offcode.count == 5
    assert marshal.decode(call.return_descriptor.event.value) == 5


def test_dispatch_one_way():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    bring_up(sim, offcode)
    call = make_call(sim, ICOUNTER, "Notify", ())

    def run():
        yield from offcode.dispatch(call)

    sim.run_until_event(sim.spawn(run()))
    assert offcode.notifies == 1


def test_dispatch_exception_reaches_descriptor():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    bring_up(sim, offcode)
    call = make_call(sim, ICOUNTER, "Fail", ())

    def run():
        yield from offcode.dispatch(call)

    sim.run_until_event(sim.spawn(run()))
    caught = []

    def waiter():
        try:
            yield call.return_descriptor.event
        except ValueError as exc:
            caught.append(str(exc))

    # Event already processed; a fresh waiter still observes the failure.
    sim.run_until_event(sim.spawn(waiter()))
    assert caught == ["intentional"]


def test_dispatch_before_running_fails_cleanly():
    sim, site = host_site()
    offcode = CounterOffcode(site)
    call = make_call(sim, ICOUNTER, "Increment", (1,))

    def run():
        yield from offcode.dispatch(call)

    sim.run_until_event(sim.spawn(run()))
    assert call.return_descriptor.event.triggered
    assert not call.return_descriptor.event.ok


def test_dispatch_charges_site_cpu():
    sim, site, device = device_site()
    offcode = CounterOffcode(site)
    bring_up(sim, offcode)
    busy_before = device.cpu.total_busy
    call = make_call(sim, ICOUNTER, "Increment", (1,))

    def run():
        yield from offcode.dispatch(call)

    sim.run_until_event(sim.spawn(run()))
    assert device.cpu.total_busy > busy_before


# -- sites -----------------------------------------------------------------------------

def test_same_offcode_class_runs_on_host_and_device():
    """Location transparency: the class is identical, only the site
    (and therefore the charged CPU) differs."""
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic()
    host = CounterOffcode(HostSite(machine))
    dev = CounterOffcode(DeviceSite(nic))
    bring_up(sim, host)
    bring_up(sim, dev)

    def drive():
        yield from host.dispatch(make_call(sim, ICOUNTER, "Increment", (1,)))
        yield from dev.dispatch(make_call(sim, ICOUNTER, "Increment", (2,)))

    sim.run_until_event(sim.spawn(drive()))
    assert host.count == 1 and dev.count == 2
    assert host.location == "host"
    assert dev.location == "nic0"
    assert machine.cpu.total_busy > 0
    assert nic.cpu.total_busy > 0


def test_host_site_allocation_accounting():
    sim, site = host_site()
    region = site.allocate(1000, label="buf")
    assert site.allocated_bytes == 1000
    site.free(region)
    assert site.allocated_bytes == 0
    with pytest.raises(HydraError):
        site.free(region)
    with pytest.raises(HydraError):
        site.allocate(0)


def test_device_site_allocation_is_bounded():
    sim, site, device = device_site()
    from repro.errors import DeviceMemoryError
    with pytest.raises(DeviceMemoryError):
        site.allocate(device.spec.local_memory_bytes * 2)
