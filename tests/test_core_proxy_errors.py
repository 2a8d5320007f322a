"""Tests for error propagation and edge cases through proxies/channels."""

import pytest

from repro.errors import InterfaceError
from repro.core import (
    ChannelConfig,
    ChannelExecutive,
    DmaChannelProvider,
    InterfaceSpec,
    LoopbackProvider,
    MemoryManager,
    MethodSpec,
    Offcode,
    OffcodeState,
    Proxy,
)
from repro.core.sites import DeviceSite, HostSite
from repro.hw import Machine
from repro.sim import Simulator

IFALLIBLE = InterfaceSpec.from_methods(
    "IFallible",
    (MethodSpec("Divide", params=(("a", "int"), ("b", "int")),
                result="int"),
     MethodSpec("Notify", one_way=True),
     MethodSpec("Slow", params=(), result="int")))


class FallibleOffcode(Offcode):
    BINDNAME = "test.Fallible"
    INTERFACES = (IFALLIBLE,)

    def __init__(self, site):
        super().__init__(site)
        self.notified = 0

    def Divide(self, a, b):
        return a // b            # ZeroDivisionError on b == 0

    def Notify(self):
        self.notified += 1

    def Slow(self):
        yield self.site.sim.clock.timeout(50_000)
        return 99


@pytest.fixture()
def wired():
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic()
    executive = ChannelExecutive()
    executive.register_provider(LoopbackProvider(machine))
    executive.register_provider(
        DmaChannelProvider(machine, nic, MemoryManager(machine)))
    offcode = FallibleOffcode(DeviceSite(nic))
    offcode.state = OffcodeState.RUNNING
    channel = executive.create_channel(ChannelConfig(),
                                       HostSite(machine))
    executive.connect_offcode(channel, offcode)
    proxy = Proxy(IFALLIBLE, channel, channel.creator_endpoint)
    return sim, proxy, offcode


def test_remote_exception_propagates_to_caller(wired):
    sim, proxy, offcode = wired
    caught = []

    def app():
        try:
            yield from proxy.Divide(1, 0)
        except ZeroDivisionError as exc:
            caught.append(exc)

    sim.run_until_event(sim.spawn(app()))
    assert len(caught) == 1
    # The offcode survives the failed call.
    assert offcode.state == OffcodeState.RUNNING


def test_call_after_error_still_works(wired):
    sim, proxy, offcode = wired
    out = {}

    def app():
        try:
            yield from proxy.Divide(1, 0)
        except ZeroDivisionError:
            pass
        out["ok"] = yield from proxy.Divide(10, 2)

    sim.run_until_event(sim.spawn(app()))
    assert out["ok"] == 5


def test_one_way_method_returns_immediately(wired):
    sim, proxy, offcode = wired
    out = {}

    def app():
        out["value"] = yield from proxy.Notify()

    sim.run_until_event(sim.spawn(app()))
    assert out["value"] is None
    assert offcode.notified == 1


def test_generator_method_result_transfers_back(wired):
    sim, proxy, offcode = wired
    out = {}

    def app():
        out["value"] = yield from proxy.Slow()

    sim.run_until_event(sim.spawn(app()))
    assert out["value"] == 99
    # The slow method's own delay is part of the caller-visible latency.
    assert sim.now >= 50_000


def test_unknown_proxy_method_rejected(wired):
    sim, proxy, offcode = wired
    with pytest.raises(InterfaceError):
        proxy.NoSuchMethod
    with pytest.raises(AttributeError):
        proxy._private


def test_concurrent_calls_are_matched(wired):
    """Two in-flight calls on the same channel resolve independently."""
    sim, proxy, offcode = wired
    results = []

    def caller(a, b):
        value = yield from proxy.Divide(a, b)
        results.append(value)

    sim.spawn(caller(100, 10))
    sim.spawn(caller(9, 3))
    sim.run()
    assert sorted(results) == [3, 10]
    assert proxy.invocations == 2
