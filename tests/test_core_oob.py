"""Tests for OOB management-event delivery (Section 3.2)."""

import pytest

from repro.core import (
    ChannelConfig,
    DeploymentSpec,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
)
from repro.core.guid import Guid
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator

IECHO = InterfaceSpec.from_methods(
    "IEcho", (MethodSpec("Echo", params=(("x", "int"),), result="int"),))


class EchoOffcode(Offcode):
    BINDNAME = "oob.Echo"
    INTERFACES = (IECHO,)

    def Echo(self, x):
        return x


GUID = Guid(4242)


@pytest.fixture()
def world():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(bindname="oob.Echo", guid=GUID, interfaces=[IECHO],
                      targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/echo.odf", odf)
    runtime.depot.register(GUID, EchoOffcode)
    return sim, machine, runtime


def deploy(sim, runtime):
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/echo.odf",)))

    sim.run_until_event(sim.spawn(app()))
    return out["result"]


def test_proxy_channel_announced_over_oob(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    sim.run(until=sim.now + 5_000_000)   # let the OOB notice arrive
    offcode = result.offcode
    kinds = [event[0] for event in offcode.management_events]
    assert "channel-attached" in kinds
    # The notice names the proxy channel.
    ids = [event[1] for event in offcode.management_events]
    assert result.channel.channel_id in ids


def test_extra_channel_also_announced(world):
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    offcode = result.offcode
    channel = runtime.create_channel(
        ChannelConfig(label="extra-data"))
    runtime.connect_offcode(channel, offcode)
    sim.run(until=sim.now + 5_000_000)
    labels = [event[2] for event in offcode.management_events]
    assert "extra-data" in labels


def test_oob_notice_costs_show_up_on_the_bus(world):
    """The notice is real traffic: it crosses to the device over the
    OOB channel's DMA provider."""
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    oob = result.offcode.oob_channel
    sim.run(until=sim.now + 5_000_000)   # drain the deployment's notice
    before = oob.messages_sent
    channel = runtime.create_channel(ChannelConfig(label="x"))
    runtime.connect_offcode(channel, result.offcode)
    sim.run(until=sim.now + 5_000_000)
    assert oob.messages_sent == before + 1
    assert oob.bytes_sent >= 48


def test_oob_channel_itself_not_announced(world):
    """No chicken-and-egg: connecting the OOB channel produces no
    notice over itself."""
    sim, machine, runtime = world
    result = deploy(sim, runtime)
    sim.run(until=sim.now + 5_000_000)
    announced = [event[1] for event in result.offcode.management_events]
    assert result.offcode.oob_channel.channel_id not in announced
