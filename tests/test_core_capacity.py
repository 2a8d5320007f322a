"""Tests for capacity-aware placement and concurrent device sharing."""

import pytest

from repro import units
from repro.errors import DeploymentError
from repro.core import (DeploymentSpec, HydraRuntime, InterfaceSpec,
                        MethodSpec, Offcode)
from repro.core.guid import Guid
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.hw import DeviceClass, Machine
from repro.hw.nic import NicSpec
from repro.sim import Simulator
from repro.tivopc import OffloadedClient, OffloadedServer, Testbed, \
    TestbedConfig

IDUMMY = InterfaceSpec.from_methods(
    "ICap", (MethodSpec("Nop", params=(), result="int"),))


class CapOffcode(Offcode):
    BINDNAME = "cap.Widget"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 1


GUID = Guid(777)


def make_runtime(nic_memory=8 * 1024 * 1024, image=64 * 1024):
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic(NicSpec(local_memory_bytes=nic_memory))
    runtime = HydraRuntime(machine)
    odf = OdfDocument(
        bindname="cap.Widget", guid=GUID, interfaces=[IDUMMY],
        targets=[DeviceClassFilter(DeviceClass.NETWORK),
                 DeviceClassFilter(DeviceClass.HOST)],
        image_bytes=image)
    runtime.library.register("/cap.odf", odf)
    runtime.depot.register(GUID, CapOffcode)
    return sim, machine, runtime


def deploy(sim, runtime):
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/cap.odf",)))

    sim.run_until_event(sim.spawn(app()))
    return out["result"]


def test_fits_when_memory_available():
    sim, machine, runtime = make_runtime()
    result = deploy(sim, runtime)
    assert result.location == "nic0"


def test_full_device_falls_back_to_host():
    sim, machine, runtime = make_runtime()
    nic = machine.device("nic0")
    # Fill the NIC: leave less than the image size free.
    nic.memory.allocate(nic.memory.free_bytes - 16 * 1024, label="hog")
    result = deploy(sim, runtime)
    assert result.location == "host"


def test_memory_freed_by_stop_makes_device_viable_again():
    sim, machine, runtime = make_runtime(nic_memory=256 * 1024,
                                         image=128 * 1024)
    first = deploy(sim, runtime)
    assert first.location == "nic0"

    def stop():
        yield from runtime.stop_offcode("cap.Widget")

    sim.run_until_event(sim.spawn(stop()))
    second = deploy(sim, runtime)
    assert second.location == "nic0"


def test_mid_deployment_loader_failure_is_wrapped():
    """A race the capacity check cannot see (memory consumed between
    resolve and load) surfaces as DeploymentError, not a bare loader
    exception."""
    sim, machine, runtime = make_runtime()
    nic = machine.device("nic0")
    original_allocate = nic.memory.allocate

    def allocate_then_hog(size, label=""):
        # Consume almost everything the moment the loader asks.
        if label == "cap.Widget":
            raise RuntimeError("simulated race: memory vanished")
        return original_allocate(size, label)

    nic.memory.allocate = allocate_then_hog

    def app():
        yield from runtime.deploy(DeploymentSpec(odf_paths=("/cap.odf",)))

    sim.spawn(app())
    with pytest.raises(DeploymentError, match="mid-deployment"):
        sim.run()


def test_tivopc_and_scanner_share_the_smart_disk():
    """Two independent deployments on one device: the TiVoPC recording
    pipeline and a second Offcode contend for the Smart Disk's CPU, and
    both make progress."""
    testbed = Testbed(TestbedConfig(seed=13))
    testbed.start()
    client = OffloadedClient(testbed)
    client.start()
    OffloadedServer(testbed).start()

    class ScannerOffcode(Offcode):
        BINDNAME = "cap.Scanner"
        INTERFACES = (IDUMMY,)
        scanned = 0

        def Nop(self):
            return 1

        def main(self):
            while True:
                yield from self.site.device.read_block(
                    type(self).scanned % 64, 4096)
                yield from self.site.execute(200_000, context="scan")
                type(self).scanned += 1

    scanner_guid = Guid(778)
    runtime = testbed.client_runtime
    runtime.library.register("/scanner.odf", OdfDocument(
        bindname="cap.Scanner", guid=scanner_guid, interfaces=[IDUMMY],
        targets=[DeviceClassFilter(DeviceClass.STORAGE)],
        image_bytes=16 * 1024))
    runtime.depot.register(scanner_guid, ScannerOffcode)

    def second_app():
        yield testbed.sim.clock.timeout(units.s_to_ns(1))
        yield from runtime.deploy(DeploymentSpec(odf_paths=("/scanner.odf",)))

    testbed.sim.spawn(second_app())
    testbed.run(8)

    scanner = runtime.get_offcode("cap.Scanner")
    assert scanner.location == "disk0"
    assert ScannerOffcode.scanned > 10          # scanner made progress
    assert client.chunks_received > 1000        # streaming kept up
    assert client.bytes_recorded > 1_000_000
    # The disk CPU served both tenants.
    contexts = testbed.client_disk.cpu.busy_by_context
    assert contexts.get("scan", 0) > 0
    assert contexts.get("streamer", 0) > 0
    # The host still did nothing.
    assert testbed.client.machine.cpu.utilization() < 0.04
