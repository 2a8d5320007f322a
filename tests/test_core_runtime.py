"""End-to-end tests for HydraRuntime: deployment, proxies, pseudo offcodes."""

import pytest

from repro.errors import HydraError, InfeasibleLayoutError, OffcodeError
from repro.core import (
    Buffering,
    ChannelConfig,
    DeploymentSpec,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    OffcodeState,
)
from repro.core.guid import Guid
from repro.core.layout.constraints import ConstraintType
from repro.core.odf import (
    DeviceClassFilter,
    OdfDocument,
    OdfImport,
)
from repro.core.pseudo import IHEAP, IRUNTIME
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator

ICHECKSUM = InterfaceSpec.from_methods(
    "IChecksum",
    (MethodSpec("Compute", params=(("size", "int"),), result="int"),))

ISOCKET = InterfaceSpec.from_methods(
    "ISocket",
    (MethodSpec("Send", params=(("size", "int"),), result="int"),))


class ChecksumOffcode(Offcode):
    BINDNAME = "net.Checksum"
    INTERFACES = (ICHECKSUM,)

    def Compute(self, size):
        yield from self.site.execute(size * 2, context="checksum")
        return size & 0xFFFF


class SocketOffcode(Offcode):
    BINDNAME = "net.Socket"
    INTERFACES = (ISOCKET,)

    def __init__(self, site):
        super().__init__(site)
        self.sent = 0

    def Send(self, size):
        self.sent += size
        return size


CHECKSUM_GUID = Guid(6060843)
SOCKET_GUID = Guid(7070714)


def make_world(with_gpu=True):
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    if with_gpu:
        machine.add_gpu()
    runtime = HydraRuntime(machine)

    checksum_odf = OdfDocument(
        bindname="net.Checksum", guid=CHECKSUM_GUID,
        interfaces=[ICHECKSUM],
        targets=[DeviceClassFilter(DeviceClass.NETWORK),
                 DeviceClassFilter(DeviceClass.HOST)],
        image_bytes=16 * 1024)
    socket_odf = OdfDocument(
        bindname="net.Socket", guid=SOCKET_GUID,
        interfaces=[ISOCKET],
        imports=[OdfImport(file="/offcodes/checksum.odf",
                           bindname="net.Checksum", guid=CHECKSUM_GUID,
                           reference=ConstraintType.PULL)],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=32 * 1024)
    runtime.library.register("/offcodes/checksum.odf", checksum_odf)
    runtime.library.register("/offcodes/socket.odf", socket_odf)
    runtime.depot.register(CHECKSUM_GUID, ChecksumOffcode)
    runtime.depot.register(SOCKET_GUID, SocketOffcode)
    return sim, machine, runtime


def test_create_offcode_deploys_to_nic():
    sim, machine, runtime = make_world()
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/socket.odf",)))

    sim.run_until_event(sim.spawn(app()))
    result = out["result"]
    assert result.location == "nic0"
    assert result.offcode.state == OffcodeState.RUNNING
    # The Pull import dragged the checksum along to the same device.
    checksum = runtime.get_offcode("net.Checksum")
    assert checksum.location == "nic0"
    assert checksum.state == OffcodeState.RUNNING
    # Loading consumed device memory for both images.
    assert machine.device("nic0").memory.used_bytes >= 48 * 1024
    report = result.report
    assert {r.bindname for r in report.load_reports} == {
        "net.Socket", "net.Checksum"}
    assert report.elapsed_ns > 0


def test_proxy_invocation_end_to_end():
    sim, machine, runtime = make_world()
    out = {}

    def app():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/socket.odf",)))
        out["sent"] = yield from result.proxy.Send(1024)

    sim.run_until_event(sim.spawn(app()))
    assert out["sent"] == 1024
    socket = runtime.get_offcode("net.Socket")
    assert socket.sent == 1024


def test_oob_channel_attached_to_each_offcode():
    sim, machine, runtime = make_world()

    def app():
        yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/socket.odf",)))

    sim.run_until_event(sim.spawn(app()))
    for bindname in ("net.Socket", "net.Checksum"):
        offcode = runtime.get_offcode(bindname)
        assert offcode.oob_channel is not None
        assert offcode.oob_channel.config.priority == 0


def test_reuse_of_deployed_offcode():
    """Deploying a second app reusing net.Checksum must not redeploy it."""
    sim, machine, runtime = make_world()
    out = {}

    def app():
        yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/checksum.odf",)))
        first = runtime.get_offcode("net.Checksum")
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/socket.odf",)))
        out["first"] = first
        out["report"] = result.report

    sim.run_until_event(sim.spawn(app()))
    assert "net.Checksum" in out["report"].reused
    assert runtime.get_offcode("net.Checksum") is out["first"]
    # Pinning: socket Pulls checksum, checksum was already on the nic
    # (best offload target), so socket lands with it.
    assert out["report"].location_of("net.Socket") == \
        out["report"].location_of("net.Checksum")


def test_host_fallback_when_no_device_matches():
    """An ODF targeting a device class the machine lacks falls back to
    the host when the depot has a host-capable build."""
    sim = Simulator()
    machine = Machine(sim)          # no devices at all
    runtime = HydraRuntime(machine)
    odf = OdfDocument(
        bindname="net.Checksum", guid=CHECKSUM_GUID,
        interfaces=[ICHECKSUM],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/c.odf", odf)
    runtime.depot.register(CHECKSUM_GUID, ChecksumOffcode)
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/c.odf",)))

    sim.run_until_event(sim.spawn(app()))
    assert out["result"].location == "host"
    assert "net.Checksum" in out["result"].report.layout.host_fallbacks


def test_deployment_fails_without_any_implementation():
    sim = Simulator()
    machine = Machine(sim)
    runtime = HydraRuntime(machine)
    odf = OdfDocument(bindname="x", guid=Guid(123), interfaces=[ICHECKSUM],
                      targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/x.odf", odf)

    def app():
        yield from runtime.deploy(DeploymentSpec(odf_paths=("/x.odf",)))

    sim.spawn(app())
    with pytest.raises(InfeasibleLayoutError):
        sim.run()


def test_pseudo_offcodes_available():
    sim, machine, runtime = make_world()
    heap = runtime.get_offcode("hydra.Heap")
    assert heap.state == OffcodeState.RUNNING
    assert heap.implements(IHEAP.guid)
    rt = runtime.get_offcode("hydra.Runtime")
    assert rt.implements(IRUNTIME.guid)
    assert runtime.get_offcode("hydra.ChannelExecutive") is not None
    with pytest.raises(HydraError):
        runtime.get_offcode("hydra.Nonexistent")


def test_runtime_pseudo_offcode_lists_deployments():
    sim, machine, runtime = make_world()

    def app():
        yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/socket.odf",)))

    sim.run_until_event(sim.spawn(app()))
    rt = runtime.get_offcode("hydra.Runtime")
    names = rt.ListOffcodes()
    assert "net.Socket" in names and "net.Checksum" in names
    assert rt.GetOffcodeLocation("net.Socket") == "nic0"


def test_device_heap_pseudo_offcode_allocates_device_memory():
    sim, machine, runtime = make_world()
    nic_runtime = runtime.device_runtime("nic0")
    heap = nic_runtime.find("hydra.Heap")
    used_before = machine.device("nic0").memory.used_bytes
    out = {}

    def proc():
        out["addr"] = yield from heap.Alloc(4096)

    sim.run_until_event(sim.spawn(proc()))
    assert machine.device("nic0").memory.used_bytes - used_before >= 4096
    assert heap.UsedBytes() >= 4096


def test_stop_offcode_releases_registration():
    sim, machine, runtime = make_world()

    def app():
        yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/socket.odf",)))
        yield from runtime.stop_offcode("net.Socket")

    sim.run_until_event(sim.spawn(app()))
    assert runtime.locate("net.Socket") is None
    assert runtime.device_runtime("nic0").find("net.Socket") is None
    # Checksum is untouched.
    assert runtime.locate("net.Checksum") is not None


def test_figure3_manual_channel_flow():
    """The exact Figure 3 sequence: GetOffcode the executive, configure,
    CreateChannel, InstallCallHandler, ConnectOffcode."""
    sim, machine, runtime = make_world()
    out = {"handled": []}

    def app():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/checksum.odf",)))
        ocode = result.offcode
        exec_oc = runtime.get_offcode("hydra.ChannelExecutive")
        assert exec_oc.ProviderCount() >= 3
        config = ChannelConfig(buffering=Buffering.DIRECT).with_target(
            ocode.location)
        channel = runtime.create_channel(config)
        channel.creator_endpoint.install_call_handler(
            lambda message: out["handled"].append(message.payload))
        runtime.connect_offcode(channel, ocode)
        out["channel"] = channel

    sim.run_until_event(sim.spawn(app()))
    assert out["channel"].connected


def test_register_offcode_twice_rejected():
    sim, machine, runtime = make_world()

    def app():
        yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/checksum.odf",)))

    sim.run_until_event(sim.spawn(app()))
    offcode = runtime.get_offcode("net.Checksum")
    document = runtime.document_of("net.Checksum")
    with pytest.raises(OffcodeError):
        runtime.register_offcode(offcode, document)
