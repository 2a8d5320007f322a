"""Tests for joint multi-application deployment (Section 5 motivation).

Two applications share one Offcode.  Deployed one at a time, the first
application pins the shared component wherever suits *it*; the second
application's Pull constraint then cannot be met and its root falls back
to the host.  Deployed jointly, the single ILP solve satisfies both.
"""

import pytest

from repro.core import (DeploymentSpec, HydraRuntime, InterfaceSpec,
                        MethodSpec, Offcode)
from repro.core.guid import Guid
from repro.core.layout.constraints import ConstraintType
from repro.core.odf import DeviceClassFilter, OdfDocument, OdfImport
from repro.hw import DeviceClass, Machine
from repro.hw.nic import NicSpec
from repro.sim import Simulator

IDUMMY = InterfaceSpec.from_methods(
    "IDummy", (MethodSpec("Nop", params=(), result="int"),))


class AppAOffcode(Offcode):
    BINDNAME = "joint.AppA"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 0


class AppBOffcode(Offcode):
    BINDNAME = "joint.AppB"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 0


class SharedOffcode(Offcode):
    BINDNAME = "joint.Shared"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 0


A_GUID, B_GUID, SHARED_GUID = Guid(71), Guid(72), Guid(73)


def make_runtime():
    sim = Simulator()
    machine = Machine(sim)
    # Name the NIC so it sorts before the GPU: placement ties then fall
    # toward the NIC, which is what makes sequential deployment go wrong.
    machine.add_nic(NicSpec(name="a-nic"))
    machine.add_gpu()
    runtime = HydraRuntime(machine)

    shared = OdfDocument(
        bindname="joint.Shared", guid=SHARED_GUID, interfaces=[IDUMMY],
        targets=[DeviceClassFilter(DeviceClass.NETWORK),
                 DeviceClassFilter(DeviceClass.DISPLAY)],
        image_bytes=8 * 1024)
    app_a = OdfDocument(
        bindname="joint.AppA", guid=A_GUID, interfaces=[IDUMMY],
        imports=[OdfImport(file="/shared.odf", bindname="joint.Shared",
                           guid=SHARED_GUID,
                           reference=ConstraintType.LINK)],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=8 * 1024)
    app_b = OdfDocument(
        bindname="joint.AppB", guid=B_GUID, interfaces=[IDUMMY],
        imports=[OdfImport(file="/shared.odf", bindname="joint.Shared",
                           guid=SHARED_GUID,
                           reference=ConstraintType.PULL,
                           priority=1)],   # droppable if all else fails
        targets=[DeviceClassFilter(DeviceClass.DISPLAY)],
        image_bytes=8 * 1024)
    runtime.library.register("/shared.odf", shared)
    runtime.library.register("/app-a.odf", app_a)
    runtime.library.register("/app-b.odf", app_b)
    runtime.depot.register(SHARED_GUID, SharedOffcode)
    runtime.depot.register(A_GUID, AppAOffcode)
    runtime.depot.register(B_GUID, AppBOffcode)
    return sim, machine, runtime


def test_sequential_deployment_pins_shared_badly():
    sim, machine, runtime = make_runtime()
    out = {}

    def app():
        yield from runtime.deploy(DeploymentSpec(odf_paths=("/app-a.odf",)))
        out["shared_at"] = runtime.get_offcode("joint.Shared").location
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/app-b.odf",)))
        out["b_report"] = result.report

    sim.run_until_event(sim.spawn(app()))
    # App A's solve put the shared Offcode on the NIC (tie toward the
    # alphabetically-first compatible device).
    assert out["shared_at"] == "a-nic"
    # App B's Pull to the shared Offcode is now unsatisfiable: the
    # resolver had to *drop* the constraint to place App B at all.
    dropped = out["b_report"].layout.relaxed_constraints
    assert any(c.kind is ConstraintType.PULL for c in dropped)
    # App B runs, but not co-located with its Pull-mate.
    assert (runtime.get_offcode("joint.AppB").location
            != runtime.get_offcode("joint.Shared").location)


def test_joint_deployment_satisfies_both_apps():
    sim, machine, runtime = make_runtime()
    out = {}

    def app():
        out["report"] = (yield from runtime.deploy(DeploymentSpec(
            odf_paths=("/app-a.odf", "/app-b.odf"), proxy=False))).report

    sim.run_until_event(sim.spawn(app()))
    report = out["report"]
    assert report.roots == ["joint.AppA", "joint.AppB"]
    # Joint solve: shared goes to the GPU (satisfying B's Pull), A to
    # the NIC — every Offcode offloaded.
    assert runtime.get_offcode("joint.Shared").location == "gpu0"
    assert runtime.get_offcode("joint.AppB").location == "gpu0"
    assert runtime.get_offcode("joint.AppA").location == "a-nic"
    assert report.layout.host_fallbacks == []
    # The shared Offcode exists exactly once.
    assert len([n for n in report.offcodes if n == "joint.Shared"]) == 1


def test_joint_deployment_with_overlap_reuses():
    """Joint deploy after a prior deployment still reuses instances."""
    sim, machine, runtime = make_runtime()
    out = {}

    def app():
        yield from runtime.deploy(DeploymentSpec(odf_paths=("/shared.odf",)))
        out["first"] = runtime.get_offcode("joint.Shared")
        out["report"] = (yield from runtime.deploy(DeploymentSpec(
            odf_paths=("/app-a.odf",), proxy=False))).report

    sim.run_until_event(sim.spawn(app()))
    assert "joint.Shared" in out["report"].reused
    assert runtime.get_offcode("joint.Shared") is out["first"]


def test_deploy_many_requires_paths():
    from repro.errors import DeploymentError

    with pytest.raises(DeploymentError):
        DeploymentSpec(odf_paths=[], proxy=False)
