"""Deployment-pipeline cost: what does CreateOffcode actually take?

The framework's pitch is that deployment is automated; this bench prices
the automation.  One ``CreateOffcode`` covers ODF parsing, the ILP
solve, adaptation (compile for source-form Offcodes), dynamic loading
and two-phase bring-up.  Sweeps: object vs source form, host-linked vs
device-linked loaders, and growing closure sizes (chains of imports).
"""

from conftest import publish

from repro import units
from repro.core import (
    DeploymentSpec,
    DeviceLinkedLoader,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
)
from repro.core.guid import Guid
from repro.core.layout.constraints import ConstraintType
from repro.core.odf import DeviceClassFilter, OdfDocument, OdfImport
from repro.evaluation import format_table
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator

IDUMMY = InterfaceSpec.from_methods(
    "IBench", (MethodSpec("Nop", params=(), result="int"),))


class BenchOffcode(Offcode):
    BINDNAME = "bench.Node"
    INTERFACES = (IDUMMY,)

    def Nop(self):
        return 0


def build_chain(runtime, length: int, form: str) -> str:
    """Register a chain of `length` Offcodes, each importing the next."""
    classes = {}
    for i in range(length):
        bindname = f"bench.Node{i}"
        classes[i] = type(f"Bench{i}", (BenchOffcode,),
                          {"BINDNAME": bindname})
        guid = Guid(10_000 + i)
        imports = []
        if i + 1 < length:
            imports.append(OdfImport(
                file=f"/chain/{i + 1}.odf", bindname=f"bench.Node{i + 1}",
                guid=Guid(10_001 + i), reference=ConstraintType.GANG))
        runtime.library.register(f"/chain/{i}.odf", OdfDocument(
            bindname=bindname, guid=guid, interfaces=[IDUMMY],
            imports=imports,
            targets=[DeviceClassFilter(DeviceClass.NETWORK)],
            form=form, image_bytes=32 * 1024))
        runtime.depot.register(guid, classes[i])
    return "/chain/0.odf"


def deploy_once(length: int, form: str = "object",
                device_linked: bool = False):
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    if device_linked:
        runtime.loaders.register("nic0", DeviceLinkedLoader())
    root = build_chain(runtime, length, form)
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(DeploymentSpec(odf_paths=(root,)))

    sim.run_until_event(sim.spawn(app()))
    report = out["result"].report
    return {
        "elapsed_us": report.elapsed_ns / units.US,
        "offcodes": len(report.offcodes),
        "host_link_us": sum(r.host_cpu_ns for r in report.load_reports)
        / units.US,
        "device_link_us": sum(r.device_cpu_ns for r in report.load_reports)
        / units.US,
    }


def test_bench_deployment(one_shot):
    def sweep():
        return {
            "1 offcode, object": deploy_once(1),
            "4 offcodes, object": deploy_once(4),
            "8 offcodes, object": deploy_once(8),
            "4 offcodes, source": deploy_once(4, form="source"),
            "4 offcodes, dev-linked": deploy_once(4, device_linked=True),
        }

    results = one_shot(sweep)
    publish("deployment_cost", format_table(
        "Deployment pipeline cost (one CreateOffcode call)",
        ["configuration", "deployed", "elapsed us", "host-link us",
         "device-link us"],
        [[name, str(r["offcodes"]), f"{r['elapsed_us']:.0f}",
          f"{r['host_link_us']:.0f}", f"{r['device_link_us']:.0f}"]
         for name, r in results.items()]))

    # Cost grows with closure size but stays sub-millisecond-per-Offcode
    # scale (object form): automated deployment is cheap.
    assert results["4 offcodes, object"]["elapsed_us"] \
        > results["1 offcode, object"]["elapsed_us"]
    assert results["8 offcodes, object"]["elapsed_us"] \
        > results["4 offcodes, object"]["elapsed_us"]
    per_offcode = (results["8 offcodes, object"]["elapsed_us"] / 8)
    assert per_offcode < 2_000
    # Source form pays the cross-compile; device-linked pays device CPU.
    assert results["4 offcodes, source"]["elapsed_us"] \
        > 3 * results["4 offcodes, object"]["elapsed_us"]
    assert results["4 offcodes, dev-linked"]["device_link_us"] \
        > 3 * results["4 offcodes, object"]["device_link_us"]
