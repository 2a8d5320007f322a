"""The repro.api facade, DeploymentSpec and the ChannelConfig builder."""

import ast
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
import repro.api as api
from repro.core.channel import (
    Buffering,
    Channel,
    ChannelConfig,
    ChannelKind,
    Reliability,
)
from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.core.offcode import Offcode
from repro.core.runtime import DeploymentSpec, HydraRuntime
from repro.errors import ChannelError, DeploymentError
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
PACKAGE = pathlib.Path(repro.__file__).parent


# -- the facade ---------------------------------------------------------------------

def test_every_facade_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_facade_all_is_duplicate_free():
    assert len(api.__all__) == len(set(api.__all__))


def test_package_root_reexports_the_facade_lazily():
    assert repro.HydraRuntime is api.HydraRuntime
    assert repro.ChannelConfig is api.ChannelConfig
    assert repro.api is api


def test_package_root_still_exposes_subpackages():
    assert repro.units.SECOND == 1_000_000_000
    assert repro.core.Channel is Channel


def test_every_subpackage_resolves_on_first_access():
    # In a fresh interpreter nothing has imported the subpackage yet, so
    # the attribute lookup goes through the package root's lazy hook.
    names = sorted(path.stem for path in PACKAGE.iterdir()
                   if (path / "__init__.py").exists()
                   or (path.suffix == ".py" and path.stem != "__init__"))
    assert {"api", "core", "rdma", "resilience", "units"} <= set(names)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for name in names:
        probe = subprocess.run(
            [sys.executable, "-c", f"import repro; repro.{name}"],
            env=env, capture_output=True, text=True)
        assert probe.returncode == 0, (name, probe.stderr)


def test_package_root_rejects_unknown_names():
    with pytest.raises(AttributeError):
        repro.DefinitelyNotAThing


def test_examples_import_only_from_the_facade():
    """examples/ are user-facing: they must stay on the blessed surface."""
    for path in sorted(EXAMPLES.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    assert node.module == "repro.api", (
                        f"{path.name} imports from {node.module}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("repro"), (
                        f"{path.name} imports {alias.name}")


# -- DeploymentSpec ------------------------------------------------------------------

def test_deployment_spec_coerces_a_lone_path():
    spec = DeploymentSpec(odf_paths="/offcodes/a.odf")
    assert spec.odf_paths == ("/offcodes/a.odf",)


def test_deployment_spec_requires_a_path():
    with pytest.raises(DeploymentError):
        DeploymentSpec(odf_paths=())


# -- deploying through the spec -----------------------------------------------------

ICHECK = InterfaceSpec.from_methods(
    "ICheck", (MethodSpec("Compute", params=(("size", "int"),),
                          result="int"),))


class CheckOffcode(Offcode):
    BINDNAME = "compat.Check"
    INTERFACES = (ICHECK,)

    def Compute(self, size):
        yield from self.site.execute(size, context="check")
        return size & 0xFFFF


def _runtime_with_odf():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(bindname="compat.Check",
                      guid=CheckOffcode(runtime.host_site).guid,
                      interfaces=[ICHECK],
                      targets=[DeviceClassFilter(DeviceClass.NETWORK)])
    runtime.library.register("/offcodes/check.odf", odf)
    runtime.depot.register(odf.guid, CheckOffcode)
    return sim, runtime


def test_runtime_deploy_does_not_warn():
    sim, runtime = _runtime_with_odf()

    def app():
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            yield from runtime.deploy(
                DeploymentSpec(odf_paths=("/offcodes/check.odf",)))

    sim.run_until_event(sim.spawn(app()))


# -- the ChannelConfig builder ------------------------------------------------------

def test_channel_config_keywords_and_builder_agree():
    keywords = ChannelConfig(kind=ChannelKind.MULTICAST)
    assert keywords == ChannelConfig.multicast()
    assert hash(keywords) == hash(ChannelConfig.multicast())
    base = ChannelConfig.unicast()
    refined = base.unreliable()
    assert refined is not base
    assert base.reliability is Reliability.RELIABLE
    assert refined.reliability is Reliability.UNRELIABLE
    with pytest.raises(ChannelError):
        ChannelConfig(ring_slots=0)
    with pytest.raises(ChannelError):
        ChannelConfig.unicast().with_ring_slots(0)


def test_raw_defaults_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        config = ChannelConfig()
    assert config.kind is ChannelKind.UNICAST


def test_builder_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        config = (ChannelConfig.multicast().reliable().sequential()
                  .zero_copy().batched(max_calls=8).labeled("t"))
    assert config.kind is ChannelKind.MULTICAST
    assert config.reliability is Reliability.RELIABLE
    assert config.buffering is Buffering.DIRECT
    assert config.batch is not None and config.batch.max_calls == 8


def test_unbatched_clears_the_watermarks():
    config = ChannelConfig.unicast().batched().unbatched()
    assert config.batch is None


def test_batched_refines_existing_watermarks():
    config = (ChannelConfig.unicast().batched(max_calls=8)
              .batched(deadline_ns=1_000))
    assert config.batch.max_calls == 8
    assert config.batch.deadline_ns == 1_000
