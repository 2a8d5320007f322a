"""Encode-once guarantees for Call objects.

Marshaling is charged per byte on the caller's CPU, so the argument
bytes must be produced exactly once per logical invocation: a Call
caches its encoded arguments and serialized size at construction,
``reissue()`` reuses them for retries, and the proxy retry loop never
re-marshals.  Each simulator's ``repro_marshal_encodes_total`` counter
counts real serializations and pins each path.
"""

import pytest

from repro.core import (
    CallPolicy,
    DeploymentSpec,
    HydraRuntime,
    InterfaceSpec,
    MethodSpec,
    Offcode,
    RetryBudgetExceededError,
)
from repro.core import marshal
from repro.core.call import make_call
from repro.core.guid import Guid
from repro.core.odf import DeviceClassFilter, OdfDocument
from repro.hw import DeviceClass, Machine
from repro.sim import Simulator

IECHO = InterfaceSpec.from_methods(
    "IEcho", (MethodSpec("Echo", params=(("payload", "string"),),
                         result="string"),))


class EchoOffcode(Offcode):
    BINDNAME = "cache.Echo"
    INTERFACES = (IECHO,)

    def Echo(self, payload):
        return payload


ECHO_GUID = Guid(4242)


@pytest.fixture()
def world():
    return build_world()


def build_world():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    runtime.library.register("/echo.odf", OdfDocument(
        bindname="cache.Echo", guid=ECHO_GUID, interfaces=[IECHO],
        targets=[DeviceClassFilter(DeviceClass.NETWORK)],
        image_bytes=8 * 1024))
    runtime.depot.register(ECHO_GUID, EchoOffcode)
    return sim, machine, runtime


def counts(sim):
    """``(encodes, decodes)`` counted in ``sim``'s metrics registry."""
    return tuple(counter.value for counter in marshal.counters(sim.metrics))


def encodes(sim):
    """Serializations counted in ``sim``'s metrics registry so far."""
    return counts(sim)[0]


def deploy(sim, runtime):
    out = {}

    def app():
        out["result"] = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/echo.odf",)))

    sim.run_until_event(sim.spawn(app()))
    return out["result"]


def test_make_call_encodes_once_and_caches_size():
    sim = Simulator()
    before = encodes(sim)
    call = make_call(sim, IECHO, "Echo", ("hello world",))
    assert encodes(sim) == before + 1
    # size_bytes is a cached attribute: reading it repeatedly (channels,
    # batchers and providers all do) never touches the encoder again.
    sizes = {call.size_bytes for _ in range(10)}
    assert sizes == {24 + len("Echo") + len(call.encoded_args)}
    assert encodes(sim) == before + 1


def test_reissue_reuses_encoded_bytes():
    sim = Simulator()
    call = make_call(sim, IECHO, "Echo", ("payload",))
    before = encodes(sim)
    retry = call.reissue(sim)
    assert encodes(sim) == before          # no re-encode
    assert retry.encoded_args is call.encoded_args  # same bytes object
    assert retry.size_bytes == call.size_bytes
    assert retry is not call
    # Two-way calls get a fresh, unused descriptor.
    assert retry.return_descriptor is not None
    assert retry.return_descriptor is not call.return_descriptor
    assert not retry.return_descriptor.delivered


def test_retry_proxy_marshals_arguments_once(world):
    sim, machine, runtime = world
    proxy = deploy(sim, runtime).proxy
    proxy.set_policy(CallPolicy(deadline_ns=100_000, max_attempts=3,
                                backoff_base_ns=10_000))
    machine.device("nic0").health.stall()
    out = {}

    def call():
        try:
            yield from proxy.Echo("a" * 256)
        except RetryBudgetExceededError as exc:
            out["exc"] = exc

    before = encodes(sim)
    sim.run_until_event(sim.spawn(call()))
    assert out["exc"].attempts == 3
    assert proxy.timeouts == 3
    # Three attempts, one serialization: retries reissue the cached
    # bytes instead of re-marshaling the 256-byte argument.
    assert encodes(sim) == before + 1


def test_each_simulator_counts_only_its_own_marshaling(world):
    """Two simulators interleaved in one process: each registry counts
    the encodes and decodes of its own calls and nothing else."""
    runs = [(sim, deploy(sim, runtime).proxy)
            for sim, _, runtime in (world, build_world())]
    before = [counts(sim) for sim, _ in runs]

    def echo(proxy):
        yield from proxy.Echo("x")

    for _ in range(3):
        for (sim, proxy), calls in zip(runs, (1, 2)):
            for _ in range(calls):
                sim.run_until_event(sim.spawn(echo(proxy)))
    # A two-way call encodes its arguments at the proxy and its result
    # at the offcode, and decodes each once on the far side.
    assert [counts(sim) for sim, _ in runs] == [
        (encoded + 2 * calls, decoded + 2 * calls)
        for (encoded, decoded), calls in zip(before, (3, 6))]
