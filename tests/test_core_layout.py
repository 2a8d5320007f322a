"""Tests for the Section 5 layout machinery: graph, ILP, solvers."""

import importlib.util
import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleLayoutError, LayoutError
from repro.core.layout import (
    BranchAndBoundSolver,
    BusCapabilityMatrix,
    Constraint,
    ConstraintType,
    GreedySolver,
    HOST_INDEX,
    LayoutGraph,
    MaximizeBusUsage,
    MaximizeOffloading,
    MinimizeHostCpu,
    ScipyMilpSolver,
    build_ilp,
    parse_constraint_type,
)

DEVICES = ("host", "nic", "gpu", "disk")


def graph_with(nodes, constraints=(), devices=DEVICES):
    graph = LayoutGraph(devices)
    for name, compat, *rest in nodes:
        price = rest[0] if rest else 0.0
        graph.add_node(name, compat, price=price)
    for source, target, kind in constraints:
        graph.constrain(source, target, kind)
    return graph


# -- constraints --------------------------------------------------------------------

def test_parse_constraint_types():
    assert parse_constraint_type("Pull") is ConstraintType.PULL
    assert parse_constraint_type("gang") is ConstraintType.GANG
    assert parse_constraint_type("Asymmetric-Gang") is ConstraintType.GANG_ASYM
    assert parse_constraint_type("link") is ConstraintType.LINK
    with pytest.raises(LayoutError):
        parse_constraint_type("strange")


def test_constraint_validation():
    with pytest.raises(LayoutError):
        Constraint("a", "a", ConstraintType.PULL)
    with pytest.raises(LayoutError):
        Constraint("a", "b", ConstraintType.PULL, priority=-1)


# -- graph -------------------------------------------------------------------------------

def test_graph_construction_and_validation():
    graph = graph_with([("a", [True, True, False, False])])
    assert graph.num_devices == 4
    assert graph.node("a").host_capable
    with pytest.raises(LayoutError):
        graph.add_node("a", [True, True, True, True])    # duplicate
    with pytest.raises(LayoutError):
        graph.add_node("b", [True, True])                # wrong arity
    with pytest.raises(LayoutError):
        graph.add_node("c", [False, False, False, False])  # nowhere to go
    with pytest.raises(LayoutError):
        graph.constrain("a", "ghost", ConstraintType.PULL)


def test_check_placement_detects_violations():
    graph = graph_with(
        [("a", [True, True, False, False]),
         ("b", [True, True, True, False])],
        [("a", "b", ConstraintType.PULL)])
    assert graph.check_placement({"a": 1, "b": 1}) == []
    assert graph.check_placement({"a": 1, "b": 2}) != []   # pull broken
    assert graph.check_placement({"a": 2, "b": 1}) != []   # incompatible
    assert graph.check_placement({"a": 1}) != []           # missing


def test_check_placement_gang_semantics():
    graph = graph_with(
        [("a", [True, True, False, False]),
         ("b", [True, False, True, False])],
        [("a", "b", ConstraintType.GANG)])
    assert graph.check_placement({"a": 1, "b": 2}) == []   # both offloaded
    assert graph.check_placement({"a": 0, "b": 0}) == []   # both on host
    assert graph.check_placement({"a": 1, "b": 0}) != []


def test_check_placement_asym_gang_semantics():
    graph = graph_with(
        [("a", [True, True, False, False]),
         ("b", [True, False, True, False])],
        [("a", "b", ConstraintType.GANG_ASYM)])
    # source offloaded requires target offloaded...
    assert graph.check_placement({"a": 1, "b": 2}) == []
    assert graph.check_placement({"a": 1, "b": 0}) != []
    # ...but target alone is fine.
    assert graph.check_placement({"a": 0, "b": 2}) == []


# -- ILP construction ----------------------------------------------------------------------

def test_build_ilp_variables_respect_compat():
    graph = graph_with([("a", [True, True, False, False])])
    problem = build_ilp(graph)
    assert problem.var_names == ["a@host", "a@nic"]
    assert problem.groups == [[0, 1]]


def test_build_ilp_pull_without_shared_device_infeasible():
    graph = graph_with(
        [("a", [False, True, False, False]),
         ("b", [False, False, True, False])],
        [("a", "b", ConstraintType.PULL)])
    with pytest.raises(InfeasibleLayoutError):
        build_ilp(graph)


def test_link_adds_no_equations():
    graph = graph_with(
        [("a", [True, True, False, False]),
         ("b", [True, True, False, False])],
        [("a", "b", ConstraintType.LINK)])
    assert build_ilp(graph).constraints == []


# -- solvers -------------------------------------------------------------------------------

SOLVERS = [BranchAndBoundSolver(), GreedySolver()]
if ScipyMilpSolver.available():
    SOLVERS.append(ScipyMilpSolver())


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.name)
def test_simple_graph_fully_offloaded(solver):
    graph = graph_with(
        [("a", [True, True, False, False]),
         ("b", [True, False, True, False])])
    result = solver.solve(MaximizeOffloading().build(graph))
    assert result.placement == {"a": 1, "b": 2}
    assert result.objective == 2.0
    assert graph.check_placement(result.placement) == []


@pytest.mark.parametrize("solver", [BranchAndBoundSolver()]
                         + ([ScipyMilpSolver()]
                            if ScipyMilpSolver.available() else []),
                         ids=lambda s: s.name)
def test_pull_forces_colocation(solver):
    graph = graph_with(
        [("a", [True, True, True, False]),
         ("b", [True, False, True, True])],
        [("a", "b", ConstraintType.PULL)])
    result = solver.solve(MaximizeOffloading().build(graph))
    assert result.placement["a"] == result.placement["b"] == 2   # gpu
    assert graph.check_placement(result.placement) == []


def test_gang_ties_offload_decisions():
    graph = graph_with(
        [("a", [True, True, False, False]),
         ("b", [True, False, False, False])],   # b can only run on host
        [("a", "b", ConstraintType.GANG)])
    result = BranchAndBoundSolver().solve(MaximizeOffloading().build(graph))
    # b cannot offload, so the Gang forces a onto the host too.
    assert result.placement == {"a": HOST_INDEX, "b": HOST_INDEX}


def test_asym_gang_allows_target_only():
    graph = graph_with(
        [("a", [True, False, False, False]),
         ("b", [True, True, False, False])],
        [("a", "b", ConstraintType.GANG_ASYM)])
    result = BranchAndBoundSolver().solve(MaximizeOffloading().build(graph))
    # a stays on host; b still offloads (asymmetry).
    assert result.placement == {"a": 0, "b": 1}


def test_infeasible_raises():
    graph = graph_with(
        [("a", [False, True, False, False]),     # must offload to nic
         ("b", [True, False, False, False])],    # must stay on host
        [("a", "b", ConstraintType.GANG)])
    with pytest.raises(InfeasibleLayoutError):
        BranchAndBoundSolver().solve(MaximizeOffloading().build(graph))


def test_bus_usage_objective_respects_capacity():
    graph = graph_with(
        [("big", [True, True, False, False], 10.0),
         ("small1", [True, True, False, False], 4.0),
         ("small2", [True, True, False, False], 4.0)])
    capability = BusCapabilityMatrix.uniform(DEVICES, 4.0)
    # nic budget = 4+4+4 (pairs with gpu, disk, and host excluded) -> the
    # uniform matrix gives nic pairs (nic,gpu) and (nic,disk): budget 8.
    result = BranchAndBoundSolver().solve(
        MaximizeBusUsage(capability).build(graph))
    offloaded_price = sum(
        graph.node(name).price for name, k in result.placement.items()
        if k != HOST_INDEX)
    assert offloaded_price <= 8.0
    # Optimal under the budget: the two smalls (8.0) beat the big (10>8).
    assert result.placement["big"] == HOST_INDEX
    assert result.placement["small1"] != HOST_INDEX
    assert result.placement["small2"] != HOST_INDEX


def test_minimize_host_cpu_objective():
    graph = graph_with(
        [("hot", [True, True, False, False]),
         ("cold", [True, False, True, False])])
    # Only one can offload: gang them against a host-only third party?
    # Simpler: both can offload; weights must order the objective.
    result = BranchAndBoundSolver().solve(
        MinimizeHostCpu({"hot": 0.5, "cold": 0.01}).build(graph))
    assert result.objective == pytest.approx(0.51)


def test_greedy_is_suboptimal_on_contended_graph():
    """Section 5: "for complex scenarios a greedy solution is not always
    optimal."  Greedy grabs the bus budget for the first (big) Offcode
    and strands the two smalls; the ILP leaves the big one home."""
    graph = graph_with(
        [("big", [True, True, False, False], 6.0),
         ("small1", [True, True, False, False], 4.0),
         ("small2", [True, True, False, False], 4.0)])
    capability = BusCapabilityMatrix.uniform(DEVICES, 4.0)   # nic budget 8
    problem = MaximizeBusUsage(capability).build(graph)
    greedy = GreedySolver().solve(problem)
    exact = BranchAndBoundSolver().solve(problem)
    assert greedy.objective == pytest.approx(6.0)    # big only
    assert exact.objective == pytest.approx(8.0)     # both smalls
    assert exact.objective > greedy.objective


@pytest.mark.skipif(not ScipyMilpSolver.available(),
                    reason="scipy not installed")
def test_scipy_matches_branch_and_bound_on_tivopc_like_graph():
    graph = graph_with(
        [("streamer", [True, True, False, True]),
         ("decoder", [True, True, True, False]),
         ("display", [False, False, True, False]),
         ("file", [True, False, False, True]),
         ("broadcast", [True, True, False, False])],
        [("streamer", "decoder", ConstraintType.GANG),
         ("decoder", "display", ConstraintType.PULL),
         ("file", "streamer", ConstraintType.PULL)])
    problem = MaximizeOffloading().build(graph)
    a = BranchAndBoundSolver().solve(problem)
    b = ScipyMilpSolver().solve(problem)
    assert a.objective == pytest.approx(b.objective)
    assert graph.check_placement(a.placement) == []
    assert graph.check_placement(b.placement) == []


# -- property: exact solvers agree on random instances ---------------------------------------

@st.composite
def random_layout(draw):
    num_devices = draw(st.integers(min_value=2, max_value=4))
    devices = tuple(["host"] + [f"d{i}" for i in range(num_devices - 1)])
    num_nodes = draw(st.integers(min_value=1, max_value=5))
    graph = LayoutGraph(devices)
    for i in range(num_nodes):
        compat = [draw(st.booleans()) for _ in devices]
        compat[0] = True        # host always possible: feasibility anchor
        graph.add_node(f"n{i}", compat,
                       price=draw(st.integers(min_value=0, max_value=5)))
    num_edges = draw(st.integers(min_value=0, max_value=4))
    for _ in range(num_edges):
        a = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if a == b:
            continue
        kind = draw(st.sampled_from([ConstraintType.PULL,
                                     ConstraintType.GANG,
                                     ConstraintType.GANG_ASYM,
                                     ConstraintType.LINK]))
        graph.constrain(f"n{a}", f"n{b}", kind)
    return graph


@given(graph=random_layout())
@settings(max_examples=60, deadline=None)
def test_property_bnb_solution_valid_and_optimal_vs_scipy(graph):
    try:
        problem = MaximizeOffloading().build(graph)
    except InfeasibleLayoutError:
        return
    try:
        bnb = BranchAndBoundSolver().solve(problem)
    except InfeasibleLayoutError:
        if ScipyMilpSolver.available():
            with pytest.raises(InfeasibleLayoutError):
                ScipyMilpSolver().solve(problem)
        return
    assert graph.check_placement(bnb.placement) == []
    if ScipyMilpSolver.available():
        scipy_result = ScipyMilpSolver().solve(problem)
        assert scipy_result.objective == pytest.approx(bnb.objective)


def _exhaustive_max_offloaded(graph):
    """The most offcodes any valid placement offloads, by trying every
    placement the compat vectors allow; None if none is valid."""
    names = list(graph.nodes)
    best = None
    for choice in itertools.product(
            *(graph.node(name).compatible_indices() for name in names)):
        if graph.check_placement(dict(zip(names, choice))):
            continue
        offloaded = sum(k != HOST_INDEX for k in choice)
        best = offloaded if best is None else max(best, offloaded)
    return best


@given(graph=random_layout())
@settings(max_examples=60, deadline=None)
def test_property_bnb_matches_exhaustive_enumeration(graph):
    best = _exhaustive_max_offloaded(graph)
    try:
        bnb = BranchAndBoundSolver().solve(MaximizeOffloading().build(graph))
    except InfeasibleLayoutError:
        assert best is None
        return
    assert graph.check_placement(bnb.placement) == []
    assert bnb.objective == best
    assert sum(k != HOST_INDEX for k in bnb.placement.values()) == best


@given(graph=random_layout())
@settings(max_examples=60, deadline=None)
def test_property_greedy_never_beats_exact_and_is_valid(graph):
    try:
        problem = MaximizeOffloading().build(graph)
        exact = BranchAndBoundSolver().solve(problem)
    except InfeasibleLayoutError:
        return
    try:
        greedy = GreedySolver().solve(problem)
    except InfeasibleLayoutError:
        return   # greedy may paint itself into a corner; that's its flaw
    assert graph.check_placement(greedy.placement) == []
    assert greedy.objective <= exact.objective + 1e-9


# -- the default layout path stays free of SciPy ----------------------------------

_NO_SCIPY_SCRIPT = """
import sys
from repro.rdma.kv import build_kv_world, deploy_cache
from repro.tivopc import OffloadedClient, OffloadedServer, Testbed, TestbedConfig

testbed = Testbed(TestbedConfig(seed=1))
testbed.start()
OffloadedClient(testbed, host_fallback=True).start()
OffloadedServer(testbed).start()
testbed.run(0.3)
world = build_kv_world()
world.sim.run_until_event(world.sim.spawn(deploy_cache(world)))
print("scipy" in sys.modules)
"""


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter; return its stdout lines.

    A fresh interpreter, because another test in this process may
    already have imported SciPy or numpy.
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    return completed.stdout.strip().splitlines()


def test_default_layout_path_never_imports_scipy():
    """Testbeds and the KV cache solve layouts with branch-and-bound only."""
    assert _run_fresh(_NO_SCIPY_SCRIPT)[-1] == "False"


# -- numpy is loaded only where an L2 replays ------------------------------------

_LAZY_NUMPY_SCRIPT = """
import sys
from repro.rdma.kv import build_kv_world, deploy_cache
from repro.tivopc import SimpleServer, Testbed, TestbedConfig, UserSpaceClient
from repro.tivopc.population import PopulationConfig, run_population

world = build_kv_world()
keys = [f"key-{i}" for i in range(4)]

def ops():
    yield from deploy_cache(world)
    for key in keys:
        yield from world.proxy.Put(key, "v:" + key)
    got = yield from world.client.get_batch(keys)
    assert got == {key: "v:" + key for key in keys}, got

world.sim.run_until_event(world.sim.spawn(ops()))
population = run_population(range(4), PopulationConfig(clients=4, seconds=0.05))
assert population.subscribers and population.subscribers[0].chunks_sent > 0
assert world.machine.l2.stats.accesses == 0
print("numpy" in sys.modules)

testbed = Testbed(TestbedConfig(seed=1))
testbed.start()
UserSpaceClient(testbed).start()
SimpleServer(testbed).start()
testbed.run(0.3)
assert testbed.server.machine.l2.stats.accesses > 0
print("numpy" in sys.modules)
"""


def test_numpy_is_imported_only_when_an_l2_replays():
    """The KV cache, a chunk-fidelity population and an untouched L2
    never import numpy; observing a streaming host's L2 replays its
    op log on numpy whenever numpy is installed."""
    kv_and_population, stream = _run_fresh(_LAZY_NUMPY_SCRIPT)[-2:]
    assert kv_and_population == "False"
    assert stream == str(importlib.util.find_spec("numpy") is not None)
