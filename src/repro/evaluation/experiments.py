"""Experiment drivers — one function per paper table/figure.

Each driver builds a fresh testbed, runs the scenario for a configurable
amount of simulated time, and returns a structured result object holding
both the measured values and the paper's published values, so the
benchmark harness (and EXPERIMENTS.md) can print paper-vs-measured rows
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from repro.core.layout import (
    BranchAndBoundSolver,
    BusCapabilityMatrix,
    ConstraintType,
    GreedySolver,
    LayoutGraph,
    MaximizeBusUsage,
    MaximizeOffloading,
)
from repro.errors import InfeasibleLayoutError
from repro.evaluation.foong import TcpCostModel, fig1_series
from repro.sim.rng import RandomStreams
from repro.tivopc.client import (
    MeasurementClient,
    OffloadedClient,
    UserSpaceClient,
)
from repro.tivopc.metrics import (
    PeriodicSampler,
    SummaryStats,
    cdf_points,
    histogram,
)
from repro.tivopc.server import (
    OffloadedServer,
    SendfileServer,
    SimpleServer,
)
from repro.tivopc.testbed import Testbed, TestbedConfig

__all__ = [
    "ServerScenarioResult",
    "ClientScenarioResult",
    "SERVER_SCENARIOS",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "run_server_scenario",
    "run_all_server_scenarios",
    "run_client_scenario",
    "run_all_client_scenarios",
    "run_fig1",
    "run_ilp_vs_greedy",
    "run_power_comparison",
]

SERVER_SCENARIOS = ("idle", "simple", "sendfile", "offloaded")
CLIENT_SCENARIOS = ("idle", "user-space", "offloaded")

# Published values (Tables 2-4), for paper-vs-measured reporting.
PAPER_TABLE2 = MappingProxyType({
    "simple": (6.99, 7.00, 0.5521),
    "sendfile": (6.00, 5.99, 0.4720),
    "offloaded": (5.00, 5.00, 0.0369),
})
PAPER_TABLE3 = MappingProxyType({
    "idle": (0.0290, 0.0286, 0.0009),
    "simple": (0.0750, 0.0750, 0.0012),
    "sendfile": (0.0590, 0.0620, 0.0008),
    "offloaded": (0.0290, 0.0286, 0.0009),
})
PAPER_TABLE4 = MappingProxyType({
    "idle": (0.0290, 0.0286, 0.0009),
    "user-space": (0.0730, 0.0690, 0.0032),
    "offloaded": (0.0290, 0.0286, 0.0009),
})
# Figure 10, read off the bars: normalized kernel L2 miss rate.
PAPER_FIG10 = MappingProxyType({"idle": 1.00, "simple": 1.07,
                                "sendfile": 1.005, "offloaded": 1.00})
# Section 6.4 text: non-offloaded client generates 12 % more L2 misses.
PAPER_CLIENT_L2 = MappingProxyType({"idle": 1.00, "user-space": 1.12,
                                    "offloaded": 1.00})

_SERVER_CLASSES = MappingProxyType({"simple": SimpleServer,
                                    "sendfile": SendfileServer,
                                    "offloaded": OffloadedServer})


@dataclass
class ServerScenarioResult:
    """One row of Tables 2/3 plus the Figure 9/10 raw material."""

    scenario: str
    jitter: Optional[SummaryStats]
    jitter_samples_ms: List[float]
    cpu: SummaryStats
    l2_miss_rate: float
    packets: int

    def jitter_histogram(self, bin_ms: float = 0.25):
        """Fixed-width histogram of the inter-arrival gaps."""
        return histogram(self.jitter_samples_ms, bin_ms)

    def jitter_cdf(self):
        """Empirical CDF points of the inter-arrival gaps."""
        return cdf_points(self.jitter_samples_ms)


def run_server_scenario(scenario: str, seconds: float = 30.0,
                        seed: int = 0) -> ServerScenarioResult:
    """Run one server variant (or 'idle') and collect all server-side
    metrics in a single pass."""
    if scenario not in SERVER_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"pick from {SERVER_SCENARIOS}")
    testbed = Testbed(TestbedConfig(seed=seed))
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    server = None
    if scenario != "idle":
        server = _SERVER_CLASSES[scenario](testbed)
        server.start()
    sampler = PeriodicSampler(testbed.sim, testbed.server.machine.cpu,
                              testbed.server.machine.l2)
    testbed.sim.spawn(sampler.process(), name="sampler")
    testbed.run(seconds)

    samples = client.jitter.intervals_ms() if scenario != "idle" else []
    return ServerScenarioResult(
        scenario=scenario,
        jitter=SummaryStats.of(samples) if samples else None,
        jitter_samples_ms=samples,
        cpu=sampler.cpu_stats(),
        l2_miss_rate=sampler.miss_rate_stats().average,
        packets=client.jitter.packet_count,
    )


def run_all_server_scenarios(seconds: float = 30.0, seed: int = 0
                             ) -> Dict[str, ServerScenarioResult]:
    """All four server scenarios (idle + three servers), one run each."""
    return {scenario: run_server_scenario(scenario, seconds, seed)
            for scenario in SERVER_SCENARIOS}


@dataclass
class ClientScenarioResult:
    """One row of Table 4 plus the client L2 claim."""

    scenario: str
    cpu: SummaryStats
    l2_miss_rate: float
    chunks: int
    frames: int
    recorded_bytes: int


def run_client_scenario(scenario: str, seconds: float = 30.0,
                        seed: int = 0) -> ClientScenarioResult:
    """Client-side scenarios; the stream source is always the offloaded
    server (precise pacing isolates the client's own costs).  'idle'
    runs no client *and no stream* — the paper's unloaded baseline."""
    if scenario not in CLIENT_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"pick from {CLIENT_SCENARIOS}")
    testbed = Testbed(TestbedConfig(seed=seed))
    testbed.start()
    client = None
    if scenario == "user-space":
        client = UserSpaceClient(testbed)
        client.start()
    elif scenario == "offloaded":
        client = OffloadedClient(testbed)
        client.start()
    if scenario != "idle":
        OffloadedServer(testbed).start()
    sampler = PeriodicSampler(testbed.sim, testbed.client.machine.cpu,
                              testbed.client.machine.l2)
    testbed.sim.spawn(sampler.process(), name="sampler")
    testbed.run(seconds)

    return ClientScenarioResult(
        scenario=scenario,
        cpu=sampler.cpu_stats(),
        l2_miss_rate=sampler.miss_rate_stats().average,
        chunks=getattr(client, "chunks_received", 0) if client else 0,
        frames=getattr(client, "frames_shown", 0) if client else 0,
        recorded_bytes=getattr(client, "bytes_recorded", 0) if client else 0,
    )


def run_all_client_scenarios(seconds: float = 30.0, seed: int = 0
                             ) -> Dict[str, ClientScenarioResult]:
    """All three client scenarios (idle, user-space, offloaded)."""
    return {scenario: run_client_scenario(scenario, seconds, seed)
            for scenario in CLIENT_SCENARIOS}


# -- Figure 1 -------------------------------------------------------------------------

def run_fig1(model: Optional[TcpCostModel] = None
             ) -> List[Tuple[int, float, float]]:
    """The Figure-1 series: (size, tx ratio, rx ratio) rows."""
    return fig1_series(model or TcpCostModel())


# -- ablation: ILP vs greedy (Section 5) ---------------------------------------------------

@dataclass
class IlpComparisonResult:
    """Aggregate over random layout graphs."""

    graphs: int = 0
    greedy_failures: int = 0
    greedy_suboptimal: int = 0
    total_exact_objective: float = 0.0
    total_greedy_objective: float = 0.0
    exact_on_greedy_solved: float = 0.0
    worst_gap: float = 0.0

    @property
    def mean_gap(self) -> float:
        """Objective lost by greedy, over the instances it solved."""
        if self.exact_on_greedy_solved == 0:
            return 0.0
        return 1.0 - (self.total_greedy_objective
                      / self.exact_on_greedy_solved)


def _random_graph(rng, num_nodes: int, num_devices: int) -> LayoutGraph:
    devices = tuple(["host"] + [f"dev{i}" for i in range(num_devices)])
    graph = LayoutGraph(devices)
    for i in range(num_nodes):
        compat = [True] + [rng.random() < 0.6 for _ in range(num_devices)]
        graph.add_node(f"n{i}", compat,
                       price=rng.choice([1.0, 2.0, 4.0, 6.0, 8.0]))
    kinds = [ConstraintType.PULL, ConstraintType.GANG,
             ConstraintType.GANG_ASYM, ConstraintType.LINK]
    for _ in range(max(0, num_nodes - 1)):
        a, b = rng.sample(range(num_nodes), 2)
        graph.constrain(f"n{a}", f"n{b}", rng.choice(kinds))
    return graph


def run_ilp_vs_greedy(graphs: int = 40, num_nodes: int = 8,
                      num_devices: int = 3, seed: int = 7,
                      use_bus_objective: bool = True
                      ) -> IlpComparisonResult:
    """The Section-5 claim: greedy is not always optimal on complex
    layouts.  Random constrained graphs under the bus-usage objective
    (tight capability budgets make local choices costly)."""
    rng = RandomStreams(seed).stream("ilp-ablation")
    exact_solver = BranchAndBoundSolver()
    greedy_solver = GreedySolver()
    result = IlpComparisonResult()
    for _ in range(graphs):
        graph = _random_graph(rng, num_nodes, num_devices)
        if use_bus_objective:
            capability = BusCapabilityMatrix.uniform(
                graph.devices, rng.choice([4.0, 6.0, 8.0]))
            objective = MaximizeBusUsage(capability)
        else:
            objective = MaximizeOffloading()
        try:
            problem = objective.build(graph)
            exact = exact_solver.solve(problem)
        except InfeasibleLayoutError:
            continue
        result.graphs += 1
        result.total_exact_objective += exact.objective
        try:
            greedy = greedy_solver.solve(problem)
        except InfeasibleLayoutError:
            result.greedy_failures += 1
            continue
        result.total_greedy_objective += greedy.objective
        result.exact_on_greedy_solved += exact.objective
        if greedy.objective < exact.objective - 1e-9:
            result.greedy_suboptimal += 1
            gap = ((exact.objective - greedy.objective)
                   / max(exact.objective, 1e-9))
            result.worst_gap = max(result.worst_gap, gap)
    return result


# -- ablation: power (Section 1.1, argument 3) ---------------------------------------------

@dataclass
class PowerComparisonResult:
    scenario: str
    host_joules: float
    device_joules: float
    total_joules: float


def run_power_comparison(seconds: float = 20.0, seed: int = 0
                         ) -> Dict[str, PowerComparisonResult]:
    """Energy of the server machine under each server variant."""
    results: Dict[str, PowerComparisonResult] = {}
    for scenario in ("simple", "sendfile", "offloaded"):
        testbed = Testbed(TestbedConfig(seed=seed))
        testbed.start()
        MeasurementClient(testbed).start()
        _SERVER_CLASSES[scenario](testbed).start()
        testbed.run(seconds)
        power = testbed.server.machine.power
        host = power.component_energy("server-cpu").joules
        device = power.component_energy("nic0-cpu").joules
        results[scenario] = PowerComparisonResult(
            scenario=scenario, host_joules=host, device_joules=device,
            total_joules=power.total_joules())
    return results
