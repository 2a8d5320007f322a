"""Offloading layout machinery: graph, constraints, ILP, solvers."""

from repro.core.layout.constraints import (
    Constraint,
    ConstraintType,
    parse_constraint_type,
)
from repro.core.layout.graph import HOST_INDEX, LayoutGraph, LayoutNode
from repro.core.layout.ilp import (
    EQ,
    IlpProblem,
    LE,
    LinearConstraint,
    build_ilp,
)
from repro.core.layout.objectives import (
    BusCapabilityMatrix,
    MaximizeBusUsage,
    MaximizeOffloading,
    MinimizeHostCpu,
    Objective,
)
from repro.core.layout.quadratic import (
    MinimizeBusCrossings,
    TrafficMatrix,
    crossing_cost,
)
from repro.core.layout.resolver import OffloadLayoutResolver, ResolvedLayout
from repro.core.layout.solver import (
    BranchAndBoundSolver,
    GreedySolver,
    ScipyMilpSolver,
    SolveResult,
)

__all__ = [
    "BranchAndBoundSolver",
    "BusCapabilityMatrix",
    "Constraint",
    "ConstraintType",
    "EQ",
    "GreedySolver",
    "HOST_INDEX",
    "IlpProblem",
    "LE",
    "LayoutGraph",
    "LayoutNode",
    "LinearConstraint",
    "MaximizeBusUsage",
    "MaximizeOffloading",
    "MinimizeBusCrossings",
    "MinimizeHostCpu",
    "TrafficMatrix",
    "crossing_cost",
    "Objective",
    "OffloadLayoutResolver",
    "ResolvedLayout",
    "ScipyMilpSolver",
    "SolveResult",
    "build_ilp",
    "parse_constraint_type",
]
