"""ILP solvers for the offloading layout problem.

"Any ILP solver can then be used to solve the equations given a target
optimization function" (Section 5).  Two complete solvers and one
baseline are provided:

* :class:`BranchAndBoundSolver` — exact, from scratch: depth-first
  search over the per-Offcode placement groups with interval-based
  constraint propagation and an optimistic objective bound.
* :class:`ScipyMilpSolver` — delegates to ``scipy.optimize.milp``: the
  "any ILP solver" plug-in point, used only when passed explicitly (the
  tests use it as an independent oracle).
* :class:`GreedySolver` — the baseline the paper argues against:
  "simple graphs are usually trivial to solve, while for complex
  scenarios a greedy solution is not always optimal".  It places
  Offcodes one at a time, locally maximizing the objective, and only
  respects constraints it can already see.

All solvers share the :class:`SolveResult` contract and raise
:class:`InfeasibleLayoutError` when no assignment satisfies Eqs. 1-4.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import InfeasibleLayoutError, SolverError
from repro.core.layout.graph import HOST_INDEX
from repro.core.layout.ilp import EQ, IlpProblem, LE

__all__ = ["SolveResult", "BranchAndBoundSolver", "ScipyMilpSolver",
           "GreedySolver"]


@dataclass
class SolveResult:
    """A placement plus how it was obtained."""

    placement: Dict[str, int]      # node name -> device index
    objective: float
    solver: str
    optimal: bool
    nodes_explored: int = 0

    def offloaded(self) -> List[str]:
        """Names of Offcodes placed off the host."""
        return [name for name, k in self.placement.items()
                if k != HOST_INDEX]


class _ProblemView:
    """Precomputed per-group/per-constraint tables shared by solvers."""

    def __init__(self, problem: IlpProblem) -> None:
        self.problem = problem
        self.num_groups = len(problem.groups)
        # Per variable: objective coefficient.
        self.obj = [problem.objective.get(i, 0.0)
                    for i in range(problem.num_vars)]
        # Per group: best possible objective contribution.
        self.group_best = [max((self.obj[v] for v in group), default=0.0)
                           for group in problem.groups]
        # Variable -> owning group.
        self.group_of = [0] * problem.num_vars
        for g, group in enumerate(problem.groups):
            for v in group:
                self.group_of[v] = g
        # Per constraint: coefficient lookup, involved groups, and the
        # min/max contribution each involved group can make.
        self.rows: List[Dict[int, float]] = []
        self.row_groups: List[List[int]] = []
        self.row_minmax: List[Dict[int, Tuple[float, float]]] = []
        for constraint in problem.constraints:
            row = dict(constraint.coeffs)
            involved = sorted({self.group_of[v] for v in row})
            minmax: Dict[int, Tuple[float, float]] = {}
            for g in involved:
                contributions = [row.get(v, 0.0) for v in problem.groups[g]]
                minmax[g] = (min(contributions), max(contributions))
            self.rows.append(row)
            self.row_groups.append(involved)
            self.row_minmax.append(minmax)


class BranchAndBoundSolver:
    """Exact DFS with interval propagation and objective bounding."""

    name = "branch-and-bound"

    def __init__(self, max_nodes: int = 2_000_000) -> None:
        self.max_nodes = max_nodes

    def solve(self, problem: IlpProblem) -> SolveResult:
        """Exact optimum via DFS with pruning (InfeasibleLayoutError if none)."""
        view = _ProblemView(problem)
        constraints = problem.constraints
        # Most-constrained-first group ordering shrinks the search tree.
        order = sorted(range(view.num_groups),
                       key=lambda g: len(problem.groups[g]))
        chosen: List[Optional[int]] = [None] * view.num_groups
        # Running partial sums per constraint row.
        partial = [0.0] * len(constraints)
        # How many involved groups of each row remain unassigned.
        remaining_minmax = [
            [sum(mm[g][0] for g in groups), sum(mm[g][1] for g in groups)]
            for groups, mm in zip(view.row_groups, view.row_minmax)
        ]
        best: Dict[str, object] = {"value": None, "chosen": None}
        explored = [0]

        # Optimistic objective bound of the still-unassigned suffix.
        suffix_best = [0.0] * (view.num_groups + 1)
        for position in range(view.num_groups - 1, -1, -1):
            suffix_best[position] = (suffix_best[position + 1]
                                     + view.group_best[order[position]])

        def feasible_interval(row_index: int) -> bool:
            constraint = constraints[row_index]
            low = partial[row_index] + remaining_minmax[row_index][0]
            high = partial[row_index] + remaining_minmax[row_index][1]
            if constraint.sense == EQ:
                return low <= constraint.rhs <= high
            return low <= constraint.rhs

        def dfs(position: int, objective_so_far: float) -> None:
            explored[0] += 1
            if explored[0] > self.max_nodes:
                raise SolverError(
                    f"branch-and-bound exceeded {self.max_nodes} nodes")
            if best["value"] is not None and (
                    objective_so_far + suffix_best[position]
                    <= best["value"] + 1e-12):
                # Cannot strictly improve; keep the first optimum found.
                return
            if position == view.num_groups:
                best["value"] = objective_so_far
                best["chosen"] = list(chosen)
                return
            g = order[position]
            variables = sorted(problem.groups[g],
                               key=lambda v: -view.obj[v])
            for v in variables:
                # Apply: update row partials and remaining intervals.
                touched: List[int] = []
                ok = True
                for row_index, row in enumerate(view.rows):
                    if g in view.row_minmax[row_index]:
                        low, high = view.row_minmax[row_index][g]
                        partial[row_index] += row.get(v, 0.0)
                        remaining_minmax[row_index][0] -= low
                        remaining_minmax[row_index][1] -= high
                        touched.append(row_index)
                        if ok and not feasible_interval(row_index):
                            ok = False
                chosen[g] = v
                if ok:
                    dfs(position + 1, objective_so_far + view.obj[v])
                chosen[g] = None
                for row_index in touched:
                    low, high = view.row_minmax[row_index][g]
                    partial[row_index] -= view.rows[row_index].get(v, 0.0)
                    remaining_minmax[row_index][0] += low
                    remaining_minmax[row_index][1] += high

        dfs(0, 0.0)
        if best["chosen"] is None:
            raise InfeasibleLayoutError(
                "no placement satisfies the layout constraints")
        values = [0] * problem.num_vars
        for v in best["chosen"]:          # type: ignore[union-attr]
            values[v] = 1
        return SolveResult(
            placement=problem.assignment_to_placement(values),
            objective=float(best["value"]),   # type: ignore[arg-type]
            solver=self.name, optimal=True, nodes_explored=explored[0])


class ScipyMilpSolver:
    """Adapter to ``scipy.optimize.milp`` (if SciPy is available)."""

    name = "scipy-milp"

    @staticmethod
    def available() -> bool:
        """Whether SciPy is installed (answered without importing it)."""
        return importlib.util.find_spec("scipy") is not None

    def solve(self, problem: IlpProblem) -> SolveResult:
        """Delegate to scipy.optimize.milp and translate the solution back."""
        try:
            import numpy as np
            from scipy.optimize import Bounds, LinearConstraint as SpLinear
            from scipy.optimize import milp
        except ImportError as exc:
            raise SolverError(f"SciPy not available: {exc}") from None

        n = problem.num_vars
        cost = np.zeros(n)
        for i, coefficient in problem.objective.items():
            cost[i] = -coefficient          # milp minimizes

        rows, lower, upper = [], [], []
        for group in problem.groups:        # Eq. 1
            row = np.zeros(n)
            row[group] = 1.0
            rows.append(row)
            lower.append(1.0)
            upper.append(1.0)
        for constraint in problem.constraints:
            row = np.zeros(n)
            for i, coefficient in constraint.coeffs:
                row[i] = coefficient
            rows.append(row)
            lower.append(constraint.rhs if constraint.sense == EQ
                         else -np.inf)
            upper.append(constraint.rhs)

        result = milp(
            c=cost,
            constraints=SpLinear(np.array(rows), np.array(lower),
                                 np.array(upper)),
            integrality=np.ones(n),
            bounds=Bounds(0, 1),
        )
        if not result.success:
            raise InfeasibleLayoutError(
                f"scipy.milp found no solution: {result.message}")
        values = [int(round(x)) for x in result.x]
        return SolveResult(
            placement=problem.assignment_to_placement(values),
            objective=problem.objective_value(values),
            solver=self.name, optimal=True)


class GreedySolver:
    """The paper's implied baseline: local, order-dependent placement."""

    name = "greedy"

    def solve(self, problem: IlpProblem) -> SolveResult:
        """Order-dependent local placement; may fail or be suboptimal."""
        view = _ProblemView(problem)
        chosen: List[Optional[int]] = [None] * view.num_groups
        values = [0] * problem.num_vars

        def determined_ok(candidate_group: int, candidate_var: int) -> bool:
            """Check rows whose involved groups are all now decided."""
            values[candidate_var] = 1
            try:
                for row_index, groups in enumerate(view.row_groups):
                    if candidate_group not in view.row_minmax[row_index]:
                        continue
                    if any(chosen[g] is None and g != candidate_group
                           for g in groups):
                        # Not fully determined; greedy checks only the
                        # pessimistic nonnegative-LE case.
                        constraint = problem.constraints[row_index]
                        if constraint.sense == LE and all(
                                c >= 0 for _i, c in constraint.coeffs):
                            if constraint.evaluate(values) > constraint.rhs:
                                return False
                        continue
                    if not problem.constraints[row_index].satisfied(values):
                        return False
                return True
            finally:
                values[candidate_var] = 0

        for g in range(view.num_groups):
            candidates = sorted(problem.groups[g],
                                key=lambda v: -view.obj[v])
            placed = False
            for v in candidates:
                if determined_ok(g, v):
                    chosen[g] = v
                    values[v] = 1
                    placed = True
                    break
            if not placed:
                raise InfeasibleLayoutError(
                    f"greedy could not place {problem.group_names[g]!r} "
                    "(a backtracking solver may still succeed)")
        return SolveResult(
            placement=problem.assignment_to_placement(values),
            objective=problem.objective_value(values),
            solver=self.name, optimal=False)

