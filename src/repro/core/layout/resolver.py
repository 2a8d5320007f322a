"""The Offload Layout Resolver (Section 4's Layout Management unit).

Given the ODF closure of an application, the machine's device inventory
and the Offcode Depot, the resolver:

1. builds the offloading layout graph — one node per Offcode with its
   compatibility vector ("the runtime determines the mapping between the
   Offcode device requirements and the physical devices that are
   installed in the specific host"), one edge per ODF reference;
2. hands it to an ILP solver under the chosen objective;
3. on infeasibility, relaxes droppable (priority > 0) constraints and,
   as the final fallback, "tries to find an Offcode that is capable of
   executing at the host CPU" — i.e. re-solves with every node allowed
   on the host when a host build exists in the depot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import InfeasibleLayoutError, LayoutError
from repro.core.depot import OffcodeDepot
from repro.core.layout.constraints import Constraint
from repro.core.layout.graph import HOST_INDEX, LayoutGraph
from repro.core.layout.objectives import MaximizeOffloading, Objective
from repro.core.layout.solver import BranchAndBoundSolver, SolveResult
from repro.core.odf import OdfDocument
from repro.hw.device import DeviceClass, ProgrammableDevice
from repro.hw.machine import Machine

__all__ = ["ResolvedLayout", "OffloadLayoutResolver"]


@dataclass
class ResolvedLayout:
    """The resolver's output: who goes where, and how we got there."""

    placement: Dict[str, str]            # bindname -> device name | "host"
    solve: SolveResult
    graph: LayoutGraph
    relaxed_constraints: List[Constraint] = field(default_factory=list)
    host_fallbacks: List[str] = field(default_factory=list)

    def device_of(self, bindname: str) -> str:
        """Placement of ``bindname`` (device name or 'host')."""
        try:
            return self.placement[bindname]
        except KeyError:
            raise LayoutError(f"{bindname!r} is not in the layout") from None


class OffloadLayoutResolver:
    """Builds and solves layout graphs for one machine."""

    def __init__(self, machine: Machine, depot: OffcodeDepot,
                 solver=None) -> None:
        self.machine = machine
        self.depot = depot
        self.solver = solver or BranchAndBoundSolver()

    # -- graph construction ---------------------------------------------------------

    def build_graph(self, documents: Sequence[OdfDocument],
                    force_host_option: bool = False,
                    pinned: Optional[Dict[str, str]] = None,
                    exclude: Optional[Iterable[str]] = None,
                    banned: Optional[Dict[str, Iterable[str]]] = None
                    ) -> LayoutGraph:
        """One node per document, edges from the ODF import references.

        ``pinned`` fixes the placement of already-deployed Offcodes:
        reusing an Offcode across applications (the Section 5 motivation
        for the ILP) means later deployments must respect where the
        shared instance already runs.

        ``exclude`` removes devices from the candidate set entirely —
        the recovery path uses it to re-solve a layout with a crashed
        device gone, as if it were never installed.

        ``banned`` forbids specific bindname→device pairings without
        touching the global candidate set — live migration bans the
        victim from its (healthy, still-serving-others) source device,
        where ``exclude`` would wrongly evict every co-tenant too.
        Bans are ignored for pinned bindnames: a pin is an explicit,
        stronger statement of intent.
        """
        excluded = frozenset(exclude or ())
        devices = ["host"] + sorted(
            name for name in self.machine.devices if name not in excluded)
        graph = LayoutGraph(devices)
        by_bindname = {d.bindname: d for d in documents}
        pinned = pinned or {}
        banned = banned or {}
        for document in documents:
            if document.bindname in pinned:
                location = pinned[document.bindname]
                if location not in devices:
                    raise LayoutError(
                        f"{document.bindname} pinned to unknown device "
                        f"{location!r}")
                compat = [device == location for device in devices]
            else:
                compat = [self._host_allowed(document, force_host_option)]
                for device_name in devices[1:]:
                    compat.append(self._device_allowed(
                        document, self.machine.devices[device_name]))
                banned_here = frozenset(banned.get(document.bindname, ()))
                if banned_here:
                    compat = [ok and device not in banned_here
                              for ok, device in zip(compat, devices)]
            graph.add_node(document.bindname, compat,
                           price=float(document.image_bytes) / 1024.0)
        for document in documents:
            for imp in document.imports:
                if imp.bindname not in by_bindname:
                    raise LayoutError(
                        f"{document.bindname} imports {imp.bindname!r} "
                        "which is not in the deployment closure")
                graph.constrain(document.bindname, imp.bindname,
                                imp.reference, priority=imp.priority)
        return graph

    def _host_allowed(self, document: OdfDocument,
                      force: bool) -> bool:
        allowed = document.host_capable or force
        return allowed and self.depot.has(document.guid, DeviceClass.HOST)

    def _device_allowed(self, document: OdfDocument,
                        device: ProgrammableDevice) -> bool:
        if not any(t.matches(device) for t in document.targets):
            return False
        if not document.requirements.satisfied_by(device.spec):
            return False
        # Capacity-aware: a device whose memory cannot currently hold
        # the Offcode image (plus declared working memory) is not a
        # viable target — this is the "resource limitations" branch of
        # Section 3.4's fallback rule, caught before the loader runs.
        needed = (document.image_bytes
                  + document.requirements.min_memory_bytes)
        if device.memory.free_bytes < needed:
            return False
        return self.depot.has(document.guid, device.device_class)

    # -- solving ----------------------------------------------------------------------

    def resolve(self, documents: Sequence[OdfDocument],
                objective: Optional[Objective] = None,
                pinned: Optional[Dict[str, str]] = None,
                exclude: Optional[Iterable[str]] = None,
                degraded: bool = False,
                banned: Optional[Dict[str, Iterable[str]]] = None
                ) -> ResolvedLayout:
        """Full pipeline: graph, solve, relax, host-fallback.

        ``degraded`` marks a post-failure re-solve: the final host
        fallback then drops *every* placement constraint, including
        mandatory (priority 0) ones such as GANG edges.  That is sound
        only because recovery pins all surviving Offcodes in place —
        the solver merely chooses homes for the victims — and a dead
        device cannot honour a co-location promise anyway.
        """
        objective = objective or MaximizeOffloading()
        try:
            graph = self.build_graph(documents, pinned=pinned,
                                     exclude=exclude, banned=banned)
        except LayoutError:
            # Some Offcode matches no installed device; fall through to
            # the host-fallback attempt below.
            graph = None

        if graph is not None:
            # Attempt 1: everything as specified.
            result = self._try_solve(graph, objective)
            if result is not None:
                return self._package(result, graph, [], [])

            # Attempt 2: drop relaxable constraints, lowest priority first.
            priorities = sorted({c.priority for c in graph.constraints
                                 if c.priority > 0}, reverse=True)
            for cutoff in priorities:
                relaxed_graph = graph.without_constraints_below(cutoff)
                result = self._try_solve(relaxed_graph, objective)
                if result is not None:
                    dropped = [c for c in graph.constraints
                               if c.priority >= cutoff]
                    return self._package(result, relaxed_graph, dropped, [])

        # Attempt 3: force the host option for every depot-host-capable
        # Offcode and re-solve with no droppable constraints.
        try:
            fallback_graph = self.build_graph(
                documents, force_host_option=True, pinned=pinned,
                exclude=exclude, banned=banned)
        except LayoutError as exc:
            raise InfeasibleLayoutError(
                f"no feasible layout even with host fallback: {exc}"
            ) from exc
        bare = fallback_graph.without_constraints_below(0 if degraded else 1)
        result = self._try_solve(bare, objective)
        if result is not None:
            fallbacks = [name for name, k in result.placement.items()
                         if k == HOST_INDEX]
            dropped = ([c for c in graph.constraints if c.priority > 0]
                       if graph is not None else [])
            return self._package(result, bare, dropped, fallbacks)
        raise InfeasibleLayoutError(
            "no feasible layout even with host fallback; check depot "
            "registrations and device requirements")

    def _try_solve(self, graph: LayoutGraph, objective: Objective
                   ) -> Optional[SolveResult]:
        try:
            problem = objective.build(graph)
            result = self.solver.solve(problem)
        except (InfeasibleLayoutError, LayoutError):
            return None
        violations = graph.check_placement(result.placement)
        if violations:
            raise LayoutError(
                f"solver returned an invalid placement: {violations}")
        return result

    def _package(self, result: SolveResult, graph: LayoutGraph,
                 relaxed: List[Constraint],
                 fallbacks: List[str]) -> ResolvedLayout:
        placement = {name: graph.devices[k]
                     for name, k in result.placement.items()}
        return ResolvedLayout(placement=placement, solve=result,
                              graph=graph, relaxed_constraints=relaxed,
                              host_fallbacks=fallbacks)
