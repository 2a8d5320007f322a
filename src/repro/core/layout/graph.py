"""The Offloading Layout Graph (Sections 3.3 and 5.1).

"The layout graph G = (V, E) includes the set of Offcodes as vertices,
and the channel constraints among them are the edges.  At deployment
time the runtime associates with each node n (Offcode) a compatibility
target vector C_n representing the potential target devices that can
host the Offcode.  Note that the host CPUs are included in the list of
devices" — by convention, like the paper's, **index 0 is the host**.

Each node also carries a *price*: "the estimated average bus bandwidth
that is required by the specific Offcode", used by the Maximize-Bus-Usage
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import LayoutError
from repro.core.layout.constraints import Constraint, ConstraintType

__all__ = ["LayoutNode", "LayoutGraph", "HOST_INDEX"]

HOST_INDEX = 0


@dataclass
class LayoutNode:
    """One Offcode vertex: name, compatibility vector, bandwidth price."""

    name: str
    compat: Tuple[bool, ...]       # C_n; index 0 is the host CPU
    price: float = 0.0             # avg bus bandwidth demand (arbitrary units)

    def __post_init__(self) -> None:
        if not self.name:
            raise LayoutError("layout node needs a name")
        if not any(self.compat):
            raise LayoutError(
                f"offcode {self.name!r} is compatible with no device "
                "(and not host-capable)")
        if self.price < 0:
            raise LayoutError(f"{self.name}: negative price")

    @property
    def host_capable(self) -> bool:
        """True when the host CPU (index 0) is a permitted target."""
        return self.compat[HOST_INDEX]

    def compatible_indices(self) -> List[int]:
        """Device indices where C^k_n = 1."""
        return [k for k, ok in enumerate(self.compat) if ok]


class LayoutGraph:
    """Offcodes + constraint edges over a fixed device list."""

    def __init__(self, devices: Sequence[str]) -> None:
        """``devices[0]`` must be the host; the rest are peripherals."""
        if not devices:
            raise LayoutError("layout graph needs at least the host device")
        if len(set(devices)) != len(devices):
            raise LayoutError(f"duplicate device names: {list(devices)}")
        self.devices: Tuple[str, ...] = tuple(devices)
        self.nodes: Dict[str, LayoutNode] = {}
        self.constraints: List[Constraint] = []

    # -- construction -----------------------------------------------------------

    @property
    def num_devices(self) -> int:
        """K: number of targets including the host."""
        return len(self.devices)

    @property
    def num_nodes(self) -> int:
        """N: number of Offcode vertices."""
        return len(self.nodes)

    def add_node(self, name: str, compat: Sequence[bool],
                 price: float = 0.0) -> LayoutNode:
        """Add an Offcode vertex with its compatibility vector and price."""
        if name in self.nodes:
            raise LayoutError(f"duplicate layout node {name!r}")
        if len(compat) != self.num_devices:
            raise LayoutError(
                f"{name}: compat vector has {len(compat)} entries, "
                f"graph has {self.num_devices} devices")
        node = LayoutNode(name=name, compat=tuple(bool(c) for c in compat),
                          price=price)
        self.nodes[name] = node
        return node

    def add_constraint(self, constraint: Constraint) -> Constraint:
        """Add a constraint edge (endpoints must already exist)."""
        for endpoint in (constraint.source, constraint.target):
            if endpoint not in self.nodes:
                raise LayoutError(
                    f"constraint references unknown node {endpoint!r}")
        self.constraints.append(constraint)
        return constraint

    def constrain(self, source: str, target: str, kind: ConstraintType,
                  priority: int = 0) -> Constraint:
        """Convenience wrapper building and adding a :class:`Constraint`."""
        return self.add_constraint(Constraint(
            source=source, target=target, kind=kind, priority=priority))

    # -- queries ------------------------------------------------------------------

    def node(self, name: str) -> LayoutNode:
        """Vertex by name (LayoutError if absent)."""
        try:
            return self.nodes[name]
        except KeyError:
            raise LayoutError(f"no layout node {name!r}") from None

    def device_index(self, device: str) -> int:
        """Index of ``device`` in the device tuple."""
        try:
            return self.devices.index(device)
        except ValueError:
            raise LayoutError(f"no device {device!r} in layout") from None

    def without_constraints_below(self, priority: int) -> "LayoutGraph":
        """Copy of the graph keeping only edges with pri < ``priority``.

        Relaxation order for infeasible layouts: the ODF ``pri``
        attribute makes low-priority references droppable.
        """
        relaxed = LayoutGraph(self.devices)
        for node in self.nodes.values():
            relaxed.add_node(node.name, node.compat, node.price)
        for constraint in self.constraints:
            if constraint.priority < priority:
                relaxed.add_constraint(constraint)
        return relaxed

    # -- placement validation --------------------------------------------------------

    def check_placement(self, placement: Dict[str, int]) -> List[str]:
        """Verify an assignment node -> device index; returns violations.

        An empty list means the placement satisfies Eq. 1 (unique, valid
        placement) and every constraint edge (Eqs. 2-4).
        """
        problems: List[str] = []
        for name, node in self.nodes.items():
            if name not in placement:
                problems.append(f"{name}: not placed")
                continue
            k = placement[name]
            if not 0 <= k < self.num_devices:
                problems.append(f"{name}: device index {k} out of range")
            elif not node.compat[k]:
                problems.append(
                    f"{name}: placed on incompatible {self.devices[k]}")
        for c in self.constraints:
            if c.source not in placement or c.target not in placement:
                continue
            src_k, dst_k = placement[c.source], placement[c.target]
            src_off = src_k != HOST_INDEX
            dst_off = dst_k != HOST_INDEX
            if c.kind is ConstraintType.PULL and src_k != dst_k:
                problems.append(
                    f"Pull({c.source},{c.target}): placed on "
                    f"{self.devices[src_k]} vs {self.devices[dst_k]}")
            elif c.kind is ConstraintType.GANG and src_off != dst_off:
                problems.append(
                    f"Gang({c.source},{c.target}): offloaded={src_off} "
                    f"vs {dst_off}")
            elif (c.kind is ConstraintType.GANG_ASYM
                  and src_off and not dst_off):
                problems.append(
                    f"GangAsym({c.source}->{c.target}): source offloaded "
                    "but target on host")
        return problems
