"""Channel constraints between Offcodes (Section 3.3).

Four constraint kinds relate a source Offcode *a* to a target *b*:

* ``LINK`` — the default; "poses no constraints: a and b may or may not
  be mutually offloaded", it only records that one needs the other.
* ``PULL`` — "both Offcodes will be offloaded to the same target
  device" (Eq. 2: same placement vector).
* ``GANG`` — "if a is offloaded, b will be too, albeit on perhaps a
  different device" — and symmetrically (Eq. 3: equal offload sums).
* ``GANG_ASYM`` — "offloading b doesn't imply offloading a"
  (Eq. 4: offload(a) <= offload(b) for the edge a -> b).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from repro.errors import LayoutError

__all__ = ["ConstraintType", "Constraint", "parse_constraint_type"]


class ConstraintType(Enum):
    LINK = "Link"
    PULL = "Pull"
    GANG = "Gang"
    GANG_ASYM = "GangAsym"

    @property
    def symmetric(self) -> bool:
        """False only for the asymmetric Gang."""
        return self is not ConstraintType.GANG_ASYM


_ALIASES = MappingProxyType({
    "link": ConstraintType.LINK,
    "pull": ConstraintType.PULL,
    "gang": ConstraintType.GANG,
    "gangasym": ConstraintType.GANG_ASYM,
    "gang-asym": ConstraintType.GANG_ASYM,
    "asymmetricgang": ConstraintType.GANG_ASYM,
    "asymmetric-gang": ConstraintType.GANG_ASYM,
})


def parse_constraint_type(text: str) -> ConstraintType:
    """Parse an ODF ``reference type=`` value, case-insensitively."""
    try:
        return _ALIASES[text.strip().lower()]
    except KeyError:
        raise LayoutError(
            f"unknown constraint type {text!r}; "
            f"expected one of {sorted(set(_ALIASES))}") from None


@dataclass(frozen=True)
class Constraint:
    """A directed constraint edge ``source -> target`` in the layout graph.

    ``priority`` mirrors the ODF ``pri=`` attribute: when the resolver
    must relax constraints to restore feasibility, lower-priority edges
    are dropped first (0 = highest priority, never dropped).
    """

    source: str
    target: str
    kind: ConstraintType
    priority: int = 0

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise LayoutError(
                f"constraint from {self.source!r} to itself")
        if self.priority < 0:
            raise LayoutError(f"negative constraint priority: {self.priority}")
