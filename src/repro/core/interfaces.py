"""Interface metadata: methods, signatures, and the IOffcode contract.

Every Offcode "can implement multiple interfaces, each of which contains
a set of methods that perform some behavior", described in WSDL and
identified by GUID (Section 3.1).  :class:`InterfaceSpec` is the
in-memory form; :mod:`repro.core.wsdl` parses the XML form.

``IOFFCODE`` is the common interface "that is used by the runtime to
instantiate the Offcode and to obtain a specific Offcode's interface":
Initialize / StartOffcode / StopOffcode / QueryInterface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import InterfaceError
from repro.core.guid import Guid, guid_from_name

__all__ = ["MethodSpec", "InterfaceSpec", "IOFFCODE"]

# Wire types the marshaler understands (WSDL xsd subset).
WIRE_TYPES = ("int", "float", "string", "bytes", "bool", "none", "any")


@dataclass(frozen=True)
class MethodSpec:
    """One method of an interface."""

    name: str
    params: Tuple[Tuple[str, str], ...] = ()   # (param name, wire type)
    result: str = "none"
    one_way: bool = False                      # no reply expected

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise InterfaceError(f"bad method name {self.name!r}")
        for pname, ptype in self.params:
            if ptype not in WIRE_TYPES:
                raise InterfaceError(
                    f"{self.name}: unknown wire type {ptype!r} for {pname!r}")
        if self.result not in WIRE_TYPES:
            raise InterfaceError(
                f"{self.name}: unknown result type {self.result!r}")
        if self.one_way and self.result != "none":
            raise InterfaceError(
                f"{self.name}: one-way methods cannot return a value")

    @property
    def arity(self) -> int:
        """Number of declared parameters."""
        return len(self.params)


@dataclass(frozen=True)
class InterfaceSpec:
    """A named, GUID-identified set of methods."""

    name: str
    guid: Guid
    methods: Tuple[MethodSpec, ...] = ()

    def __post_init__(self) -> None:
        by_name = {m.name: m for m in self.methods}
        if len(by_name) != len(self.methods):
            raise InterfaceError(
                f"interface {self.name!r} has duplicate method names")
        object.__setattr__(self, "_by_name", by_name)

    def method(self, name: str) -> MethodSpec:
        """Look up a method spec by name (InterfaceError if absent)."""
        spec = self._by_name.get(name)
        if spec is None:
            raise InterfaceError(
                f"interface {self.name!r} has no method {name!r}; "
                f"has {[m.name for m in self.methods]}")
        return spec

    def has_method(self, name: str) -> bool:
        """True if this interface declares ``name``."""
        return name in self._by_name

    @staticmethod
    def from_methods(name: str, methods: Tuple[MethodSpec, ...],
                     guid: Optional[Guid] = None) -> "InterfaceSpec":
        """Build an interface, deriving the GUID from the name if omitted."""
        return InterfaceSpec(name=name, guid=guid or guid_from_name(name),
                             methods=methods)


# The universal Offcode lifecycle interface (Section 3.1).
IOFFCODE = InterfaceSpec.from_methods(
    "hydra.IOffcode",
    (
        MethodSpec("Initialize", params=(), result="bool"),
        MethodSpec("StartOffcode", params=(), result="bool"),
        MethodSpec("StopOffcode", params=(), result="bool"),
        MethodSpec("QueryInterface", params=(("guid", "int"),), result="any"),
    ),
)
