"""The Offcode Depot — the library of deployable Offcode instances.

"Typically, the runtime uses a local library that is used for storing
the actual instances (object files) of the Offcodes" (Section 3.4).  In
the reproduction an "instance" is a Python Offcode subclass registered
for a GUID, optionally restricted to specific device classes — the
vendor-supplied, per-target builds the paper envisions ("if a Display
Offcode for the local GPU is found, either locally or in the vendor's
Offcode library, it will be used at the GPU").

Lookup resolves (GUID, device class) to the most specific registration:
an exact device-class build wins over a portable (class-agnostic) one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type, Union

from repro.errors import DepotError
from repro.core.checkpoint import CheckpointStore
from repro.core.guid import Guid
from repro.core.offcode import Offcode
from repro.hw.device import DeviceClass

__all__ = ["DepotEntry", "OffcodeDepot"]


@dataclass(frozen=True)
class DepotEntry:
    """One registered implementation."""

    guid: Guid
    implementation: Union[Type[Offcode], Callable]
    device_class: Optional[str] = None   # None = portable build
    vendor: Optional[str] = None

    def specificity(self) -> int:
        """Ranking key: device-class builds beat portable, vendor beats generic."""
        return (2 if self.device_class else 0) + (1 if self.vendor else 0)


class OffcodeDepot:
    """GUID -> implementation registry with device-class specialization."""

    def __init__(self) -> None:
        self._entries: Dict[Guid, List[DepotEntry]] = {}
        # Host-side checkpoint store: the depot is "the local library
        # used for storing the actual instances of the Offcodes"
        # (Section 3.4) — shipped state snapshots live next to the
        # builds they restore into.
        self.checkpoints = CheckpointStore()

    def register(self, guid: Guid,
                 implementation: Union[Type[Offcode], Callable],
                 device_class: Optional[str] = None,
                 vendor: Optional[str] = None) -> None:
        """Store an implementation for ``guid``.

        ``device_class`` restricts the build to one class of target;
        ``None`` registers a portable build usable anywhere (including
        the host fallback of Section 3.4).  ``implementation`` is an
        Offcode subclass or any factory callable ``f(site) -> Offcode``
        (vendors ship pre-configured builds as factories).
        """
        if isinstance(implementation, type):
            if not issubclass(implementation, Offcode):
                raise DepotError(
                    f"depot classes must be Offcode subclasses, "
                    f"got {implementation!r}")
        elif not callable(implementation):
            raise DepotError(
                f"depot entries must be Offcode subclasses or factories, "
                f"got {implementation!r}")
        if device_class is not None and device_class not in DeviceClass.ALL:
            raise DepotError(f"unknown device class {device_class!r}")
        entries = self._entries.setdefault(guid, [])
        for entry in entries:
            if (entry.device_class == device_class
                    and entry.vendor == vendor):
                raise DepotError(
                    f"duplicate depot registration for {guid} "
                    f"(class={device_class}, vendor={vendor})")
        entries.append(DepotEntry(guid=guid, implementation=implementation,
                                  device_class=device_class, vendor=vendor))

    def lookup(self, guid: Guid, device_class: str,
               vendor: Optional[str] = None) -> DepotEntry:
        """Most specific implementation for a GUID on a device class."""
        entries = self._entries.get(guid, [])
        candidates = [
            e for e in entries
            if (e.device_class is None or e.device_class == device_class)
            and (e.vendor is None or vendor is None or e.vendor == vendor)
        ]
        if not candidates:
            raise DepotError(
                f"depot has no implementation of {guid} for device class "
                f"{device_class!r} (registered: "
                f"{[(e.device_class, e.vendor) for e in entries]})")
        return max(candidates, key=DepotEntry.specificity)

    def has(self, guid: Guid, device_class: str) -> bool:
        """True if some registered build can serve (guid, device_class)."""
        try:
            self.lookup(guid, device_class)
            return True
        except DepotError:
            return False
