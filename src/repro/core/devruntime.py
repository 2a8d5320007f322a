"""The device-side half of the HYDRA runtime.

"Both the host OS and the target device firmware must support the
interfaces defined by the programming API and implement the runtime
functionality" (Section 4).  :class:`DeviceRuntime` is that firmware
support: it owns the device's execution site, hosts the Offcodes placed
there, and exposes the device-local pseudo Offcodes (``hydra.Heap`` and
a device-scoped ``hydra.Runtime``) that user Offcodes link against —
keeping the set of symbols the dynamic loader must resolve small.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import OffcodeError
from repro.core.offcode import Offcode
from repro.core.sites import DeviceSite
from repro.hw.device import ProgrammableDevice

__all__ = ["DeviceRuntime"]


class DeviceRuntime:
    """Firmware runtime for one programmable device."""

    def __init__(self, device: ProgrammableDevice) -> None:
        self.device = device
        self.site = DeviceSite(device)
        self.offcodes: Dict[str, Offcode] = {}
        device.firmware = self

    @property
    def name(self) -> str:
        """The underlying device's name."""
        return self.device.name

    def host_offcode(self, offcode: Offcode) -> None:
        """Register an Offcode as resident on this device."""
        if offcode.site is not self.site:
            raise OffcodeError(
                f"{offcode.bindname} was built for site "
                f"{offcode.site.name!r}, not {self.name!r}")
        if offcode.bindname in self.offcodes:
            raise OffcodeError(
                f"{self.name} already hosts {offcode.bindname!r}")
        self.offcodes[offcode.bindname] = offcode

    def evict_offcode(self, bindname: str) -> Offcode:
        """Remove a resident Offcode (stop/failure teardown path)."""
        try:
            return self.offcodes.pop(bindname)
        except KeyError:
            raise OffcodeError(
                f"{self.name} does not host {bindname!r}") from None

    def find(self, bindname: str) -> Optional[Offcode]:
        """Resident Offcode by bind name, or None."""
        return self.offcodes.get(bindname)
