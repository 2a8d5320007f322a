"""Host machine assembly.

A :class:`Machine` wires together the hardware of one host: CPU, L2
cache, the I/O bus, the power model and any programmable devices.  The
default :class:`MachineSpec` reproduces the paper's testbed nodes:
2.4 GHz Pentium 4, 512 MB RAM, 256 kB L2, programmable 3Com NIC.

The OS model (:mod:`repro.hostos`) attaches *on top of* a machine; the
hardware layer knows nothing about kernels, which keeps the dependency
graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import HardwareError
from repro.hw.bus import Bus, BusSpec
from repro.hw.cache import Cache, CacheConfig
from repro.hw.cpu import Cpu, CpuSpec
from repro.hw.device import DeviceSpec, ProgrammableDevice
from repro.hw.disk import SmartDisk
from repro.hw.gpu import Gpu
from repro.hw.nic import Nic
from repro.hw.power import PowerModel
from repro.sim.engine import Simulator

__all__ = ["MachineSpec", "Machine"]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a host (defaults = the paper's testbed)."""

    name: str = "host"
    cpu: CpuSpec = field(default_factory=CpuSpec)
    ram_bytes: int = 512 * 1024 * 1024
    l2: CacheConfig = field(default_factory=CacheConfig)
    bus: BusSpec = field(default_factory=BusSpec)


class Machine:
    """One host: CPU + L2 + I/O bus + programmable devices."""

    def __init__(self, sim: Simulator, spec: Optional[MachineSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or MachineSpec()
        self.cpu = Cpu(sim, self.spec.cpu, name=f"{self.spec.name}-cpu")
        self.l2 = Cache(self.spec.l2, name=f"{self.spec.name}-L2")
        self.bus = Bus(sim, self.spec.bus, name=self.spec.name)
        self.devices: Dict[str, ProgrammableDevice] = {}
        self.power = PowerModel()
        self.power.register(self.cpu)

    @property
    def name(self) -> str:
        """The host's name (also its switch station name)."""
        return self.spec.name

    # -- device management ---------------------------------------------------

    def _register(self, device: ProgrammableDevice) -> ProgrammableDevice:
        if device.name in self.devices:
            raise HardwareError(
                f"device {device.name!r} already present on {self.name}")
        self.devices[device.name] = device
        self.power.register(device.cpu)
        return device

    def add_nic(self, spec: Optional[DeviceSpec] = None) -> Nic:
        """Attach a programmable NIC to this machine's bus."""
        return self._register(Nic(self.sim, self.bus, spec))  # type: ignore[return-value]

    def add_spin_nic(self, spec: Optional[DeviceSpec] = None):
        """Attach a sPIN-capable NIC (per-packet handler offcodes)."""
        from repro.hw.spin import SpinNic
        return self._register(SpinNic(self.sim, self.bus, spec))

    def add_gpu(self, spec: Optional[DeviceSpec] = None) -> Gpu:
        """Attach a programmable graphics adapter."""
        return self._register(Gpu(self.sim, self.bus, spec))  # type: ignore[return-value]

    def add_disk(self, spec: Optional[DeviceSpec] = None) -> SmartDisk:
        """Attach a programmable disk controller."""
        return self._register(SmartDisk(self.sim, self.bus, spec))  # type: ignore[return-value]

    def add_device(self, spec: DeviceSpec) -> ProgrammableDevice:
        """Attach a generic programmable device."""
        return self._register(ProgrammableDevice(self.sim, spec, self.bus))

    def device(self, name: str) -> ProgrammableDevice:
        """Attached device by name (HardwareError if absent)."""
        try:
            return self.devices[name]
        except KeyError:
            raise HardwareError(
                f"no device {name!r} on {self.name}; "
                f"have {sorted(self.devices)}") from None

    def devices_of_class(self, device_class: str):
        """All devices of a given class, in attach order."""
        return [d for d in self.devices.values()
                if d.device_class == device_class]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.name} devices={sorted(self.devices)}>"
