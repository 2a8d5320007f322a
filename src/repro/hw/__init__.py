"""Simulated hardware substrate.

Substitutes for the paper's physical testbed (see DESIGN.md §2):
CPUs with utilization accounting, a set-associative L2 cache, PCI/PCIe
buses with DMA and peer-to-peer transfers, programmable devices (NIC,
GPU, smart disk) and a power model.
"""

from repro.hw.bus import HOST_MEMORY, Bus, BusSpec
from repro.hw.cache import Cache, CacheConfig, CacheStats
from repro.hw.cpu import Cpu, CpuSampler, CpuSpec
from repro.hw.device import (
    DeviceClass,
    DeviceHealth,
    DeviceMemoryAllocator,
    DeviceSpec,
    MemoryRegion,
    ProgrammableDevice,
    XSCALE_CPU,
)
from repro.hw.disk import BLOCK_SIZE, DiskSpec, SmartDisk
from repro.hw.gpu import Gpu, GpuSpec
from repro.hw.machine import Machine, MachineSpec
from repro.hw.nic import Nic, NicSpec
from repro.hw.power import ComponentEnergy, PowerModel
from repro.hw.spin import (DROP, SPIN_FEATURE, TO_HOST, SpinHandlers,
                           SpinNic, SpinNicSpec)

__all__ = [
    "BLOCK_SIZE",
    "Bus",
    "BusSpec",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "ComponentEnergy",
    "DROP",
    "Cpu",
    "CpuSampler",
    "CpuSpec",
    "DeviceClass",
    "DeviceHealth",
    "DeviceMemoryAllocator",
    "DeviceSpec",
    "DiskSpec",
    "Gpu",
    "GpuSpec",
    "HOST_MEMORY",
    "Machine",
    "MachineSpec",
    "MemoryRegion",
    "Nic",
    "NicSpec",
    "PowerModel",
    "ProgrammableDevice",
    "SPIN_FEATURE",
    "SmartDisk",
    "SpinHandlers",
    "SpinNic",
    "SpinNicSpec",
    "TO_HOST",
    "XSCALE_CPU",
]
