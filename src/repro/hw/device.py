"""Programmable peripheral device model.

A device, for HYDRA's purposes, is: an embedded CPU (slow, low-power —
the paper's reference point is an Intel XScale 600 MHz at 0.5 W), a slab
of local memory, a DMA engine on the I/O bus, and a firmware environment
whose capabilities (MMU, dynamic allocation, toolchain) gate which
Offcodes can run on it (Section 2's "manual steps" checklist).

Device *classes* (network / storage / display / host) are what ODF files
target — a manifest never names a concrete device, only a class plus
optional attribute filters (Section 3.3, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Generator, Iterable, List, Optional

from repro.errors import DeviceError, DeviceFailedError, DeviceMemoryError
from repro.hw.bus import HOST_MEMORY, Bus
from repro.hw.cpu import Cpu, CpuSpec
from repro.sim.engine import Event, Simulator
from repro.telemetry.spans import emit as trace_emit

__all__ = [
    "DeviceClass",
    "DeviceSpec",
    "DeviceHealth",
    "MemoryRegion",
    "DeviceMemoryAllocator",
    "ProgrammableDevice",
    "XSCALE_CPU",
]


class DeviceClass:
    """Canonical device-class identifiers used by ODF target sections."""

    HOST = "host"
    NETWORK = "network"
    STORAGE = "storage"
    DISPLAY = "display"

    ALL = (HOST, NETWORK, STORAGE, DISPLAY)


# The paper's low-power comparison point: Intel XScale 600 MHz, 0.5 W.
XSCALE_CPU = CpuSpec(name="xscale", frequency_hz=600e6,
                     active_watts=0.5, idle_watts=0.05)


class DeviceHealth:
    """Fault state of one device's embedded processor.

    Four states model the failure modes the fault-injection subsystem
    exercises:

    * ``RUNNING`` — normal operation;
    * ``STALLED`` — the firmware is wedged but recoverable: work queued
      against the device waits until :meth:`resume`;
    * ``CRASHED`` — the embedded CPU is gone; firmware execution and DMA
      raise :class:`~repro.errors.DeviceFailedError` immediately;
    * ``FENCED`` — post-recovery: the driver has reset the device into
      "dumb" fixed-function mode.  The hardware datapath works again
      (so the host receive path resumes) but the device is excluded from
      offloading by the layout resolver.

    The barrier is checked by :meth:`ProgrammableDevice.run_on_device`
    and the DMA verbs, so every firmware process observes the fault at
    its next instruction boundary — no polling anywhere.
    """

    RUNNING = "running"
    STALLED = "stalled"
    CRASHED = "crashed"
    FENCED = "fenced"

    def __init__(self, device: "ProgrammableDevice") -> None:
        self.device = device
        self.state = self.RUNNING
        self.crashed_at_ns: Optional[int] = None
        self.stalls = 0
        self._stall_waiters: List[Event] = []

    @property
    def ok(self) -> bool:
        """True while firmware execution can make progress."""
        return self.state in (self.RUNNING, self.FENCED)

    @property
    def crashed(self) -> bool:
        """True once the embedded CPU is dead (CRASHED, not FENCED)."""
        return self.state == self.CRASHED

    def crash(self) -> None:
        """Kill the embedded processor (idempotent).

        Processes blocked at the stall barrier fail with
        :class:`~repro.errors.DeviceFailedError`; any new firmware work
        fails at its next barrier check.
        """
        if self.state == self.CRASHED:
            return
        self.state = self.CRASHED
        self.crashed_at_ns = self.device.sim.now
        trace_emit(self.device.sim, "fault",
                   f"{self.device.name} crashed")
        waiters, self._stall_waiters = self._stall_waiters, []
        for event in waiters:
            event.fail(DeviceFailedError(
                f"device {self.device.name} crashed while stalled"))
            # Waiters are delivered into their processes; mark handled so
            # an abandoned waiter cannot crash the engine loop.
            event.defused = True  # type: ignore[attr-defined]

    def stall(self) -> None:
        """Wedge the firmware; queued work waits for :meth:`resume`."""
        if self.state != self.RUNNING:
            raise DeviceError(
                f"cannot stall {self.device.name} while {self.state}")
        self.state = self.STALLED
        self.stalls += 1
        trace_emit(self.device.sim, "fault",
                   f"{self.device.name} stalled")

    def resume(self) -> None:
        """Un-wedge a stalled device; blocked work continues."""
        if self.state != self.STALLED:
            raise DeviceError(
                f"cannot resume {self.device.name} while {self.state}")
        self.state = self.RUNNING
        trace_emit(self.device.sim, "fault",
                   f"{self.device.name} resumed")
        waiters, self._stall_waiters = self._stall_waiters, []
        for event in waiters:
            event.succeed()

    def fence(self) -> None:
        """Reset a crashed device into fixed-function mode.

        The recovery path calls this after declaring the device dead:
        its firmware stays unusable for Offcodes, but the dumb hardware
        datapath (host receive ring, DMA engine) works again — the
        paper's host-based baseline configuration.
        """
        if self.state != self.CRASHED:
            raise DeviceError(
                f"cannot fence {self.device.name} while {self.state}")
        self.state = self.FENCED
        trace_emit(self.device.sim, "fault",
                   f"{self.device.name} fenced (fixed-function mode)")

    def barrier(self) -> Iterable[Event]:
        """What firmware work must ``yield from`` before it runs.

        A healthy device returns ``()``, so the work passes without a
        generator frame.  A crashed one raises
        :class:`~repro.errors.DeviceFailedError` at once; a stalled one
        returns a generator that blocks until :meth:`resume` and checks
        again after every resume, because a stall can end in a crash.
        """
        if self.state == self.CRASHED:
            raise DeviceFailedError(
                f"device {self.device.name} has crashed")
        if self.state != self.STALLED:
            return ()
        return self._wait_for_resume()

    def _wait_for_resume(self) -> Generator[Event, None, None]:
        waiter = Event(self.device.sim)
        self._stall_waiters.append(waiter)
        yield waiter
        yield from self.barrier()


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a programmable device."""

    name: str
    device_class: str
    cpu: CpuSpec = XSCALE_CPU
    local_memory_bytes: int = 8 * 1024 * 1024
    has_mmu: bool = False
    has_dynamic_alloc: bool = True
    toolchain: str = "gcc-xscale"
    vendor: str = "generic"
    bus_type: str = "pci"
    mac_type: str = ""
    features: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.device_class not in DeviceClass.ALL:
            raise DeviceError(f"unknown device class {self.device_class!r}")
        if self.local_memory_bytes <= 0:
            raise DeviceError("device needs positive local memory")

    def has_feature(self, feature: str) -> bool:
        """True if the device advertises ``feature``."""
        return feature in self.features


@dataclass
class MemoryRegion:
    """An allocated region of device-local memory."""

    base: int
    size: int
    label: str = ""
    freed: bool = False

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size


class DeviceMemoryAllocator:
    """First-fit allocator over a flat device address space.

    Returns real addresses because the dynamic-loading path (Section 4.2)
    links Offcode binaries against the address returned by
    ``AllocateOffcodeMemory``.
    """

    def __init__(self, capacity: int, base: int = 0x1000) -> None:
        if capacity <= 0:
            raise DeviceMemoryError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.base = base
        self._free: List[List[int]] = [[base, capacity]]  # [start, size]
        self.allocated: Dict[int, MemoryRegion] = {}

    @property
    def free_bytes(self) -> int:
        """Unallocated capacity."""
        return sum(size for _, size in self._free)

    @property
    def used_bytes(self) -> int:
        """Allocated bytes (16-byte-aligned sizes)."""
        return self.capacity - self.free_bytes

    def allocate(self, size: int, label: str = "") -> MemoryRegion:
        """First-fit allocation; DeviceMemoryError when exhausted."""
        if size <= 0:
            raise DeviceMemoryError(f"allocation size must be positive: {size}")
        # 16-byte alignment, as a firmware loader would require.
        size = (size + 15) & ~15
        for hole in self._free:
            start, hole_size = hole
            if hole_size >= size:
                region = MemoryRegion(base=start, size=size, label=label)
                if hole_size == size:
                    self._free.remove(hole)
                else:
                    hole[0] = start + size
                    hole[1] = hole_size - size
                self.allocated[region.base] = region
                return region
        raise DeviceMemoryError(
            f"out of device memory: need {size}, largest hole "
            f"{max((s for _, s in self._free), default=0)}")

    def free(self, region: MemoryRegion) -> None:
        """Return a region (double frees raise); holes coalesce."""
        if region.freed or region.base not in self.allocated:
            raise DeviceMemoryError(f"double free of region at {region.base:#x}")
        del self.allocated[region.base]
        region.freed = True
        self._free.append([region.base, region.size])
        self._coalesce()

    def _coalesce(self) -> None:
        self._free.sort()
        merged: List[List[int]] = []
        for start, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1][1] += size
            else:
                merged.append([start, size])
        self._free = merged


def _after(barrier: Iterable[Event], work: Callable[..., Iterable[Event]],
           *args) -> Generator[Event, None, object]:
    """Run ``work(*args)`` once a stalled device's barrier passes."""
    yield from barrier
    return (yield from work(*args))


class ProgrammableDevice:
    """A peripheral with an embedded CPU, local memory and a DMA engine."""

    def __init__(self, sim: Simulator, spec: DeviceSpec, bus: Bus) -> None:
        self.sim = sim
        self.spec = spec
        self.name = spec.name          # the device's bus/endpoint name
        self.bus = bus
        self.cpu = Cpu(sim, spec.cpu, name=f"{spec.name}-cpu")
        self.memory = DeviceMemoryAllocator(spec.local_memory_bytes)
        bus.attach(spec.name, self)
        # Host interrupt delivery: the kernel registers a handler here.
        self._interrupt_handler: Optional[Callable[[str, object], None]] = None
        self.interrupts_raised = 0
        # Firmware hook: the HYDRA device runtime installs itself here.
        self.firmware: Optional[object] = None
        # Fault state (crash / stall / fence); all firmware work and DMA
        # passes its barrier, so injected faults are observed promptly.
        self.health = DeviceHealth(self)

    @property
    def device_class(self) -> str:
        """The canonical device class (network/storage/display)."""
        return self.spec.device_class

    # -- DMA ------------------------------------------------------------------

    def _gated(self, work: Callable[..., Iterable[Event]], *args
               ) -> Iterable[Event]:
        """``work(*args)`` behind the health barrier, for the caller to
        ``yield from``: on a healthy device, the work itself."""
        barrier = self.health.barrier()
        return _after(barrier, work, *args) if barrier else work(*args)

    def dma_to_host(self, size_bytes: int) -> Iterable[Event]:
        """Bus-master DMA from device memory into host memory."""
        return self._gated(self.bus.transfer, self.name, HOST_MEMORY,
                           size_bytes)

    def dma_from_host(self, size_bytes: int) -> Iterable[Event]:
        """Bus-master DMA from host memory into device memory."""
        return self._gated(self.bus.transfer, HOST_MEMORY, self.name,
                           size_bytes)

    def dma_to_peer(self, peer: str, size_bytes: int) -> Iterable[Event]:
        """Device-to-device DMA (may stage through host memory on PCI)."""
        return self._gated(self.bus.transfer, self.name, peer, size_bytes)

    # -- vectored (scatter-gather) DMA ------------------------------------------

    @property
    def supports_vectored_dma(self) -> bool:
        """True when the DMA engine chains descriptors (scatter-gather)."""
        return self.spec.has_feature("scatter-gather")

    def dma_to_host_vectored(self, sizes: List[int]) -> Iterable[Event]:
        """One chained DMA moving several buffers into host memory."""
        return self._gated(self.bus.transfer_scatter, self.name,
                           HOST_MEMORY, sizes)

    def dma_from_host_vectored(self, sizes: List[int]) -> Iterable[Event]:
        """One chained DMA moving several host buffers into the device."""
        return self._gated(self.bus.transfer_scatter, HOST_MEMORY,
                           self.name, sizes)

    def dma_to_peer_vectored(self, peer: str, sizes: List[int]
                             ) -> Iterable[Event]:
        """One chained device-to-device DMA for a scatter-gather list."""
        return self._gated(self.bus.transfer_scatter, self.name, peer, sizes)

    # -- host interrupts ---------------------------------------------------------

    def set_interrupt_handler(self, handler: Callable[[str, object], None]) -> None:
        """Install the host-side interrupt handler (done by the kernel)."""
        self._interrupt_handler = handler

    def raise_interrupt(self, vector: str, payload: object = None) -> None:
        """Signal the host CPU.  No-op cost here; the kernel charges ISR time."""
        self.interrupts_raised += 1
        if self._interrupt_handler is not None:
            self._interrupt_handler(vector, payload)

    # -- firmware execution -------------------------------------------------------

    def run_on_device(self, duration_ns: int, context: str = "firmware"
                      ) -> Iterable[Event]:
        """Charge work to the device's embedded CPU (``yield from`` it)."""
        return self._gated(self.cpu.execute, duration_ns, context)

    def fence(self) -> None:
        """Driver-reset a crashed device into fixed-function mode.

        Subclasses extend this to restore their dumb datapath (the NIC
        drops its firmware receive-offload handler, for example).
        """
        self.health.fence()

    def matches(self, device_class: str,
                bus: Optional[str] = None,
                mac: Optional[str] = None,
                vendor: Optional[str] = None) -> bool:
        """ODF device-class matching (Figure 4's ``<device-class>`` entry)."""
        if device_class != self.spec.device_class:
            return False
        if bus and bus != self.spec.bus_type:
            return False
        if mac and mac != self.spec.mac_type:
            return False
        if vendor and vendor.lower() != self.spec.vendor.lower():
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device {self.name} class={self.device_class}>"
