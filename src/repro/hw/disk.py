"""Programmable disk controller ("Smart Disk").

The paper emulated a programmable disk controller with a second
programmable NIC exporting "a standard block device that interacts with
an NFS server to store the data" (Section 6.1) — the streamed video is
effectively stored on a remote disk.  We reproduce that arrangement: the
:class:`SmartDisk` is a storage-class programmable device whose blocks
can be backed either

* **locally** (a latency-modelled block store — the common case for unit
  tests and for using the library outside the TiVoPC scenario), or
* **remotely** via an attached backing object with ``read_block`` /
  ``write_block`` generator methods (the NFS client offcode installs
  itself here in the TiVoPC build).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro import units
from repro.errors import DeviceError
from repro.hw.bus import Bus
from repro.hw.device import DeviceClass, DeviceSpec, ProgrammableDevice
from repro.sim.engine import Event, Simulator

__all__ = ["DiskSpec", "SmartDisk", "BLOCK_SIZE"]

BLOCK_SIZE = 4096


def DiskSpec(name: str = "disk0", vendor: str = "generic-storage",
             local_memory_bytes: int = 16 * 1024 * 1024) -> DeviceSpec:
    """DeviceSpec factory for a programmable disk controller."""
    return DeviceSpec(
        name=name,
        device_class=DeviceClass.STORAGE,
        local_memory_bytes=local_memory_bytes,
        vendor=vendor,
        bus_type="pci",
        features=frozenset({"block-device", "dma-master", "scatter-gather"}),
    )


class SmartDisk(ProgrammableDevice):
    """A storage controller with an embedded CPU hosting Offcodes."""

    # Local-backing latency model: controller overhead plus media access.
    CONTROLLER_NS = 4_000
    MEDIA_ACCESS_NS = 80_000          # ~0.08 ms: cached/sequential access
    MEDIA_BW_BPS = 60 * 8 * 1_000_000  # 60 MB/s sustained, 2004-era disk

    def __init__(self, sim: Simulator, bus: Bus,
                 spec: Optional[DeviceSpec] = None) -> None:
        super().__init__(sim, spec or DiskSpec(), bus)
        self._blocks: Dict[int, int] = {}   # lba -> stored byte count
        self._backing: Optional[object] = None
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- backing selection -------------------------------------------------------

    def attach_backing(self, backing: object) -> None:
        """Install a remote backing store (e.g. the NFS client offcode).

        ``backing`` must expose generator methods ``read_block(lba, size)``
        and ``write_block(lba, size)``.
        """
        for method in ("read_block", "write_block"):
            if not callable(getattr(backing, method, None)):
                raise DeviceError(
                    f"backing object lacks required method {method!r}")
        self._backing = backing

    @property
    def remote_backed(self) -> bool:
        """True when an NFS-style backing store is attached."""
        return self._backing is not None

    # -- block interface -----------------------------------------------------------

    def write_block(self, lba: int, size: int = BLOCK_SIZE
                    ) -> Generator[Event, None, None]:
        """Store ``size`` bytes at logical block ``lba``."""
        self._validate(lba, size)
        yield from self.run_on_device(self.CONTROLLER_NS, context="disk-ctl")
        if self._backing is not None:
            yield from self._backing.write_block(lba, size)
        else:
            yield self.sim.clock.after(self._media_time(size))
        self._blocks[lba] = size
        self.writes += 1
        self.bytes_written += size

    def read_block(self, lba: int, size: int = BLOCK_SIZE
                   ) -> Generator[Event, None, int]:
        """Fetch ``size`` bytes at logical block ``lba``; returns bytes read."""
        self._validate(lba, size)
        yield from self.run_on_device(self.CONTROLLER_NS, context="disk-ctl")
        if self._backing is not None:
            yield from self._backing.read_block(lba, size)
        else:
            yield self.sim.clock.after(self._media_time(size))
        stored = self._blocks.get(lba, 0)
        self.reads += 1
        self.bytes_read += stored
        return stored

    def has_block(self, lba: int) -> bool:
        """True if ``lba`` was ever written."""
        return lba in self._blocks

    @property
    def blocks_stored(self) -> int:
        """Number of distinct written blocks."""
        return len(self._blocks)

    # -- internals -------------------------------------------------------------------

    def _validate(self, lba: int, size: int) -> None:
        if lba < 0:
            raise DeviceError(f"negative LBA: {lba}")
        if size <= 0:
            raise DeviceError(f"block I/O size must be positive: {size}")

    def _media_time(self, size: int) -> int:
        return self.MEDIA_ACCESS_NS + units.transfer_time_ns(
            size, self.MEDIA_BW_BPS)
