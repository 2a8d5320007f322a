"""Registered memory regions for one-sided verbs.

An :class:`RdmaRegion` is the remote half of the RDMA contract: a run
of memory the owner *registered* with the RDMA engine and advertised by
``rkey``.  After registration the owner's CPU is out of the picture —
remote peers read, write and compare-and-swap the region through the
engine's DMA path alone ("RDMA is Turing complete, we just did not know
it yet!"): no descriptor ring, no dispatch, no remote Offcode ever
scheduled.

Registration is priced like the real thing: host regions pin user pages
through the :class:`~repro.core.memory.MemoryManager` (get_user_pages),
device regions allocate device-local memory, and either way the engine
charges an MTT/MPT update before the rkey is live.

The simulation moves costs, not bytes, so a region carries two small
stores standing in for its contents: ``objects`` (arbitrary payloads at
byte offsets — what a KV value slot holds) and ``words`` (64-bit
integers at byte offsets — what atomics operate on).  Both are plain
dicts: a read of a never-written offset returns ``None`` / 0, exactly
like zeroed memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import RdmaError

__all__ = ["RdmaRegion"]


@dataclass
class RdmaRegion:
    """One registered memory region, addressed remotely by ``rkey``
    (issued by the registering provider)."""

    owner: str                     # "host" or a device name
    size: int
    rkey: int
    label: str = ""
    base: int = 0
    revoked: bool = False
    # Content stand-ins (the sim moves costs, not bytes).
    objects: Dict[int, Any] = field(default_factory=dict)
    words: Dict[int, int] = field(default_factory=dict)
    # Backing bookkeeping so deregistration can release what
    # registration acquired (a PinnedRegion or a device MemoryRegion).
    backing: Optional[object] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise RdmaError(f"region size must be positive: {self.size}")

    # -- bounds ------------------------------------------------------------------

    def check(self, offset: int, length: int) -> None:
        """Validate one access; raises on revoked regions and overruns.

        This is the engine-side protection check every verb passes —
        the simulation analogue of the rkey/PD validation an RNIC does
        per work request.
        """
        if self.revoked:
            raise RdmaError(
                f"rkey {self.rkey:#x} ({self.label!r}) has been revoked")
        if offset < 0 or length < 0 or offset + length > self.size:
            raise RdmaError(
                f"access [{offset}, {offset + length}) outside region "
                f"{self.label!r} of {self.size} bytes")

    # -- content stand-ins --------------------------------------------------------

    def read_object(self, offset: int) -> Any:
        """The payload stored at ``offset`` (None if never written)."""
        return self.objects.get(offset)

    def write_object(self, offset: int, value: Any) -> None:
        """Store a payload at ``offset``."""
        self.objects[offset] = value

    def load_word(self, offset: int) -> int:
        """The 64-bit word at ``offset`` (0 if never stored)."""
        return self.words.get(offset, 0)

    def compare_and_swap(self, offset: int, expected: int,
                         desired: int) -> int:
        """Atomic CAS on the word at ``offset``; returns the old value.

        Atomicity is free in a discrete-event world — the engine
        serializes atomics on the target region, which a single-threaded
        simulator does by construction.
        """
        old = self.load_word(offset)
        if old == expected:
            self.words[offset] = desired
        return old

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "revoked" if self.revoked else "live"
        return (f"<RdmaRegion rkey={self.rkey:#x} owner={self.owner} "
                f"size={self.size} {state}>")
