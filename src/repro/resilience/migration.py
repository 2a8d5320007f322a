"""Bookkeeping and fencing primitives for one live offcode migration.

A migration is a six-step cutover (quiesce → checkpoint → re-solve →
restore → replay → rebind) driven by
:meth:`repro.core.runtime.HydraRuntime.migrate`.  This module holds the
pieces that must stay free of ``repro.core`` imports:

* :class:`MigrationRecord` — the durable account of one cutover,
  appended to ``runtime.migrations`` before the first side effect so a
  failed attempt is never invisible.
* :class:`HoldingGate` — a bounded holding queue for proxy calls.
  While the gate is closed, callers park on a shared event; when the
  bound is hit further callers are shed with
  :class:`~repro.errors.AdmissionShedError` (bounded memory, bounded
  latency — a migration must not turn into an unbounded queue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.errors import AdmissionShedError
from repro.sim.engine import Event, Simulator

__all__ = ["MigrationRecord", "HoldingGate"]


@dataclass
class MigrationRecord:
    """One live migration, from request to completion (or failure).

    Crash recovery and migration share their teardown and rewire halves
    (``HydraRuntime._evict``/``_rewire``), which write into either
    record through the fields both carry: ``reports``, ``replayed`` and
    ``hook_errors`` — the ``repr`` of every failed recovery or
    ``prepare_migrate`` hook, strings on both records.  The ``device``
    and ``victims`` properties let recovery hooks written against
    :class:`~repro.core.runtime.RecoveryIncident` run unchanged.
    """

    bindname: str
    source: str                          # device the offcode left
    target: Optional[str]                # requested destination (None = solver's choice)
    started_at_ns: int
    destination: Optional[str] = None    # where it actually landed
    quiesced_at_ns: Optional[int] = None
    restored_at_ns: Optional[int] = None
    completed_at_ns: Optional[int] = None
    failed_at_ns: Optional[int] = None
    error: Optional[BaseException] = None
    drained: bool = False       # cooperative drain emptied every unacked queue
    restored: bool = False      # snapshot state applied on the destination
    replayed: int = 0           # unacked RELIABLE messages re-sent post-cutover
    shed: int = 0               # proxy calls shed by the holding gate
    held_peak: int = 0          # peak calls parked in the holding gate
    hook_errors: List[str] = field(default_factory=list)
    placement: Dict[str, str] = field(default_factory=dict)
    reports: List[Any] = field(default_factory=list)  # teardown CleanupReports

    # Recovery hooks address incidents by the device that changed.
    @property
    def device(self) -> str:
        """The source device, under the incident-hook naming."""
        return self.source

    @property
    def victims(self) -> List[str]:
        """The migrated offcode, under the incident-hook naming."""
        return [self.bindname]

    @property
    def completed(self) -> bool:
        """True once the cutover finished and the gate reopened."""
        return self.completed_at_ns is not None

    @property
    def failed(self) -> bool:
        """True if the migration aborted."""
        return self.failed_at_ns is not None

    @property
    def downtime_ns(self) -> Optional[int]:
        """Blackout window: calls fenced until the offcode ran again."""
        if self.quiesced_at_ns is None or self.restored_at_ns is None:
            return None
        return self.restored_at_ns - self.quiesced_at_ns


class HoldingGate:
    """A bounded fence for in-flight work during a cutover.

    ``close()`` arms the gate; subsequent :meth:`wait` calls park on one
    shared event until :meth:`open` releases them all at once.  At most
    ``capacity`` callers may park; the rest are shed immediately with
    :class:`~repro.errors.AdmissionShedError`.  The gate is reusable,
    but each close creates a *fresh* event so late wakeups from a prior
    cycle can never leak through.
    """

    def __init__(self, sim: Simulator, capacity: int = 64) -> None:
        self.sim = sim
        self.capacity = capacity
        self._barrier: Optional[Event] = None
        self.waiting = 0
        self.held_peak = 0
        self.shed = 0
        self.released = 0

    @property
    def closed(self) -> bool:
        """True while callers are being fenced."""
        return self._barrier is not None

    def close(self) -> None:
        """Arm the fence (idempotent)."""
        if self._barrier is None:
            self._barrier = Event(self.sim)

    def open(self) -> None:
        """Release every parked caller and let new ones pass (idempotent)."""
        barrier, self._barrier = self._barrier, None
        if barrier is not None:
            barrier.succeed()

    def wait(self) -> Generator[Event, Any, None]:
        """Process generator: pass through, park, or shed.

        Loops because the gate may have been closed again by the time a
        released waiter is rescheduled (back-to-back migrations).
        """
        while True:
            barrier = self._barrier
            if barrier is None:
                return
            if self.waiting >= self.capacity:
                self.shed += 1
                raise AdmissionShedError(
                    f"holding gate full ({self.capacity} calls parked); "
                    "call shed during migration")
            self.waiting += 1
            self.held_peak = max(self.held_peak, self.waiting)
            try:
                yield barrier
            finally:
                self.waiting -= 1
            self.released += 1
