"""Synchronisation primitives for simulated processes.

Three primitives cover every need in the reproduction:

* :class:`Store` — an optionally-bounded FIFO of items; the message-queue
  building block used for NIC rings, socket buffers and channel endpoints.
* :class:`Resource` — a counted semaphore with FIFO fairness; models CPUs,
  DMA engines and bus ownership.
* :class:`Container` — a continuous level (bytes of buffer space, joules).

Processes yield every ``get``/``put``/``request`` result immediately and
exactly once.  An operation that completes at once (a free slot, a ready
item, room in the store) returns a fused ``sim.clock.after`` handle,
which resumes the caller in the queue position an Event would have taken
without allocating one; an operation that blocks returns an Event, and
:class:`Container` always does.  To combine such a wait with other
events, run it in a process and combine the process.

>>> from repro.sim.engine import Simulator
>>> sim = Simulator()
>>> store = Store(sim)
>>> def producer(sim, store):
...     yield sim.clock.timeout(5)
...     yield store.put("hello")
>>> def consumer(sim, store, out):
...     item = yield store.get()
...     out.append((sim.now, item))
>>> out = []
>>> _ = sim.spawn(producer(sim, store)); _ = sim.spawn(consumer(sim, store, out))
>>> sim.run(); out
[(5, 'hello')]
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["Store", "Resource", "Container"]


class Store:
    """FIFO item store with optional capacity.

    ``put`` blocks when the store holds ``capacity`` items; ``get`` blocks
    when it is empty.  With ``drop_when_full=True`` a put on a full store
    succeeds immediately with value ``False`` and the item is dropped —
    this models *unreliable* channels and fixed-size hardware rings.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 drop_when_full: bool = False) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"store capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.drop_when_full = drop_when_full
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self.dropped = 0      # items discarded because the store was full
        self.total_put = 0    # successful puts (excludes drops)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        """True when a bounded store holds ``capacity`` items."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any):
        """Insert ``item``; the wait resumes with True once it is accepted.

        An item handed to a waiting getter or stored in free room is
        accepted at once (a fused handle); so is a drop-mode store's
        put, which resumes with True (stored) or False (dropped).  Only
        a put blocked on a full store returns an Event.
        """
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            self.total_put += 1
            return self.sim.clock.after(0, value=True)
        if not self.full:
            self.items.append(item)
            self.total_put += 1
            return self.sim.clock.after(0, value=True)
        if self.drop_when_full:
            self.dropped += 1
            return self.sim.clock.after(0, value=False)
        event = Event(self.sim)
        self._putters.append((event, item))
        return event

    def get(self):
        """Remove the oldest item; the wait resumes with it.

        A ready item with no blocked putter is returned at once (a fused
        handle).  Otherwise the result is an Event: a getter that blocks,
        or a get that admits a blocked putter, whose wakeup is queued
        behind this get's own.
        """
        if self.items and not self._putters:
            return self.sim.clock.after(0, value=self.items.popleft())
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putter()
        elif self._putters:
            putter, item = self._putters.popleft()
            putter.succeed(True)
            self.total_put += 1
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def forget_getters(self) -> int:
        """Discard every queued getter; returns how many were dropped.

        A consumer killed while parked on :meth:`get` leaves its event in
        the getter queue; a later ``put`` would hand the item to that
        corpse and the item would silently vanish.  Takeover paths (a
        migrated offcode re-claiming a NIC port binding) call this before
        installing the new reader.  The abandoned events are never
        succeeded — their processes are already dead.
        """
        dropped = len(self._getters)
        self._getters.clear()
        return dropped

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            putter, item = self._putters.popleft()
            self.items.append(item)
            self.total_put += 1
            putter.succeed(True)


class Resource:
    """Counted semaphore with FIFO fairness.

    ``request()`` waits for a slot; the holder must later call
    ``release()`` exactly once per grant, or ``withdraw()`` the request
    if it is interrupted before it can use the slot.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # occupancy bookkeeping for utilization statistics
        self._busy_since: Optional[int] = None
        self.busy_time = 0

    @property
    def available(self) -> int:
        """Unclaimed slots."""
        return self.capacity - self.in_use

    def request(self):
        """Wait for a slot (FIFO); the wait resumes with this resource.

        A free slot is granted at once and the result is a fused handle;
        otherwise it is an Event that triggers when :meth:`release`
        hands a slot over.
        """
        if self.in_use < self.capacity:
            if self.in_use == 0:
                self._busy_since = self.sim.now
            self.in_use += 1
            return self.sim.clock.after(0, value=self)
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def withdraw(self, request) -> None:
        """Give up ``request`` (a :meth:`request` result) after an interrupt.

        A request still queued leaves the queue; a slot already granted,
        at once or handed over before the interrupt landed, is released.
        Call it when an :class:`~repro.errors.InterruptError` arrives at
        the ``yield`` of a request, so the slot cannot leak.
        """
        if isinstance(request, Event) and not request.triggered:
            self._waiters.remove(request)
        else:
            self.release()

    def release(self) -> None:
        """Return a slot; the oldest waiter (if any) gets it directly."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; in_use is unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1
            if self.in_use == 0 and self._busy_since is not None:
                self.busy_time += self.sim.now - self._busy_since
                self._busy_since = None

    @property
    def busy_ns(self) -> int:
        """Time with at least one holder so far, the open interval included."""
        if self._busy_since is None:
            return self.busy_time
        return self.busy_time + self.sim.now - self._busy_since

    def utilization(self) -> float:
        """Fraction of wall time since t=0 with at least one holder."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_ns / now)


class Container:
    """A continuous level between 0 and ``capacity`` (bytes, joules, ...)."""

    def __init__(self, sim: Simulator, capacity: float, init: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError(f"container capacity must be positive: {capacity}")
        if not 0 <= init <= capacity:
            raise SimulationError(f"init level {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.level = init
        self._getters: Deque[tuple] = deque()  # (event, amount)
        self._putters: Deque[tuple] = deque()

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks (event-pends) above capacity."""
        if amount <= 0:
            raise SimulationError(f"put amount must be positive: {amount}")
        event = Event(self.sim)
        if self.level + amount <= self.capacity:
            self.level += amount
            event.succeed()
            self._drain_getters()
        else:
            self._putters.append((event, amount))
        return event

    def get(self, amount: float) -> Event:
        """Take ``amount``; blocks (event-pends) below the level."""
        if amount <= 0:
            raise SimulationError(f"get amount must be positive: {amount}")
        event = Event(self.sim)
        if amount <= self.level:
            self.level -= amount
            event.succeed()
            self._drain_putters()
        else:
            self._getters.append((event, amount))
        return event

    def _drain_getters(self) -> None:
        while self._getters and self._getters[0][1] <= self.level:
            event, amount = self._getters.popleft()
            self.level -= amount
            event.succeed()

    def _drain_putters(self) -> None:
        while self._putters and self.level + self._putters[0][1] <= self.capacity:
            event, amount = self._putters.popleft()
            self.level += amount
            event.succeed()
