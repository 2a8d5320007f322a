"""Discrete-event simulation engine.

This is the substrate everything else runs on: hardware models, the
simulated OS, the network, and HYDRA offcodes all execute as *processes*
on a :class:`Simulator`.

The design follows the classic event/process style (cf. SimPy) but is
implemented from scratch so the reproduction has no external runtime
dependencies:

* Time is integer nanoseconds (see :mod:`repro.units`).
* An :class:`Event` is a one-shot occurrence that processes can wait on.
* A :class:`Process` wraps a Python generator.  The generator *yields*
  events; the engine resumes it with the event's value (or throws the
  event's exception into it) when the event triggers.
* The queue orders entries by ``(time, priority, seq)``; ``seq`` is a
  monotonically increasing tie-breaker, which makes runs fully
  deterministic regardless of the backing data structure.

Scheduling goes through the blessed :class:`Clock` surface
(``sim.clock``)::

    yield sim.clock.after(10)            # sleep 10 ns (fused fast path)
    timer = sim.clock.every(1000, tick)  # periodic, cancellable
    yield sim.clock.timeout(10, "hi")    # a storable/combinable Event
    yield sim.clock.fence()              # run after everything at `now`

Hot-path design notes
---------------------
Every simulated nanosecond in this repository flows through this loop,
so the per-event costs are engineered away:

* **The queue is a hierarchical timer wheel**, not a binary heap.  A
  sorted *active window* list, popped by advancing a cursor, holds only
  the entries before ``_active_end``; behind it sit two fixed-slot
  wheels (L0: 256 slots x 256 ns, L1: 256 slots x 65.5 us) and a
  far-future overflow heap.  Most inserts are an O(1) ``list.append``
  plus one byte store; only inserts inside the window pay a C
  ``bisect.insort``.  Each wheel tracks its occupied slots in a
  ``bytearray`` (1 = non-empty), so the refill scan is one C-level
  ``.find(1)``.  A refill sorts occupied L0 slots into the window until
  it holds ``_REFILL_BATCH`` entries.  An L1 slot holding fewer than
  that skips L0: it becomes the window at once, spanning all of L0,
  which is where scattering it over L0 and gathering it back would
  end, so each entry is moved once.  ``Simulator(scheduler="heap")``
  disables the wheels (every insert goes to the active window), giving
  a reference engine for differential tests; both modes pop entries in
  the identical ``(time, priority, seq)`` order.
* **The delay->resume pattern is fused.**  ``yield clock.after(dt)``
  does not build an Event at all: the engine schedules the *process
  itself* as a queue entry and resumes its generator directly when the
  entry pops (no callback list, no trigger state machine).  The small
  :class:`_Deferred` request objects are recycled through a free list
  (``Simulator.DEFAULT_POOL_SIZE`` bounds it, ``pool_recycled`` counts
  reuse).
* **Every wait satisfied at creation is fused the same way.**
  ``spawn()`` queues the new process itself as its start entry, and an
  uncontended ``Resource.request()`` or a ``Store.put()``/``get()``
  that completes at once returns a ``clock.after(0, value=...)`` handle
  instead of an already-triggered Event.  The process's entry takes the
  seq the Event would have had, at the same time and priority, so the
  pop order and ``events_processed`` are unchanged; only the allocation
  and the callback dispatch are gone.  Waits that can block, anything
  stored or combined, and process completion stay Events.
* **Cancellation is lazy but bounded.**  :meth:`Process.interrupt` and
  :meth:`Timer.cancel` never scan the active window; a cancelled wheel
  entry is removed in place when its slot is reachable (O(slot)) and
  otherwise left to be dropped at pop time.  The ``dead_timers`` gauge
  counts entries awaiting lazy reclamation and :meth:`Simulator.reclaim`
  sweeps them out; it auto-runs when the count passes a threshold.
* **Observation** — the loop counts processed events
  (:attr:`Simulator.events_processed`) and exposes a profiler hook
  (:meth:`Simulator.attach_profiler`) that costs one ``is None`` check
  per event when disabled.

Example
-------
>>> sim = Simulator()
>>> def pinger(sim, log):
...     for _ in range(3):
...         yield sim.clock.after(10)
...         log.append(sim.now)
>>> log = []
>>> _ = sim.spawn(pinger(sim, log))
>>> sim.run()
>>> log
[10, 20, 30]
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from inspect import GEN_CREATED, getgeneratorstate
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import InterruptError, ProcessError, SchedulingError
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Clock",
    "Timer",
    "Simulator",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

# Event lifecycle states.
PENDING = "pending"        # not yet triggered
TRIGGERED = "triggered"    # value set, sitting in the queue
PROCESSED = "processed"    # callbacks have run

# Scheduling priorities: URGENT events (process resumptions caused by
# interrupts) run before NORMAL events at the same timestamp; FENCE
# events (clock.fence) run after everything else at the same timestamp.
URGENT = 0
NORMAL = 1
FENCE = 2
# Interrupt sources (the host kernels' timer ticks) queue below all of
# these, so an interrupt is taken first at its instant; each source has
# its own level, in the order it asked for one (_interrupt_priority).
_INTERRUPT_BASE = -(1 << 30)

# Timer-wheel geometry.  L0 covers [l0_base, l0_base + 65_536) ns in
# 256 ns slots; one L1 slot spans exactly the whole L0 wheel
# (1 << _L1_SHIFT == _SLOTS << _L0_SHIFT), so an L1 cascade re-bases L0
# with no remainder.  Anything beyond L1 (16.8 ms out) heaps in
# _overflow until the wheels advance far enough to absorb it.
_L0_SHIFT = 8
_L1_SHIFT = 16
_SLOTS = 256
_L0_SPAN = _SLOTS << _L0_SHIFT
_L1_SPAN = _SLOTS << _L1_SHIFT

# A refill widens the active window over occupied L0 slots until it
# holds this many entries; an L1 slot holding fewer skips L0 and becomes
# the whole window at once (see Simulator._refill).
_REFILL_BATCH = 32

_INF = float("inf")

# Lazy-cancelled entries trigger a full reclaim() sweep past this count,
# bounding dead-entry growth without any hot-path bookkeeping.
_RECLAIM_THRESHOLD = 4096


class Event:
    """A one-shot occurrence that carries a value or an exception.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    schedules them on the simulator; once the simulator pops them their
    callbacks run and they become *processed*.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "defused")

    # Class defaults read by the main loop's entry dispatch: a popped
    # entry whose seq matches obj._cont_seq is a fused continuation,
    # one found in obj._stale_seqs is an abandoned one.  Plain events
    # are neither; Process and Timer shadow these as needed.
    _cont_seq = 0
    _stale_seqs: Optional[set] = None

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = PENDING
        self.defused = False

    # -- inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise ProcessError("event value inspected before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._state == PENDING:
            raise ProcessError("event value inspected before trigger")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully after ``delay`` ns."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception after ``delay`` ns."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._trigger(False, exc, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: int,
                 priority: int = NORMAL) -> None:
        if self._state != PENDING:
            raise ProcessError(f"event {self!r} triggered twice")
        self._ok = ok
        self._value = value
        self._state = TRIGGERED
        self.sim._push(self, delay, priority)

    # -- internals -------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks.  Called by the simulator main loop only."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._trigger(True, value, delay)


class _Deferred:
    """A value-carrying fused-sleep request from :meth:`Clock.after`.

    Not an event: yielding one tells the engine to schedule the process
    itself as the queue entry (no Event allocation, no callback list)
    and resume the generator directly with ``value``.  Plain sleeps
    (``value=None``) skip even this object: :meth:`Clock.after` returns
    the bare integer delay and the engine fuses it directly.  Contract:
    yield it immediately, exactly once; instances are recycled through
    the simulator's free list after each use, and reusing one raises.
    To store or combine a sleep (conditions, stores), use
    :meth:`Clock.timeout` instead.
    """

    __slots__ = ("delay", "value")

    def __init__(self) -> None:
        self.delay = -1
        self.value = None


class Timer:
    """A cancellable scheduled call, from ``clock.after/at/every``.

    One-shot timers run ``fn()`` once at their deadline; periodic timers
    (:meth:`Clock.every`) reschedule at exact multiples of the period
    (``anchor + k * period``) *before* invoking ``fn``, so the schedule
    never drifts and ``fn`` may cancel the timer.  Timers are queue
    entries themselves, not Events: they cannot be yielded or combined.
    """

    __slots__ = ("sim", "fn", "period", "anchor", "fires", "when",
                 "_cancelled", "_entry_seq")

    # Event-protocol defaults so the main loop's post-dispatch checks
    # (failure escalation, continuation match) pass through untouched.
    _ok = True
    defused = False
    callbacks = ()
    _cont_seq = 0
    _stale_seqs: Optional[set] = None

    def __init__(self, sim: "Simulator", fn: Callable[[], Any],
                 period: Optional[int], when: int,
                 anchor: Optional[int] = None) -> None:
        self.sim = sim
        self.fn = fn
        self.period = period
        self.anchor = when if anchor is None else anchor
        self.fires = 0
        self.when: Optional[int] = when
        self._cancelled = False
        self._entry_seq = sim._insert(when, NORMAL, self)

    @property
    def active(self) -> bool:
        """True while the timer still has a scheduled firing."""
        return not self._cancelled and self.when is not None

    def cancel(self) -> bool:
        """Stop the timer.  Returns False if it already fired/cancelled.

        The queue entry is removed in place when it sits in a wheel
        slot (O(slot length)); entries already promoted to the active
        window (or parked in the overflow heap) are dropped lazily at pop
        time and counted in :attr:`Simulator.dead_timers` meanwhile.
        """
        if self._cancelled or self.when is None:
            return False
        self._cancelled = True
        sim = self.sim
        if not sim._discard(self.when, self._entry_seq, self):
            sim.dead_timers += 1
            if sim.dead_timers >= _RECLAIM_THRESHOLD:
                sim.reclaim()
        return True

    def _process(self) -> None:
        # Called by the main loop when the entry pops (event path).
        if self._cancelled:
            self.sim.dead_timers -= 1
            return
        if self.period is not None:
            # Reschedule first (exact arithmetic, zero drift) so fn()
            # may cancel() the very firing it is handling.
            self.fires += 1
            when = self.anchor + (self.fires + 1) * self.period
            self.when = when
            self._entry_seq = self.sim._insert(when, NORMAL, self)
        else:
            self.fires = 1
            self.when = None
        self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "every" if self.period is not None else "once"
        return f"<Timer {kind} when={self.when} cancelled={self._cancelled}>"


class Process(Event):
    """A running generator.  The process *is* an event: it triggers when
    the generator returns (success, value = return value) or raises
    (failure).  Other processes can therefore ``yield proc`` to join it.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_interrupted",
                 "_cont_seq", "_cont_value", "_stale_seqs")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None,
                 delay: int = 0) -> None:
        if not hasattr(generator, "throw"):
            raise ProcessError(
                f"spawn() requires a generator, got {type(generator).__name__}"
                " (did you forget to call the process function?)")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._interrupted = False
        self._waiting_on: Optional[Event] = None
        # Fused-wait state: while the process sleeps via clock.after (or
        # waits on anything else satisfied at once), its queue entry's
        # seq is recorded here (no Event exists).  Seqs of entries
        # abandoned by interrupt() collect in _stale_seqs until the pop
        # (or a reclaim sweep) drops them.
        self._cont_value: Any = None
        self._stale_seqs: Optional[set] = None
        # The start is itself a fused wait: the first pop sends None
        # into the fresh generator.
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay} ns in the past")
        self._cont_seq = sim._insert(sim.now + delay, NORMAL, self)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process.

        The process must currently be waiting on an event or a fused
        sleep; the pending wait is abandoned *lazily*: the stale
        callback registration (or queue entry) stays in place — no O(n)
        scan — and is discarded when it eventually pops.  Abandoned
        fused-sleep entries are visible in
        :attr:`Simulator.dead_timers` until then.
        """
        if not self.alive:
            raise ProcessError(f"cannot interrupt finished process {self.name}")
        if (self._interrupted
                or (self._waiting_on is None and not self._cont_seq)
                or getgeneratorstate(self._generator) == GEN_CREATED):
            # A process whose start entry has not popped yet is not
            # waiting on anything either.
            raise ProcessError(
                f"cannot interrupt {self.name}: it is not waiting")
        cont = self._cont_seq
        if cont:
            # Abandon the fused sleep: remember the seq so the queue
            # entry is dropped at pop (or swept by reclaim) instead of
            # resuming the process.
            self._cont_seq = 0
            self._cont_value = None
            stale = self._stale_seqs
            if stale is None:
                stale = self._stale_seqs = set()
            stale.add(cont)
            sim = self.sim
            sim.dead_timers += 1
            if sim.dead_timers >= _RECLAIM_THRESHOLD:
                sim.reclaim()
        self._interrupted = True
        wakeup = Event(self.sim)
        wakeup._trigger(False, InterruptError(cause), 0, priority=URGENT)
        wakeup.defused = True  # interrupts are delivered, never escape
        wakeup.callbacks.append(self._resume)
        self._waiting_on = wakeup

    # -- engine plumbing -------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            # Stale wakeup arriving after the process already finished.
            return
        waiting = self._waiting_on
        if waiting is not None:
            if event is not waiting:
                # Lazy cancellation: a wakeup from a wait this process
                # abandoned (interrupt() re-aimed _waiting_on).  Drop it
                # without touching the event, so an undelivered failure
                # still escalates from the main loop.
                return
        elif self._cont_seq:
            # Fused sleep in progress; drop wakeups from abandoned waits.
            return
        self._waiting_on = None
        self._interrupted = False
        self.sim._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                # Mark the failure as handled: it is being delivered.
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self._trigger(True, stop.value, 0)
            return
        except BaseException as exc:
            self.sim._active_process = None
            self._trigger(False, exc, 0)
            return
        self.sim._active_process = None
        self._bind(target)

    def _bind(self, target: Any) -> None:
        """Park the process on whatever the generator yielded."""
        cls = target.__class__
        if cls is int:
            self.sim._fuse_int(self, target)
            return
        if cls is _Deferred:
            self.sim._fuse(self, target)
            return
        if not isinstance(target, Event):
            raise ProcessError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances or integer "
                "delays (clock.after)")
        if target.sim is not self.sim:
            raise ProcessError(
                f"process {self.name!r} yielded an event from another simulator")
        if target._state == PROCESSED:
            # Already-processed events resume the waiter immediately (at the
            # current timestamp) rather than deadlocking.
            relay = Event(self.sim)
            relay._trigger(target._ok, target._value, 0, priority=URGENT)
            if not target._ok:
                relay.defused = True
            relay.callbacks.append(self._resume)
            self._waiting_on = relay
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} state={self._state}>"


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if not isinstance(event, Event):
                raise ProcessError(
                    f"conditions require Event instances, got {event!r}; "
                    "clock.after() and immediately-satisfied "
                    "request()/get()/put() handles must be yielded "
                    "directly — use clock.timeout() for combinable sleeps")
            if event.sim is not sim:
                raise ProcessError("condition mixes events from simulators")
        self._pending = sum(1 for e in self.events if not e.processed)
        if self._check_now():
            return
        for event in self.events:
            if not event.processed:
                event.callbacks.append(self._on_child)

    def _check_now(self) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {e: e._value for e in self.events if e.processed and e._ok}


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers.

    Value is a dict of the already-processed successful children.  If the
    first child to trigger failed, the condition fails with its exception.
    """

    __slots__ = ()

    def _check_now(self) -> bool:
        for event in self.events:
            if event.processed:
                if event._ok:
                    self.succeed(self._collect())
                else:
                    event.defused = True
                    self.fail(event._value)
                return True
        if not self.events:
            self.succeed({})
            return True
        return False

    def _on_child(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            event.defused = True
            self.fail(event._value)


class AllOf(_Condition):
    """Triggers once all child events have triggered successfully."""

    __slots__ = ()

    def _check_now(self) -> bool:
        for event in self.events:
            if event.processed and not event._ok:
                event.defused = True
                self.fail(event._value)
                return True
        if self._pending == 0:
            self.succeed(self._collect())
            return True
        return False

    def _on_child(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Clock:
    """The blessed scheduling surface, attached as ``sim.clock``.

    All in-tree code schedules through this one choke point so the
    wheel's fast path stays optimizable and profilable:

    * :meth:`after` — relative sleep (fused fast path) or one-shot call
    * :meth:`at` — absolute-time variant of :meth:`after`
    * :meth:`every` — drift-free periodic call, cancellable
    * :meth:`timeout` — a plain storable/combinable :class:`Timeout`
    * :meth:`fence` — quiesce point after all work at the current instant
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self.sim.now

    def after(self, delay: int, fn: Optional[Callable[[], Any]] = None,
              *, value: Any = None):
        """Schedule ``delay`` ns from now.

        Without ``fn`` this returns a fused-sleep token for a process to
        yield immediately: the engine schedules the process itself as
        the queue entry and resumes the generator with ``value`` — no
        Event is allocated.  For plain sleeps the token *is* the integer
        delay (hot loops may equivalently ``yield delay_ns`` directly).
        With ``fn`` it returns a cancellable :class:`Timer` that calls
        ``fn()`` at the deadline.
        """
        if fn is None:
            if value is None:
                if delay < 0:
                    raise SchedulingError(f"negative timeout delay: {delay}")
                return delay
            sim = self.sim
            if delay < 0:
                raise SchedulingError(f"negative timeout delay: {delay}")
            pool = sim._deferred_pool
            if pool:
                deferred = pool.pop()
                sim.pool_recycled += 1
            else:
                deferred = _Deferred()
            deferred.delay = delay
            deferred.value = value
            return deferred
        sim = self.sim
        delay = int(delay)
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay}")
        return Timer(sim, fn, None, sim.now + delay)

    def at(self, when: int, fn: Optional[Callable[[], Any]] = None,
           *, value: Any = None):
        """Absolute-time :meth:`after`: schedule at ``when`` ns."""
        when = int(when)
        now = self.sim.now
        if when < now:
            raise SchedulingError(
                f"clock.at({when}) is in the past (now={now})")
        if fn is None:
            return self.after(when - now, value=value)
        return Timer(self.sim, fn, None, when)

    def every(self, period: int, fn: Callable[[], Any],
              *, first: Optional[int] = None) -> Timer:
        """Call ``fn()`` every ``period`` ns, starting ``first`` (default
        ``period``) ns from now.  Firings land at exact multiples of the
        period — the schedule accumulates zero drift.  Returns the
        cancellable :class:`Timer`.
        """
        period = int(period)
        if period <= 0:
            raise SchedulingError(f"clock.every() period must be positive: "
                                  f"{period}")
        sim = self.sim
        start = sim.now + (period if first is None else int(first))
        if start < sim.now:
            raise SchedulingError(f"clock.every() first firing in the past: "
                                  f"{start}")
        return Timer(sim, fn, period, start, anchor=start - period)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """A plain :class:`Timeout` event ``delay`` ns out.

        Unlike :meth:`after` handles, the returned event may be stored,
        shared, or combined with :meth:`Simulator.any_of` /
        :meth:`Simulator.all_of`.
        """
        return Timeout(self.sim, int(delay), value)

    def fence(self, value: Any = None) -> Event:
        """An event that runs after *everything* already scheduled at the
        current instant (including URGENT wakeups), for quiesce points.
        """
        event = Event(self.sim)
        event._trigger(True, value, 0, priority=FENCE)
        return event


class Simulator:
    """The discrete-event engine: a clock plus an ordered event queue.

    ``DEFAULT_POOL_SIZE`` bounds the free list of recycled fused-sleep
    handles (see :meth:`Clock.after`).  ``scheduler`` selects the queue
    implementation: ``"wheel"`` (default, hierarchical timer wheel) or
    ``"heap"`` (single binary heap, the differential-test reference).
    Both produce the identical ``(time, priority, seq)`` pop order.
    """

    DEFAULT_POOL_SIZE = 256

    def __init__(self, scheduler: str = "wheel") -> None:
        if scheduler not in ("wheel", "heap"):
            raise ValueError(f"unknown scheduler {scheduler!r}; "
                             "expected 'wheel' or 'heap'")
        self.scheduler = scheduler
        self.now: int = 0
        self._seq = 0
        # The active window holds every entry inside [*, _active_end) as
        # a sorted list consumed left-to-right via _active_pos (popping
        # is an index bump, not a heap sift); the run loop only ever
        # pops from here.  Late arrivals land via C bisect.insort.  In
        # flat ("heap") mode the window is infinite, so the wheels
        # below stay empty.
        self._active: List = []
        self._active_pos = 0
        self._active_end = _INF if scheduler == "heap" else 0
        # Slot occupancy lives in bytearrays (mutated in place, so the
        # run loop can cache references): occ[i] is 1 iff slot i holds
        # entries; the refill scan is a single C-level .find(1).
        self._l0: List[List] = [[] for _ in range(_SLOTS)]
        self._l0_base = 0
        self._l0_end = _L0_SPAN
        self._l0_occ = bytearray(_SLOTS)
        self._l1: List[List] = [[] for _ in range(_SLOTS)]
        self._l1_base = 0
        self._l1_end = _L1_SPAN
        self._l1_occ = bytearray(_SLOTS)
        self._overflow: List = []
        self._active_process: Optional[Process] = None
        self._interrupt_sources = 0
        # The blessed scheduling API (Clock.after/at/every/timeout/fence).
        self.clock = Clock(self)
        # Optional telemetry hub (see repro.telemetry.Telemetry); None
        # keeps every instrumented site at a single attribute check.
        self.telemetry = None
        # Optional hot-loop profiler (see repro.sim.profile.SimProfiler).
        self._profiler = None
        # Free list of recycled fused-sleep handles (_Deferred).
        self._pool_limit = self.DEFAULT_POOL_SIZE
        self._deferred_pool: List[_Deferred] = []
        # Observability counters (cheap ints, always on).
        self.events_processed = 0
        self.pool_recycled = 0     # fused-sleep handles served from the pool
        self.fused_resumes = 0     # events dispatched via the fused fast path
        self.dead_timers = 0       # cancelled entries awaiting lazy removal
        # The run's one counter store (see repro.telemetry.metrics).  The
        # ints above are read into it at snapshot time, so the run loop
        # keeps its plain integer bumps; a dead-timer gauge stuck high
        # means cancellations outpace the reclaim sweeps.
        self.metrics = MetricsRegistry()
        events = self.metrics.counter(
            "repro_sim_events_total",
            help="Events dispatched by the scheduler").labels()
        fused = self.metrics.counter(
            "repro_sim_fused_resumes_total",
            help="Events dispatched via the fused-sleep fast path").labels()
        dead = self.metrics.gauge(
            "repro_sim_dead_timers",
            help="Cancelled timer entries awaiting lazy removal from the "
                 "wheel").labels()

        def collect(_registry: MetricsRegistry) -> None:
            events.set_total(self.events_processed)
            fused.set_total(self.fused_resumes)
            dead.set(self.dead_timers)

        self.metrics.register_collector(collect)

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def spawn(self, generator: Generator[Event, Any, Any],
              name: Optional[str] = None, delay: int = 0) -> Process:
        """Start ``generator`` as a process after ``delay`` ns."""
        return Process(self, generator, name=name, delay=delay)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # -- profiling -------------------------------------------------------

    def attach_profiler(self, profiler) -> None:
        """Install a :class:`repro.sim.profile.SimProfiler` on the loop."""
        self._profiler = profiler

    def detach_profiler(self) -> None:
        """Remove the profiler (the loop reverts to one check per event)."""
        self._profiler = None

    def _interrupt_priority(self) -> int:
        """A queue priority for a new interrupt source: its entries pop
        before every other entry at their instant, and before those of
        sources that asked later."""
        self._interrupt_sources += 1
        return _INTERRUPT_BASE + self._interrupt_sources

    # -- queue: inserts ----------------------------------------------------

    def _insert(self, when: int, priority: int, obj: Any) -> int:
        """Route one entry to the active window or the wheels.  Returns seq."""
        self._seq = seq = self._seq + 1
        entry = (when, priority, seq, obj)
        if when < self._active_end:
            insort(self._active, entry, self._active_pos)
        elif when < self._l0_end:
            i = (when - self._l0_base) >> _L0_SHIFT
            self._l0[i].append(entry)
            self._l0_occ[i] = 1
        elif when < self._l1_end:
            i = (when - self._l1_base) >> _L1_SHIFT
            self._l1[i].append(entry)
            self._l1_occ[i] = 1
        else:
            heappush(self._overflow, entry)
        return seq

    def _push(self, event: Event, delay: int, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay} ns in the past")
        self._insert(self.now + delay, priority, event)

    def _fuse_int(self, process: Process, delay: int) -> None:
        """Schedule ``process`` itself for a plain fused sleep."""
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay}")
        process._cont_seq = self._insert(self.now + delay, NORMAL, process)

    def _fuse(self, process: Process, deferred: _Deferred) -> None:
        """Schedule ``process`` itself for a value-carrying fused sleep."""
        delay = deferred.delay
        if delay < 0:
            raise ProcessError(
                "clock.after() handle reused: yield each handle exactly "
                "once, immediately (use clock.timeout() to store sleeps)")
        seq = self._insert(self.now + delay, NORMAL, process)
        process._cont_seq = seq
        process._cont_value = deferred.value
        deferred.delay = -1
        deferred.value = None
        pool = self._deferred_pool
        if len(pool) < self._pool_limit:
            pool.append(deferred)

    # -- queue: removal / maintenance --------------------------------------

    def _discard(self, when: int, seq: int, obj: Any) -> bool:
        """Try to remove entry ``(when, NORMAL, seq, obj)`` in place.

        Only wheel slots allow cheap removal (an O(slot-length) list
        scan); entries in the active window or the overflow heap return
        False and are dropped lazily at pop time.
        """
        if when < self._active_end:
            return False
        entry = (when, NORMAL, seq, obj)
        if when < self._l0_end:
            i = (when - self._l0_base) >> _L0_SHIFT
            slot = self._l0[i]
            try:
                slot.remove(entry)
            except ValueError:
                return False
            if not slot:
                self._l0_occ[i] = 0
            return True
        if when < self._l1_end:
            i = (when - self._l1_base) >> _L1_SHIFT
            slot = self._l1[i]
            try:
                slot.remove(entry)
            except ValueError:
                return False
            if not slot:
                self._l1_occ[i] = 0
            return True
        return False

    def reclaim(self) -> int:
        """Sweep cancelled timers and abandoned fused sleeps from every
        bucket.  O(pending entries); preserves ordering.  Returns the
        number of entries removed.  Runs automatically once
        ``dead_timers`` passes an internal threshold, bounding
        dead-entry growth without hot-path bookkeeping.
        """
        def alive(entry) -> bool:
            obj = entry[3]
            if obj.__class__ is Timer:
                return not obj._cancelled
            stale = obj._stale_seqs
            if stale is not None and entry[2] in stale:
                stale.discard(entry[2])
                return False
            return True

        removed = 0
        # Mutate the containers in place: the run loop caches references
        # to them, and reclaim() may run mid-loop (cancel/interrupt from
        # inside a dispatched callback).  The active window is left
        # alone — the loop consumes it by index, so compacting it here
        # would shift entries under the loop's cursor; its dead entries
        # are bounded by one wheel slot's population and drop at pop.
        for wheel, occ in ((self._l0, self._l0_occ),
                           (self._l1, self._l1_occ)):
            i = occ.find(1)
            while i >= 0:
                slot = wheel[i]
                kept = [e for e in slot if alive(e)]
                if len(kept) != len(slot):
                    removed += len(slot) - len(kept)
                    slot[:] = kept
                    if not slot:
                        occ[i] = 0
                i = occ.find(1, i + 1)
        overflow = self._overflow
        kept = [e for e in overflow if alive(e)]
        if len(kept) != len(overflow):
            removed += len(overflow) - len(kept)
            overflow[:] = kept
            heapify(overflow)
        self.dead_timers -= removed
        return removed

    # -- queue: refill ------------------------------------------------------

    def _refill(self, horizon) -> bool:
        """Feed the empty active window from the wheels/overflow.

        Moves the earliest pending slots into the active window and
        advances it, cascading L1 -> L0 and overflow -> L1 as needed; a
        sparse L1 slot goes straight into the window.  Returns False
        (windows untouched at the decision point) when the earliest
        pending entry lies beyond ``horizon`` or nothing is pending.
        Precondition: the active window is drained.
        """
        active = self._active
        if active:
            # Precondition: the window is drained, so everything left
            # in the list is consumed prefix.
            del active[:]
        self._active_pos = 0
        while True:
            occ = self._l0_occ
            i = occ.find(1)
            if i >= 0:
                start = self._l0_base + (i << _L0_SHIFT)
                if start > horizon:
                    # Every entry in the slot is >= its window start.
                    return False
                slot = self._l0[i]
                active.extend(slot)
                del slot[:]
                occ[i] = 0
                # Batch: widen the window over further occupied slots
                # until it holds a decent run of entries — sparse
                # workloads otherwise pay one refill per slot for ~2
                # events each.  When the rest of the wheel is empty,
                # claim its whole span so the next refill cascades
                # straight from L1.
                end_i = i
                while len(active) < _REFILL_BATCH:
                    nxt = occ.find(1, end_i + 1)
                    if nxt < 0:
                        end_i = _SLOTS - 1
                        break
                    nxt_slot = self._l0[nxt]
                    active.extend(nxt_slot)
                    del nxt_slot[:]
                    occ[nxt] = 0
                    end_i = nxt
                active.sort()
                self._active_end = self._l0_base + ((end_i + 1) << _L0_SHIFT)
                return True
            occ = self._l1_occ
            j = occ.find(1)
            if j >= 0:
                slot = self._l1[j]
                if min(slot)[0] > horizon:
                    # Check before cascading so a too-far horizon never
                    # advances the windows without materializing work.
                    return False
                # Cascade: this L1 slot's window spans exactly the whole
                # L0 wheel, so re-base L0 on it.
                base = self._l1_base + (j << _L1_SHIFT)
                self._l0_base = base
                self._l0_end = end = base + _L0_SPAN
                occ[j] = 0
                if len(slot) < _REFILL_BATCH:
                    # Sparse slot: scattered into L0, the batching loop
                    # above would gather every entry back and claim the
                    # whole L0 span, so make that window directly.
                    active.extend(slot)
                    del slot[:]
                    active.sort()
                    self._active_end = end
                    return True
                # Dense slot: redistribute it over L0.
                l0 = self._l0
                l0_occ = self._l0_occ
                for entry in slot:
                    k = (entry[0] - base) >> _L0_SHIFT
                    l0[k].append(entry)
                    l0_occ[k] = 1
                del slot[:]
                continue
            overflow = self._overflow
            if overflow:
                first = overflow[0][0]
                if first > horizon:
                    return False
                # Re-base L1 so it covers the overflow head, then drain
                # everything inside the new window into its slots.
                base = (first >> _L1_SHIFT) << _L1_SHIFT
                self._l1_base = base
                end = base + _L1_SPAN
                self._l1_end = end
                l1 = self._l1
                l1_occ = self._l1_occ
                pop = heappop
                while overflow and overflow[0][0] < end:
                    entry = pop(overflow)
                    k = (entry[0] - base) >> _L1_SHIFT
                    l1[k].append(entry)
                    l1_occ[k] = 1
                continue
            return False

    # -- queue: inspection ---------------------------------------------------

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if the queue is empty."""
        active = self._active
        pos = self._active_pos
        if pos < len(active):
            return active[pos][0]
        i = self._l0_occ.find(1)
        if i >= 0:
            return min(self._l0[i])[0]
        i = self._l1_occ.find(1)
        if i >= 0:
            return min(self._l1[i])[0]
        if self._overflow:
            return self._overflow[0][0]
        return None

    # -- dispatch ------------------------------------------------------------

    def _resume_cont(self, process: Process) -> None:
        """Resume a fused-sleep continuation (non-inlined path: step(),
        profiler).  Keep in lockstep with the run() fast path.
        """
        self.fused_resumes += 1
        value = process._cont_value
        process._cont_value = None
        process._cont_seq = 0
        self._active_process = process
        try:
            target = process._generator.send(value)
        except StopIteration as stop:
            self._active_process = None
            process._trigger(True, stop.value, 0)
            return
        except BaseException as exc:
            self._active_process = None
            process._trigger(False, exc, 0)
            return
        self._active_process = None
        process._bind(target)

    def step(self) -> None:
        """Process exactly one event."""
        active = self._active
        pos = self._active_pos
        if pos >= len(active):
            if not self._refill(_INF):
                raise SchedulingError("step() on an empty event queue")
            pos = 0
        elif pos >= 4096:
            # Shed the consumed prefix so flat-mode runs stay bounded.
            del active[:pos]
            pos = 0
        when, _prio, seq, obj = active[pos]
        self._active_pos = pos + 1
        if when < self.now:
            raise SchedulingError("event queue corrupted: time went backwards")
        self.now = when
        self.events_processed += 1
        profiler = self._profiler
        if obj._cont_seq == seq:
            # A fused sleep: the entry is the process itself.
            if profiler is None:
                self._resume_cont(obj)
            else:
                profiler.observe_cont(obj)
            return
        stale = obj._stale_seqs
        if stale is not None and seq in stale:
            # Lazily-cancelled entry (interrupted fused sleep).
            stale.discard(seq)
            self.dead_timers -= 1
            return
        if profiler is None:
            obj._process()
        else:
            profiler.observe(obj)
        if obj._ok is False and not obj.defused and not obj.callbacks:
            # A failure nobody waited on must not pass silently.
            raise obj._value

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        With ``until``, the clock is advanced to exactly ``until`` even if
        the last event fires earlier, so back-to-back ``run`` calls compose.
        """
        if until is not None and until < self.now:
            raise SchedulingError(
                f"run(until={until}) is in the past (now={self.now})")
        if self._profiler is not None:
            # Profiled runs take the per-event path, so the profiler
            # attributes wall time to each dispatch.
            horizon = _INF if until is None else until
            while True:
                upcoming = self.peek()
                if upcoming is None or upcoming > horizon:
                    break
                self.step()
            if until is not None and self.now < until:
                self.now = until
            return
        # The dispatch bodies are inlined here: at ~100 ns of call
        # overhead per event, indirection would cost ~20 % of a typical
        # run.  Keep this loop in lockstep with step()/_resume_cont().
        # Wheel-window state is cached in locals; it only changes inside
        # _refill(), so the caches are refreshed each outer iteration.
        # (The occupancy bytearrays, wheel and slot lists, overflow heap
        # and active list are mutated in place, never rebound, so those
        # references stay valid throughout.)
        horizon = _INF if until is None else until
        active = self._active
        overflow = self._overflow
        dpool = self._deferred_pool
        pool_limit = self._pool_limit
        # sim._active_process only matters to telemetry span attribution;
        # skip the per-event stores when no hub is attached.
        telem = self.telemetry is not None
        now = self.now
        processed = 0
        fused = 0
        ai = self._active_pos
        try:
            while True:
                active_end = self._active_end
                l0 = self._l0
                l0_occ = self._l0_occ
                l0_base = self._l0_base
                l0_end = self._l0_end
                l1 = self._l1
                l1_occ = self._l1_occ
                l1_base = self._l1_base
                l1_end = self._l1_end
                while True:
                    try:
                        entry = active[ai]
                    except IndexError:
                        break
                    when = entry[0]
                    if when > horizon:
                        break
                    ai += 1
                    if ai >= 4096:
                        # Shed the consumed prefix (flat mode never
                        # refills, so this is what bounds its memory).
                        del active[:ai]
                        ai = 0
                    # Published before any user code runs: _insert needs
                    # the cursor as its insort lower bound, and step()/
                    # peek() may be called re-entrantly.
                    self._active_pos = ai
                    obj = entry[3]
                    if when < now:
                        raise SchedulingError(
                            "event queue corrupted: time went backwards")
                    self.now = now = when
                    processed += 1
                    seq = entry[2]
                    if obj._cont_seq == seq:
                        # Fused sleep: resume the generator directly, and
                        # if it immediately sleeps again, fuse again
                        # without leaving the loop.
                        fused += 1
                        value = obj._cont_value
                        if value is not None:
                            obj._cont_value = None
                        obj._cont_seq = 0
                        if telem:
                            self._active_process = obj
                        try:
                            target = obj._generator.send(value)
                        except StopIteration as stop:
                            obj._trigger(True, stop.value, 0)
                            continue
                        except BaseException as exc:
                            obj._trigger(False, exc, 0)
                            continue
                        tcls = target.__class__
                        if tcls is int:
                            # Plain sleep token (clock.after fast path).
                            if target < 0:
                                raise SchedulingError(
                                    f"negative timeout delay: {target}")
                            when2 = when + target
                        elif tcls is _Deferred:
                            delay = target.delay
                            if delay < 0:
                                raise ProcessError(
                                    "clock.after() handle reused: yield "
                                    "each handle exactly once, immediately "
                                    "(use clock.timeout() to store sleeps)")
                            when2 = when + delay
                            obj._cont_value = target.value
                            target.delay = -1
                            target.value = None
                            if len(dpool) < pool_limit:
                                dpool.append(target)
                        else:
                            obj._bind(target)
                            continue
                        # Either sleep re-queues the process itself.
                        self._seq = seq2 = self._seq + 1
                        obj._cont_seq = seq2
                        if when2 < active_end:
                            insort(active, (when2, NORMAL, seq2, obj), ai)
                        elif when2 < l0_end:
                            i = (when2 - l0_base) >> _L0_SHIFT
                            l0[i].append((when2, NORMAL, seq2, obj))
                            l0_occ[i] = 1
                        elif when2 < l1_end:
                            i = (when2 - l1_base) >> _L1_SHIFT
                            l1[i].append((when2, NORMAL, seq2, obj))
                            l1_occ[i] = 1
                        else:
                            heappush(overflow, (when2, NORMAL, seq2, obj))
                        continue
                    stale = obj._stale_seqs
                    if stale is not None and seq in stale:
                        # Lazily-cancelled entry (interrupted fused sleep).
                        stale.discard(seq)
                        self.dead_timers -= 1
                        continue
                    obj._process()
                    if obj._ok is False and not obj.defused and not obj.callbacks:
                        # A failure nobody waited on must not pass silently.
                        raise obj._value
                self._active_pos = ai
                if ai < len(active):
                    break     # next runnable entry lies beyond the horizon
                if not self._refill(horizon):
                    break
                ai = 0        # _refill rebuilt the window and reset the cursor
        finally:
            self.events_processed += processed
            self.fused_resumes += fused
            if telem:
                self._active_process = None
        if until is not None and self.now < until:
            self.now = until

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception on failure, or :class:`ProcessError`
        if the queue drains (or ``limit`` passes) first.
        """
        while not event.processed:
            upcoming = self.peek()
            if upcoming is None:
                raise ProcessError("simulation deadlocked waiting for event")
            if limit is not None and upcoming > limit:
                raise ProcessError(
                    f"event not processed by t={limit} (now={self.now})")
            self.step()
        if event._ok:
            return event._value
        raise event._value
