"""Causal spans — the end-to-end offload trace of one remote invocation.

HYDRA's argument rests on *attributing* cost along the offload path:
proxy marshaling, channel buffering, bus transactions, device execution
(Sections 4-6).  A :class:`Span` is one timed segment of that path; a
:class:`SpanContext` is the (trace id, span id) pair that links segments
into a tree.  The root span is opened by the proxy, its context rides on
the :class:`~repro.core.call.Call` object (``call.trace_ctx``), and each
downstream layer — channel, batcher, bus, device dispatch, reply —
parents its own span under whatever context reaches it.

Everything is driven by *simulated* time and counter-allocated ids, so
the trace of a seeded run is deterministic byte for byte: two runs with
the same seed export identical artifacts (see
``tests/test_telemetry_export.py``).

Cost model
----------

Instrumented sites pay a single attribute check when telemetry is
disabled (``tel = sim.telemetry`` + ``if tel is not None``), preserving
the hot-path budget of the simulator overhaul.  When enabled, ``begin``/
``end`` allocate one ``__slots__`` Span and append to a bounded list —
no sim events are created, so event counts (and therefore determinism
assertions on ``events_processed``) are identical with telemetry on or
off.

Parenting across generator layers
---------------------------------

A bus transfer cannot receive its parent span as an argument without
threading telemetry through every provider signature.  Instead the
channel layer opens its span with :meth:`Telemetry.enter`, which also
installs the span's context in a per-process slot, and the bus reads
:meth:`Telemetry.current_ctx` on entry; :meth:`Telemetry.end` puts the
displaced context back.  The slot is keyed by the simulator's active
process: the whole channel -> provider -> bus chain runs inside the
writer's process via ``yield from``, so concurrent writers on other
processes cannot clobber each other's context.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Span", "SpanContext", "Telemetry", "TelemetryEvent"]

# Span-duration histogram buckets (ns): 1us .. 1s, decade spaced.
_SPAN_NS_BUCKETS = (1_000, 10_000, 100_000, 1_000_000, 10_000_000,
                    100_000_000, 1_000_000_000)


class SpanContext:
    """The propagatable identity of a span: which trace, which node."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One timed segment of an offload path.

    A ``__slots__`` class: traced runs mint one per instrumented
    operation, so allocation cost matters.  ``end_ns`` is ``None`` while
    the span is open; only ended spans are exported.  ``displaced`` is
    set by :meth:`Telemetry.enter`: the ``(process, context)`` that
    :meth:`Telemetry.end` restores.
    """

    __slots__ = ("name", "category", "track", "trace_id", "span_id",
                 "parent_id", "start_ns", "end_ns", "attrs", "displaced")

    def __init__(self, name: str, category: str, track: str, trace_id: int,
                 span_id: int, parent_id: Optional[int], start_ns: int,
                 attrs: Optional[Dict[str, Any]]) -> None:
        self.name = name
        self.category = category
        self.track = track
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.displaced: Optional[tuple] = None

    @property
    def context(self) -> SpanContext:
        """This span's propagatable identity (attached to Calls;
        installed as the process context by :meth:`Telemetry.enter`)."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_ns(self) -> int:
        """Simulated duration; 0 while the span is still open."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name!r} cat={self.category} "
                f"trace={self.trace_id} id={self.span_id} "
                f"parent={self.parent_id} [{self.start_ns}, {self.end_ns}]>")


class TelemetryEvent:
    """A zero-duration mark (fault applied, retransmit, watchdog miss)."""

    __slots__ = ("name", "category", "track", "event_id", "time_ns",
                 "trace_id", "parent_id", "attrs")

    def __init__(self, name: str, category: str, track: str, event_id: int,
                 time_ns: int, trace_id: Optional[int],
                 parent_id: Optional[int],
                 attrs: Optional[Dict[str, Any]]) -> None:
        self.name = name
        self.category = category
        self.track = track
        self.event_id = event_id
        self.time_ns = time_ns
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TelemetryEvent {self.name!r} cat={self.category} "
                f"t={self.time_ns}>")


ParentLike = Union[Span, SpanContext, None]


class Telemetry:
    """The per-simulator telemetry hub: spans, instants and metrics.

    Attach with :meth:`attach` (or set ``sim.telemetry`` yourself); the
    instrumented subsystems discover it through that attribute.  Its
    ``registry`` is the simulator's own ``sim.metrics``, the store every
    subsystem already writes to, so one object carries the whole
    observable state of a run.
    """

    def __init__(self, sim, max_spans: int = 200_000,
                 max_events: int = 200_000) -> None:
        self.sim = sim
        self.registry: MetricsRegistry = sim.metrics
        self.max_spans = max_spans
        self.max_events = max_events
        self.spans: List[Span] = []
        self.events: List[TelemetryEvent] = []
        self.dropped_spans = 0
        self.dropped_events = 0
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._event_ids = itertools.count(1)
        # Per-process dynamic span context (see module docstring).
        self._proc_ctx: Dict[Any, SpanContext] = {}
        self._span_hist = self.registry.histogram(
            "repro_span_duration_ns",
            help="Simulated duration of telemetry spans by category",
            labels=("category",), buckets=_SPAN_NS_BUCKETS)

    # -- lifecycle --------------------------------------------------------------

    @classmethod
    def attach(cls, sim, **kwargs: Any) -> "Telemetry":
        """Create a hub and install it as ``sim.telemetry``."""
        telemetry = cls(sim, **kwargs)
        sim.telemetry = telemetry
        return telemetry

    def detach(self) -> None:
        """Remove this hub from its simulator (sites go back to the
        one-attribute-check disabled path)."""
        if getattr(self.sim, "telemetry", None) is self:
            self.sim.telemetry = None

    # -- span API ----------------------------------------------------------------

    def new_trace(self) -> int:
        """Allocate a fresh trace id (one per root operation)."""
        return next(self._trace_ids)

    @staticmethod
    def _parent_ids(parent: ParentLike,
                    trace_id: Optional[int]) -> Tuple[Optional[int],
                                                      Optional[int]]:
        if parent is None:
            return trace_id, None
        return parent.trace_id, parent.span_id

    def begin(self, name: str, category: str, track: str,
              parent: ParentLike = None, trace_id: Optional[int] = None,
              **attrs: Any) -> Span:
        """Open a span at the current simulated time.

        Without ``parent`` (and ``trace_id``) the span roots a new
        trace.  ``parent`` accepts a :class:`Span`, a
        :class:`SpanContext` (e.g. a Call's ``trace_ctx``), or ``None``.
        """
        tid, parent_id = self._parent_ids(parent, trace_id)
        if tid is None:
            tid = self.new_trace()
        return Span(name=name, category=category, track=track, trace_id=tid,
                    span_id=next(self._span_ids), parent_id=parent_id,
                    start_ns=self.sim.now, attrs=attrs or None)

    def enter(self, name: str, category: str, track: str,
              parent: ParentLike = None, **attrs: Any) -> Span:
        """Open a span (as :meth:`begin`) and install its context as the
        active process's, for the layers below to parent under.

        :meth:`end` restores the context this displaced, so close the
        span in a ``finally`` in the same simulation process (the normal
        ``yield from`` chain guarantees this); nested enters unwind in
        LIFO order.
        """
        span = self.begin(name, category, track, parent=parent, **attrs)
        key = self.sim._active_process
        span.displaced = (key, self._proc_ctx.get(key))
        self._proc_ctx[key] = span.context
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current simulated time and record it;
        a span opened with :meth:`enter` first restores the context it
        displaced."""
        if span.displaced is not None:
            key, prev = span.displaced
            if prev is None:
                self._proc_ctx.pop(key, None)
            else:
                self._proc_ctx[key] = prev
        span.end_ns = self.sim.now
        if attrs:
            if span.attrs is None:
                span.attrs = attrs
            else:
                span.attrs.update(attrs)
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1
        self._span_hist.labels(category=span.category).observe(
            span.duration_ns)
        return span

    def instant(self, name: str, category: str, track: str,
                parent: ParentLike = None,
                **attrs: Any) -> Optional[TelemetryEvent]:
        """Record a zero-duration mark at the current simulated time."""
        trace_id, parent_id = self._parent_ids(parent, None)
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return None
        event = TelemetryEvent(
            name=name, category=category, track=track,
            event_id=next(self._event_ids), time_ns=self.sim.now,
            trace_id=trace_id, parent_id=parent_id, attrs=attrs or None)
        self.events.append(event)
        return event

    def log(self, category: str, message: str, **fields: Any) -> None:
        """Keep a textual record (see :func:`emit`) as an instant on a
        per-category ``log/<category>`` track, so Perfetto shows it
        alongside the span tree."""
        self.instant(message, category, "log/" + category, **fields)

    # -- per-process dynamic context ----------------------------------------------

    def current_ctx(self) -> Optional[SpanContext]:
        """The active process's span context (None outside any span)."""
        return self._proc_ctx.get(self.sim._active_process)

    # -- inspection -----------------------------------------------------------------

    def spans_of(self, category: str) -> List[Span]:
        """All recorded spans of one category."""
        return [s for s in self.spans if s.category == category]

    def trace(self, trace_id: int) -> List[Span]:
        """All recorded spans of one trace, in start order."""
        return sorted((s for s in self.spans if s.trace_id == trace_id),
                      key=lambda s: (s.start_ns, s.span_id))

    def trace_categories(self) -> Dict[int, set]:
        """trace id -> set of span categories recorded under it."""
        out: Dict[int, set] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, set()).add(span.category)
        return out


def emit(sim, category: str, message: str, **fields: Any) -> None:
    """Record a textual event at ``sim``'s current time, if a hub listens.

    Emit sites live where the offload path does work: channel writes,
    retransmits and in-flight faults (``repro.core.channel``), proxy
    deadline misses (``repro.core.proxy``), watchdog beats and death
    declarations (``repro.core.watchdog``), recovery
    (``repro.core.runtime``), bus transients (``repro.hw.bus``) and fault
    injection (``repro.faults.injector``).  With a hub attached the
    record becomes an instant on the ``log/<category>`` track of
    ``sim.telemetry.events`` (see :meth:`Telemetry.log`); without one
    this is one attribute check and a return.
    """
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.log(category, message, **fields)
