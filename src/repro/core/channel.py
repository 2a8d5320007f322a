"""Channels — the communication abstraction between Offcodes.

"Offcodes communicate with each other and with the host application by
communication channels.  Channels are bidirectional pathways that can be
connected between two endpoints, or connectionless when only attached to
one endpoint" (Section 3.2).

A channel's behaviour is the product of its configuration:

* **type** — ``UNICAST`` (exactly two endpoints) or ``MULTICAST``
  (a sender plus any number of receivers; hardware multicast sends one
  bus transaction when available);
* **reliability** — ``RELIABLE`` channels block the writer when the
  receive ring is full ("careful not to drop messages even though buffer
  descriptors are not available"); ``UNRELIABLE`` ones drop and count;
* **sync** — ``SYNC_SEQUENTIAL`` serializes messages in flight (strict
  FIFO end-to-end); ``SYNC_NONE`` lets transfers overlap;
* **buffering** — ``DIRECT_READ``/``DIRECT_WRITE`` request the zero-copy
  data path; the copying flags request bounce-buffer semantics.

The transfer cost itself comes from the channel's *provider*
(:mod:`repro.core.providers`), chosen by the Channel Executive.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import (AdmissionShedError, ChannelClosedError,
                          ChannelError)
from repro.core.call import Call, CallBatch, ReturnDescriptor
from repro.core.sites import ExecutionSite
from repro.sim.engine import Event
from repro.sim.resources import Resource, Store
from repro.telemetry.metrics import Law
from repro.telemetry.spans import emit as trace_emit

__all__ = ["ChannelKind", "Reliability", "SyncMode", "Buffering",
           "BatchConfig", "ChannelConfig", "ChannelStats",
           "CorruptedPayload", "Message", "SequencedMessage",
           "RetransmitConfig", "Endpoint", "Channel", "conservation"]


class ChannelKind(enum.Enum):
    UNICAST = "unicast"
    MULTICAST = "multicast"


class Reliability(enum.Enum):
    RELIABLE = "reliable"
    UNRELIABLE = "unreliable"


class SyncMode(enum.Enum):
    SEQUENTIAL = "sequential"
    NONE = "none"


class Buffering(enum.Enum):
    DIRECT = "direct"        # zero-copy (DIRECT_READ | DIRECT_WRITE)
    COPY = "copy"


@dataclass(frozen=True)
class BatchConfig:
    """Coalescing watermarks for a batched channel.

    A flush happens at whichever watermark trips first: the pending
    batch reaches ``max_bytes`` of payload, collects ``max_calls``
    entries, or its oldest entry has waited ``deadline_ns``.  With
    ``adaptive`` set (the default) the Channel Executive bypasses
    coalescing entirely while traffic is too sparse to fill a batch
    inside the deadline — a paced media stream keeps its per-message
    latency, and batching engages only under load.
    """

    max_bytes: int = 16 * 1024
    max_calls: int = 32
    deadline_ns: int = 500_000          # 0.5 ms
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.max_bytes <= 0:
            raise ChannelError(
                f"batch max_bytes must be positive: {self.max_bytes}")
        if self.max_calls <= 0:
            raise ChannelError(
                f"batch max_calls must be positive: {self.max_calls}")
        if self.deadline_ns <= 0:
            raise ChannelError(
                f"batch deadline_ns must be positive: {self.deadline_ns}")


@dataclass(frozen=True)
class ChannelConfig:
    """The ``ChannelConfig`` structure of Figure 3, as a fluent builder.

    The blessed construction style reads as a sentence::

        ChannelConfig.unicast().reliable().zero_copy().batched(
            max_bytes=16 * 1024)

    Every fluent step returns a new frozen config (via
    :func:`dataclasses.replace`), so partial configs can be shared and
    specialized freely.  Keyword construction is the plain dataclass
    constructor the fluent steps are built on.
    """

    kind: ChannelKind = ChannelKind.UNICAST
    reliability: Reliability = Reliability.RELIABLE
    sync: SyncMode = SyncMode.SEQUENTIAL
    buffering: Buffering = Buffering.DIRECT
    ring_slots: int = 64
    priority: int = 1               # 0 = low priority (the OOB class)
    target_device: Optional[str] = None
    # Application tag carried in the channel-availability notification;
    # Offcodes use it to recognise which of their channels is which.
    label: str = ""
    # Coalescing watermarks; None = unbatched (the default).
    batch: Optional[BatchConfig] = None
    # Pin provider selection to one provider by name (None = let the
    # executive rank every capable provider by cost).
    preferred_provider: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ring_slots <= 0:
            raise ChannelError(
                f"ring_slots must be positive: {self.ring_slots}")

    # -- fluent entry points ---------------------------------------------------------

    @classmethod
    def unicast(cls) -> "ChannelConfig":
        """Start a fluent config for a two-endpoint channel."""
        return cls()

    @classmethod
    def multicast(cls) -> "ChannelConfig":
        """Start a fluent config for a one-sender/many-receivers channel."""
        return cls(kind=ChannelKind.MULTICAST)

    # -- fluent refinements ------------------------------------------------------------

    def reliable(self) -> "ChannelConfig":
        """Blocking-writer semantics: no message is ever dropped."""
        return replace(self, reliability=Reliability.RELIABLE)

    def unreliable(self) -> "ChannelConfig":
        """Drop-on-full semantics; injected faults surface to receivers."""
        return replace(self, reliability=Reliability.UNRELIABLE)

    def sequential(self) -> "ChannelConfig":
        """Strict FIFO end-to-end: one message in flight at a time."""
        return replace(self, sync=SyncMode.SEQUENTIAL)

    def unordered(self) -> "ChannelConfig":
        """Let transfers overlap (no end-to-end serialization)."""
        return replace(self, sync=SyncMode.NONE)

    def zero_copy(self) -> "ChannelConfig":
        """Request the DIRECT (pinned-buffer, zero-copy) data path."""
        return replace(self, buffering=Buffering.DIRECT)

    def copied(self) -> "ChannelConfig":
        """Request bounce-buffer (copying) semantics."""
        return replace(self, buffering=Buffering.COPY)

    def batched(self, max_bytes: Optional[int] = None,
                max_calls: Optional[int] = None,
                deadline_ns: Optional[int] = None,
                adaptive: Optional[bool] = None) -> "ChannelConfig":
        """Enable vectored coalescing with the given watermarks.

        Omitted knobs take the :class:`BatchConfig` defaults; calling
        ``batched()`` on an already-batched config refines the existing
        watermarks.
        """
        base = self.batch or BatchConfig()
        batch = BatchConfig(
            max_bytes=base.max_bytes if max_bytes is None else max_bytes,
            max_calls=base.max_calls if max_calls is None else max_calls,
            deadline_ns=(base.deadline_ns if deadline_ns is None
                         else deadline_ns),
            adaptive=base.adaptive if adaptive is None else adaptive)
        return replace(self, batch=batch)

    def unbatched(self) -> "ChannelConfig":
        """Disable coalescing (every message is its own transaction)."""
        return replace(self, batch=None)

    def with_ring_slots(self, slots: int) -> "ChannelConfig":
        """Set the receive-ring depth."""
        return replace(self, ring_slots=slots)

    def with_priority(self, priority: int) -> "ChannelConfig":
        """Set the delivery priority (0 = the low-priority OOB class)."""
        return replace(self, priority=priority)

    def labeled(self, label: str) -> "ChannelConfig":
        """Set the application tag carried in availability notices."""
        return replace(self, label=label)

    def with_target(self, device: Optional[str]) -> "ChannelConfig":
        """Copy of this config with ``target_device`` set (Figure 3)."""
        return replace(self, target_device=device)

    def via(self, provider: Optional[str]) -> "ChannelConfig":
        """Pin provider selection to ``provider`` (by registered name).

        The executive still checks ``can_serve`` — a pinned provider
        that cannot reach the endpoints raises
        :class:`~repro.errors.ProviderError` instead of silently
        falling back.  ``via(None)`` restores cost-ranked selection.
        """
        return replace(self, preferred_provider=provider)


@dataclass(frozen=True)
class RetransmitConfig:
    """Ack/retransmit protocol knobs for a noise-armed reliable channel.

    A reliable channel under fault injection earns its delivery guarantee
    with a sliding-window protocol: at most ``window`` messages sit in
    the bounded retransmit buffer (further writers block — backpressure),
    a lost or corrupted frame is retransmitted after ``timeout_ns``
    growing by ``backoff_factor`` per attempt up to ``max_timeout_ns``,
    and after ``max_attempts`` wire attempts the channel declares the
    medium unusable (:class:`~repro.errors.ChannelError`).  Cumulative
    acks ride reverse traffic and cost ``ack_bytes`` on the wire; they
    traverse the same lossy medium, so a lost ack produces a duplicate
    data frame the receiver suppresses (``dup_dropped``).

    ``jitter`` (0..1) blends decorrelated jitter into the backoff: 0
    (the default) keeps the classic deterministic schedule byte-for-byte;
    1 is fully decorrelated (``uniform(base, 3 * previous_delay)``,
    capped).  Any amount breaks the retransmit synchronization of
    channels that lost frames to the same burst — without it every
    victim retries on the same schedule and collides again.  The
    randomness is drawn from the simulation's seeded RNG streams, so
    runs stay reproducible.
    """

    timeout_ns: int = 200_000
    backoff_factor: float = 2.0
    max_timeout_ns: int = 5_000_000
    max_attempts: int = 64
    window: int = 16
    ack_bytes: int = 16
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise ChannelError(
                f"retransmit timeout_ns must be positive: {self.timeout_ns}")
        if self.max_attempts <= 0:
            raise ChannelError(
                f"retransmit max_attempts must be positive: "
                f"{self.max_attempts}")
        if self.window <= 0:
            raise ChannelError(
                f"retransmit window must be positive: {self.window}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ChannelError(
                f"retransmit jitter must be in [0, 1]: {self.jitter}")


@dataclass(frozen=True)
class ChannelStats:
    """Aggregate delivery accounting for one channel.

    Snapshot produced by :meth:`Channel.stats`; chaos tests use it to
    assert loss bookkeeping.  On unreliable channels ``sent ==
    delivered + dropped`` and ``corrupted`` messages are *delivered*
    (wrapped in :class:`CorruptedPayload` — a checksum failure surfaced
    to the receiver).  On a noise-armed reliable channel the identity
    counts wire attempts: every lost, mangled or duplicate frame lands
    in ``dropped`` (``corrupted`` and ``dup_dropped`` are subsets of it)
    and ``delivered`` counts each unique message exactly once, so
    ``sent == delivered + dropped`` still holds while ``retransmits``
    and ``dup_dropped`` expose the protocol work that earned it.
    """

    channel_id: int
    label: str
    sent: int
    delivered: int
    dropped: int
    corrupted: int
    bytes: int
    batches: int = 0
    retransmits: int = 0
    dup_dropped: int = 0


class CorruptedPayload:
    """Wrapper marking a payload mangled in flight by fault injection.

    Receivers on ``UNRELIABLE`` channels must treat a message whose
    payload is a :class:`CorruptedPayload` as a checksum failure: the
    ``original`` attribute is retained only for test introspection.
    """

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CorruptedPayload {self.original!r}>"


class Message:
    """One payload moving through a channel.

    A plain ``__slots__`` class rather than a dataclass: every packet of
    every stream allocates one, so construction cost and per-instance
    footprint are on the simulator's hot path.
    """

    __slots__ = ("payload", "size_bytes", "sent_at_ns", "source")

    def __init__(self, payload: Any, size_bytes: int, sent_at_ns: int,
                 source: str) -> None:
        if size_bytes < 0:
            raise ChannelError(f"negative message size: {size_bytes}")
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at_ns = sent_at_ns
        self.source = source           # site name of the writer

    def __repr__(self) -> str:
        return (f"Message(payload={self.payload!r}, "
                f"size_bytes={self.size_bytes}, "
                f"sent_at_ns={self.sent_at_ns}, source={self.source!r})")

    @property
    def is_call(self) -> bool:
        """True when the payload is a :class:`Call` (dispatched, not queued)."""
        return isinstance(self.payload, Call)


class SequencedMessage(Message):
    """A message carrying the ack/retransmit protocol's sequence number.

    Only noise-armed reliable channels stamp sequence numbers; receivers
    may ignore the extra attribute (it subclasses :class:`Message`), but
    duplicate suppression and cumulative acks key on it.
    """

    __slots__ = ("seq",)

    def __init__(self, payload: Any, size_bytes: int, sent_at_ns: int,
                 source: str, seq: int) -> None:
        super().__init__(payload, size_bytes, sent_at_ns, source)
        self.seq = seq


class _ReliableState:
    """Protocol state for one noise-armed reliable channel.

    The simulation keeps sender and receiver bookkeeping in one place:
    ``next_seq``/``unacked``/``window`` are the sender's sliding window
    and bounded retransmit buffer, ``contiguous``/``seen`` are the
    receiver's cumulative-ack frontier and out-of-order accept set.  A
    multicast channel shares one state because the fault filter draws a
    single verdict per wire attempt — all destinations share fate.
    """

    def __init__(self, channel: "Channel", config: RetransmitConfig) -> None:
        self.config = config
        self.next_seq = 1
        self.window = Resource(channel.creator_endpoint.site.sim,
                               capacity=config.window)
        self.unacked: dict = {}     # seq -> (payload, size_bytes)
        self.contiguous = 0         # highest in-order seq accepted
        self.seen: set = set()      # accepted seqs above the frontier


class Endpoint:
    """One side of a channel, bound to an execution site."""

    def __init__(self, channel: "Channel", site: ExecutionSite) -> None:
        self.channel = channel
        self.site = site
        drop = channel.config.reliability is Reliability.UNRELIABLE
        self.rx: Store = Store(site.sim, capacity=channel.config.ring_slots,
                               drop_when_full=drop)
        self._handler: Optional[Callable[[Message], Any]] = None
        self.bound_offcode = None    # set when an Offcode owns this endpoint
        self.messages_in = 0

    # -- the channel API of Section 3.2 --------------------------------------------

    def write(self, payload: Any, size_bytes: int
              ) -> Generator[Event, None, None]:
        """Send ``payload`` to every other endpoint of the channel.

        On a batched channel the payload may be coalesced by the Channel
        Executive's batcher and ride a later vectored transaction; the
        write completes when the payload is safely enqueued (or, on
        flush, when the whole batch has moved).
        """
        batcher = self.channel.batcher
        if batcher is not None:
            coalesced = yield from batcher.offer(self, payload, size_bytes)
            if coalesced:
                return
        yield from self.channel._write_from(self, payload, size_bytes)

    def read(self) -> Generator[Event, None, Message]:
        """Block until a message arrives (FIFO)."""
        self.channel._check_open()
        message: Message = yield self.rx.get()
        return message

    def poll(self) -> bool:
        """True if :meth:`read` would not block."""
        return len(self.rx) > 0

    def install_call_handler(self, handler: Callable[[Message], Any]) -> None:
        """Install a dispatch handler "invoked each time the channel has
        a new request", instead of polling (Figure 3)."""
        if self._handler is not None:
            raise ChannelError("endpoint already has a call handler")
        self._handler = handler

    # -- delivery ----------------------------------------------------------------------

    def _deliver(self, message: Message) -> Iterable[Event]:
        """Hand ``message`` over; returns what to ``yield from``: the call
        dispatch, the handler's generator (if any), or the ring put."""
        self.messages_in += 1
        if message.is_call and self.bound_offcode is not None:
            return self._dispatch_call(message)
        if self._handler is not None:
            result = self._handler(message)
            if hasattr(result, "send") and hasattr(result, "throw"):
                return result
            return ()
        return self._enqueue(message)

    def _enqueue(self, message: Message) -> Generator[Event, None, None]:
        yield self.rx.put(message)

    def _dispatch_call(self, message: Message
                       ) -> Generator[Event, None, None]:
        """Run a Call on the bound Offcode and ship its reply back.

        "The Offcode uses the embedded return descriptor to DMA the
        return value back to the application" (Section 4.1): the reply
        travels the channel in reverse, paying the provider's cost,
        before the caller's descriptor fires.
        """
        call = message.payload
        tel = self.site.sim.telemetry
        original = call.return_descriptor
        local = None
        if original is not None:
            local = call.return_descriptor = ReturnDescriptor(self.site.sim)
        span = None
        if tel is not None:
            span = tel.enter(f"execute.{call.method}", "device",
                             f"site:{self.site.name}",
                             parent=call.trace_ctx or tel.current_ctx(),
                             method=call.method)
        try:
            yield from self.bound_offcode.dispatch(call)
            if local is not None and not local.event.triggered:
                raise ChannelError(
                    f"dispatch of {call.method} returned without delivering "
                    "a result")
        finally:
            if span is not None:
                if local is None:
                    tel.end(span)
                else:
                    tel.end(span,
                            ok=local.event.triggered and local.event.ok)
        if local is None:
            return
        # Reverse transfer: result header + encoded payload.
        source_endpoint = self.channel._first_at_site.get(message.source)
        if source_endpoint is not None and source_endpoint is not self:
            reply_size = 24 + (len(local.event._value)
                               if local.event.ok else 32)
            reply = None
            if tel is not None:
                reply = tel.enter("reply", "reply",
                                  self.channel.telemetry_track,
                                  parent=call.trace_ctx or span,
                                  bytes=reply_size)
            try:
                yield from self.channel.provider.transfer(
                    self.channel, self, [source_endpoint], reply_size)
            finally:
                if reply is not None:
                    tel.end(reply)
        call.return_descriptor = original
        if local.event.ok:
            original.deliver(local.event._value)
        else:
            original.deliver_error(local.event._value)


# Help of the counter behind each ChannelStats count, in field order;
# exported as ``repro_channel_<field>_total``.
_METRIC_LABELS = ("runtime", "channel", "label")
_HELP = MappingProxyType({
    "sent": "Messages sent (wire attempts)",
    "delivered": "Messages delivered to receivers",
    "dropped": "Messages lost, mangled or duplicate-suppressed in flight",
    "corrupted": "Messages corrupted in flight",
    "bytes": "Payload bytes sent",
    "batches": "Vectored batches sent",
    "retransmits": "Reliable-protocol retransmissions",
    "dup_dropped": "Duplicate frames suppressed by the receiver",
})


class Channel:
    """A configured pathway between two or more endpoints.

    Channels are produced by the Channel Executive; user code receives
    the creator-side :class:`Endpoint` and calls ``ConnectOffcode``-style
    attachment through the executive (which builds the remote endpoint
    and notifies the Offcode over its OOB channel).  Delivery counts
    live in ``sim.metrics``, labelled with the owning ``runtime``'s
    name, the channel id and the config label.
    """

    def __init__(self, config: ChannelConfig, provider,
                 creator_site: ExecutionSite, channel_id: int,
                 runtime: str = "") -> None:
        self.config = config
        self.provider = provider
        self.channel_id = channel_id
        self.endpoints: List[Endpoint] = [Endpoint(self, creator_site)]
        # Site name -> the first endpoint there: where a reply goes.
        self._first_at_site = {creator_site.name: self.endpoints[0]}
        self.closed = False
        metrics = creator_site.sim.metrics
        # The labels of every series this channel (and its batcher) owns.
        self.metric_labels = labels = {
            "runtime": runtime, "channel": str(channel_id),
            "label": config.label}
        self._counters = [
            metrics.counter(f"repro_channel_{name}_total", help=text,
                            labels=_METRIC_LABELS).own(**labels)
            for name, text in _HELP.items()]
        (self._sent, self._delivered, self._dropped, self._corrupted,
         self._bytes, self._batches, self._retransmits,
         self._dup_dropped) = self._counters
        # Refreshed from the conservation law at snapshot time (see
        # HydraRuntime); in-flight frames keep it non-zero.
        self.imbalance_gauge = metrics.gauge(
            "repro_channel_conservation_imbalance",
            help="sent - (delivered + dropped); in-flight frames on "
                 "unreliable or multicast channels keep this non-zero",
            labels=_METRIC_LABELS).own(**labels)
        # Adaptive coalescer, attached by the Channel Executive when the
        # config carries a BatchConfig (None = classic per-message path).
        self.batcher = None
        # Telemetry track name: labelled channels get their label, the
        # rest group by id (one Perfetto track per channel either way).
        self.telemetry_track = (f"channel:{config.label}" if config.label
                                else f"channel:#{channel_id}")
        # Ack/retransmit knobs; may be replaced before a filter is armed.
        self.retransmit_config = RetransmitConfig()
        # Protocol state, armed lazily when a fault filter lands on a
        # RELIABLE channel (None = guaranteed medium, fast path).
        self._rel: Optional[_ReliableState] = None
        # Admission controller stamped by the executive (None = no
        # shedding); decorrelated-jitter state, armed on first use.
        self._admission = None
        self._backoff_prev_ns: Optional[int] = None
        self._backoff_rng = None
        # Fault-injection hook: payload -> "drop" | "corrupt" | None.
        self._fault_filter: Optional[Callable[[Message], Optional[str]]] = None
        self._sequencer: Optional[Resource] = (
            Resource(creator_site.sim, capacity=1)
            if config.sync is SyncMode.SEQUENTIAL else None)

    messages_sent = property(attrgetter("_sent.value"), doc=_HELP["sent"])
    delivered = property(attrgetter("_delivered.value"),
                         doc=_HELP["delivered"])
    drops = property(attrgetter("_dropped.value"), doc=_HELP["dropped"])
    corrupted = property(attrgetter("_corrupted.value"),
                         doc=_HELP["corrupted"])
    bytes_sent = property(attrgetter("_bytes.value"), doc=_HELP["bytes"])
    batches_sent = property(attrgetter("_batches.value"),
                            doc=_HELP["batches"])
    retransmits = property(attrgetter("_retransmits.value"),
                           doc=_HELP["retransmits"])
    dup_dropped = property(attrgetter("_dup_dropped.value"),
                           doc=_HELP["dup_dropped"])

    # -- topology --------------------------------------------------------------------

    @property
    def creator_endpoint(self) -> Endpoint:
        """The endpoint made at channel creation (Figure 3, step 1)."""
        return self.endpoints[0]

    @property
    def connected(self) -> bool:
        """True once a second endpoint exists."""
        return len(self.endpoints) >= 2

    def add_endpoint(self, site: ExecutionSite) -> Endpoint:
        """Construct the far endpoint (done by the executive)."""
        self._check_open()
        if (self.config.kind is ChannelKind.UNICAST
                and len(self.endpoints) >= 2):
            raise ChannelError(
                "unicast channel cannot have more than two endpoints")
        endpoint = Endpoint(self, site)
        self.endpoints.append(endpoint)
        self._first_at_site.setdefault(site.name, endpoint)
        return endpoint

    def endpoint_of(self, offcode) -> Endpoint:
        """The endpoint bound to ``offcode`` (raises if absent)."""
        for endpoint in self.endpoints:
            if endpoint.bound_offcode is offcode:
                return endpoint
        raise ChannelError(
            f"channel #{self.channel_id} has no endpoint bound to "
            f"{getattr(offcode, 'bindname', offcode)!r}")

    def close(self) -> None:
        """Mark the channel closed; further operations raise."""
        self.closed = True

    # -- fault injection & accounting ---------------------------------------------------

    def set_fault_filter(
            self, fault_filter: Optional[Callable[[Message], Optional[str]]]
    ) -> None:
        """Install (or clear) a message-fault filter.

        The filter sees each message after the transfer cost is paid and
        returns ``"drop"`` (the message vanishes), ``"corrupt"`` (its
        payload is mangled in flight) or ``None`` (untouched).  On an
        ``UNRELIABLE`` channel the fault surfaces to the receiver: drops
        vanish, corrupt payloads arrive wrapped in
        :class:`CorruptedPayload`.  On a ``RELIABLE`` channel the filter
        arms the ack/retransmit protocol instead — faults cost wire
        attempts and latency, never delivery: exactly-once semantics are
        *earned* with sequence numbers, cumulative acks, timeout
        retransmission and duplicate suppression (see
        :class:`RetransmitConfig`).
        """
        if (fault_filter is not None and self._rel is None
                and self.config.reliability is Reliability.RELIABLE):
            self._rel = _ReliableState(self, self.retransmit_config)
        self._fault_filter = fault_filter

    def unacked_messages(self) -> List[tuple]:
        """Pending ``(payload, size_bytes)`` pairs, in sequence order.

        Messages that entered the retransmit buffer but were never
        cumulatively acked — after a device failure severs the channel,
        recovery replays these on the survivor's replacement channel so
        an in-flight frame is not lost with the wire.  Empty unless the
        ack/retransmit protocol is armed.
        """
        if self._rel is None:
            return []
        return [self._rel.unacked[seq] for seq in sorted(self._rel.unacked)]

    def stats(self) -> ChannelStats:
        """Current :class:`ChannelStats` snapshot for this channel."""
        return ChannelStats(self.channel_id, self.config.label,
                            *(counter.value for counter in self._counters))

    def count_dropped(self, count: int) -> None:
        """Charge ``count`` messages lost before reaching the wire (a
        batch that exhausted its retry budget)."""
        self._dropped.inc(count)

    def _check_open(self) -> None:
        if self.closed:
            raise ChannelClosedError(
                f"channel #{self.channel_id} is closed")

    # -- data movement -----------------------------------------------------------------

    def _write_from(self, source: Endpoint, payload: Any, size_bytes: int
                    ) -> Generator[Event, None, None]:
        self._check_open()
        if not self.connected:
            raise ChannelError(
                f"channel #{self.channel_id} has no remote endpoint")
        if self._rel is not None and self._fault_filter is not None:
            yield from self._reliable_write_from(source, payload, size_bytes)
            return
        sim = source.site.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.enter("channel.write", "channel",
                             self.telemetry_track,
                             parent=(getattr(payload, "trace_ctx", None)
                                     or tel.current_ctx()),
                             bytes=size_bytes)
        try:
            destinations = [e for e in self.endpoints if e is not source]
            message = Message(payload=payload, size_bytes=size_bytes,
                              sent_at_ns=sim.now,
                              source=source.site.name)
            if self._sequencer is not None:
                yield self._sequencer.request()
            try:
                yield from self.provider.transfer(self, source, destinations,
                                                  size_bytes)
            finally:
                if self._sequencer is not None:
                    self._sequencer.release()
            self._sent.inc()
            self._bytes.inc(size_bytes)
            if sim.telemetry is not None:
                trace_emit(sim, "channel",
                           f"#{self.channel_id} {source.site.name} -> "
                           f"{','.join(d.site.name for d in destinations)}",
                           bytes=size_bytes, call=message.is_call)
            yield from self._land(sim, message, destinations)
        finally:
            if span is not None:
                tel.end(span)

    def _land(self, sim, message: Message, destinations: List[Endpoint]
              ) -> Generator[Event, None, None]:
        """Rule on one frame that crossed an unreliable wire, then hand
        it to every destination, counting each landing.

        The fault filter sees the frame after its transfer cost is paid:
        a drop vanishes with the cost spent, a corrupt frame arrives
        wrapped in :class:`CorruptedPayload`.  A destination whose ring
        overflows counts a drop; every other landing counts a delivery.
        """
        if self._fault_filter is not None:
            verdict = self._fault_filter(message)
            if verdict == "drop":
                self._dropped.inc()
                trace_emit(sim, "fault",
                           f"#{self.channel_id} message dropped in flight",
                           channel=self.channel_id, label=self.config.label)
                return
            if verdict == "corrupt":
                self._corrupted.inc()
                trace_emit(sim, "fault",
                           f"#{self.channel_id} message corrupted in flight",
                           channel=self.channel_id, label=self.config.label)
                message = Message(payload=CorruptedPayload(message.payload),
                                  size_bytes=message.size_bytes,
                                  sent_at_ns=message.sent_at_ns,
                                  source=message.source)
        for destination in destinations:
            dropped_before = destination.rx.dropped
            yield from destination._deliver(message)
            delta = destination.rx.dropped - dropped_before
            if delta > 0:
                self._dropped.inc(delta)
            else:
                self._delivered.inc()

    # -- the earned-reliability path -----------------------------------------------------

    def _reliable_backoff_ns(self, attempt: int) -> int:
        """Capped exponential retransmit delay after ``attempt`` failures.

        With ``jitter`` configured, the deterministic schedule is
        blended with a *decorrelated* draw — ``uniform(base, 3 *
        previous_delay)`` — so channels that lost frames to the same
        burst do not retry in lockstep and collide again.  The draw
        comes from a per-channel stream of the simulation's seeded RNG
        (``sim.rng_streams``) when one is installed, falling back to a
        channel-id-seeded generator, so runs stay reproducible either
        way.
        """
        cfg = self._rel.config
        delay = cfg.timeout_ns * (cfg.backoff_factor ** max(0, attempt - 1))
        delay = max(1, min(int(delay), cfg.max_timeout_ns))
        if cfg.jitter <= 0.0:
            return delay
        rng = self._backoff_rng
        if rng is None:
            sim = self.creator_endpoint.site.sim
            streams = getattr(sim, "rng_streams", None)
            if streams is not None:
                rng = streams.stream(f"backoff/{self.channel_id}")
            else:
                rng = random.Random(0x0FF10AD ^ self.channel_id)
            self._backoff_rng = rng
        prev = self._backoff_prev_ns or cfg.timeout_ns
        decorrelated = rng.uniform(float(cfg.timeout_ns), 3.0 * prev)
        blended = int((1.0 - cfg.jitter) * delay + cfg.jitter * decorrelated)
        blended = max(1, min(blended, cfg.max_timeout_ns))
        self._backoff_prev_ns = blended
        return blended

    def _reliable_write_from(self, source: Endpoint, payload: Any,
                             size_bytes: int
                             ) -> Generator[Event, None, None]:
        """One write under the ack/retransmit protocol.

        Acquires a slot in the bounded retransmit buffer (blocking when
        the window is full — backpressure), stamps a sequence number,
        and runs the exchange until the message is cumulatively acked.
        The sequencer, when present, is held across the *whole* exchange
        so retransmissions cannot interleave with younger messages and
        FIFO order survives loss.
        """
        rel = self._rel
        yield rel.window.request()
        try:
            if self._sequencer is not None:
                yield self._sequencer.request()
            try:
                message = self._stamp(source, payload, size_bytes,
                                      source.site.sim.now)
                destinations = [e for e in self.endpoints if e is not source]
                yield from self._reliable_exchange(
                    source, destinations, message, transfer_first=True)
            finally:
                if self._sequencer is not None:
                    self._sequencer.release()
        finally:
            rel.window.release()

    def _stamp(self, source: Endpoint, payload: Any, size_bytes: int,
               sent_at_ns: int) -> SequencedMessage:
        """Number the next message and park it in the retransmit buffer."""
        rel = self._rel
        seq = rel.next_seq
        rel.next_seq += 1
        rel.unacked[seq] = (payload, size_bytes)
        return SequencedMessage(payload=payload, size_bytes=size_bytes,
                                sent_at_ns=sent_at_ns,
                                source=source.site.name, seq=seq)

    def _reliable_exchange(self, source: Endpoint,
                           destinations: List[Endpoint],
                           message: SequencedMessage, transfer_first: bool
                           ) -> Generator[Event, None, None]:
        """Transmit ``message`` until it is delivered *and* acked.

        Each wire attempt pays the provider's transfer cost, then the
        fault filter rules on the frame: a drop vanishes, a corrupt
        frame fails the receiver's checksum — either way the sender
        backs off and retransmits.  An intact duplicate (a retransmit
        whose original actually arrived but whose ack was lost) is
        suppressed and re-acked.  The cumulative ack itself rides a
        reverse transfer through the same filter, so ack loss is the
        natural source of duplicates.  ``transfer_first=False`` lets a
        vectored batch reuse its single scatter-gather transfer as every
        entry's first attempt.
        """
        sim = source.site.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.enter("channel.exchange", "channel",
                             self.telemetry_track,
                             parent=(getattr(message.payload, "trace_ctx",
                                             None) or tel.current_ctx()),
                             seq=message.seq, bytes=message.size_bytes)
        try:
            yield from self._exchange_attempts(source, destinations, message,
                                               transfer_first, sim)
        finally:
            if span is not None:
                tel.end(span)

    def _exchange_attempts(self, source: Endpoint,
                           destinations: List[Endpoint],
                           message: SequencedMessage, transfer_first: bool,
                           sim) -> Generator[Event, None, None]:
        rel = self._rel
        cfg = rel.config
        seq = message.seq
        size_bytes = message.size_bytes
        attempt = 0
        while True:
            attempt += 1
            if attempt > cfg.max_attempts:
                raise ChannelError(
                    f"channel #{self.channel_id} gave up on seq {seq} "
                    f"after {cfg.max_attempts} attempts")
            if attempt > 1 or transfer_first:
                self._check_open()
                yield from self.provider.transfer(self, source, destinations,
                                                  size_bytes)
                self._sent.inc()
                self._bytes.inc(size_bytes)
                if attempt > 1:
                    self._retransmits.inc()
                    trace_emit(sim, "channel",
                               f"#{self.channel_id} retransmit seq={seq} "
                               f"attempt={attempt}",
                               channel=self.channel_id,
                               label=self.config.label)
            verdict = (self._fault_filter(message)
                       if self._fault_filter is not None else None)
            if verdict == "drop":
                self._dropped.inc()
                trace_emit(sim, "fault",
                           f"#{self.channel_id} seq={seq} dropped in "
                           "flight; will retransmit",
                           channel=self.channel_id, label=self.config.label)
                yield sim.clock.timeout(self._reliable_backoff_ns(attempt))
                continue
            if verdict == "corrupt":
                # The receiver's checksum rejects the mangled frame: it
                # never surfaces; to the protocol this is another loss.
                self._corrupted.inc()
                self._dropped.inc()
                trace_emit(sim, "fault",
                           f"#{self.channel_id} seq={seq} corrupted in "
                           "flight; checksum reject, will retransmit",
                           channel=self.channel_id, label=self.config.label)
                yield sim.clock.timeout(self._reliable_backoff_ns(attempt))
                continue
            # The frame arrived intact.
            if seq <= rel.contiguous or seq in rel.seen:
                self._dup_dropped.inc()
                self._dropped.inc()
                trace_emit(sim, "channel",
                           f"#{self.channel_id} duplicate seq={seq} "
                           "suppressed; re-acking",
                           channel=self.channel_id, label=self.config.label)
            else:
                rel.seen.add(seq)
                while (rel.contiguous + 1) in rel.seen:
                    rel.contiguous += 1
                    rel.seen.discard(rel.contiguous)
                for destination in destinations:
                    yield from destination._deliver(message)
                self._delivered.inc()
            acked = yield from self._reverse_ack(source, destinations)
            if acked:
                for done in [s for s in rel.unacked
                             if s <= rel.contiguous or s == seq]:
                    del rel.unacked[done]
                return
            yield sim.clock.timeout(self._reliable_backoff_ns(attempt))

    def _reverse_ack(self, source: Endpoint, destinations: List[Endpoint]
                     ) -> Generator[Event, None, bool]:
        """Ship the cumulative ack back to the sender; False if it is lost."""
        rel = self._rel
        sim = source.site.sim
        acker = destinations[0]
        yield from self.provider.transfer(self, acker, [source],
                                          rel.config.ack_bytes)
        ack = Message(payload=("ack", rel.contiguous),
                      size_bytes=rel.config.ack_bytes,
                      sent_at_ns=sim.now, source=acker.site.name)
        verdict = (self._fault_filter(ack)
                   if self._fault_filter is not None else None)
        if verdict in ("drop", "corrupt"):
            trace_emit(sim, "fault",
                       f"#{self.channel_id} ack (cum={rel.contiguous}) "
                       "lost in flight",
                       channel=self.channel_id, label=self.config.label)
            return False
        return True

    def send_vectored(self, source: Endpoint, batch: CallBatch
                      ) -> Generator[Event, None, None]:
        """Move a whole :class:`CallBatch` as one vectored transaction.

        The provider pays a *single* scatter-gather transfer for the
        batch (one bus transaction on scatter-gather hardware) instead
        of one per entry; each entry is then delivered as its own
        :class:`Message`, stamped with its original enqueue time so
        latency accounting includes the coalescing wait.

        Under the ack/retransmit protocol the batch still moves as one
        scatter-gather transfer — that transaction is every entry's
        first wire attempt — but each entry gets its own sequence number
        and runs the exchange to completion (retransmits are per-entry
        singles), so a lost frame inside a batch is recovered without
        resending its siblings.  The sequencer is held across those
        exchanges, as a single reliable write holds it across its own.
        """
        self._check_open()
        if batch.count == 0:
            return
        if not self.connected:
            raise ChannelError(
                f"channel #{self.channel_id} has no remote endpoint")
        destinations = [e for e in self.endpoints if e is not source]
        reliable = self._rel is not None and self._fault_filter is not None
        sim = source.site.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            extra = {"reliable": True} if reliable else {}
            span = tel.enter("channel.batch", "channel",
                             self.telemetry_track,
                             parent=tel.current_ctx(), count=batch.count,
                             bytes=batch.size_bytes, **extra)
        try:
            if self._sequencer is not None:
                yield self._sequencer.request()
            try:
                yield from self.provider.transfer_vectored(
                    self, source, destinations, batch)
                self._sent.inc(batch.count)
                self._batches.inc()
                self._bytes.inc(batch.size_bytes)
                if sim.telemetry is not None:
                    kind = "reliable batch" if reliable else "batch"
                    trace_emit(sim, "channel",
                               f"#{self.channel_id} {source.site.name} => "
                               f"{','.join(d.site.name for d in destinations)}"
                               f" [{kind} n={batch.count}]",
                               bytes=batch.size_bytes, batch=batch.count)
                if reliable:
                    for entry in batch:
                        message = self._stamp(source, entry.payload,
                                              entry.size_bytes,
                                              entry.enqueued_at_ns)
                        yield from self._reliable_exchange(
                            source, destinations, message,
                            transfer_first=False)
            finally:
                if self._sequencer is not None:
                    self._sequencer.release()
            if not reliable:
                for entry in batch:
                    yield from self._land(
                        sim, Message(payload=entry.payload,
                                     size_bytes=entry.size_bytes,
                                     sent_at_ns=entry.enqueued_at_ns,
                                     source=source.site.name),
                        destinations)
        finally:
            if span is not None:
                tel.end(span)

    # -- call convenience ------------------------------------------------------------------

    def send_call(self, source: Endpoint, call: Call
                  ) -> Generator[Event, None, Any]:
        """Send a Call and (for two-way methods) await its return value.

        One-way Calls on a batched channel may be coalesced into a
        vectored transaction by the Channel Executive's batcher; two-way
        Calls always take the direct path (the caller is blocked on the
        reply).  Returns the *encoded* result; proxies decode it against
        the interface spec.

        While admission control is engaged (supervisor brownout policy),
        calls on channels below the protected priority are refused here
        with :class:`~repro.errors.AdmissionShedError` — shedding at the
        submission edge keeps the backlog from outliving the brownout.
        Raw ``endpoint.write`` traffic (OOB, checkpoints, the data
        plane) never passes through this path and is never shed.
        """
        if (self._admission is not None
                and not self._admission.admit(self.config.priority)):
            raise AdmissionShedError(
                f"call {call.method} shed on channel #{self.channel_id} "
                f"(priority {self.config.priority} below protected class)",
                priority=self.config.priority)
        if call.one_way and self.batcher is not None:
            coalesced = yield from self.batcher.offer(source, call,
                                                      call.size_bytes)
            if coalesced:
                return None
        yield from self._write_from(source, call, call.size_bytes)
        if call.return_descriptor is None:
            return None
        encoded = yield call.return_descriptor.event
        return encoded

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = self.config.kind.value
        return (f"<Channel #{self.channel_id} {kind} "
                f"provider={getattr(self.provider, 'name', '?')} "
                f"endpoints={len(self.endpoints)}>")


# The channel law over one channel's ChannelStats.
CHANNEL_LAW = Law(
    total="sent", parts=("delivered", "dropped"),
    leak="channel #{channel_id} ({label!r}) leaks accounting: sent={sent} "
         "delivered={delivered} dropped={dropped}",
    breakdown=("corrupted", "dup_dropped"), within="dropped",
    mismatch="channel #{channel_id} ({label!r}) drop breakdown exceeds "
             "total drops")


def conservation(channels: Iterable[Channel]
                 ) -> Tuple[List[int], List[str]]:
    """The channel conservation law, evaluated over ``channels``.

    Returns each channel's imbalance ``sent - (delivered + dropped)``
    (the exported gauge) and the violations (empty = law holds): on
    every noise-armed reliable channel the imbalance must be 0, with one
    frame of slack once closed, and the drop breakdown must fit inside
    the drops.  Elsewhere in-flight frames keep the imbalance non-zero.
    """
    imbalances: List[int] = []
    violations: List[str] = []
    for channel in channels:
        books = vars(channel.stats())
        imbalances.append(CHANNEL_LAW.imbalance(books))
        if channel._rel is not None:
            violations.extend(CHANNEL_LAW.check(
                books, slack=1 if channel.closed else 0))
    return imbalances, violations
