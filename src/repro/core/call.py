"""Call objects — the unit of inter-Offcode invocation.

"All interface methods return a Call object that contains the relevant
method information including the serialized input parameters.  Once a
Call object is obtained, it can be sent to a target device (or several
devices) by using a connected channel" (Section 3.1).

A Call carries the target interface GUID, the method name, the encoded
arguments, and (for two-way methods) a *return descriptor* the callee
uses to deliver the result — in the simulation the descriptor is a
pending event on the caller's simulator, mirroring the paper's
"embedded return descriptor [used] to DMA the return value back".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import (ChannelError, InterfaceError, MarshalError,
                          OffloadTimeoutError)
from repro.core.guid import Guid
from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core import marshal
from repro.sim.engine import Event, Simulator

__all__ = ["BatchEntry", "Call", "CallBatch", "CallPolicy",
           "ReturnDescriptor", "make_call"]


@dataclass(frozen=True)
class CallPolicy:
    """Deadline and retry parameters for proxy invocations.

    A proxy with a policy bounds every attempt by ``deadline_ns`` and
    retries up to ``max_attempts`` times with exponential backoff
    (``backoff_base_ns * backoff_factor**(attempt-1)``), jittered by
    ``jitter_frac`` using the supplied simulation RNG stream — never
    wall-clock randomness, so runs replay deterministically.
    """

    deadline_ns: int = 1_000_000
    max_attempts: int = 3
    backoff_base_ns: int = 200_000
    backoff_factor: float = 2.0
    jitter_frac: float = 0.1
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if self.deadline_ns <= 0:
            raise ChannelError(
                f"deadline_ns must be positive: {self.deadline_ns}")
        if self.max_attempts <= 0:
            raise ChannelError(
                f"max_attempts must be positive: {self.max_attempts}")
        if not 0 <= self.jitter_frac < 1:
            raise ChannelError(
                f"jitter_frac must be in [0, 1): {self.jitter_frac}")

    def backoff_ns(self, attempt: int) -> int:
        """Backoff delay after the ``attempt``-th (1-based) timeout."""
        delay = self.backoff_base_ns * (
            self.backoff_factor ** max(0, attempt - 1))
        if self.rng is not None and self.jitter_frac > 0:
            delay *= 1.0 + self.rng.uniform(-self.jitter_frac,
                                            self.jitter_frac)
        return max(1, round(delay))


class ReturnDescriptor:
    """Where the return value of a two-way Call should be delivered."""

    def __init__(self, sim: Simulator) -> None:
        self.event: Event = sim.event()
        self.delivered = False

    def deliver(self, encoded_result: bytes) -> None:
        """Complete the call with an encoded result (exactly once)."""
        if self.delivered:
            raise MarshalError("return descriptor used twice")
        self.delivered = True
        self.event.succeed(encoded_result)

    def deliver_error(self, exc: Exception) -> None:
        """Complete the call with a remote exception (exactly once)."""
        if self.delivered:
            raise MarshalError("return descriptor used twice")
        self.delivered = True
        self.event.defused = True  # type: ignore[attr-defined]
        self.event.fail(exc)


class Call:
    """A serialized method invocation."""

    def __init__(self, interface_guid: Guid, method: str,
                 encoded_args: bytes,
                 return_descriptor: Optional[ReturnDescriptor] = None) -> None:
        self.interface_guid = interface_guid
        self.method = method
        self.encoded_args = encoded_args
        self.return_descriptor = return_descriptor
        # Serialized size: header (GUID + method + wire call id) + arguments.
        # Cached at construction — the arguments are already encoded and
        # immutable, and channels/batchers consult the size repeatedly.
        self.size_bytes = 24 + len(method) + len(encoded_args)
        # Telemetry span context (repro.telemetry.SpanContext) stamped by
        # the proxy so downstream layers — channel, batcher, bus, device
        # dispatch — parent their spans under the invocation's trace.
        # None when telemetry is off; never serialized on the wire.
        self.trace_ctx = None

    @property
    def one_way(self) -> bool:
        """True when no reply is expected (no return descriptor)."""
        return self.return_descriptor is None

    def reissue(self, sim: Simulator) -> "Call":
        """A fresh Call reusing this one's encoded argument bytes.

        Return descriptors are one-shot, so a retried two-way call needs
        a new Call object — but its arguments are already marshaled and
        must not be encoded again (the caller paid that cost once).  The
        reissued call gets, for two-way calls, a fresh descriptor.
        """
        descriptor = None if self.one_way else ReturnDescriptor(sim)
        call = Call(interface_guid=self.interface_guid, method=self.method,
                    encoded_args=self.encoded_args,
                    return_descriptor=descriptor)
        call.trace_ctx = self.trace_ctx
        return call

    def args(self) -> Tuple[Any, ...]:
        """Deserialize the argument tuple."""
        decoded = marshal.decode(self.encoded_args)
        if not isinstance(decoded, list):
            raise MarshalError("call arguments must decode to a list")
        return tuple(decoded)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Call {self.interface_guid}.{self.method} "
                f"{self.size_bytes}B>")


@dataclass
class BatchEntry:
    """One payload riding in a :class:`CallBatch`.

    ``enqueued_at_ns`` is the coalescing timestamp — delivery latency is
    measured from here, so queueing inside the batcher is charged to the
    message, not hidden.  ``deadline_at_ns`` (optional) bounds how long
    the entry may wait across batch retries; the batcher drops entries
    whose deadline has passed before re-sending the batch.
    """

    payload: Any
    size_bytes: int
    enqueued_at_ns: int
    deadline_at_ns: Optional[int] = None

    def expired(self, now_ns: int) -> bool:
        """True once the entry's deadline (if any) has passed."""
        return (self.deadline_at_ns is not None
                and now_ns > self.deadline_at_ns)


class CallBatch:
    """An aggregate of one-way payloads bound for one destination set.

    The vectored-dispatch unit: the Channel Executive coalesces one-way
    :class:`Call`s (and raw data-plane payloads) per (channel,
    destination site) and the provider moves the whole batch as a single
    scatter-gather bus transaction.  Per-message headers amortize into
    one batch header plus a small per-entry descriptor, mirroring the
    descriptor-chaining DMA engines of the paper's NIC.

    Only *one-way* Calls may join a batch: a two-way Call carries a
    return descriptor the caller is already blocked on, and delaying it
    behind a watermark would trade its latency for someone else's
    throughput.
    """

    HEADER_BYTES = 32          # one batch header on the wire
    PER_ENTRY_BYTES = 8        # chained-descriptor overhead per entry

    def __init__(self) -> None:
        self.entries: List[BatchEntry] = []

    def add(self, payload: Any, size_bytes: int, now_ns: int,
            deadline_at_ns: Optional[int] = None) -> BatchEntry:
        """Append one payload; one-way Calls only (ChannelError otherwise)."""
        if isinstance(payload, Call) and not payload.one_way:
            raise ChannelError(
                f"two-way call {payload.method!r} cannot join a batch; "
                "its caller is blocked on the reply")
        if size_bytes < 0:
            raise ChannelError(f"negative batch entry size: {size_bytes}")
        entry = BatchEntry(payload=payload, size_bytes=size_bytes,
                           enqueued_at_ns=now_ns,
                           deadline_at_ns=deadline_at_ns)
        self.entries.append(entry)
        return entry

    def drop_expired(self, now_ns: int) -> List[BatchEntry]:
        """Remove and return entries whose deadline has passed.

        A dropped entry's waiter (a Call carrying an undelivered return
        descriptor — defensive: :meth:`add` rejects two-way Calls, but a
        descriptor-bearing payload must never be silently discarded)
        gets a deadline exception so no caller hangs forever on a
        message that quietly left the batch.
        """
        expired = [e for e in self.entries if e.expired(now_ns)]
        if expired:
            self.entries = [e for e in self.entries
                            if not e.expired(now_ns)]
            for entry in expired:
                descriptor = getattr(entry.payload, "return_descriptor",
                                     None)
                if descriptor is not None and not descriptor.delivered:
                    descriptor.deliver_error(OffloadTimeoutError(
                        f"batched call expired after waiting "
                        f"{now_ns - entry.enqueued_at_ns} ns "
                        "(deadline passed before flush)"))
        return expired

    @property
    def count(self) -> int:
        """Number of entries currently in the batch."""
        return len(self.entries)

    @property
    def payload_bytes(self) -> int:
        """Sum of the entry payload sizes (no batching overhead)."""
        return sum(e.size_bytes for e in self.entries)

    @property
    def size_bytes(self) -> int:
        """On-the-wire size: batch header + per-entry descriptors + data."""
        return (self.HEADER_BYTES + self.PER_ENTRY_BYTES * self.count
                + self.payload_bytes)

    @property
    def oldest_enqueued_at_ns(self) -> Optional[int]:
        """Enqueue time of the oldest entry (None when empty)."""
        if not self.entries:
            return None
        return min(e.enqueued_at_ns for e in self.entries)

    def entry_sizes(self) -> List[int]:
        """The scatter-gather size list the DMA engine chains."""
        return [max(1, e.size_bytes) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[BatchEntry]:
        return iter(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CallBatch n={self.count} {self.size_bytes}B>"


def make_call(sim: Simulator, interface: InterfaceSpec, method_name: str,
              args: Tuple[Any, ...], encodes=None) -> Call:
    """Build a Call against ``interface``, validating the signature.

    This is the "manual invocation scheme" of Section 3.1 — proxies use
    it under the hood for the transparent scheme.  The encode is counted
    in ``sim.metrics``; proxies pass their pre-bound ``encodes`` counter
    (:func:`repro.core.marshal.counters`) to skip the registry lookup.
    """
    method: MethodSpec = interface.method(method_name)
    if len(args) != method.arity:
        raise InterfaceError(
            f"{interface.name}.{method_name} takes {method.arity} "
            f"argument(s), got {len(args)}")
    (encodes or marshal.counters(sim.metrics)[0]).inc()
    encoded = marshal.encode(list(args))
    descriptor = None if method.one_way else ReturnDescriptor(sim)
    return Call(interface_guid=interface.guid, method=method_name,
                encoded_args=encoded, return_descriptor=descriptor)
