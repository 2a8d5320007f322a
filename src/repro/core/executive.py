"""The Channel Executive.

"The Channel Management unit manages the channels by interacting with
the Channel Executive.  This module handles channel creation by using a
particular Channel Provider ... The executive uses this capability
information to decide on the best provider for a specific Offcode"
(Section 4).

Provider selection happens when the channel gains its second endpoint —
only then are both locations known.  Multicast channels require every
additional endpoint to be servable by the already-selected provider.

Two performance mechanisms live here as well:

* a **provider-cost cache** keyed by the layout epoch — ranking
  providers is pure given the topology, so the executive memoizes the
  winner per (src, dst, config, size-hint) and invalidates wholesale
  whenever the layout re-solves or a provider registers;
* the **adaptive batcher** (:class:`ChannelBatcher`) attached to every
  channel configured with a :class:`~repro.core.channel.BatchConfig`,
  which coalesces one-way traffic into vectored transactions under load
  and steps aside when traffic is too sparse for coalescing to pay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import (ChannelError, DeviceFailedError,
                          OffloadTimeoutError, ProviderError,
                          RetryBudgetExceededError)
from repro.core.call import CallBatch, CallPolicy
from repro.core.channel import (BatchConfig, Channel, ChannelConfig,
                                ChannelKind, Endpoint)
from repro.core.offcode import Offcode
from repro.core.providers import ChannelProvider
from repro.core.sites import ExecutionSite
from repro.sim.engine import Event, Simulator

__all__ = ["BatcherStats", "ChannelBatcher", "ChannelExecutive"]

# Representative message size used to rank providers when the
# application gives no hint (a media packet, the paper's workload unit).
_DEFAULT_SIZE_HINT = 1024

# EWMA weight for the batcher's inter-arrival estimator: reactive enough
# to catch a burst within a few messages, smooth enough not to flap.
_EWMA_ALPHA = 0.25


@dataclass(frozen=True)
class BatcherStats:
    """Flush accounting for one channel's batcher: a view over its
    counters in ``sim.metrics``, whose help (``_HELP``) says what each
    field counts."""

    coalesced: int
    bypassed: int
    flushed_on_bytes: int
    flushed_on_count: int
    flushed_on_deadline: int
    expired: int

    @property
    def flushes(self) -> int:
        """Total vectored flushes across all causes."""
        return (self.flushed_on_bytes + self.flushed_on_count
                + self.flushed_on_deadline)


# Help of the counter behind each BatcherStats field, exported as
# ``repro_batcher_<field>_total`` under the channel's labels.
_HELP = MappingProxyType({
    "coalesced": "Payloads that rode a vectored batch",
    "bypassed": "Payloads the adaptive estimator sent down the classic "
                "per-message path",
    "flushed_on_bytes": "Batches flushed by the byte watermark",
    "flushed_on_count": "Batches flushed by the count watermark",
    "flushed_on_deadline": "Batches flushed by their deadline",
    "expired": "Batch entries dropped because their call deadline passed "
               "while the batch was retrying",
})


class ChannelBatcher:
    """Per-channel adaptive coalescer (the executive's vectored path).

    One pending :class:`~repro.core.call.CallBatch` ring exists per
    source endpoint (per-site rings: entries from different writers never
    interleave into one transaction).  A batch flushes when it reaches
    the byte or count watermark inline, or when its oldest entry has
    waited ``deadline_ns`` (a deadline process armed when the batch
    opens; a generation counter voids stale timers after inline flushes).

    With ``adaptive`` watermarks the batcher tracks the EWMA of the
    source's inter-send gap and *bypasses* coalescing while the batch
    could not plausibly fill within the deadline — paced traffic (a
    22 fps media stream) keeps per-message latency, while bursts get
    vectored.

    A ``policy`` (:class:`~repro.core.call.CallPolicy`) makes a failed
    flush retry *as a unit* with the policy's backoff; before every
    attempt, entries whose per-call deadline has passed are dropped so a
    retried batch never delivers stale calls.
    """

    def __init__(self, channel: Channel, sim: Simulator,
                 config: BatchConfig,
                 policy: Optional[CallPolicy] = None) -> None:
        self.channel = channel
        self.sim = sim
        self.config = config
        self.policy = policy
        self._pending: Dict[int, CallBatch] = {}
        self._sources: Dict[int, Endpoint] = {}
        self._generation: Dict[int, int] = {}
        self._ewma_gap_ns: Dict[int, float] = {}
        self._last_offer_ns: Dict[int, int] = {}
        labels = channel.metric_labels
        self._counts = {
            name: sim.metrics.counter(f"repro_batcher_{name}_total",
                                      help=text, labels=tuple(labels))
            .own(**labels) for name, text in _HELP.items()}

    # -- ingest --------------------------------------------------------------------

    def offer(self, source: Endpoint, payload, size_bytes: int
              ) -> Generator[Event, None, bool]:
        """Try to coalesce one payload from ``source``.

        Returns True when the payload was absorbed into a batch (either
        still pending or already flushed); False when the caller should
        take the classic per-message path (adaptive bypass).
        """
        now = self.sim.now
        key = id(source)
        self._observe_gap(key, now)
        pending = self._pending.get(key)
        if pending is None and self._too_sparse(key):
            self._counts["bypassed"].inc()
            return False
        if pending is None:
            pending = CallBatch()
            self._pending[key] = pending
            self._sources[key] = source
        deadline_at = (now + self.policy.deadline_ns
                       if self.policy is not None else None)
        pending.add(payload, size_bytes, now, deadline_at_ns=deadline_at)
        self._counts["coalesced"].inc()
        tel = self.sim.telemetry
        if tel is not None:
            tel.instant("batch.enqueue", "batch",
                        self.channel.telemetry_track,
                        parent=getattr(payload, "trace_ctx", None),
                        bytes=size_bytes, pending=pending.count)
        if pending.count >= self.config.max_calls:
            yield from self._flush(key, "count")
        elif pending.payload_bytes >= self.config.max_bytes:
            yield from self._flush(key, "bytes")
        elif pending.count == 1:
            generation = self._generation.get(key, 0)
            self.sim.spawn(self._deadline_watch(key, generation),
                           name=f"batch-deadline-ch{self.channel.channel_id}")
        return True

    def _observe_gap(self, key: int, now: int) -> None:
        last = self._last_offer_ns.get(key)
        self._last_offer_ns[key] = now
        if last is None:
            return
        gap = now - last
        ewma = self._ewma_gap_ns.get(key)
        self._ewma_gap_ns[key] = (
            gap if ewma is None
            else _EWMA_ALPHA * gap + (1.0 - _EWMA_ALPHA) * ewma)

    def _too_sparse(self, key: int) -> bool:
        if not self.config.adaptive:
            return False
        ewma = self._ewma_gap_ns.get(key)
        if ewma is None:
            # No history yet: assume sparse (first messages keep latency).
            return True
        # Sparse means a full batch cannot form within the deadline.
        return ewma * self.config.max_calls > self.config.deadline_ns

    # -- flushing -------------------------------------------------------------------

    def _deadline_watch(self, key: int, generation: int
                        ) -> Generator[Event, None, None]:
        yield self.sim.clock.timeout(self.config.deadline_ns)
        if self._generation.get(key, 0) != generation:
            return  # an inline flush already moved this batch
        if self._pending.get(key):
            try:
                yield from self._flush(key, "deadline")
            except (RetryBudgetExceededError, ChannelError):
                # Nobody awaits a background flush; the lost entries
                # were already charged to the channel's drop counter.
                # ChannelError covers a channel closed (or a noise-armed
                # reliable channel giving up) under the watch's feet —
                # an unwatched raise here would crash the simulator.
                pass

    def _flush(self, key: int, cause: str
               ) -> Generator[Event, None, None]:
        batch = self._pending.pop(key, None)
        self._generation[key] = self._generation.get(key, 0) + 1
        if batch is None or batch.count == 0:
            return
        source = self._sources[key]
        self._counts[f"flushed_on_{cause}"].inc()
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            span = tel.enter("batch.flush", "batch",
                             self.channel.telemetry_track, cause=cause,
                             count=batch.count, bytes=batch.payload_bytes)
        try:
            attempt = 1
            while True:
                self._counts["expired"].inc(
                    len(batch.drop_expired(self.sim.now)))
                if batch.count == 0:
                    return
                try:
                    yield from self.channel.send_vectored(source, batch)
                    return
                except (DeviceFailedError, OffloadTimeoutError) as exc:
                    # A batch retries as a unit (one transaction either
                    # lands or doesn't); per-entry deadlines are
                    # re-checked above before the next attempt goes out.
                    if (self.policy is None
                            or attempt >= self.policy.max_attempts):
                        self.channel.count_dropped(batch.count)
                        raise RetryBudgetExceededError(
                            f"batch flush on channel "
                            f"#{self.channel.channel_id} failed after "
                            f"{attempt} attempt(s): {exc}") from exc
                    yield self.sim.clock.timeout(
                        self.policy.backoff_ns(attempt))
                    attempt += 1
        finally:
            if span is not None:
                tel.end(span)

    def flush_all(self) -> Generator[Event, None, None]:
        """Force every pending batch out (quiesce point for tests and
        teardown)."""
        for key in list(self._pending.keys()):
            if self._pending.get(key):
                yield from self._flush(key, "deadline")

    @property
    def pending_entries(self) -> int:
        """Entries currently waiting in pending batches."""
        return sum(b.count for b in self._pending.values())

    def stats(self) -> BatcherStats:
        """Current :class:`BatcherStats` snapshot."""
        return BatcherStats(**{name: counter.value
                               for name, counter in self._counts.items()})


class ChannelExecutive:
    """Provider registry + channel factory for one runtime.

    ``name`` is the owning runtime's; it labels the metrics of every
    channel this executive creates.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._providers: List[ChannelProvider] = []
        self._ids = itertools.count(1)
        self.channels: List[Channel] = []
        # Provider-cost memo, valid for exactly one layout epoch.
        self._cost_cache: Dict[Tuple, ChannelProvider] = {}
        self.layout_epoch = 0
        self.cost_cache_hits = 0
        self.cost_cache_misses = 0
        # Priority-aware admission control (the supervisor's brownout
        # lever).  Stamped onto every channel at creation; None = no
        # shedding, ever.
        self.admission = None

    def set_admission(self, controller) -> None:
        """Attach an admission controller to present and future channels."""
        self.admission = controller
        for channel in self.channels:
            channel._admission = controller

    # -- providers -----------------------------------------------------------------

    def register_provider(self, provider: ChannelProvider) -> None:
        """Add a channel provider to the selection pool."""
        if provider in self._providers:
            raise ProviderError(f"provider {provider.name} already registered")
        self._providers.append(provider)
        # A new provider can beat any cached winner.
        self.invalidate_cost_cache()

    def invalidate_cost_cache(self) -> None:
        """Advance the layout epoch and drop every memoized ranking.

        Called whenever the answer to "cheapest provider for this pair"
        may have changed: a layout re-solve moved Offcodes between
        sites, or a provider joined the pool.
        """
        self.layout_epoch += 1
        self._cost_cache.clear()

    @property
    def providers(self) -> List[ChannelProvider]:
        """Registered providers, in registration order (copy)."""
        return list(self._providers)

    def select_provider(self, src: ExecutionSite, dst: ExecutionSite,
                        config: ChannelConfig,
                        size_hint: int = _DEFAULT_SIZE_HINT
                        ) -> ChannelProvider:
        """Best provider for a (src, dst) pair by advertised cost.

        Rankings are memoized per layout epoch: the cache key carries
        every config facet that prices differently, and the epoch bump
        in :meth:`invalidate_cost_cache` retires the whole memo when a
        re-solve changes the topology.
        """
        key = (src.name, dst.name, config.kind, config.reliability,
               config.sync, config.buffering, config.preferred_provider,
               size_hint)
        cached = self._cost_cache.get(key)
        if cached is not None and cached.can_serve(src, dst, config):
            self.cost_cache_hits += 1
            return cached
        candidates = [p for p in self._providers
                      if p.can_serve(src, dst, config)]
        if config.preferred_provider is not None:
            candidates = [p for p in candidates
                          if p.name == config.preferred_provider]
            if not candidates:
                raise ProviderError(
                    f"pinned provider {config.preferred_provider!r} "
                    f"cannot serve {src.name} -> {dst.name}")
        if not candidates:
            raise ProviderError(
                f"no channel provider can serve {src.name} -> {dst.name} "
                f"({config.kind.value}, {config.buffering.value})")
        best = min(candidates,
                   key=lambda p: p.cost(src, dst, config).score(size_hint))
        self._cost_cache[key] = best
        self.cost_cache_misses += 1
        return best

    # -- channels -------------------------------------------------------------------

    def create_channel(self, config: ChannelConfig,
                       creator_site: ExecutionSite) -> Channel:
        """Step 1 of Figure 3: the creator's endpoint exists; no provider
        is bound until the channel is connected somewhere.  Configs that
        carry a :class:`~repro.core.channel.BatchConfig` get an adaptive
        :class:`ChannelBatcher` attached here."""
        channel = Channel(config=config, provider=None,
                          creator_site=creator_site,
                          channel_id=next(self._ids), runtime=self.name)
        if config.batch is not None:
            channel.batcher = ChannelBatcher(channel, creator_site.sim,
                                             config.batch)
        channel._admission = self.admission
        self.channels.append(channel)
        return channel

    def create_channel_for_offcode(self, config: ChannelConfig,
                                   offcode: Offcode) -> Channel:
        """Create a channel whose *creator* endpoint belongs to an
        Offcode (Offcodes open data channels toward their peers, e.g.
        the TiVoPC Streamer's outbound multicast)."""
        channel = self.create_channel(config, offcode.site)
        channel.creator_endpoint.bound_offcode = offcode
        offcode.on_channel_attached(channel)
        return channel

    def connect_site(self, channel: Channel, site: ExecutionSite
                     ) -> Endpoint:
        """Attach a raw site (used for OA-application endpoints)."""
        endpoint = channel.add_endpoint(site)
        self._bind_provider(channel, site)
        return endpoint

    def connect_offcode(self, channel: Channel, offcode: Offcode
                        ) -> Endpoint:
        """Step 2 of Figure 3 / ``ConnectOffcode``: build the endpoint at
        the Offcode's device and notify the Offcode — synchronously for
        wiring, and with a management event over its OOB channel
        (Section 3.2's "availability of other channels")."""
        endpoint = channel.add_endpoint(offcode.site)
        endpoint.bound_offcode = offcode
        self._bind_provider(channel, offcode.site)
        offcode.on_channel_attached(channel)
        self._send_oob_notice(channel, offcode)
        return endpoint

    def _send_oob_notice(self, channel: Channel, offcode: Offcode) -> None:
        oob = offcode.oob_channel
        if oob is None or oob is channel or not oob.connected:
            return
        notice = ("channel-attached", channel.channel_id,
                  channel.config.label)
        sim = offcode.site.sim

        def deliver():
            # Best-effort: nobody awaits this process, and an unwatched
            # failing process would crash the whole simulation — a notice
            # lost to a dying device or closing channel is just lost.
            try:
                yield from oob.creator_endpoint.write(notice, 48)
            except Exception:
                pass

        sim.spawn(deliver(), name=f"oob-notice-{offcode.bindname}")

    def _bind_provider(self, channel: Channel, new_site: ExecutionSite
                       ) -> None:
        creator = channel.creator_endpoint.site
        if channel.provider is None:
            channel.provider = self.select_provider(
                creator, new_site, channel.config)
            channel.provider.on_channel_created(channel)
            return
        # Additional endpoints (multicast): the bound provider must also
        # serve the new leg.
        if channel.config.kind is not ChannelKind.MULTICAST:
            raise ChannelError("unicast channel connected twice")
        if not channel.provider.can_serve(creator, new_site, channel.config):
            raise ProviderError(
                f"provider {channel.provider.name} cannot reach "
                f"{new_site.name} for multicast channel "
                f"#{channel.channel_id}")
