"""The RDMA channel provider — a one-sided substrate behind the same
cost-metric interface as every two-sided provider.

One :class:`RdmaProvider` exists per rdma-featured device (the "RNIC");
:class:`~repro.core.runtime.HydraRuntime` registers it alongside the
device's :class:`~repro.core.providers.DmaChannelProvider`, and the
Channel Executive ranks the two like any other pair.  The one-sided
price list is strictly cheaper than the descriptor-ring path — no
per-message host descriptor, no completion interrupt, polled CQs — so
over an RNIC the executive (and hence the ILP layout solver, which
prices edges through the same ``cost()``) picks RDMA without being
told to.

The provider serves two publics:

* **channels** — ordinary two-sided channels whose wire protocol is
  "one-sided write + completion notify": the initiator posts a WR and
  rings a doorbell, the engine bus-masters the payload, and the target
  discovers it by polling — nobody takes an interrupt, and the vectored
  path submits a whole batch behind one doorbell.
* **verbs** — :meth:`register_mr` / :meth:`create_qp` /
  :meth:`create_cq` for applications that want the raw one-sided API
  (the KV cache's gets never create a channel at all).
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional

from repro.errors import DeviceFailedError, RdmaError
from repro.core.call import CallBatch
from repro.core.channel import Buffering, Channel, Endpoint
from repro.core.memory import MemoryManager
from repro.core.providers import (ChannelProvider, CostMetric, _copy_in,
                                  _copy_out, _host_site)
from repro.core.sites import ExecutionSite, HostSite
from repro.hw.device import ProgrammableDevice
from repro.hw.machine import Machine
from repro.rdma.mr import RdmaRegion
from repro.rdma.verbs import (CQ_POLL_NS, DOORBELL_NS, MR_REGISTER_NS,
                              POST_WR_NS, WR_ENGINE_NS, CompletionQueue,
                              QueuePair, RdmaCounters, RdmaStats)
from repro.sim.engine import Event

__all__ = ["RdmaProvider", "RDMA_FEATURE"]

# DeviceSpec feature that marks a device as an RDMA engine.
RDMA_FEATURE = "rdma"


class RdmaProvider(ChannelProvider):
    """Host <-> one RNIC channels over one-sided verbs."""

    def __init__(self, machine: Machine, device: ProgrammableDevice,
                 memory: MemoryManager, kernel=None) -> None:
        if not device.spec.has_feature(RDMA_FEATURE):
            raise RdmaError(
                f"device {device.name} does not advertise the "
                f"{RDMA_FEATURE!r} feature")
        self.machine = machine
        self.device = device
        self.memory = memory
        self.kernel = kernel
        self.name = f"rdma-{device.name}"
        self._register_metrics(machine.sim.metrics,
                               f"{machine.name}/{self.name}")
        self.regions: List[RdmaRegion] = []
        self._pin_cursor = itertools.count(0x9000_0000, 0x0100_0000)
        # Ids this engine issues: rkeys for its regions and wr_ids for
        # every queue pair it creates.
        self._rkeys = itertools.count(0x1000)
        self._wr_ids = itertools.count(1)

    def _register_metrics(self, metrics, label: str) -> None:
        """Verb counters plus the one-sided conservation law (``posted
        == completed + failed``), exported as an imbalance gauge and a
        violation count — the same shape as the channel law."""
        self.counters = RdmaCounters(metrics, label)
        imbalance = metrics.gauge(
            "repro_rdma_conservation_imbalance",
            help="posted - (completed + failed); nonzero = work requests "
                 "lost in flight",
            labels=("provider",)).own(provider=label)
        violations = metrics.gauge(
            "repro_rdma_conservation_violations",
            help="RDMA providers violating the one-sided conservation law",
            labels=("provider",)).own(provider=label)

        def collect(_registry) -> None:
            stats = self.stats
            imbalance.set(stats.imbalance)
            violations.set(len(stats.violations(self.name)))

        metrics.register_collector(collect)

    @property
    def stats(self) -> RdmaStats:
        """This engine's one-sided accounting so far."""
        return self.counters.stats()

    # -- ChannelProvider interface ---------------------------------------------------

    def can_serve(self, src: ExecutionSite, dst: ExecutionSite,
                  config) -> bool:
        """Exactly {host, this RNIC} on this machine."""
        sites = {src.name, dst.name}
        if sites != {"host", self.device.name}:
            return False
        host = src if isinstance(src, HostSite) else dst
        return isinstance(host, HostSite) and host.machine is self.machine

    def cost(self, src: ExecutionSite, dst: ExecutionSite,
             config) -> CostMetric:
        """One-sided pricing: WR + doorbell + engine + CQ poll.

        Versus the DMA ring (arbitration + 500 host descriptor + 900
        device descriptor, host_cpu 500): the initiator pays 400 ns of
        CPU and the engine 400 ns of firmware, with no interrupt on
        either end — cheaper on both axes, so the executive picks this
        provider over the descriptor ring wherever both can serve.
        """
        bus = self.device.bus
        base_latency = (bus.spec.arbitration_ns + POST_WR_NS + DOORBELL_NS
                        + WR_ENGINE_NS + CQ_POLL_NS)
        if config.buffering is Buffering.DIRECT:
            return CostMetric(latency_ns=base_latency,
                              throughput_bps=bus.spec.bandwidth_bps,
                              host_cpu_ns=POST_WR_NS + DOORBELL_NS)
        # COPY mode bounces through a kernel buffer before the WR posts.
        return CostMetric(latency_ns=base_latency + 2_000,
                          throughput_bps=bus.spec.bandwidth_bps,
                          host_cpu_ns=4_500)

    def transfer(self, channel: Channel, source: Endpoint,
                 destinations: List[Endpoint], size_bytes: int
                 ) -> Generator[Event, None, None]:
        """One message as one-sided-write + polled notify.

        The initiator (host or RNIC firmware) posts a single WR and
        rings the doorbell; the engine moves the payload; the receiving
        side pays one CQ poll.  No descriptor rings, no ISR.
        """
        yield from self._move(channel, source, max(1, size_bytes), None)

    def transfer_vectored(self, channel: Channel, source: Endpoint,
                          destinations: List[Endpoint], batch: CallBatch
                          ) -> Generator[Event, None, None]:
        """A whole batch behind one doorbell and one CQ poll.

        The initiator posts every WR back to back (cheap queue appends),
        one MMIO write submits them all, the engine gathers the payloads
        in a single scatter-gather transaction, and one poll drains the
        batch's completions — the amortization ``bench_rdma_kv``
        measures.
        """
        if not self.device.supports_vectored_dma:
            yield from ChannelProvider.transfer_vectored(
                self, channel, source, destinations, batch)
            return
        yield from self._move(channel, source, batch.size_bytes,
                              batch.entry_sizes())

    def _move(self, channel: Channel, source: Endpoint, size: int,
              sizes: Optional[List[int]]) -> Generator[Event, None, None]:
        """``count`` WRs (one per batch entry) behind a single doorbell."""
        count = 1 if sizes is None else len(sizes)
        posted_here = 0
        try:
            if isinstance(source.site, HostSite):
                yield from _copy_in(self.kernel, channel, source.site, size)
                yield from source.site.execute(
                    POST_WR_NS * count + DOORBELL_NS, context="rdma-channel")
                self._post(count)
                posted_here = count
                yield from self.device.run_on_device(WR_ENGINE_NS * count,
                                                     context="rdma-channel")
                yield from (self.device.dma_from_host(size) if sizes is None
                            else self.device.dma_from_host_vectored(sizes))
                # The target's poll loop notices the landed payload.
                yield from self.device.run_on_device(CQ_POLL_NS,
                                                     context="rdma-channel")
            else:
                yield from self.device.run_on_device(
                    POST_WR_NS * count + DOORBELL_NS + WR_ENGINE_NS * count,
                    context="rdma-channel")
                self._post(count)
                posted_here = count
                yield from (self.device.dma_to_host(size) if sizes is None
                            else self.device.dma_to_host_vectored(sizes))
                host = _host_site(channel)
                if host is not None:
                    yield from host.execute(CQ_POLL_NS,
                                            context="rdma-channel")
                yield from _copy_out(self.kernel, channel, host, size)
        except DeviceFailedError:
            # The WRs were posted but the engine died: account them
            # failed so `posted == completed + failed` survives the
            # crash, then let the channel's retry/drop machinery see
            # the error.
            self.counters.failed.inc(posted_here)
            raise
        # Only now are they writes: the verb breakdown counts successes.
        self.counters.completed.inc(count)
        self.counters.writes.inc(count)
        self.counters.bytes_written.inc(size)

    # -- verb API (the raw one-sided surface) -----------------------------------------

    def register_mr(self, owner: str, size: int, label: str = ""
                    ) -> Generator[Event, None, RdmaRegion]:
        """Register ``size`` bytes of ``owner``'s memory; returns the
        rkey-carrying region handle.

        Host regions pin user pages (get_user_pages); device regions
        allocate device-local memory on the owner; either way the engine
        charges an MTT/MPT update before the rkey is live.
        """
        if owner == "host":
            backing = yield from self.memory.pin(next(self._pin_cursor),
                                                 size)
        else:
            owner_dev = self.machine.devices.get(owner)
            if owner_dev is None:
                raise RdmaError(f"unknown region owner {owner!r}")
            backing = owner_dev.memory.allocate(size,
                                                label=label or "rdma-mr")
        yield from self.device.run_on_device(MR_REGISTER_NS,
                                             context="rdma-mr")
        region = RdmaRegion(owner=owner, size=size, rkey=next(self._rkeys),
                            label=label, backing=backing)
        self.regions.append(region)
        return region

    def deregister_mr(self, region: RdmaRegion) -> None:
        """Revoke the rkey and release the backing pin/allocation."""
        if region.revoked:
            raise RdmaError(f"rkey {region.rkey:#x} already revoked")
        region.revoked = True
        backing, region.backing = region.backing, None
        if backing is None:
            return
        if region.owner == "host":
            self.memory.unpin(backing)
        else:
            owner_dev = self.machine.devices.get(region.owner)
            if owner_dev is not None and not owner_dev.health.crashed:
                owner_dev.memory.free(backing)

    def create_cq(self, site: ExecutionSite,
                  mode: str = "polled") -> CompletionQueue:
        """A completion queue on ``site`` (``polled`` or ``interrupt``)."""
        return CompletionQueue(site, mode=mode, kernel=self.kernel)

    def create_qp(self, site: ExecutionSite,
                  cq: Optional[CompletionQueue] = None) -> QueuePair:
        """A queue pair from ``site`` through this provider's engine."""
        # NB: an empty CompletionQueue is falsy (it has __len__), so the
        # presence test must be identity, not truthiness.
        if cq is None:
            cq = self.create_cq(site)
        return QueuePair(site, self.device, cq, self.counters, self._wr_ids)

    # -- internals --------------------------------------------------------------------

    def _post(self, writes: int) -> None:
        """Post ``writes`` write WRs behind one doorbell."""
        self.counters.posted.inc(writes)
        self.counters.doorbells.inc()
