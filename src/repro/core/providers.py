"""Channel providers — target-specific data paths with cost metrics.

"These providers are target-specific and will be provided as an extended
driver for each programmable device.  A channel provider is specialized
in creating various channel types to the device and provides a cost
metric regarding the 'price' for communicating with the device through a
specific channel, in terms of latency and throughput.  The executive
uses this capability information to decide on the best provider"
(Section 4).

Three provider families cover a host:

* :class:`LoopbackProvider` — endpoints co-located (host<->host or both
  on the same device): pointer handoff or memcpy.
* :class:`DmaChannelProvider` — host <-> one specific device, the
  Figure-6 architecture: descriptor rings, pinned buffers, bus-master
  DMA, optional copy-mode bounce buffers, completion interrupts.
* :class:`PeerDmaProvider` — device <-> device transfers that bypass
  host memory entirely on peer-to-peer buses (single transaction for
  hardware multicast).

Each provider writes its data path once per direction, in a ``_move``
body that ``transfer`` and ``transfer_vectored`` both call with the
bytes to move (``size``) and, for a batch, its chained scatter-gather
list (``sizes``; None for one message).  That list is all a batch
adds: it selects the vectored DMA, charges the receiver a per-entry
unbundle cost, and on RDMA posts one WR per entry behind the one
doorbell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional

from repro import units
from repro.errors import ProviderError
from repro.core.call import CallBatch
from repro.core.channel import Buffering, Channel, ChannelConfig, Endpoint
from repro.core.memory import MemoryManager
from repro.core.rings import Descriptor, DescriptorRing
from repro.core.sites import DeviceSite, ExecutionSite, HostSite
from repro.hw.device import ProgrammableDevice
from repro.hw.machine import Machine
from repro.sim.engine import Event

__all__ = ["CostMetric", "ChannelProvider", "LoopbackProvider",
           "DmaChannelProvider", "PeerDmaProvider"]

# Descriptor-handling firmware/driver costs.
_DESCRIPTOR_HOST_NS = 500
_DESCRIPTOR_DEVICE_NS = 900
_POINTER_HANDOFF_NS = 300
_LOCAL_COPY_NS_PER_BYTE = 0.9
# Per-entry cost of walking a chained scatter-gather descriptor list at
# the receiver (far cheaper than a full per-message descriptor cycle).
_BATCH_UNBUNDLE_NS = 120


def _unbundle_ns(sizes: Optional[List[int]]) -> int:
    """Receiver cost of walking a chained list (0 for one message)."""
    return 0 if sizes is None else _BATCH_UNBUNDLE_NS * len(sizes)


def _host_site(channel: Channel) -> Optional[HostSite]:
    """The channel's host endpoint site, if it has one."""
    for endpoint in channel.endpoints:
        if isinstance(endpoint.site, HostSite):
            return endpoint.site
    return None


def _copy_in(kernel, channel: Channel, host: ExecutionSite, size: int
             ) -> Iterable[Event]:
    """Copy-mode bounce: user buffer -> kernel buffer before the send
    (returns the copy to ``yield from``; nothing on a zero-copy channel)."""
    if channel.config.buffering is not Buffering.COPY:
        return ()
    if kernel is not None:
        return kernel.copy_from_user(size, context="channel")
    return host.execute(round(size * _LOCAL_COPY_NS_PER_BYTE),
                        context="channel")


def _copy_out(kernel, channel: Channel, host: Optional[ExecutionSite],
              size: int) -> Iterable[Event]:
    """Copy-mode bounce: kernel buffer -> user buffer after delivery."""
    if channel.config.buffering is not Buffering.COPY or host is None:
        return ()
    if kernel is not None:
        return kernel.copy_to_user(size, context="channel")
    return host.execute(round(size * _LOCAL_COPY_NS_PER_BYTE),
                        context="channel")


@dataclass(frozen=True)
class CostMetric:
    """The provider's advertised price for one message."""

    latency_ns: int
    throughput_bps: float
    host_cpu_ns: int

    def score(self, size_hint: int) -> float:
        """Scalar rank used by the executive: end-to-end time for a
        message of ``size_hint`` bytes, with host CPU time double-weighted
        (host cycles are the resource offloading exists to protect)."""
        transfer = size_hint * 8 * units.SECOND / self.throughput_bps
        return self.latency_ns + transfer + 2 * self.host_cpu_ns


class ChannelProvider:
    """Interface all providers implement."""

    name: str = "abstract"

    def can_serve(self, src: ExecutionSite, dst: ExecutionSite,
                  config: ChannelConfig) -> bool:
        """Whether this provider reaches ``src`` -> ``dst`` under ``config``."""
        raise NotImplementedError

    def cost(self, src: ExecutionSite, dst: ExecutionSite,
             config: ChannelConfig) -> CostMetric:
        """Advertised per-message price (the executive ranks by this)."""
        raise NotImplementedError

    def transfer(self, channel: Channel, source: Endpoint,
                 destinations: List[Endpoint], size_bytes: int
                 ) -> Generator[Event, None, None]:
        """Process generator: move one message, charging all costs."""
        raise NotImplementedError

    def transfer_vectored(self, channel: Channel, source: Endpoint,
                          destinations: List[Endpoint], batch: CallBatch
                          ) -> Generator[Event, None, None]:
        """Move a whole batch; the base class falls back to a per-entry
        loop so providers without scatter-gather support stay correct
        (just without the single-transaction win)."""
        for size in batch.entry_sizes():
            yield from self.transfer(channel, source, destinations, size)

    def on_channel_created(self, channel: Channel) -> None:
        """Hook for per-channel resources (rings, shared memory)."""


class LoopbackProvider(ChannelProvider):
    """Same-location channels: host<->host or intra-device."""

    name = "loopback"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def _local(self, site: ExecutionSite) -> bool:
        if isinstance(site, HostSite):
            return site.machine is self.machine
        if isinstance(site, DeviceSite):
            return site.device.bus is self.machine.bus
        return False

    def can_serve(self, src: ExecutionSite, dst: ExecutionSite,
                  config: ChannelConfig) -> bool:
        """Co-located endpoints on this machine only."""
        return (src.name == dst.name
                and self._local(src) and self._local(dst))

    def cost(self, src: ExecutionSite, dst: ExecutionSite,
             config: ChannelConfig) -> CostMetric:
        """Pointer handoff (direct) or memcpy-rate (copy) pricing."""
        if config.buffering is Buffering.DIRECT:
            return CostMetric(latency_ns=_POINTER_HANDOFF_NS,
                              throughput_bps=64e9, host_cpu_ns=300)
        return CostMetric(latency_ns=2_000, throughput_bps=8e9,
                          host_cpu_ns=2_000)

    def transfer(self, channel: Channel, source: Endpoint,
                 destinations: List[Endpoint], size_bytes: int
                 ) -> Generator[Event, None, None]:
        """Pointer handoff, or a local copy through the L2 in copy mode."""
        yield from self._move(channel, source, size_bytes, None)

    def transfer_vectored(self, channel: Channel, source: Endpoint,
                          destinations: List[Endpoint], batch: CallBatch
                          ) -> Generator[Event, None, None]:
        """One handoff (or one bulk copy) for the whole batch."""
        yield from self._move(channel, source, batch.size_bytes,
                              batch.entry_sizes())

    def _move(self, channel: Channel, source: Endpoint, size: int,
              sizes: Optional[List[int]]) -> Iterable[Event]:
        # One handoff (or one bulk copy) publishes a batch's whole
        # chained list; each receiver walks the per-entry descriptors.
        site = source.site
        unbundle = _unbundle_ns(sizes)
        if channel.config.buffering is Buffering.DIRECT:
            return site.execute(_POINTER_HANDOFF_NS + unbundle,
                                context="channel")
        cost = round(size * _LOCAL_COPY_NS_PER_BYTE) or 1
        if isinstance(site, HostSite):
            # A copying local channel streams through the L2 like memcpy.
            self.machine.l2.touch_range(0x3000_0000, size)
            self.machine.l2.touch_range(0x3400_0000, size, write=True)
        return site.execute(cost + unbundle, context="channel")


class DmaChannelProvider(ChannelProvider):
    """Host <-> device channels over descriptor rings (Figure 6)."""

    def __init__(self, machine: Machine, device: ProgrammableDevice,
                 memory: MemoryManager, kernel=None) -> None:
        self.machine = machine
        self.device = device
        self.memory = memory
        self.kernel = kernel
        self.name = f"dma-{device.name}"
        self._pin_cursor = 0x6000_0000

    def can_serve(self, src: ExecutionSite, dst: ExecutionSite,
                  config: ChannelConfig) -> bool:
        """Exactly {host, this provider's device} on this machine."""
        sites = {src.name, dst.name}
        if sites != {"host", self.device.name}:
            return False
        host = src if isinstance(src, HostSite) else dst
        return isinstance(host, HostSite) and host.machine is self.machine

    def cost(self, src: ExecutionSite, dst: ExecutionSite,
             config: ChannelConfig) -> CostMetric:
        """Ring + DMA pricing; copy mode adds bounce-buffer CPU cost."""
        bus = self.device.bus
        base_latency = (bus.spec.arbitration_ns + _DESCRIPTOR_HOST_NS
                        + _DESCRIPTOR_DEVICE_NS)
        if config.buffering is Buffering.DIRECT:
            return CostMetric(latency_ns=base_latency,
                              throughput_bps=bus.spec.bandwidth_bps,
                              host_cpu_ns=_DESCRIPTOR_HOST_NS)
        return CostMetric(latency_ns=base_latency + 2_000,
                          throughput_bps=bus.spec.bandwidth_bps,
                          host_cpu_ns=5_000)

    def on_channel_created(self, channel: Channel) -> None:
        # The Figure-6 structures: an InRing of host call descriptors and
        # an OutRing of pre-posted descriptors for spontaneous messages.
        channel.in_ring = DescriptorRing(channel.config.ring_slots,
                                         name=f"in-{channel.channel_id}")
        channel.out_ring = DescriptorRing(channel.config.ring_slots,
                                          name=f"out-{channel.channel_id}")

    def transfer(self, channel: Channel, source: Endpoint,
                 destinations: List[Endpoint], size_bytes: int
                 ) -> Generator[Event, None, None]:
        """The Figure-6 path: pin/copy, descriptor, DMA, completion."""
        yield from self._move(channel, source, max(1, size_bytes), None)

    def transfer_vectored(self, channel: Channel, source: Endpoint,
                          destinations: List[Endpoint], batch: CallBatch
                          ) -> Generator[Event, None, None]:
        """One descriptor + one scatter-gather DMA for the whole batch.

        The ring sees a *single* chained descriptor; the DMA engine
        gathers every entry in one bus transaction
        (:meth:`~repro.hw.device.ProgrammableDevice.dma_from_host_vectored`),
        and one completion interrupt covers the batch — interrupt
        mitigation falls straight out of coalescing.  Devices without
        the ``scatter-gather`` feature fall back to the per-entry loop.
        """
        if not self.device.supports_vectored_dma:
            yield from ChannelProvider.transfer_vectored(
                self, channel, source, destinations, batch)
            return
        yield from self._move(channel, source, batch.size_bytes,
                              batch.entry_sizes())

    def _move(self, channel: Channel, source: Endpoint, size: int,
              sizes: Optional[List[int]]) -> Iterable[Event]:
        if isinstance(source.site, HostSite):
            return self._host_to_device(channel, source.site, size, sizes)
        return self._device_to_host(channel, size, sizes)

    def _host_to_device(self, channel: Channel, host: HostSite, size: int,
                        sizes: Optional[List[int]]
                        ) -> Generator[Event, None, None]:
        yield from _copy_in(self.kernel, channel, host, size)
        if channel.config.buffering is Buffering.DIRECT:
            # Pin the user buffer (refcounted; hot buffers amortise);
            # unpinned on channel close in a full teardown.
            yield from self.memory.pin(self._pin_cursor, size)
        yield from host.execute(_DESCRIPTOR_HOST_NS, context="channel")
        ring: DescriptorRing = channel.in_ring
        while not ring.post(Descriptor(address=self._pin_cursor, length=size)):
            # Reliable semantics: wait for the device to drain a slot.
            yield host.sim.clock.timeout(2_000)
        yield from (self.device.dma_from_host(size) if sizes is None
                    else self.device.dma_from_host_vectored(sizes))
        ring.consume()
        yield from self.device.run_on_device(
            _DESCRIPTOR_DEVICE_NS + _unbundle_ns(sizes), context="channel")

    def _device_to_host(self, channel: Channel, size: int,
                        sizes: Optional[List[int]]
                        ) -> Generator[Event, None, None]:
        yield from self.device.run_on_device(_DESCRIPTOR_DEVICE_NS,
                                             context="channel")
        ring: DescriptorRing = channel.out_ring
        while not ring.post(Descriptor(address=0, length=size)):
            yield self.device.sim.clock.timeout(2_000)
        yield from (self.device.dma_to_host(size) if sizes is None
                    else self.device.dma_to_host_vectored(sizes))
        ring.consume()
        # "optionally notifies the application using an event (usually
        # interrupt)" — high-priority channels interrupt, OOB ones poll.
        if self.kernel is not None and channel.config.priority > 0:
            yield from self.kernel.isr()
        yield from _copy_out(self.kernel, channel, _host_site(channel), size)


class PeerDmaProvider(ChannelProvider):
    """Device <-> device channels that bypass host memory."""

    name = "peer-dma"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    @staticmethod
    def _device_of(site: ExecutionSite) -> Optional[ProgrammableDevice]:
        return site.device if isinstance(site, DeviceSite) else None

    def can_serve(self, src: ExecutionSite, dst: ExecutionSite,
                  config: ChannelConfig) -> bool:
        """Two distinct devices sharing one bus."""
        sdev, ddev = self._device_of(src), self._device_of(dst)
        return (sdev is not None and ddev is not None
                and sdev.name != ddev.name and sdev.bus is ddev.bus)

    def cost(self, src: ExecutionSite, dst: ExecutionSite,
             config: ChannelConfig) -> CostMetric:
        """Peer DMA pricing; doubles on non-peer-to-peer buses."""
        bus = self.machine.bus
        hops = 1 if bus.spec.peer_to_peer else 2
        return CostMetric(
            latency_ns=hops * bus.spec.arbitration_ns
            + 2 * _DESCRIPTOR_DEVICE_NS,
            throughput_bps=bus.spec.bandwidth_bps / hops,
            host_cpu_ns=0)

    def transfer(self, channel: Channel, source: Endpoint,
                 destinations: List[Endpoint], size_bytes: int
                 ) -> Generator[Event, None, None]:
        """Device-to-device DMA; hardware multicast when available."""
        yield from self._move(source, destinations, max(1, size_bytes), None)

    def transfer_vectored(self, channel: Channel, source: Endpoint,
                          destinations: List[Endpoint], batch: CallBatch
                          ) -> Generator[Event, None, None]:
        """One peer scatter-gather transaction for the whole batch.

        Multicast batches combine the two hardware tricks: a single
        chained-descriptor transfer that every recipient snoops.
        """
        if not self._source_device(source).supports_vectored_dma:
            yield from ChannelProvider.transfer_vectored(
                self, channel, source, destinations, batch)
            return
        yield from self._move(source, destinations, batch.size_bytes,
                              batch.entry_sizes())

    def _source_device(self, source: Endpoint) -> ProgrammableDevice:
        src_dev = self._device_of(source.site)
        if src_dev is None:
            raise ProviderError("peer provider used from a host endpoint")
        return src_dev

    def _move(self, source: Endpoint, destinations: List[Endpoint],
              size: int, sizes: Optional[List[int]]
              ) -> Generator[Event, None, None]:
        src_dev = self._source_device(source)
        yield from src_dev.run_on_device(_DESCRIPTOR_DEVICE_NS,
                                         context="channel")
        dst_names = []
        for destination in destinations:
            dst_dev = self._device_of(destination.site)
            if dst_dev is None:
                raise ProviderError("peer provider reached a host endpoint")
            dst_names.append(dst_dev.name)
        if len(dst_names) > 1 and src_dev.spec.has_feature("multicast-hw"):
            # "a multicast channel can utilize hardware features, if
            # available, to send a single request to multiple recipients"
            # — a batch is already one contiguous chained list, so the
            # multicast transaction carries it whole.
            yield from src_dev.bus.multicast_transfer(
                src_dev.name, dst_names, size,
                entries=0 if sizes is None else len(sizes))
        else:
            for name in dst_names:
                yield from (src_dev.dma_to_peer(name, size) if sizes is None
                            else src_dev.dma_to_peer_vectored(name, sizes))
        for destination in destinations:
            yield from destination.site.execute(
                _DESCRIPTOR_DEVICE_NS + _unbundle_ns(sizes),
                context="channel")
