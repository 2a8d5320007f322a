"""I/O interconnect model (PCI / PCIe) with DMA transfers.

Bus crossings are the paper's central cost currency: offloading wins by
"eliminating expensive memory bus crossings" and the TiVoPC layout is
chosen to minimise them (Section 6.3).  Two properties matter:

* **Bandwidth / arbitration** — each transfer holds the bus for an
  arbitration setup time plus the serialization delay of its payload.
* **Peer-to-peer capability** — the paper notes that with PCIe a packet
  can move NIC -> GPU *and* NIC -> disk "in a single bus transaction"
  without touching host memory.  A :class:`Bus` with
  ``peer_to_peer=False`` (classic PCI) forces device-to-device traffic
  through host memory, doubling the crossings.

All transfers are recorded per (source, destination) endpoint pair, so
experiments can count crossings and measure the bus bandwidth actually
consumed (the *Maximize Bus Usage* objective of Section 5).  Totals are
counters in ``sim.metrics`` under the bus's ``name`` label.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, Generator, List, Optional, Tuple

from repro import units
from repro.errors import BusError, InterruptError
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource
from repro.telemetry.spans import emit as trace_emit

__all__ = ["BusSpec", "Bus", "HOST_MEMORY", "TransferRecord"]

# Canonical endpoint name for host DRAM.
HOST_MEMORY = "host-memory"


@dataclass(frozen=True)
class BusSpec:
    """Static bus parameters.

    The default models 4x PCIe-generation interconnect headroom of the
    paper's era server boards; construct with ``pci_legacy()`` for the
    classic shared 133 MB/s PCI bus.
    """

    name: str = "pcie"
    bandwidth_bps: float = 8.0e9       # ~PCIe x4 effective
    arbitration_ns: int = 200
    peer_to_peer: bool = True

    @staticmethod
    def pci_legacy() -> "BusSpec":
        """Classic 32-bit/33 MHz PCI: ~1.06 Gbps shared, no peer-to-peer."""
        return BusSpec(name="pci", bandwidth_bps=1.064e9,
                       arbitration_ns=500, peer_to_peer=False)


# Help of each counter a bus exports as ``repro_bus_<name>_total``.
_HELP = MappingProxyType({
    "bytes_moved": "Bytes moved over the bus",
    "transfers": "Completed bus transactions",
    "sg_transfers": "Scatter-gather transactions",
    "transient_faults": "Injected transient faults replayed on the bus"})


@dataclass
class TransferRecord:
    """One completed bus transaction."""

    time_ns: int
    src: str
    dst: str
    size_bytes: int
    duration_ns: int
    multicast: bool = False


class Bus:
    """A shared interconnect segment between host memory and devices."""

    def __init__(self, sim: Simulator, spec: Optional[BusSpec] = None,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.spec = spec or BusSpec()
        # Machines name their bus after themselves: their specs are all
        # "pcie", and metrics and traces must tell the buses apart.
        self.name = name or self.spec.name
        self.telemetry_track = f"bus:{self.name}"
        self._arbiter = Resource(sim, capacity=1)
        self._endpoints: Dict[str, object] = {HOST_MEMORY: None}
        self.transfers: List[TransferRecord] = []
        self.crossings: Dict[Tuple[str, str], int] = {}
        (self._bytes, self._transactions, self._sg_transfers,
         self._transients) = [
            sim.metrics.counter(f"repro_bus_{total}_total", help=text,
                                labels=("bus",)).own(bus=self.name)
            for total, text in _HELP.items()]
        # Logical messages moved by scatter-gather transactions (the
        # batching benchmark's amortization figure).
        self.sg_entries = 0
        self.record_log = False   # keep full TransferRecord list (tests/debug)
        # Fault injection: each pending transient corrupts one transaction,
        # which the link layer detects and replays (one extra serialization).
        self._pending_transients = 0

    bytes_moved = property(attrgetter("_bytes.value"),
                           doc="Bytes moved over the bus so far.")
    sg_transfers = property(attrgetter("_sg_transfers.value"),
                            doc="Transactions carrying a scatter-gather list.")
    transient_faults = property(attrgetter("_transients.value"),
                                doc="Injected transients replayed so far.")

    # -- topology ------------------------------------------------------------

    def attach(self, name: str, endpoint: object = None) -> None:
        """Register an endpoint (a device, or a memory agent)."""
        if name in self._endpoints:
            raise BusError(f"endpoint {name!r} already attached to {self.spec.name}")
        self._endpoints[name] = endpoint

    def endpoint(self, name: str) -> object:
        """The object attached under ``name`` (BusError if unknown)."""
        try:
            return self._endpoints[name]
        except KeyError:
            raise BusError(f"unknown bus endpoint {name!r}") from None

    @property
    def endpoints(self) -> List[str]:
        """All attached endpoint names."""
        return list(self._endpoints)

    # -- fault injection ---------------------------------------------------------

    def inject_transients(self, count: int = 1) -> None:
        """Arm ``count`` transient errors against upcoming transactions.

        Models soft interconnect errors (parity hit, replay at the link
        layer): each armed transient makes one future transaction pay its
        serialization delay twice while still delivering the payload, so
        faults cost time — the quantity this simulation measures — rather
        than data.  Used by :class:`repro.faults.FaultInjector`.
        """
        if count < 0:
            raise BusError(f"transient count must be non-negative: {count}")
        self._pending_transients += count

    # -- transfers -------------------------------------------------------------

    def transfer_time_ns(self, size_bytes: int) -> int:
        """Pure serialization + arbitration delay for a payload."""
        return self.spec.arbitration_ns + units.transfer_time_ns(
            size_bytes, self.spec.bandwidth_bps)

    def transfer(self, src: str, dst: str, size_bytes: int
                 ) -> Generator[Event, None, int]:
        """Process generator: move ``size_bytes`` from ``src`` to ``dst``.

        Device-to-device transfers on a non-peer-to-peer bus are staged
        through host memory (two transactions).  Returns the total number
        of bus transactions performed.
        """
        self._check(src, dst, size_bytes)
        if (src != HOST_MEMORY and dst != HOST_MEMORY
                and not self.spec.peer_to_peer):
            yield from self._single_transfer(src, HOST_MEMORY, size_bytes)
            yield from self._single_transfer(HOST_MEMORY, dst, size_bytes)
            return 2
        yield from self._single_transfer(src, dst, size_bytes)
        return 1

    def transfer_scatter(self, src: str, dst: str, sizes: List[int]
                         ) -> Generator[Event, None, int]:
        """Move a scatter-gather list in a single bus transaction.

        The DMA engine chains the descriptors, so the bus is arbitrated
        once and the payloads serialize back to back — one transaction
        regardless of how many logical messages ride in it.  On a
        non-peer-to-peer bus a device-to-device list still stages
        through host memory (two transactions), like :meth:`transfer`.
        Returns the number of bus transactions performed.
        """
        if not sizes:
            raise BusError("scatter transfer requires at least one entry")
        count = yield from self.transfer(src, dst, sum(sizes))
        self._sg_transfers.inc(count)
        self.sg_entries += len(sizes)
        return count

    def multicast_transfer(self, src: str, dsts: List[str], size_bytes: int,
                           entries: int = 0) -> Generator[Event, None, int]:
        """Move one payload to several destinations.

        On a peer-to-peer bus this is a *single* transaction (the paper's
        PCIe footnote: a packet can reach both the GPU and the disk
        controller at once); otherwise one transaction per destination
        (two when a device-to-device copy stages through host memory).
        A chained list of ``entries`` messages counts as scatter-gather
        like :meth:`transfer_scatter`.  Returns the number of bus
        transactions performed.
        """
        if not dsts:
            raise BusError("multicast requires at least one destination")
        for dst in dsts:
            self._check(src, dst, size_bytes)
        count = 0
        if self.spec.peer_to_peer:
            yield from self._single_transfer(src, dsts[0], size_bytes,
                                             multicast=True)
            for dst in dsts:
                self._count(src, dst)
            count = 1
        else:
            for dst in dsts:
                count += yield from self.transfer(src, dst, size_bytes)
        if entries:
            self._sg_transfers.inc(count)
            self.sg_entries += entries
        return count

    # -- internals --------------------------------------------------------------

    def _check(self, src: str, dst: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise BusError(f"transfer size must be positive: {size_bytes}")
        if src not in self._endpoints:
            raise BusError(f"unknown source endpoint {src!r}")
        if dst not in self._endpoints:
            raise BusError(f"unknown destination endpoint {dst!r}")
        if src == dst:
            raise BusError(f"transfer from {src!r} to itself")

    def _single_transfer(self, src: str, dst: str, size_bytes: int,
                         multicast: bool = False
                         ) -> Generator[Event, None, None]:
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            # Opened before arbitration so the span includes the wait
            # for the bus, not just the serialization delay.
            span = tel.begin("bus.transfer", "bus", self.telemetry_track,
                             parent=tel.current_ctx(), src=src, dst=dst,
                             bytes=size_bytes)
        request = self._arbiter.request()
        try:
            yield request
        except InterruptError:
            self._arbiter.withdraw(request)
            raise
        start = self.sim.now
        try:
            # Bare-int yield: the engine's allocation-free fused sleep.
            yield self.transfer_time_ns(size_bytes)
            if self._pending_transients > 0:
                # Link-layer replay: the corrupted transaction is re-sent
                # while the bus is still held, doubling its occupancy.
                self._pending_transients -= 1
                self._transients.inc()
                trace_emit(self.sim, "fault",
                           f"bus {self.spec.name}: transient error, replaying "
                           f"{src}->{dst}", bus=self.spec.name, src=src,
                           dst=dst, size_bytes=size_bytes)
                yield self.transfer_time_ns(size_bytes)
        finally:
            self._arbiter.release()
            if span is not None:
                tel.end(span)
        self._bytes.inc(size_bytes)
        if not multicast:
            self._count(src, dst)
        if self.record_log:
            self.transfers.append(TransferRecord(
                time_ns=start, src=src, dst=dst, size_bytes=size_bytes,
                duration_ns=self.sim.now - start, multicast=multicast))

    def _count(self, src: str, dst: str) -> None:
        key = (src, dst)
        self.crossings[key] = self.crossings.get(key, 0) + 1
        self._transactions.inc()

    # -- inspection --------------------------------------------------------------

    def total_crossings(self) -> int:
        """Total recorded transactions across all pairs."""
        return self._transactions.value

    def host_memory_crossings(self) -> int:
        """Transactions that touched host memory (the expensive ones)."""
        return sum(n for (s, d), n in self.crossings.items()
                   if HOST_MEMORY in (s, d))

    def utilization(self, since: int = 0) -> float:
        """Busy time so far over the wall time from ``since`` to now.

        The bus keeps no occupancy history, so busy time before
        ``since`` is counted too: the result is a window's utilization
        only for a window that opens before the bus's first transfer.
        """
        window = self.sim.now - since
        if window <= 0:
            return 0.0
        return min(1.0, self._arbiter.busy_ns / window)
