"""Point-to-point link model.

A :class:`Link` is a unidirectional wire with finite bandwidth,
propagation delay and optional per-packet jitter.  Serialization is
FIFO: while one frame is on the wire the next waits, which is how
back-to-back datagrams from a bursty sender spread out in time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro import units
from repro.errors import InterruptError, SimulationError
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["LinkSpec", "Link"]


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters (defaults: gigabit Ethernet, short run)."""

    bandwidth_bps: float = 1.0e9
    propagation_ns: int = 2_000          # a few hundred metres of cable + PHY
    jitter_sigma_ns: int = 500           # PHY/serialization micro-jitter

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise SimulationError("link bandwidth must be positive")
        if self.propagation_ns < 0 or self.jitter_sigma_ns < 0:
            raise SimulationError("link delays must be non-negative")


class Link:
    """Unidirectional FIFO wire delivering packets to a sink callable."""

    def __init__(self, sim: Simulator, deliver: Callable[[Packet], None],
                 spec: Optional[LinkSpec] = None,
                 rng: Optional[random.Random] = None,
                 name: str = "link") -> None:
        self.sim = sim
        self.spec = spec or LinkSpec()
        self.deliver = deliver
        self.rng = rng or random.Random(0)
        self.name = name
        self._wire = Resource(sim, capacity=1)
        self.packets_carried = 0

    def send(self, packet: Packet) -> None:
        """Begin transmitting ``packet`` (returns immediately)."""
        self.sim.spawn(self._carry(packet), name=f"{self.name}-tx")

    def _carry(self, packet: Packet):
        request = self._wire.request()
        try:
            yield request
        except InterruptError:
            self._wire.withdraw(request)
            raise
        try:
            yield self.sim.clock.after(self.serialization_ns(packet))
        finally:
            self._wire.release()
        # Propagation happens off the wire; the next frame can start.
        delay = self.spec.propagation_ns
        if self.spec.jitter_sigma_ns:
            delay += abs(round(self.rng.gauss(0, self.spec.jitter_sigma_ns)))
        yield self.sim.clock.after(delay)
        self.packets_carried += 1
        self.deliver(packet)

    def serialization_ns(self, packet: Packet) -> int:
        """Wire occupancy of one packet at this bandwidth."""
        return units.transfer_time_ns(packet.wire_bytes,
                                      self.spec.bandwidth_bps)

    def utilization(self) -> float:
        """Fraction of wall time the wire carried bits."""
        return self._wire.utilization()
