"""Store-and-forward Ethernet switch.

Models the testbed's Dell PowerConnect 6024 gigabit switch: every
attached station gets an ingress and an egress :class:`Link`; the switch
forwards by destination host name after a fixed forwarding latency.
Frames to unknown destinations are dropped and counted (a real switch
would flood; for our closed experiments a drop is a configuration bug
worth surfacing).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import SimulationError
from repro.net.link import Link, LinkSpec
from repro.net.packet import Packet
from repro.sim.engine import Simulator

__all__ = ["SwitchSpec", "Switch"]


@dataclass(frozen=True)
class SwitchSpec:
    """Static switch parameters."""

    forwarding_ns: int = 4_000            # store-and-forward + lookup
    link: LinkSpec = field(default_factory=LinkSpec)

    def __post_init__(self) -> None:
        if self.forwarding_ns < 0:
            raise SimulationError("forwarding latency must be non-negative")


class Switch:
    """A gigabit switch interconnecting named stations."""

    def __init__(self, sim: Simulator, spec: Optional[SwitchSpec] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.spec = spec or SwitchSpec()
        self.rng = rng or random.Random(0)
        self._ingress: Dict[str, Link] = {}
        self._egress: Dict[str, Link] = {}
        self._sinks: Dict[str, Callable[[Packet], None]] = {}
        self.forwarded = 0
        self.dropped_unknown = 0

    def attach(self, host: str, deliver: Callable[[Packet], None]
               ) -> Callable[[Packet], None]:
        """Connect a station; returns its transmit function.

        ``deliver(packet)`` is called for frames destined to ``host``.
        The returned callable puts a frame on the station's uplink.
        """
        if host in self._sinks:
            raise SimulationError(f"station {host!r} already attached")
        self._sinks[host] = deliver
        self._ingress[host] = Link(
            self.sim, self._forward, self.spec.link,
            rng=self.rng, name=f"up-{host}")
        self._egress[host] = Link(
            self.sim, self._deliver_local, self.spec.link,
            rng=self.rng, name=f"down-{host}")
        return self._ingress[host].send

    def stations(self):
        """Attached station names, sorted."""
        return sorted(self._sinks)

    # -- forwarding ------------------------------------------------------------

    def _forward(self, packet: Packet) -> None:
        self.sim.spawn(self._forward_proc(packet), name="switch-fwd")

    def _forward_proc(self, packet: Packet):
        yield self.sim.clock.after(self.spec.forwarding_ns)
        egress = self._egress.get(packet.dst.host)
        if egress is None:
            self.dropped_unknown += 1
            return
        self.forwarded += 1
        egress.send(packet)

    def _deliver_local(self, packet: Packet) -> None:
        sink = self._sinks.get(packet.dst.host)
        if sink is not None:
            sink(packet)
