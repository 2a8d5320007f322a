"""Network packet representation.

Packets carry a payload *size* plus an arbitrary payload object; the
simulation moves costs, not bytes.  Wire occupancy includes Ethernet,
IP and UDP headers so that link serialization times are realistic for
the paper's 1 kB datagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Address", "Packet", "ETH_IP_UDP_HEADER_BYTES", "MAX_UDP_PAYLOAD"]

# 14 (Ethernet) + 20 (IPv4) + 8 (UDP) = 42 bytes of headers per datagram.
ETH_IP_UDP_HEADER_BYTES = 42
MAX_UDP_PAYLOAD = 65_507


@dataclass(frozen=True, order=True)
class Address:
    """A (host, port) network address."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("address host must be non-empty")
        if not 0 < self.port < 65536:
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(eq=False)
class Packet:
    """A UDP datagram in flight; two packets are equal only if they are
    the same datagram."""

    src: Address
    dst: Address
    size_bytes: int
    payload: Any = None
    sent_at_ns: Optional[int] = None
    received_at_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative payload size: {self.size_bytes}")
        if self.size_bytes > MAX_UDP_PAYLOAD:
            raise ValueError(
                f"payload {self.size_bytes} exceeds max UDP datagram")

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the wire, headers included."""
        return self.size_bytes + ETH_IP_UDP_HEADER_BYTES

    def flow(self) -> tuple:
        """The 4-tuple identifying this packet's flow.

        What an in-network header handler keys its per-flow state on
        (the 5-tuple minus the protocol, which is always UDP here).
        """
        return (self.src.host, self.src.port, self.dst.host, self.dst.port)

    def latency_ns(self) -> Optional[int]:
        """received - sent timestamps, or None if either is unset."""
        if self.sent_at_ns is None or self.received_at_ns is None:
            return None
        return self.received_at_ns - self.sent_at_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Packet {self.src}->{self.dst} {self.size_bytes}B>"
