"""sPIN-style NIC: per-packet handler offcodes in the packet path.

The sPIN model (Hoefler et al.; FPsPIN is the FPGA realization) splits a
packet's in-network program into three tiny handlers — **header**,
**payload**, **completion** — that the NIC runs at line rate as each
packet arrives.  Handlers are deliberately small: the device model
enforces a **cycle budget** per packet, and a packet whose handler chain
would blow the budget is punted to the host path instead of stalling
the line.

:class:`SpinNic` layers this on the existing :class:`~repro.hw.nic.Nic`
offload machinery: the handler chain is installed through
``install_rx_offload``, so the host fallback, crash black-holing, and
``fence()`` (recovery drops the handlers, frames flow to the host
ring again) all come from the base device model unchanged.

Handler contract
----------------

Handlers are plain callables (their *cost* is modeled by the device,
their *logic* runs instantly — same convention as Offcode method
bodies)::

    def header(packet) -> verdict      # runs on the L2/L3 header
    def payload(packet) -> verdict     # runs over the payload bytes
    def completion(packet) -> None     # bookkeeping after the verdict

A verdict is :data:`DROP` (filtered in-network), :data:`TO_HOST`
(escalate: DMA + interrupt, the classic path), or anything else
(``None``) meaning the NIC consumed the packet.  The header handler's
verdict can short-circuit the payload handler: a DROP or TO_HOST from
the header skips payload processing entirely (headers are parsed before
payload DMA completes, exactly why sPIN separates them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.errors import DeviceError
from repro.hw.bus import Bus
from repro.hw.device import DeviceSpec
from repro.hw.nic import Nic, NicSpec
from repro.sim.engine import Event, Simulator

__all__ = ["SpinNicSpec", "SpinHandlers", "SpinNic", "DROP", "TO_HOST",
           "SPIN_FEATURE"]

# Handler verdicts.
DROP = "drop"
TO_HOST = "host"

# DeviceSpec feature advertising per-packet handler support (the layout
# resolver keys SoftwareRequirements on it).
SPIN_FEATURE = "spin"

# Default per-packet handler-cycle budget: at gigabit line rate a
# 1500-byte frame arrives every ~12 µs; a handler chain must finish well
# inside that to sustain line rate, so the default leaves headroom for
# the fixed RX firmware cost too.
DEFAULT_BUDGET_NS = 8_000


def SpinNicSpec(name: str = "nic0", **kwargs) -> DeviceSpec:
    """A :func:`~repro.hw.nic.NicSpec` that advertises ``spin``."""
    extra = set(kwargs.pop("extra_features", ()))
    extra.add(SPIN_FEATURE)
    return NicSpec(name=name, extra_features=tuple(sorted(extra)), **kwargs)


@dataclass
class SpinHandlers:
    """One packet program: the three handlers plus their modeled costs.

    The cost fields are what the budget check prices: ``header_ns`` and
    ``completion_ns`` are flat, the payload handler scales with packet
    size (it walks the bytes).  Any handler may be ``None`` (skipped,
    costs nothing).
    """

    header: Optional[Callable] = None
    payload: Optional[Callable] = None
    completion: Optional[Callable] = None
    header_ns: int = 200
    payload_ns_per_byte: float = 0.25
    completion_ns: int = 150

    def projected_ns(self, size_bytes: int) -> int:
        """Worst-case handler-chain time for one packet of this size."""
        total = 0
        if self.header is not None:
            total += self.header_ns
        if self.payload is not None:
            total += round(size_bytes * self.payload_ns_per_byte)
        if self.completion is not None:
            total += self.completion_ns
        return total


class SpinNic(Nic):
    """A NIC whose receive path runs sPIN handler chains."""

    def __init__(self, sim: Simulator, bus: Bus,
                 spec: Optional[DeviceSpec] = None) -> None:
        super().__init__(sim, bus, spec or SpinNicSpec())
        if not self.spec.has_feature(SPIN_FEATURE):
            raise DeviceError(
                f"{self.name}: SpinNic needs the {SPIN_FEATURE!r} feature "
                "(use SpinNicSpec)")
        self._spin: Optional[SpinHandlers] = None
        self.budget_ns = DEFAULT_BUDGET_NS
        # Per-verdict accounting.
        self.spin_handled = 0          # packets that entered the chain
        self.spin_dropped = 0          # filtered in-network
        self.spin_to_host = 0          # escalated by a handler verdict
        self.spin_consumed = 0         # fully absorbed on the NIC
        self.budget_overruns = 0       # punted by the budget check
        self.handler_ns_total = 0      # cycles actually spent in handlers

    # -- handler management ------------------------------------------------------

    def install_handlers(self, handlers: SpinHandlers,
                         budget_ns: int = DEFAULT_BUDGET_NS) -> None:
        """Install a packet program with a per-packet cycle budget."""
        if budget_ns <= 0:
            raise DeviceError(f"{self.name}: budget must be positive")
        self._spin = handlers
        self.budget_ns = budget_ns
        self.install_rx_offload(self._spin_chain)

    def remove_handlers(self) -> None:
        """Restore the pure host receive path."""
        self._spin = None
        self.remove_rx_offload()

    def fence(self) -> None:
        """Recovery reset: handlers die with the firmware."""
        super().fence()
        self._spin = None

    @property
    def handlers_installed(self) -> bool:
        """True while a packet program is active."""
        return self._spin is not None

    # -- the packet program ------------------------------------------------------

    def _spin_chain(self, packet) -> Generator[Event, None, object]:
        """The rx-offload body: run the chain within the budget.

        Returns ``False`` (→ host path) on budget overrun or a TO_HOST
        verdict; anything else means the packet terminated on the NIC.
        """
        spin = self._spin
        if spin is None:
            return False
        size = getattr(packet, "size_bytes", 0)
        if spin.projected_ns(size) > self.budget_ns:
            # The budget check runs *before* the chain (admission, not
            # preemption): NIC firmware cannot roll back a half-run
            # handler, so oversized packets never enter it.
            self.budget_overruns += 1
            return False
        self.spin_handled += 1
        verdict = None
        spent = 0
        if spin.header is not None:
            yield from self.run_on_device(spin.header_ns,
                                          context="spin-header")
            spent += spin.header_ns
            verdict = spin.header(packet)
        if verdict is None and spin.payload is not None:
            cost = round(size * spin.payload_ns_per_byte)
            yield from self.run_on_device(max(1, cost),
                                          context="spin-payload")
            spent += cost
            verdict = spin.payload(packet)
        if spin.completion is not None:
            yield from self.run_on_device(spin.completion_ns,
                                          context="spin-completion")
            spent += spin.completion_ns
            spin.completion(packet)
        self.handler_ns_total += spent
        if verdict == DROP:
            self.spin_dropped += 1
            return True
        if verdict == TO_HOST:
            self.spin_to_host += 1
            return False
        self.spin_consumed += 1
        return True
