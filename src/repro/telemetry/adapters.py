"""The conservation laws as checkable predicates.

Subsystems count straight into their simulator's ``sim.metrics``; this
module only keeps the stable import path of the two law checks.  Each
law is a :class:`~repro.telemetry.metrics.Law` evaluated by
:meth:`~repro.telemetry.metrics.Law.check` — through
:func:`repro.core.channel.conservation` and
:meth:`repro.rdma.verbs.RdmaStats.violations`, which also feed the
exported imbalance and violation gauges.
"""

from __future__ import annotations

from typing import List

from repro.core.channel import conservation

__all__ = ["check_channel_conservation", "check_rdma_conservation"]


def check_channel_conservation(executive) -> List[str]:
    """Violations of the channel law (``sent == delivered + dropped``
    on every noise-armed reliable channel) over ``executive.channels``;
    empty = law holds."""
    return conservation(executive.channels)[1]


def check_rdma_conservation(provider) -> List[str]:
    """Violations of the one-sided law (``posted == completed +
    failed``) for one RDMA provider; empty = law holds."""
    return provider.stats.violations(provider.name)
