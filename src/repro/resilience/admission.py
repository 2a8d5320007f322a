"""Priority-aware admission control for the Channel Executive.

When a device brownouts (retransmit storm, saturated firmware CPU), the
worst response is to keep queueing: every parked call holds a window
slot and a sequencer turn, and the backlog outlives the brownout.  The
supervisor instead *sheds at the submission edge*: while engaged, calls
on channels below the protected priority are refused immediately with
:class:`~repro.errors.AdmissionShedError`.

Channel priorities follow the OOB convention
(:class:`~repro.core.channel.ChannelConfig`): 0 is the low-priority OOB
class, the default application class is 1, and anything the operator
marks latency-critical sits above that.  Shedding applies only to the
*call* path (``send_call``); raw endpoint writes — OOB management
traffic, checkpoint shipping, the data plane — are never shed, so the
machinery that ends a brownout cannot be starved by it.

The controller is attached to a
:class:`~repro.core.executive.ChannelExecutive`, which stamps it onto
every channel it creates; ``engaged`` flips are O(1) and observed by
every channel immediately.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["AdmissionController"]


class AdmissionController:
    """Engage/disengage load shedding; count what was refused."""

    def __init__(self, protect_priority: int = 2) -> None:
        # Calls on channels with priority < protect_priority are shed
        # while engaged; >= passes untouched.
        self.protect_priority = protect_priority
        self.engaged = False
        self.engagements = 0
        self.shed_by_priority: Dict[int, int] = {}

    @property
    def shed_total(self) -> int:
        """Calls refused across all priorities."""
        return sum(self.shed_by_priority.values())

    def engage(self) -> None:
        """Start shedding (idempotent)."""
        if self.engaged:
            return
        self.engaged = True
        self.engagements += 1

    def disengage(self) -> None:
        """Stop shedding (idempotent)."""
        self.engaged = False

    def admit(self, priority: int) -> bool:
        """Admission decision for one call on a channel of ``priority``."""
        if self.engaged and priority < self.protect_priority:
            self.shed_by_priority[priority] = (
                self.shed_by_priority.get(priority, 0) + 1)
            return False
        return True
