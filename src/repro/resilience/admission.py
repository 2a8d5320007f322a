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

from repro.telemetry.metrics import Counter

__all__ = ["AdmissionController"]


class AdmissionController:
    """Engage/disengage load shedding; count what was refused.

    Sheds count in place, per priority, into ``metrics``'
    ``repro_admission_shed_total{runtime,priority}`` children when the
    controller belongs to a runtime (the supervisor passes its
    :class:`~repro.core.runtime.RuntimeMetrics`), else into private
    counters.
    """

    def __init__(self, protect_priority: int = 2, metrics=None) -> None:
        # Calls on channels with priority < protect_priority are shed
        # while engaged; >= passes untouched.
        self.protect_priority = protect_priority
        self.engaged = False
        self.engagements = 0
        self._metrics = metrics
        self._shed: Dict[int, Counter] = {}

    @property
    def shed_by_priority(self) -> Dict[int, int]:
        """Calls refused so far, by channel priority (a read-only view)."""
        return {priority: counter.value
                for priority, counter in self._shed.items()}

    @property
    def shed_total(self) -> int:
        """Calls refused across all priorities."""
        return sum(counter.value for counter in self._shed.values())

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
            counter = self._shed.get(priority)
            if counter is None:
                metrics = self._metrics
                counter = self._shed[priority] = (
                    Counter() if metrics is None else
                    metrics.admission_shed.own(runtime=metrics.name,
                                               priority=priority))
            counter.inc()
            return False
        return True
