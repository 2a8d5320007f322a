"""The eager timer tick: the oracle the lazy kernel tick is tested against.

Before the tick became lazy, every host kernel ran a ``<host>-ticks``
process: sleep one tick period, count the tick, touch kernel text in
the L2, then run the ISR on the CPU.  That process spends three queue
entries per tick.  :func:`eager_ticks` brings it back for the kernels
started inside the block, so tests can check that the lazy tick
computes exactly the same run.

The process keeps the lazy tick's tie rule: its wake and the end of its
ISR are queue entries at the kernel's tick priority, below every other
entry at that instant, so the timer interrupt is taken first when it
starts and when it ends.  Both are fused continuations, like the bare
integer sleeps the loop used before, so the run pops the same number of
entries and resumes the same number of them on the fused path as that
loop did.
"""

from contextlib import contextmanager
from unittest import mock

from repro.hostos.kernel import Kernel
from repro.sim.engine import Event


def _tick_loop(kernel, process):
    sim = kernel.sim
    cpu = kernel.cpu
    config = kernel.config
    cost = config.tick_cost_ns

    def first_at(delay):
        # A fused continuation at the tick priority.  The process parks
        # on an Event that never triggers; the queue entry resumes it.
        process[0]._cont_seq = sim._insert(sim.now + delay, kernel._priority,
                                           process[0])
        return Event(sim)

    while True:
        yield first_at(config.scheduler.tick_ns)
        kernel._ticks += 1
        kernel.l2.touch_range(config.kernel_text_base, 512)
        yield cpu._resource.request()
        yield first_at(cost)
        cpu._resource.release()
        cpu._charge(cost, "kernel-tick")


def _start_eager(kernel):
    process = []
    process.append(kernel.sim.spawn(_tick_loop(kernel, process),
                                    name=f"{kernel.machine.name}-ticks"))


@contextmanager
def eager_ticks():
    """Kernels started inside the block run the eager tick process."""
    with mock.patch.object(Kernel, "_start_ticks", _start_eager):
        yield
