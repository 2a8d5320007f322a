"""Model-based stateful tests (hypothesis RuleBasedStateMachine).

Long random operation interleavings against reference models for the
two allocators whose corruption would silently poison everything above
them: the device memory allocator (loader correctness) and the resource
tree (teardown correctness); and for the supervised dispatcher, whose
retry/quarantine bookkeeping decides what a fleet report contains.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.errors import DeviceMemoryError, ResourceError
from repro.evaluation.supervised import (SupervisedPool, SupervisionPolicy,
                                         TaskFailure)
from repro.faults.fleet import FleetChaos
from repro.hw.device import DeviceMemoryAllocator
from repro.core.resources import ResourceTree

import pytest


class AllocatorMachine(RuleBasedStateMachine):
    """Random alloc/free sequences vs an interval reference model."""

    regions = Bundle("regions")

    def __init__(self):
        super().__init__()
        self.allocator = DeviceMemoryAllocator(capacity=64 * 1024, base=0)
        self.live = {}

    @rule(target=regions, size=st.integers(min_value=1, max_value=9000))
    def allocate(self, size):
        try:
            region = self.allocator.allocate(size, label=f"r{size}")
        except DeviceMemoryError:
            # Only legitimate when a sufficiently large hole is absent.
            assert size > 0
            return None
        assert region.base % 16 == 0 or region.base == 0
        self.live[region.base] = region
        return region

    @rule(region=consumes(regions))
    def free(self, region):
        if region is None:
            return
        if region.base not in self.live:
            with pytest.raises(DeviceMemoryError):
                self.allocator.free(region)
            return
        self.allocator.free(region)
        del self.live[region.base]

    @invariant()
    def no_overlap_and_conserved(self):
        spans = sorted((r.base, r.end) for r in self.live.values())
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        assert (self.allocator.used_bytes
                == sum(r.size for r in self.live.values()))
        assert (self.allocator.used_bytes + self.allocator.free_bytes
                == self.allocator.capacity)


class ResourceTreeMachine(RuleBasedStateMachine):
    """Random track/attach/release sequences vs a parent-map model."""

    nodes = Bundle("nodes")

    def __init__(self):
        super().__init__()
        self.tree = ResourceTree()
        self.counter = 0
        self.parent_of = {}       # name -> parent name or None (root)
        self.alive = set()
        self.finalized = []

    def _descendants(self, name):
        out = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for child, parent in self.parent_of.items():
                if parent == current and child in self.alive:
                    out.add(child)
                    frontier.append(child)
        return out

    @rule(target=nodes)
    def track_root_child(self):
        name = f"n{self.counter}"
        self.counter += 1
        self.tree.track(name, finalizer=lambda n=name:
                        self.finalized.append(n))
        self.parent_of[name] = None
        self.alive.add(name)
        return name

    @rule(target=nodes, parent=nodes)
    def track_child(self, parent):
        if parent not in self.alive:
            return None
        name = f"n{self.counter}"
        self.counter += 1
        self.tree.track(name, parent=self.tree.lookup(parent),
                        finalizer=lambda n=name: self.finalized.append(n))
        self.parent_of[name] = parent
        self.alive.add(name)
        return name

    @rule(name=nodes)
    def release(self, name):
        if name is None:
            return
        if name not in self.alive:
            with pytest.raises(ResourceError):
                self.tree.release(name)
            return
        doomed = self._descendants(name)
        errors = self.tree.release(name)
        assert errors == []
        self.alive -= doomed
        # Every doomed node was finalized exactly once, in total.
        assert set(self.finalized) >= doomed

    @invariant()
    def live_count_matches_model(self):
        assert self.tree.live_count == len(self.alive)

    @invariant()
    def finalizers_ran_once_each(self):
        assert len(self.finalized) == len(set(self.finalized))


def _tenfold(value):
    return value * 10


class SupervisedPoolMachine(RuleBasedStateMachine):
    """Tasks with planned worker kills vs a retry/quarantine model.

    Each task plans ``kills`` chaos kills, one per attempt from attempt
    0.  A task with at most ``max_retries`` of them must return its
    value exactly once; the rest run out of attempts and are
    quarantined.  In-process dispatch (one worker) raises instead of
    killing, so only the forked path counts worker deaths.
    """

    POLICY = SupervisionPolicy(max_retries=1, backoff_base_s=0.0,
                               backoff_cap_s=0.0, hedge=False, poll_s=0.005)

    def __init__(self):
        super().__init__()
        self.kills = []           # planned kills per task, in task order
        self.last = None          # (workers, kills, pool, results)

    @rule(kills=st.integers(0, POLICY.max_retries + 1))
    def add_task(self, kills):
        self.kills.append(kills)

    @rule(workers=st.sampled_from([1, 2]))
    def dispatch(self, workers):
        keys = [f"task-{i}" for i in range(len(self.kills))]
        chaos = FleetChaos(kills=tuple(
            (key, attempt) for key, planned in zip(keys, self.kills)
            for attempt in range(planned)))
        pool = SupervisedPool(_tenfold, workers=workers, policy=self.POLICY,
                              chaos=chaos, task_keys=keys)
        results = pool.run(range(len(keys)))
        self.last = (workers, list(self.kills), pool, results)

    @invariant()
    def dispatch_matches_the_model(self):
        if self.last is None:
            return
        workers, kills, pool, results = self.last
        limit = self.POLICY.max_retries
        survivors = [i for i, planned in enumerate(kills) if planned <= limit]
        assert results == {i: i * 10 for i in survivors}
        assert sorted(pool.completion_order) == survivors
        assert sorted(pool.failures) == [
            i for i, planned in enumerate(kills) if planned > limit]
        for task_id, failure in pool.failures.items():
            assert isinstance(failure, TaskFailure)
            assert failure.key == f"task-{task_id}"
            assert failure.attempts == limit + 1
        expected = {
            "retries": sum(min(planned, limit) for planned in kills),
            "quarantined": len(pool.failures),
            "worker_deaths": 0 if workers == 1 else sum(
                min(planned, limit + 1) for planned in kills),
        }
        stats = pool.stats.as_dict()
        snapshot = pool.metrics.snapshot()
        for name, family in (("retries", "repro_fleet_shard_retries_total"),
                             ("quarantined",
                              "repro_fleet_shard_quarantined_total"),
                             ("worker_deaths",
                              "repro_fleet_worker_deaths_total")):
            (sample,) = snapshot[family]["samples"]
            assert stats[name] == sample["value"] == expected[name], name


TestAllocatorStateful = AllocatorMachine.TestCase
TestAllocatorStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)

TestResourceTreeStateful = ResourceTreeMachine.TestCase
TestResourceTreeStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)

# Forked dispatches dominate the cost: this runs in a few seconds.
TestSupervisedPoolStateful = SupervisedPoolMachine.TestCase
TestSupervisedPoolStateful.settings = settings(
    max_examples=60, stateful_step_count=10, deadline=None)
