"""Supervised shard dispatch: crash-safe workers with retry and hedging.

``multiprocessing.Pool`` treats a dead worker as a protocol error: one
OOM-killed process and ``imap_unordered`` hangs or tears the whole run
down.  For a fleet run that shards millions of simulated subscribers
across hosts, partial failure is the *normal* case ("Fine-Grained
Computation Offload for Off-the-Shelf Servers" makes the same point for
deadline-bound offload), so the dispatcher here is built around it:

* **each worker owns a duplex pipe** — the parent assigns one task at a
  time to a specific process, so it always knows which shard a dead or
  wedged worker was holding;
* **death detection** via the process sentinel / ``exitcode`` (and EOF
  on the pipe): the dispatch is failed, the worker replaced, and the
  shard retried with capped exponential backoff up to
  ``max_retries`` extra attempts;
* **wall-clock timeouts**: a shard that exceeds ``shard_timeout_s`` is
  presumed wedged — its worker is killed and replaced, and the shard
  retried like any other failure;
* **quarantine**: a shard that exhausts its attempts is recorded as a
  :class:`TaskFailure` instead of poisoning the run — callers decide
  whether a partial result is acceptable (the fleet runner degrades
  into a ``degraded=true`` report);
* **hedging**: once the queue is drained and workers sit idle, the
  slowest straggler is speculatively duplicated onto an idle worker and
  the first result wins.  This is safe exactly because shard results
  are deterministic functions of ``(fleet_seed, shard_id)`` — a hedged
  run stays byte-identical to an unhedged one.

``workers=1`` runs the same retry/quarantine state machine sequentially
in-process and never touches multiprocessing (pinned by
``tests/test_evaluation_supervised.py``); chaos injection there raises
instead of exiting, so even the kill path is testable without a fork.
``workers=None`` means one worker per available CPU
(:func:`default_workers`), resolved here and nowhere else.

This is the only module in ``repro`` that forks: the fleet's shards
and the rate and chunk sweeps' points all dispatch through
:class:`SupervisedPool`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait as _wait_ready
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from repro.errors import ReproError
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["SupervisionPolicy", "SupervisionStats", "TaskFailure",
           "SupervisedPool", "default_workers", "fork_context"]


def default_workers() -> int:
    """Worker count for ``workers=None``: one per *available* CPU.

    "Available" means the process's CPU affinity mask, not the machine's
    CPU count — in a cgroup-pinned CI container ``os.cpu_count()``
    reports the host's cores while the runner may hold a single one, and
    oversubscribing fork workers there is strictly slower.  Platforms
    without ``sched_getaffinity`` (macOS) fall back to the CPU count.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, cpus)


def fork_context():
    """The ``fork`` multiprocessing context, or a clear error without it.

    Workers rely on fork inheritance: they reuse the parent's imported
    modules, and closures over rich configs never pickle.  Requesting
    the context lazily inside the dispatch would crash with an opaque
    ``ValueError`` on spawn-only platforms — fail up front instead,
    naming the fix.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:
        raise ReproError(
            "this platform has no 'fork' start method (Windows, or a "
            "spawn-only build); run with workers=1 instead"
        ) from exc


@dataclass(frozen=True)
class SupervisionPolicy:
    """Fault-handling knobs of one supervised dispatch."""

    # Extra attempts after the first (so a shard is dispatched at most
    # ``max_retries + 1`` times, hedges included).
    max_retries: int = 2
    # Capped exponential backoff before retry attempt k (k >= 1):
    # min(cap, base * 2**(k-1)).
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    # Wall-clock budget per dispatch; None disables the watchdog.
    shard_timeout_s: Optional[float] = None
    # Speculative duplicates of stragglers once the queue is drained.
    hedge: bool = True
    # Minimum age of a dispatch before it qualifies as a straggler.
    hedge_after_s: float = 0.5
    # Supervisor poll interval (result wait + liveness scan cadence).
    poll_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ReproError(
                f"backoff_base_s must be >= 0: {self.backoff_base_s}")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ReproError(
                f"backoff_cap_s ({self.backoff_cap_s}) below backoff_base_s "
                f"({self.backoff_base_s})")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ReproError(
                f"shard_timeout_s must be positive: {self.shard_timeout_s}")
        if self.hedge_after_s < 0:
            raise ReproError(
                f"hedge_after_s must be >= 0: {self.hedge_after_s}")
        if self.poll_s <= 0:
            raise ReproError(f"poll_s must be positive: {self.poll_s}")

    def backoff_s(self, attempt: int) -> float:
        """Delay before dispatching retry ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class SupervisionStats:
    """What the supervisor had to do during one dispatch (a view over
    the pool's counters)."""

    retries: int = 0           # re-dispatches scheduled after a failure
    hedges: int = 0            # speculative straggler duplicates launched
    hedge_wins: int = 0        # hedges that returned before the original
    timeouts: int = 0          # dispatches reaped by the wall-clock watchdog
    worker_deaths: int = 0     # workers found dead (exitcode/sentinel/EOF)
    workers_replaced: int = 0  # replacement workers spawned
    quarantined: int = 0       # tasks abandoned after exhausting attempts

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (the report/artifact form)."""
        return asdict(self)


# The counter family behind each SupervisionStats field.
_FAMILIES = {
    "retries": ("repro_fleet_shard_retries_total",
                "Shard dispatches retried after a failure or timeout"),
    "hedges": ("repro_fleet_shard_hedges_total",
               "Speculative straggler duplicates launched"),
    "hedge_wins": ("repro_fleet_shard_hedge_wins_total",
                   "Hedged duplicates that returned before the original"),
    "timeouts": ("repro_fleet_shard_timeouts_total",
                 "Shard dispatches reaped by the wall-clock watchdog"),
    "worker_deaths": ("repro_fleet_worker_deaths_total",
                      "Worker processes found dead and replaced"),
    "workers_replaced": ("repro_fleet_workers_replaced_total",
                         "Replacement worker processes spawned"),
    "quarantined": ("repro_fleet_shard_quarantined_total",
                    "Shards abandoned after exhausting retries"),
}


@dataclass
class TaskFailure:
    """A task abandoned after exhausting its attempts (quarantined)."""

    task_id: int
    key: Hashable                  # the caller-facing task key
    attempts: int
    errors: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line quarantine reason for reports and error messages."""
        last = self.errors[-1] if self.errors else "no error recorded"
        return (f"task {self.key}: quarantined after {self.attempts} "
                f"attempt(s); last error: {last}")


class _Slot:
    """One worker process and the dispatch it currently holds."""

    __slots__ = ("process", "conn", "task_id", "attempt", "started_at",
                 "hedged")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task_id: Optional[int] = None
        self.attempt = 0
        self.started_at = 0.0
        self.hedged = False

    @property
    def idle(self) -> bool:
        return self.task_id is None


def _worker_main(fn, chaos, conn) -> None:
    """Worker loop: one task at a time over the slot's pipe.

    The chaos hook runs *before* the task body — a chaos kill exits the
    process exactly as an OOM kill would, mid-pickup, and the parent
    learns of it only through the sentinel/EOF, never a reply.
    """
    while True:
        try:
            msg = conn.recv()
        except EOFError:            # parent went away
            return
        if msg is None:             # orderly shutdown
            conn.close()
            return
        task_id, key, attempt, payload = msg
        try:
            if chaos is not None:
                chaos.apply(key, attempt)
            result = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            conn.send((task_id, attempt, False,
                       f"{type(exc).__name__}: {exc}"))
        else:
            conn.send((task_id, attempt, True, result))


class SupervisedPool:
    """Crash-safe task dispatch over replaceable fork workers.

    ``run(items)`` returns ``{task_id: result}`` for every task that
    completed; tasks that exhausted their attempts land in
    ``self.failures`` (``{task_id: TaskFailure}``) and what the
    supervisor did is counted in ``self.metrics``, a fresh
    :class:`~repro.telemetry.metrics.MetricsRegistry` per ``run`` that
    ``self.stats`` reads.  ``completion_order``
    lists task ids in the order their first successful result arrived.

    ``chaos`` is consulted per ``(task key, attempt)`` pick — see
    :class:`repro.faults.fleet.FleetChaos` — and ``task_keys`` maps the
    dense internal task ids onto caller-facing keys (shard ids for the
    fleet), so chaos addressing survives a partial resume.
    ``self.workers`` is the resolved worker count (``None`` becomes
    :func:`default_workers`).
    """

    def __init__(self, fn: Callable, workers: Optional[int],
                 policy: Optional[SupervisionPolicy] = None,
                 chaos=None,
                 task_keys: Optional[Sequence[Hashable]] = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.fn = fn
        self.workers = workers
        self.policy = policy or SupervisionPolicy()
        self.chaos = chaos
        self.task_keys = list(task_keys) if task_keys is not None else None
        self._reset()
        # Test seams: patched by the unit tests to avoid real sleeping.
        self._clock = time.monotonic
        self._sleep = time.sleep

    def _reset(self) -> None:
        """Fresh counters and outcome records for one dispatch."""
        self.metrics = MetricsRegistry()
        self._count = {name: self.metrics.counter(family, text).labels()
                       for name, (family, text) in _FAMILIES.items()}
        self.failures: Dict[int, TaskFailure] = {}
        self.completion_order: List[int] = []

    @property
    def stats(self) -> SupervisionStats:
        """What the supervisor did during the last ``run``."""
        return SupervisionStats(**{name: counter.value for name, counter
                                   in self._count.items()})

    # -- public entry ---------------------------------------------------------

    def run(self, items: Sequence) -> Dict[int, Any]:
        """Dispatch every item; return ``{task_id: result}``."""
        items = list(items)
        if self.task_keys is not None and len(self.task_keys) != len(items):
            raise ReproError(
                f"task_keys length {len(self.task_keys)} != items "
                f"{len(items)}")
        self._reset()
        if not items:
            return {}
        if self.workers == 1:
            return self._run_sequential(items)
        return self._run_supervised(items)

    def _key(self, task_id: int) -> Hashable:
        if self.task_keys is not None:
            return self.task_keys[task_id]
        return task_id

    # -- in-process path (workers=1: no multiprocessing, same policy) ---------

    def _run_sequential(self, items: Sequence) -> Dict[int, Any]:
        from repro.faults.fleet import ChaosStall     # local: cycle guard
        results: Dict[int, Any] = {}
        for task_id, item in enumerate(items):
            errors: List[str] = []
            attempt = 0
            while True:
                try:
                    if self.chaos is not None:
                        self.chaos.apply(self._key(task_id), attempt,
                                         in_process=True)
                    results[task_id] = self.fn(item)
                    self.completion_order.append(task_id)
                    break
                except Exception as exc:    # noqa: BLE001 - retried below
                    if isinstance(exc, ChaosStall):
                        self._count["timeouts"].inc()
                    errors.append(f"attempt {attempt}: "
                                  f"{type(exc).__name__}: {exc}")
                    attempt += 1
                    if attempt > self.policy.max_retries:
                        self.failures[task_id] = TaskFailure(
                            task_id, self._key(task_id), attempt, errors)
                        self._count["quarantined"].inc()
                        break
                    self._count["retries"].inc()
                    backoff = self.policy.backoff_s(attempt)
                    if backoff > 0:
                        self._sleep(backoff)
        return results

    # -- supervised multi-worker path -----------------------------------------

    def _spawn(self, ctx) -> _Slot:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=_worker_main,
                              args=(self.fn, self.chaos, child_conn),
                              daemon=True)
        process.start()
        child_conn.close()
        return _Slot(process, parent_conn)

    def _run_supervised(self, items: Sequence) -> Dict[int, Any]:
        ctx = fork_context()
        n = len(items)
        policy = self.policy
        results: Dict[int, Any] = {}
        errors: List[List[str]] = [[] for _ in range(n)]
        next_attempt = [0] * n     # attempts consumed (dispatches launched)
        active = [0] * n           # dispatches currently in flight
        pending = deque(range(n))  # ready to dispatch now
        delayed: List[Tuple[float, int]] = []   # (ready_at, task_id) retries

        slots = [self._spawn(ctx) for _ in range(min(self.workers, n))]

        def resolved(task_id: int) -> bool:
            return task_id in results or task_id in self.failures

        def dispatch(slot: _Slot, task_id: int, hedged: bool) -> None:
            attempt = next_attempt[task_id]
            next_attempt[task_id] += 1
            active[task_id] += 1
            slot.task_id = task_id
            slot.attempt = attempt
            slot.started_at = self._clock()
            slot.hedged = hedged
            msg = (task_id, self._key(task_id), attempt, items[task_id])
            try:
                slot.conn.send(msg)
            except (BrokenPipeError, OSError):
                # The worker died idle; replace it and send once more —
                # a second failure is a real dispatch failure.  replace()
                # marks the slot idle, so the dispatch state must be
                # restored or the supervisor would assign this worker a
                # second task and never poll for this dispatch's result.
                self._count["worker_deaths"].inc()
                replace(slot)
                slot.task_id = task_id
                slot.attempt = attempt
                slot.started_at = self._clock()
                slot.hedged = hedged
                slot.conn.send(msg)

        def replace(slot: _Slot) -> None:
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=5.0)
            if slot.process.is_alive():    # pragma: no cover - stuck kill
                slot.process.kill()
                slot.process.join(timeout=5.0)
            try:
                slot.conn.close()
            except OSError:                # pragma: no cover - already gone
                pass
            fresh = self._spawn(ctx)
            slot.process, slot.conn = fresh.process, fresh.conn
            slot.task_id = None
            self._count["workers_replaced"].inc()

        def fail_dispatch(task_id: int, attempt: int, reason: str) -> None:
            active[task_id] -= 1
            if resolved(task_id):
                return               # hedge sibling already won or failed
            errors[task_id].append(f"attempt {attempt}: {reason}")
            settle(task_id)

        def settle(task_id: int) -> None:
            """After a failed dispatch: retry, wait for a sibling, or
            quarantine."""
            if active[task_id] > 0:
                return               # a hedge/original is still running
            if next_attempt[task_id] > policy.max_retries:
                self.failures[task_id] = TaskFailure(
                    task_id, self._key(task_id), next_attempt[task_id],
                    errors[task_id])
                self._count["quarantined"].inc()
                return
            ready_at = self._clock() + policy.backoff_s(
                next_attempt[task_id])
            delayed.append((ready_at, task_id))
            self._count["retries"].inc()

        def on_result(slot: _Slot, msg) -> None:
            task_id, attempt, ok, payload = msg
            hedged = slot.hedged
            slot.task_id = None
            if ok:
                active[task_id] -= 1
                if not resolved(task_id):
                    results[task_id] = payload
                    self.completion_order.append(task_id)
                    if hedged:
                        self._count["hedge_wins"].inc()
            else:
                fail_dispatch(task_id, attempt, payload)

        def on_death(slot: _Slot) -> None:
            task_id, attempt = slot.task_id, slot.attempt
            self._count["worker_deaths"].inc()
            # Reap before reading the exit status — on the EOF path the
            # zombie hasn't been waited on yet and exitcode is None,
            # which would hide e.g. a chaos kill's distinctive 117.
            slot.process.join(timeout=1.0)
            code = slot.process.exitcode
            replace(slot)
            fail_dispatch(task_id, attempt,
                          f"worker died (exitcode {code})")

        try:
            while len(results) + len(self.failures) < n:
                now = self._clock()
                # Promote due retries.
                if delayed:
                    due = [entry for entry in delayed if entry[0] <= now]
                    if due:
                        delayed[:] = [entry for entry in delayed
                                      if entry[0] > now]
                        for _, task_id in sorted(due):
                            pending.append(task_id)
                # Assign ready tasks to idle workers.
                for slot in slots:
                    if not pending:
                        break
                    if slot.idle:
                        task_id = pending.popleft()
                        if not resolved(task_id):
                            dispatch(slot, task_id, hedged=False)
                # Hedge the slowest straggler onto an idle worker.
                if policy.hedge and not pending and not delayed:
                    idle = [s for s in slots if s.idle]
                    if idle:
                        stragglers = [
                            s for s in slots
                            if not s.idle and not resolved(s.task_id)
                            and active[s.task_id] == 1
                            and next_attempt[s.task_id] <= policy.max_retries
                            and now - s.started_at >= policy.hedge_after_s]
                        if stragglers:
                            slowest = min(stragglers,
                                          key=lambda s: s.started_at)
                            dispatch(idle[0], slowest.task_id, hedged=True)
                            self._count["hedges"].inc()
                # Wait for a result, a death, or the poll tick.
                waitables = []
                for slot in slots:
                    if not slot.idle:
                        waitables.append(slot.conn)
                        waitables.append(slot.process.sentinel)
                if waitables:
                    ready = set(_wait_ready(waitables,
                                            timeout=policy.poll_s))
                    for slot in slots:
                        if slot.idle:
                            continue
                        if slot.conn in ready:
                            try:
                                on_result(slot, slot.conn.recv())
                            except (EOFError, OSError):
                                on_death(slot)
                        elif slot.process.sentinel in ready:
                            on_death(slot)
                else:
                    self._sleep(policy.poll_s)
                # Reap dispatches that blew the wall-clock budget.
                if policy.shard_timeout_s is not None:
                    now = self._clock()
                    for slot in slots:
                        if slot.idle:
                            continue
                        if now - slot.started_at > policy.shard_timeout_s:
                            task_id, attempt = slot.task_id, slot.attempt
                            self._count["timeouts"].inc()
                            replace(slot)
                            fail_dispatch(
                                task_id, attempt,
                                f"timeout after "
                                f"{policy.shard_timeout_s:g}s wall")
        finally:
            for slot in slots:
                if slot.process.is_alive() and slot.idle:
                    try:
                        slot.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
            for slot in slots:
                slot.process.join(timeout=0.5)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=5.0)
                try:
                    slot.conn.close()
                except OSError:          # pragma: no cover - already gone
                    pass
        return results
