"""Parallel sweeps must be bit-identical to sequential ones, and survive.

Each sweep point builds its own seeded Testbed, so results depend only on
the task tuple, and the supervised pool hands them back in task order.
These tests pin that contract: a multi-worker run and a sequential run of
the same sweep must agree field for field, not just approximately, even
when a worker dies mid-point.
"""

import os
import signal
from unittest import mock

import pytest

from repro.errors import ReproError
from repro.evaluation import sweeps
from repro.evaluation.supervised import default_workers, fork_context
from repro.evaluation.sweeps import run_chunk_size_sweep, run_rate_sweep

# Short runs keep the suite quick while still exercising the full
# testbed (kernels, NIC rings, measurement client) per point.
_SECONDS = 2.0


def _points_equal(a, b):
    return (a.scenario == b.scenario
            and a.interval_ms == b.interval_ms
            and a.chunk_bytes == b.chunk_bytes
            and a.jitter == b.jitter
            and a.cpu_utilization == b.cpu_utilization
            and a.packets == b.packets)


def _assert_sweeps_equal(sequential, parallel):
    assert list(sequential) == list(parallel)
    for scenario in sequential:
        assert len(sequential[scenario]) == len(parallel[scenario])
        for seq_point, par_point in zip(sequential[scenario],
                                        parallel[scenario]):
            assert _points_equal(seq_point, par_point)


def test_rate_sweep_parallel_matches_sequential():
    kwargs = dict(intervals_ms=(10.0, 5.0), scenarios=("simple", "offloaded"),
                  seconds=_SECONDS, seed=3)
    _assert_sweeps_equal(run_rate_sweep(workers=1, **kwargs),
                         run_rate_sweep(workers=2, **kwargs))


def test_chunk_sweep_parallel_matches_sequential():
    kwargs = dict(chunk_sizes=(512, 4096), scenarios=("offloaded",),
                  seconds=_SECONDS, seed=1)
    _assert_sweeps_equal(run_chunk_size_sweep(workers=1, **kwargs),
                         run_chunk_size_sweep(workers=3, **kwargs))


def test_sweep_survives_a_dead_worker(tmp_path, monkeypatch):
    # The first point picked up by a forked worker kills that worker
    # outright, as an OOM kill would: the pool must notice, replace the
    # worker and rerun the point.  A bare multiprocessing.Pool waits
    # forever here, so an alarm turns a regression into a failure.
    marker = tmp_path / "killed"
    parent = os.getpid()
    measure = sweeps._measure

    def dies_once_in_a_child(*args):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(117)
        return measure(*args)

    def hung(signum, frame):
        raise AssertionError("sweep hung after a worker died")

    monkeypatch.setattr(sweeps, "_measure", dies_once_in_a_child)
    kwargs = dict(intervals_ms=(10.0, 5.0), scenarios=("offloaded",),
                  seconds=1.0, seed=4)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        parallel = run_rate_sweep(workers=2, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert marker.exists()
    _assert_sweeps_equal(run_rate_sweep(workers=1, **kwargs), parallel)


def test_sweep_raises_naming_a_lost_point(monkeypatch):
    def broken(scenario, stream, seconds, seed):
        if stream.interval_ns == 5_000_000:
            raise RuntimeError("testbed on fire")
        return measure(scenario, stream, seconds, seed)

    measure = sweeps._measure
    monkeypatch.setattr(sweeps, "_measure", broken)
    with pytest.raises(ReproError, match="offloaded 5 ms 1024 B.*on fire"):
        run_rate_sweep(intervals_ms=(10.0, 5.0), scenarios=("offloaded",),
                       seconds=0.1, workers=1)


def test_default_workers_positive():
    assert default_workers() >= 1


def test_default_workers_respects_affinity():
    # A cgroup-pinned container may expose many CPUs but grant few: the
    # default must follow the affinity mask, not os.cpu_count().
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no sched_getaffinity")
    assert default_workers() == len(os.sched_getaffinity(0))
    with mock.patch("os.sched_getaffinity", return_value={0, 2, 5}):
        assert default_workers() == 3


def test_default_workers_falls_back_without_affinity():
    with mock.patch("repro.evaluation.supervised.os") as fake_os:
        del fake_os.sched_getaffinity      # platform without the call
        fake_os.cpu_count.return_value = 6
        assert default_workers() == 6
        fake_os.cpu_count.return_value = None
        assert default_workers() == 1


def test_fork_context_error_is_clear_without_fork():
    with mock.patch("multiprocessing.get_context",
                    side_effect=ValueError("cannot find context")):
        with pytest.raises(ReproError, match="fork"):
            fork_context()


def test_single_worker_paths_never_touch_multiprocessing():
    # workers=1 must not even request a start method — the in-process
    # path has to work on spawn-only platforms and under test harnesses
    # that forbid forking.
    with mock.patch("multiprocessing.get_context",
                    side_effect=AssertionError("in-process path forked")):
        results = run_rate_sweep(intervals_ms=(10.0,),
                                 scenarios=("offloaded",),
                                 seconds=_SECONDS, workers=1)
        assert [p.scenario for p in results["offloaded"]] == ["offloaded"]
