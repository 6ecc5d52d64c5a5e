import errno
import os
import signal
import time

import pytest

from comaxlab.parallel import run_shards, split_range


def test_split_range_covers_exactly(monkeypatch):
    for cpus in (1, 2, 3, 1000):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for total in (0, 1, 5, 16, 19683):
            for parts in (1, 2, 4, 7):
                chunks = split_range(total, parts)
                flat = [i for lo, hi in chunks for i in range(lo, hi)]
                assert flat == list(range(total))
                assert all(lo < hi for lo, hi in chunks)
                assert len(chunks) == min(parts, total, cpus)


def test_split_range_is_contiguous_and_balanced(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    chunks = split_range(10, 4)
    assert chunks == [(0, 3), (3, 6), (6, 8), (8, 10)]


def test_split_range_cuts_one_chunk_per_usable_cpu(monkeypatch):
    # A million jobs on two usable CPUs cut two chunks, not a million tuples.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert split_range(10**6, 10**6) == [(0, 500_000), (500_000, 10**6)]


def square_sum(args):
    lo, hi = args
    return sum(i * i for i in range(lo, hi))


def test_run_shards_sequential_equals_parallel():
    shards = split_range(1000, 4)
    sequential = run_shards(square_sum, shards, jobs=1)
    parallel = run_shards(square_sum, shards, jobs=4)
    assert sequential == parallel
    assert sum(sequential) == sum(i * i for i in range(1000))
    assert run_shards(square_sum, [], jobs=4) == []


def test_pool_is_capped_at_the_usable_cpus(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    shards = split_range(5000, 5000)
    assert shards == [(0, 1667), (1667, 3334), (3334, 5000)]
    assert run_shards(square_sum, shards, jobs=5000) == run_shards(square_sum, shards, jobs=1)
    assert run_shards(square_sum, split_range(10, 2), jobs=2) == [30, 255]
    assert pool_sizes == [3, 2]


def test_pool_cap_falls_back_to_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_shards(square_sum, split_range(100, 50), jobs=50)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_shards(square_sum, split_range(100, 50), jobs=50)
    assert pool_sizes == [4]


def test_one_usable_cpu_runs_the_shards_in_process(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    shards = split_range(1000, 4)
    assert len(shards) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_shards(square_sum, shards, jobs=4) == run_shards(square_sum, shards, jobs=1)
    assert pool_sizes == []


# The tests below fork real workers.  Each must end within a minute, and
# after each no child may be left unreaped: waitpid must find none.


def deadlock(signum, frame):
    raise TimeoutError("the caller and a child wait on each other")


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs on any host, an alarm a minute on, and no child left after."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    previous = signal.signal(signal.SIGALRM, deadlock)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shard_and_pid(k):
    return k, os.getpid()


def test_shard_k_runs_on_worker_k_mod_workers_and_the_caller_is_worker_0(three_cpus):
    results = run_shards(shard_and_pid, range(7), jobs=3)
    assert [k for k, _ in results] == list(range(7))
    pids = [pid for _, pid in results]
    assert pids[::3] == [os.getpid()] * 3
    assert pids[1::3] == [pids[1]] * 2 and pids[2::3] == [pids[2]] * 2
    assert len(set(pids)) == 3


def fail_on_shard_one(k):
    if k == 1:
        raise ValueError("shard 1 cannot be checked")
    return k


def test_a_child_shard_exception_reaches_the_caller(three_cpus):
    with pytest.raises(ValueError, match="^shard 1 cannot be checked$"):
        run_shards(fail_on_shard_one, range(3), jobs=3)


def fail_here_after_the_children_start(k):
    if k == 0:
        raise KeyError("the caller's own shard")
    time.sleep(0.2)  # the children are still running when the caller raises
    return k


def test_an_exception_in_the_callers_share_still_reaps_every_child(three_cpus):
    with pytest.raises(KeyError, match="the caller's own shard"):
        run_shards(fail_here_after_the_children_start, range(3), jobs=3)


def exit_without_results(k):
    if k == 1:
        os._exit(3)
    return k


def test_a_child_that_exits_without_results_is_an_error_naming_its_status(three_cpus):
    with pytest.raises(RuntimeError, match="exit code 3 without results"):
        run_shards(exit_without_results, range(3), jobs=3)


def large_result(k):
    return str(k) * (3 << 20)


def test_results_larger_than_a_pipe_come_back_whole(three_cpus):
    # Each child's result is over 1 MiB, far more than a pipe holds, so
    # each child blocks writing until the caller reads its pipe.
    assert run_shards(large_result, range(6), jobs=3) == [large_result(k) for k in range(6)]


def open_fds():
    """How many descriptors this process holds, or None where /proc/self/fd is missing."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_a_failed_fork_closes_its_pipe_and_reaps_the_child_before_it(three_cpus, monkeypatch):
    # The second fork fails as it would at a process limit; the fixture
    # checks that the first child was reaped.
    real_fork, calls = os.fork, []

    def fork_fails_second():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_fails_second)
    before = open_fds()
    with pytest.raises(OSError) as failed:
        run_shards(shard_and_pid, range(3), jobs=3)
    assert failed.value.errno == errno.EAGAIN
    assert open_fds() == before
