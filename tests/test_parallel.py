import os

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
