"""Deterministic fan-out of shard work across processes.

The counterexample suite cuts its family pairs and its samples each into
one contiguous shard per worker, so shard bounds depend on the
configuration and the usable CPUs, and runs all of them in one pool.
The merge runs in shard order, never completion order, which keeps the
report independent of both: jobs=4 gives exactly the report of jobs=1.
The census hands its one walk to ``run_shards`` at one job.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

A = TypeVar("A")
R = TypeVar("R")


def run_shards(worker: Callable[[A], R], shard_args: Sequence[A], jobs: int) -> list[R]:
    """Map worker over shards in order on _workers(jobs, shards) processes, or here at one."""
    workers = _workers(jobs, len(shard_args))
    if workers <= 1:
        return [worker(args) for args in shard_args]
    # Imported here so that a run which starts no pool never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, shard_args))


def _workers(jobs: int, items: int) -> int:
    """min(jobs, items, CPUs this process may run on), with jobs below 1 read as 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(max(jobs, 1), items, cpus)


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Cut range(total) into _workers(parts, total) contiguous nonempty, balanced chunks."""
    parts = _workers(parts, total)
    base, extra = divmod(total, max(parts, 1))
    cuts = [i * base + min(i, extra) for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))
