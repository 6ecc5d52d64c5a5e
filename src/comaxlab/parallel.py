"""Deterministic fan-out of shard work across processes.

Suites split their work into contiguous shards whose boundaries depend
only on the configuration, run each shard independently, and merge the
results in shard order.  Because the merge never looks at completion
order, a run with jobs=4 produces exactly the same report as jobs=1.
At one job, one shard or one usable CPU, no pool is started.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

A = TypeVar("A")
R = TypeVar("R")


def run_shards(worker: Callable[[A], R], shard_args: Sequence[A], jobs: int) -> list[R]:
    """Map worker over shards, preserving order.

    At most min(jobs, shards, usable CPUs) workers run them; at one or
    fewer, they run in this process and no pool is started.
    """
    workers = min(jobs, len(shard_args), _usable_cpus())
    if workers <= 1:
        return [worker(args) for args in shard_args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, shard_args))


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Split range(total) into at most ``parts`` contiguous nonempty chunks."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    bounds = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds
