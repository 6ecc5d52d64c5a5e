"""Deterministic fan-out of shard work across processes.

Suites split their work into contiguous shards whose boundaries depend
only on the configuration, run each shard independently, and merge the
results in shard order.  Because the merge never looks at completion
order, a run with jobs=4 produces exactly the same report as jobs=1.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

A = TypeVar("A")
R = TypeVar("R")


def run_shards(worker: Callable[[A], R], shard_args: Sequence[A], jobs: int) -> list[R]:
    """Map worker over shards, in parallel when jobs > 1, preserving order.

    The pool never holds more workers than this process may run on CPUs
    at once; the shards (and so the results) still follow ``jobs``.
    """
    if jobs <= 1 or len(shard_args) <= 1:
        return [worker(args) for args in shard_args]
    workers = min(jobs, len(shard_args), _usable_cpus())
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
    parts = max(1, min(parts, total)) if total > 0 else 1
    base, extra = divmod(total, parts)
    bounds = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds or [(0, 0)]
