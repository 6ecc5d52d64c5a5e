"""Deterministic fan-out of shard work across processes.

The counterexample suite cuts its family pairs and its samples each into
one contiguous shard per worker, and hands all of them to one
``run_shards`` call.  Shard ``k`` runs on worker ``k mod workers``, so
each worker gets one family shard and one sample shard.  Worker 0 is
the calling process; the others are forked children, which read what
the caller built before the call (the suite's family table) and send
their results, or their exception, back pickled through a pipe.  The
merge runs in shard order, never completion order, which keeps the
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
    if workers <= 1 or not hasattr(os, "fork"):
        return [worker(args) for args in shard_args]
    return _fork_shards(worker, shard_args, workers)


def _fork_shards(worker: Callable[[A], R], shard_args: Sequence[A], workers: int) -> list[R]:
    """Run shard k on worker k mod workers: worker 0 here, the others in forked children.

    Every child is reaped before this returns or raises.  A child's
    exception is raised here; so is an error naming the exit status of a
    child that ended without sending its results.
    """
    # Imported here so that a run which forks no worker never loads pickle.
    import pickle

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(worker, shard_args[w::workers], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        shares = [[worker(args) for args in shard_args[::workers]]]
    finally:
        # Read every pipe to its end before its child is reaped: a child
        # blocked on a full pipe only finishes once the pipe is read.
        sent = [_reap(pid, read_fd) for pid, read_fd in children]
    for pid, status, data in sent:
        if status != 0 or not data:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"shard worker {pid} ended with exit code {code} without results")
        value = pickle.loads(data)
        if isinstance(value, BaseException):
            raise value
        shares.append(value)
    return [shares[k % workers][k // workers] for k in range(len(shard_args))]


def _child(worker: Callable, shard_args: Sequence, write_fd: int) -> None:
    """Send the list of results, or the exception, through the pipe, then leave the process."""
    import pickle

    code = 1
    try:
        try:
            message = pickle.dumps([worker(args) for args in shard_args])
        except BaseException as exc:
            message = pickle.dumps(exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        # Never return into the caller's stack, and flush none of its buffers.
        os._exit(code)


def _reap(pid: int, read_fd: int) -> tuple[int, int, bytes]:
    """(pid, wait status, bytes sent) of a child, read to the end of its pipe and reaped."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return pid, status, data


def _workers(jobs: int, items: int) -> int:
    """min(jobs, items, CPUs this process may run on), with jobs below 1 read as 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(max(jobs, 1), items, cpus)


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Cut range(total) into _workers(parts, total) contiguous nonempty, balanced chunks."""
    # Capped at the usable CPUs, so --jobs 10**6 cuts no million chunks.
    parts = _workers(parts, total)
    base, extra = divmod(total, max(parts, 1))
    cuts = [i * base + min(i, extra) for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))
