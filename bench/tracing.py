"""In-process tracer for the benchmark's traced runs.

The tracer wraps functions from the outside, so the program under test
is never edited.  Every wrapped function gets aggregate statistics:
call count, self time and inclusive time.  Functions at suite, phase
and shard boundaries also record a span (name, start, end, parent);
hot leaf functions get only the aggregates, because a span per call
would cost more than the call.

Self time is a frame's duration minus the part of it covered by wrapped
children.  Calls on one thread nest strictly, so that coverage is the
sum of the direct children's durations.  Inclusive time counts only
the outermost call of a name, so recursion is not counted twice.

Shards that a process pool runs elsewhere keep their own statistics:
the shard wrapper starts a fresh collection, stores it in the shard's
result dictionary under ``SHARD_KEY``, and the ``run_shards`` wrapper
removes it again before the program sees the results, merging it into
the parent's tracer.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

SHARD_KEY = "__bench_trace__"


@dataclass
class Stat:
    """Aggregates for one traced name."""

    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """Collects per-name aggregates and boundary spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict[str, Any]] = []
        self._stack: list[list] = []  # [name, start, child_s, span_index]
        self._depth: dict[str, int] = {}

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def enter(self, name: str, span: bool = False, count: bool = True) -> list:
        if count:
            self.stat(name).calls += 1
        span_index = None
        if span:
            parent = self._stack[-1][3] if self._stack else None
            span_index = len(self.spans)
            self.spans.append({"name": name, "start": 0.0, "end": 0.0, "parent": parent})
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0, span_index]
        self._stack.append(frame)
        frame[1] = self.clock()
        if span_index is not None:
            self.spans[span_index]["start"] = frame[1]
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError("tracer frames exited out of order")
        name, start, child_s, span_index = frame
        duration = end - start
        stat = self.stat(name)
        stat.self_s += duration - child_s
        self._depth[name] -= 1
        if self._depth[name] == 0:
            stat.incl_s += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_index is not None:
            self.spans[span_index]["end"] = end
        return duration

    def detach(self) -> tuple:
        """Start a fresh collection; returns the state to restore later."""
        saved = (self.stats, self.spans, self._stack, self._depth)
        self.stats, self.spans, self._stack, self._depth = {}, [], [], {}
        return saved

    def reattach(self, saved: tuple) -> dict[str, Any]:
        """Restore a detached state; returns what was collected meanwhile."""
        collected = self.export()
        self.stats, self.spans, self._stack, self._depth = saved
        return collected

    def export(self) -> dict[str, Any]:
        return {
            "stats": {
                name: {
                    "calls": s.calls,
                    "self_s": s.self_s,
                    "incl_s": s.incl_s,
                    "counters": dict(s.counters),
                }
                for name, s in self.stats.items()
            },
            "spans": list(self.spans),
        }

    def merge(self, collected: dict[str, Any]) -> None:
        """Add another collection's aggregates and spans to this one."""
        for name, data in collected["stats"].items():
            stat = self.stat(name)
            stat.calls += data["calls"]
            stat.self_s += data["self_s"]
            stat.incl_s += data["incl_s"]
            for key, value in data["counters"].items():
                stat.count(key, value)
        parent = self._stack[-1][3] if self._stack else None
        offset = len(self.spans)
        for span in collected["spans"]:
            own = span["parent"]
            self.spans.append({**span, "parent": parent if own is None else own + offset})

    # -- wrappers -------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        span: bool = False,
        before: Callable[[Stat, tuple], None] | None = None,
        after: Callable[[Stat, Any], None] | None = None,
    ) -> Callable:
        """A traced stand-in for fn; optional hooks see the arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.stat(name), args)
            frame = self.enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if after is not None:
                after(self.stat(name), result)
            return result

        return wrapper

    def wrap_generator(
        self, name: str, fn: Callable, before: Callable[[Stat, tuple], None] | None = None
    ) -> Callable:
        """Like wrap, for a generator: times each resumption, counts items."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self.stat(name)
            stat.calls += 1
            if before is not None:
                before(stat, args)
            inner = fn(*args, **kwargs)
            while True:
                frame = self.enter(name, count=False)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                stat.count("items")
                yield item

        return wrapper

    def wrap_shard(self, name: str, fn: Callable[[Any], dict]) -> Callable[[Any], dict]:
        """Trace a shard worker into a fresh collection carried by its result."""

        @functools.wraps(fn)
        def wrapper(args):
            saved = self.detach()
            frame = self.enter(name, span=True)
            try:
                result = fn(args)
            finally:
                busy = self.exit(frame)
                collected = self.reattach(saved)
            result[SHARD_KEY] = {"pid": os.getpid(), "busy_s": busy, **collected}
            return result

        return wrapper

    def wrap_run_shards(self, name: str, fn: Callable) -> Callable:
        """Trace the shard fan-out: shard count, busy time, imbalance, overhead."""

        @functools.wraps(fn)
        def wrapper(worker, shard_args, jobs):
            frame = self.enter(name, span=True)
            try:
                results = fn(worker, shard_args, jobs)
                busy = []
                for result in results:
                    payload = result.pop(SHARD_KEY, None) if isinstance(result, dict) else None
                    if payload is None:
                        continue
                    busy.append(payload["busy_s"])
                    if payload["pid"] == os.getpid():
                        frame[2] += payload["busy_s"]  # ran inline: a child, not self time
                    self.merge(payload)
            finally:
                wall = self.exit(frame)
            stat = self.stat(name)
            if busy:
                stat.count("shards", len(busy))
                stat.count("busy_s", sum(busy))
                stat.count("overhead_s", wall - max(busy))
                mean = sum(busy) / len(busy)
                imbalance = max(busy) / mean if mean > 0 else 1.0
                stat.counters["imbalance"] = max(stat.counters.get("imbalance", 0.0), imbalance)
            return results

        return wrapper


def replace_everywhere(modules, original: Any, replacement: Any) -> None:
    """Rebind every module-level name bound to ``original``.

    ``from .x import f`` gives the importing module its own binding, so
    patching only the defining module would miss those callers.
    """
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
