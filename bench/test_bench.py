"""Tests of the benchmark itself: tracer arithmetic and correctness checks.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import SHARD_KEY, Tracer  # noqa: E402
from workloads import WORKLOADS, check_step  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    # outer [0, 10] > a [1, 4] > leaf [2, 3];  outer > b [5, 6]
    outer = tracer.enter("outer", span=True)
    clock.now = 1
    a = tracer.enter("a", span=True)
    clock.now = 2
    leaf = tracer.enter("leaf")
    clock.now = 3
    tracer.exit(leaf)
    clock.now = 4
    tracer.exit(a)
    clock.now = 5
    b = tracer.enter("b")
    clock.now = 6
    tracer.exit(b)
    clock.now = 10
    tracer.exit(outer)

    self_s = {name: s.self_s for name, s in tracer.stats.items()}
    assert self_s == {"outer": 6.0, "a": 2.0, "leaf": 1.0, "b": 1.0}
    assert sum(self_s.values()) == tracer.stats["outer"].incl_s == 10.0
    assert [(s["name"], s["start"], s["end"], s["parent"]) for s in tracer.spans] == [
        ("outer", 0, 10, None),
        ("a", 1, 4, 0),
    ]


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("f")
    clock.now = 1
    inner = tracer.enter("f")
    clock.now = 3
    tracer.exit(inner)
    clock.now = 4
    tracer.exit(outer)
    stat = tracer.stats["f"]
    assert (stat.calls, stat.self_s, stat.incl_s) == (2, 4.0, 4.0)


def test_inline_shard_is_a_child_of_run_shards():
    clock = FakeClock()
    tracer = Tracer(clock)

    def shard(args):
        clock.now += args
        return {"tally": args}

    def run_shards(worker, shard_args, jobs):
        return [worker(a) for a in shard_args]

    fan_out = tracer.wrap_run_shards("run_shards", run_shards)
    results = fan_out(tracer.wrap_shard("shard", shard), [1, 3], 1)

    assert results == [{"tally": 1}, {"tally": 3}]  # the trace payload is removed
    assert tracer.stats["shard"].calls == 2
    assert tracer.stats["shard"].self_s == 4.0
    assert tracer.stats["run_shards"].self_s == 0.0
    assert tracer.stats["run_shards"].counters == {
        "shards": 2, "busy_s": 4.0, "overhead_s": 1.0, "imbalance": 1.5,
    }
    assert all(SHARD_KEY not in r for r in results)


def test_generator_wrapper_times_resumptions_and_counts_items():
    clock = FakeClock()
    tracer = Tracer(clock)

    def numbers():
        for i in range(3):
            clock.now += 1
            yield i

    assert list(tracer.wrap_generator("numbers", numbers)()) == [0, 1, 2]
    stat = tracer.stats["numbers"]
    assert (stat.calls, stat.self_s, stat.counters["items"]) == (1, 3.0, 3)


def _census_report():
    from comaxlab import cli

    step = WORKLOADS["finite"].steps[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*step.args, "--seed", "0"])
    return step, code, out.getvalue().encode("utf-8")


def test_check_accepts_the_pinned_report():
    step, code, out = _census_report()
    assert check_step(step, 0, code, out) == []


@pytest.mark.parametrize("position", [0, 40, -2])
def test_check_rejects_one_changed_byte(position):
    step, code, out = _census_report()
    changed = bytearray(out)
    changed[position] = ord("7") if changed[position] != ord("7") else ord("8")
    assert check_step(step, 0, code, bytes(changed))


def test_check_rejects_a_wrong_exit_code():
    step, _, out = _census_report()
    problems = check_step(step, 0, 1, out)
    assert problems == [f"{step.name}: exit code 1, expected 0"]


def test_check_rejects_a_broken_invariant_at_any_seed():
    step, code, out = _census_report()
    report = json.loads(out)
    report["counts"]["maxitive_not_monotone"] = 1
    assert check_step(step, 5, code, json.dumps(report).encode())


def test_traced_step_writes_the_untraced_bytes():
    step = WORKLOADS["finite"].steps[0]
    env = {"PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run(
        [sys.executable, *step.argv(0)],
        cwd=ROOT, env=env, capture_output=True, timeout=60, check=True,
    )
    trace_out = ROOT / ".bench_out" / "test-trace.json"
    trace_out.parent.mkdir(exist_ok=True)
    traced = subprocess.run(
        [sys.executable, *step.traced_argv(0, str(trace_out))],
        cwd=ROOT, env=env, capture_output=True, timeout=60, check=True,
    )
    assert traced.stdout == plain.stdout
    stats = json.loads(trace_out.read_text())["stats"]
    metrics = layers.layer_metrics(stats)
    assert metrics["grid.comonotone.calls"][0] > 0
    assert metrics["census.tables_per_s"][0] > 0
    assert metrics["report.report_bytes"][0] == len(plain.stdout)


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    produced = [(name, unit) for name, unit, _ in layers.METRICS]
    assert declared == produced + list(layers.TRACE_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_rescaling_weighs_each_stretch_by_the_loops_at_its_ends():
    ref = run.CAL_REF_S
    # 1 s at full reference speed, then 2 s at half speed (loop twice as slow).
    outcome = run.Outcome(
        wall_s=3.0, cpu_s=3.0, rss_mib=1.0, exit_code=0, timed_out=False,
        stretches=[1.0, 2.0], calibration=[ref, ref, 2 * ref],
    )
    assert outcome.scale * outcome.wall_s == pytest.approx(1.0 + 2.0 * (1.0 + 0.5) / 2)


def test_spawn_excludes_its_pauses_from_the_time():
    speed = run.HostSpeed(len(os.sched_getaffinity(0)))  # keeps this process's CPUs
    started = time.perf_counter()
    outcome, _ = run.spawn(["-c", "import time; time.sleep(0.45)"], None, speed)
    elapsed = time.perf_counter() - started
    assert outcome.exit_code == 0 and not outcome.timed_out
    assert len(outcome.calibration) == len(outcome.stretches) + 1
    assert len(outcome.stretches) >= 3  # paused at least twice
    # Each pause lasts at least as long as the loop timed in it.
    pauses = sum(outcome.calibration[1:-1])
    assert 0.2 < outcome.wall_s <= elapsed - pauses
