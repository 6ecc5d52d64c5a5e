"""comaxlab benchmark: time to a verified report, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload family --seed 0 --seconds 25 --trace 0

``--workload`` is one of family, generated, finite, oracle, or ``all``.
Every step is a fresh process on the checkout's ``src/`` (nothing is
installed), run in a closed loop by one client: the next iteration
starts when the previous one has ended.  Iterations repeat until the
next would end more than half an iteration past ``--seconds``, with at
least two.

With ``--trace 0`` the run reports the end-to-end metrics, each the
median over the run's iterations: wall_s (process start to report
written), cpu_s (user+sys of the step processes and their workers),
peak_rss_mib, and setup_s (a cold interpreter importing comaxlab.cli
and building its parser, SETUP_PER_ITERATION times per iteration).
The three times are rescaled to a reference host speed (see
``HostSpeed``); the times as measured are printed beside them and in
the metadata, but are not metrics.
With ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics of ``layers.py``, the traced wall time
and the trace overhead (traced minus untraced wall time), rescaled the
same way.

Every step's output is checked (see ``workloads.py``); a step that
fails its check fails the iteration.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Run metadata (git sha, CPU count,
Python version, src/ line count, item counts) is printed on the line
before it, never inside a report or a metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import layers
from tracing import Tracer
from workloads import WORKLOADS, Step, Workload, check_step, sha256

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_ARGV = ["-m", "comaxlab.cli", "--help"]
SETUP_PER_ITERATION = 3
MIN_ITERATIONS = 2
STEP_TIMEOUT_S = 60


# Host speed.  The benchmark shares a few cores of a host whose speed
# swings by up to 2x within seconds, as neighbours load the same physical
# cores.  So every process is paused every TICK_S seconds of its run, and
# the benchmark times a fixed calibration loop on the CPU the process runs
# on, before, during and after the process.  Each time is then rescaled to
# a host on which that loop takes CAL_REF_S: every stretch the process ran
# between two loops counts as its length x CAL_REF_S / loop time, taking
# the mean of the two loops' rescaling factors.  The loop is the stdlib
# Fraction arithmetic and dict stores the program spends its time on, and
# runs none of its code.
CAL_REF_S = 0.01
CAL_LOOP = 2500
TICK_S = 0.1


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(CAL_LOOP):
        total += Fraction(i % 7, 1 + i % 5)
        seen[i % 97] = total
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples on the CPUs a workload's processes are confined to."""

    def __init__(self, cpus: int) -> None:
        allowed = sorted(os.sched_getaffinity(0))
        self.cpus = allowed[:cpus]
        # Children inherit the affinity, so a one-process step runs on
        # the CPU that is calibrated.
        os.sched_setaffinity(0, self.cpus)

    def sample(self) -> float:
        """The loop's time at the mean speed of the CPUs."""
        speeds = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append(1 / calibrate())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return 1 / statistics.fmean(speeds)


@dataclass
class Outcome:
    """One finished process."""

    wall_s: float  # time it ran, pauses excluded
    cpu_s: float
    rss_mib: float
    exit_code: int
    timed_out: bool
    stretches: list[float]  # the times it ran between calibration loops
    calibration: list[float]  # loop times: one before each stretch, one after the last

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at reference host speed."""
        factors = [CAL_REF_S / c for c in self.calibration]
        at_reference = sum(
            length * (before + after) / 2
            for length, before, after in zip(self.stretches, factors, factors[1:])
        )
        return at_reference / self.wall_s


def spawn(
    argv: list[str], stdout_path: Path | None, speed: HostSpeed, pause: bool = True
) -> tuple[Outcome, bytes]:
    """Run the interpreter on argv from the checkout root; time it and read its stdout.

    Without ``pause`` the process runs unstopped and is calibrated only
    before and after: a traced process times its own layers, and the
    pauses would fall inside those times.
    """
    tick = TICK_S if pause else STEP_TIMEOUT_S
    # Byte-code goes to a cache of the benchmark's own, written by the
    # first process of a run, whatever the caller's environment says
    # about writing it: without it every process compiles its modules
    # again, which made cold starts a quarter slower.
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
    }
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    calibration = [speed.sample()]
    sink = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        resumed = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=sink, start_new_session=True,
        )
        stretches: list[float] = []
        timed_out = False
        try:
            with _pidfd(proc.pid) as exited:
                while not select.select([exited], [], [], tick)[0]:
                    if sum(stretches) + time.perf_counter() - resumed > STEP_TIMEOUT_S:
                        timed_out = True
                        os.killpg(proc.pid, signal.SIGKILL)
                        break
                    # SIGSTOP reaches pool workers too: the whole session
                    # is one process group.
                    try:
                        os.killpg(proc.pid, signal.SIGSTOP)
                    except ProcessLookupError:  # the group has just ended
                        break
                    stretches.append(time.perf_counter() - resumed)
                    try:
                        calibration.append(speed.sample())
                    finally:
                        with contextlib.suppress(ProcessLookupError):
                            os.killpg(proc.pid, signal.SIGCONT)
                        resumed = time.perf_counter()
            stretches.append(time.perf_counter() - resumed)
            # wait4 rather than Popen.wait: it also returns the rusage of
            # the process and of the workers it reaped.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            sink.close()
    calibration.append(speed.sample())
    outcome = Outcome(
        wall_s=sum(stretches),
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        timed_out=timed_out,
        stretches=stretches,
        calibration=calibration,
    )
    return outcome, stdout_path.read_bytes() if stdout_path else b""


@contextlib.contextmanager
def _pidfd(pid: int):
    """A descriptor that turns readable when the process exits."""
    fd = os.pidfd_open(pid)
    try:
        yield fd
    finally:
        os.close(fd)


@dataclass
class Iteration:
    """One pass over a workload's steps."""

    wall_s: float = 0.0  # at reference host speed
    cpu_s: float = 0.0  # at reference host speed
    raw_wall_s: float = 0.0  # as measured
    raw_cpu_s: float = 0.0  # as measured
    rss_mib: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_step(
    step: Step, seed: int, it: Iteration, argv: list[str], speed: HostSpeed, pause: bool = True
) -> None:
    outcome, out = spawn(argv, OUT / f"{step.name}.out", speed, pause)
    it.wall_s += outcome.wall_s * outcome.scale
    it.cpu_s += outcome.cpu_s * outcome.scale
    it.raw_wall_s += outcome.wall_s
    it.raw_cpu_s += outcome.cpu_s
    it.rss_mib = max(it.rss_mib, outcome.rss_mib)
    it.outputs[step.name] = out
    if outcome.timed_out:
        it.problems.append(f"{step.name}: timed out after {STEP_TIMEOUT_S} s")
    it.problems.extend(check_step(step, seed, outcome.exit_code, out))


def run_iteration(
    workload: Workload,
    seed: int,
    speed: HostSpeed,
    trace_out: Path | None = None,
    pause: bool = True,
) -> Iteration:
    it = Iteration()
    for step in workload.steps:
        if trace_out is None:
            argv = step.argv(seed)
        else:
            argv = step.traced_argv(seed, str(trace_out / f"{step.name}.json"))
        run_step(step, seed, it, argv, speed, pause)
        if it.problems:
            break
    return it


def keep_going(count: int, started: float, seconds: float, minimum: int) -> bool:
    """Another iteration, unless the minimum is met and the next one would
    end more than half an iteration past the deadline."""
    if count < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / count < seconds


def same_outputs(first: Iteration, it: Iteration, what: str) -> list[str]:
    return [
        f"{name}: {what} report bytes differ ({sha256(out)} vs {sha256(first.outputs[name])})"
        for name, out in it.outputs.items()
        if name in first.outputs and out != first.outputs[name]
    ]


def cold_start(
    times: list[float], raw_times: list[float], problems: list[str], speed: HostSpeed
) -> None:
    """One cold interpreter importing comaxlab.cli and building its parser."""
    outcome, _ = spawn(SETUP_ARGV, None, speed)
    times.append(outcome.wall_s * outcome.scale)
    raw_times.append(outcome.wall_s)
    if outcome.exit_code != 0:
        problems.append(f"setup: exit code {outcome.exit_code}, expected 0")


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    basis: dict[str, str]  # how many samples each metric is the median of
    raw: dict[str, float]  # medians of the times as measured, before rescaling
    iterations: list[Iteration]
    attempted: int
    failed: int
    problems: list[str]


def end_to_end(workload: Workload, seed: int, seconds: float) -> Result:
    speed = HostSpeed(workload.cpus)
    # Warm the file cache and byte-code, as a user's later runs find them.
    spawn(SETUP_ARGV, None, speed)
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    problems: list[str] = []
    iterations: list[Iteration] = []
    started = time.perf_counter()
    while keep_going(len(iterations), started, seconds, MIN_ITERATIONS):
        # Spread the cold starts over the run, so that a short burst of
        # load on the host cannot move their median.
        for _ in range(SETUP_PER_ITERATION):
            cold_start(setup_times, raw_setup_times, problems, speed)
        it = run_iteration(workload, seed, speed)
        if iterations:
            it.problems.extend(same_outputs(iterations[0], it, "repeated"))
        iterations.append(it)
        if it.problems:
            break
    attempted = 1 + len(iterations)  # all cold starts count as one run
    failed = bool(problems) + sum(1 for it in iterations if it.problems)
    if workload.reference is not None and not failed:
        ref, step = Iteration(), workload.reference
        run_step(step, seed, ref, step.argv(seed), speed)
        if ref.outputs[step.name] != iterations[0].outputs[workload.steps[0].name]:
            ref.problems.append(f"{step.name}: report bytes differ from {workload.steps[0].name}")
        attempted += 1
        failed += bool(ref.problems)
        problems.extend(ref.problems)
    for it in iterations:
        problems.extend(it.problems)
    runs = f"median of {len(iterations)} iterations"
    return Result(
        metrics={
            "wall_s": (statistics.median([it.wall_s for it in iterations]), "s"),
            "cpu_s": (statistics.median([it.cpu_s for it in iterations]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (statistics.median([it.rss_mib for it in iterations]), "MiB"),
        },
        basis={
            "wall_s": runs,
            "cpu_s": runs,
            "setup_s": f"median of {len(setup_times)} cold starts",
            "peak_rss_mib": runs,
        },
        raw={
            "wall_s": statistics.median([it.raw_wall_s for it in iterations]),
            "cpu_s": statistics.median([it.raw_cpu_s for it in iterations]),
            "setup_s": statistics.median(raw_setup_times),
        },
        iterations=iterations,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


def traced(workload: Workload, seed: int, seconds: float) -> Result:
    """Alternate untraced and traced iterations; per-layer metrics from the traced ones."""
    speed = HostSpeed(workload.cpus)
    spawn(SETUP_ARGV, None, speed)  # as in end_to_end
    trace_dir = OUT / f"trace-{workload.name}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    samples: list[dict[str, tuple[float, str]]] = []
    iterations: list[Iteration] = []
    traced_its: list[Iteration] = []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while keep_going(len(samples), started, seconds, 1):
        # Neither is paused, so that the two differ only by the tracer.
        plain = run_iteration(workload, seed, speed, pause=False)
        traced_it = (
            run_iteration(workload, seed, speed, trace_dir, pause=False)
            if not plain.problems
            else Iteration()
        )
        traced_it.problems.extend(same_outputs(plain, traced_it, "traced"))
        attempted += 2
        failed += bool(plain.problems) + bool(traced_it.problems)
        problems.extend(plain.problems + traced_it.problems)
        iterations.append(plain)
        traced_its.append(traced_it)
        if problems:
            break
        combined = Tracer()
        for step in workload.steps:
            combined.merge(json.loads((trace_dir / f"{step.name}.json").read_text(encoding="utf-8")))
        export = combined.export()
        (OUT / f"trace-{workload.name}.json").write_text(json.dumps(export), encoding="utf-8")
        sample = layers.layer_metrics(export["stats"])
        sample["trace.wall_s"] = (traced_it.wall_s, "s")
        sample["trace.overhead_s"] = (traced_it.wall_s - plain.wall_s, "s")
        samples.append(sample)
    metrics = {
        name: (statistics.median([s[name][0] for s in samples]), unit)
        for name, (_, unit) in (samples[0].items() if samples else ())
    }
    return Result(
        metrics=metrics,
        basis={name: f"median of {len(samples)} traced iterations" for name in metrics},
        raw={
            "trace.wall_s": statistics.median([it.raw_wall_s for it in traced_its]),
            "wall_s": statistics.median([it.raw_wall_s for it in iterations]),
        } if samples else {},
        iterations=iterations,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: Workload, seed: int, result: Result) -> dict:
    items: dict[str, dict] = {}
    if result.iterations:
        for step in workload.steps:
            out = result.iterations[0].outputs.get(step.name)
            if out:
                try:
                    counts = json.loads(out).get("counts", {})
                except ValueError:
                    continue
                items[step.name] = {key: counts.get(key) for key in step.items}
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines,
        "items": items,
        "failed_ratio": {"failed": result.failed, "attempted": result.attempted},
        "cpus": workload.cpus,
        "measured_s": result.raw,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    result = (traced if trace else end_to_end)(workload, seed, seconds)
    mode = "traced" if trace else "untraced"
    print(f"workload {workload.name}  seed {seed}  {mode}  closed loop, 1 client")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {result.basis[name]}")
    for name, value in result.raw.items():
        print(f"  {name + ' as measured':<48} {value:>14.6g} {'s':<6} not rescaled, not a metric")
    print(f"  {'failed_ratio':<48} {result.failed}/{result.attempted} runs failed")
    for problem in result.problems:
        print(f"  FAILED {problem}")
    print("meta " + json.dumps(metadata(workload, seed, result), sort_keys=True))
    return {
        "correct": not result.problems and bool(result.metrics),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in result.metrics.items()},
    }


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "comaxlab" / "cli.py").is_file():
        print(f"error: no comaxlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A step may be stopped for calibration when the benchmark is told to
    # end: exit through spawn's clean-up, which kills it, rather than
    # leave it stopped for good.
    signal.signal(signal.SIGTERM, _terminate)
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
