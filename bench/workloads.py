"""The benchmark's workloads and the correctness check of every step.

A workload is a fixed sequence of steps; one iteration runs them all.
A step is one process: a ``comaxlab`` CLI run, or the oracle loop from
``oracle.py``.  Its seed is the benchmark's ``--seed``; every size is
fixed here, so item counts do not depend on the seed.

A step passes when it exits with code 0 and report status ``pass``,
its report keeps the step's invariants, and, at the default seed,
the sha256 of its report bytes equals the pinned digest.  Digests were
taken at ``--jobs 1``, so the pinned ``generated`` digest also checks
that ``--jobs 2`` gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0

SIXTEENTHS = ",".join(str(Fraction(k, 16)) for k in range(17))

BRANCHES = (
    "both_capped_at_iso",
    "capped_and_strict",
    "both_strict_below_one",
    "not_below_ramp",
    "below_ramp_peak_one",
)


@dataclass(frozen=True)
class Step:
    """One process of a workload iteration."""

    name: str
    kind: str  # "cli" or "oracle"
    args: tuple[str, ...]  # without --seed
    invariants: Callable[[dict], list[str]]
    digest: str  # sha256 of the report bytes at DEFAULT_SEED
    items: tuple[str, ...]  # report counts recorded as item counts

    def argv(self, seed: int) -> list[str]:
        """Arguments after the interpreter, run from the checkout root."""
        entry = ["-m", "comaxlab.cli"] if self.kind == "cli" else ["bench/oracle.py"]
        return [*entry, *self.args, "--seed", str(seed)]

    def traced_argv(self, seed: int, trace_out: str) -> list[str]:
        return ["bench/traced.py", trace_out, self.kind, *self.args, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    # Run once per benchmark run, untimed: its report bytes must equal
    # those of steps[0] (the same suite at another --jobs).
    reference: Step | None = None
    cpus: int = 1  # CPUs the steps may run on: their --jobs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_step(step: Step, seed: int, exit_code: int, out: bytes) -> list[str]:
    """Every reason the step's output is wrong; empty when it is right."""
    problems = []
    if exit_code != 0:
        problems.append(f"{step.name}: exit code {exit_code}, expected 0")
    try:
        report = json.loads(out)
    except ValueError:
        return problems + [f"{step.name}: output is not a JSON report"]
    if not isinstance(report, dict) or not isinstance(report.get("counts"), dict):
        return problems + [f"{step.name}: report has no counts"]
    if report.get("status") != "pass":
        problems.append(f"{step.name}: status {report.get('status')!r}, expected 'pass'")
    problems.extend(f"{step.name}: {p}" for p in step.invariants(report["counts"]))
    if seed == DEFAULT_SEED and sha256(out) != step.digest:
        problems.append(f"{step.name}: report digest {sha256(out)} != pinned {step.digest}")
    return problems


def _zero(*keys: str) -> Callable[[dict], list[str]]:
    def check(counts: dict) -> list[str]:
        return [f"{k} = {counts.get(k)}, expected 0" for k in keys if counts.get(k) != 0]

    return check


def _equal(key: str, value: int) -> Callable[[dict], list[str]]:
    def check(counts: dict) -> list[str]:
        return [] if counts.get(key) == value else [f"{key} = {counts.get(key)}, expected {value}"]

    return check


def _all(*checks: Callable[[dict], list[str]]) -> Callable[[dict], list[str]]:
    return lambda counts: [p for check in checks for p in check(counts)]


def _branches(counts: dict) -> list[str]:
    return [f"branch {b} never exercised" for b in BRANCHES if counts.get(f"branch_{b}", 0) < 1]


def _failures_zero(counts: dict) -> list[str]:
    return [
        f"{k} = {v}, expected 0"
        for k, v in counts.items()
        if k.endswith(("_failures", "violations")) and v != 0
    ]


def _counterexample(samples: int) -> Callable[[dict], list[str]]:
    return _all(
        _zero("maxitivity_violations", "ordered_violations"),
        _equal("generated_pairs", samples),
        _branches,
    )


def _integral(counts: dict) -> list[str]:
    return _failures_zero(counts) + _equal("capacities", 129)(counts)


def _census(total: int) -> Callable[[dict], list[str]]:
    return _all(_zero("maxitive_not_monotone"), _equal("total", total))


COUNTEREXAMPLE_ITEMS = (
    "family_functions", "family_pairs", "family_comonotone_pairs", "generated_pairs",
)


def _verify(name: str, grid: str, samples: int, jobs: int, digest: str) -> Step:
    return Step(
        name=name,
        kind="cli",
        args=("verify-counterexample", "--grid", grid, "--prefix-max", "2",
              "--samples", str(samples), "--jobs", str(jobs)),
        invariants=_counterexample(samples),
        digest=digest,
        items=COUNTEREXAMPLE_ITEMS,
    )


ORACLE_COUNT = 300
FAMILY_DIGEST = "853f1e43b881535320f1505595d96c1ba2c81d6639a28be1934dfe34f4f38f8c"
GENERATED_DIGEST = "3431d7a30922dc5267ea9ecc895bb4642555141346b3682aca8ee903a63fcf13"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "family",
            (_verify("verify-counterexample", "0,1/3,2/3,1", 200, 1, FAMILY_DIGEST),),
        ),
        Workload(
            "generated",
            (_verify("verify-counterexample", "0,1/2,1", 5000, 2, GENERATED_DIGEST),),
            reference=_verify("verify-counterexample-jobs1", "0,1/2,1", 5000, 1, GENERATED_DIGEST),
            cpus=2,
        ),
        Workload(
            "finite",
            (
                Step(
                    "finite-census", "cli", ("finite-census",), _census(19_683),
                    "cdb98c0edb5468965406fa2da4e1b56f17a6500e517ef4c318b9891f326c9931",
                    ("total",),
                ),
                Step(
                    "finite-census-n4", "cli", ("finite-census", "--grid", "0,1", "--n", "4"),
                    _census(65_536),
                    "fb8e6a5433dbfe5d0743336ebe28ad75470af2dff60e83c7ae954e7b27cf026e",
                    ("total",),
                ),
                Step(
                    "integral-properties", "cli", ("integral-properties", "--n", "3"), _integral,
                    "e3402f01cce8d35eba6b42c4c297db36e4fddb2fa7c8cbe9001f27e2128dc663",
                    ("capacities",),
                ),
                Step(
                    "integral-properties-product", "cli",
                    ("integral-properties", "--n", "3", "--norm", "product"), _integral,
                    "c2a3f910bef1c18b6957b973a141e754c0827d066a2437772112759aedc56959",
                    ("capacities",),
                ),
                Step(
                    "tnorm-axioms", "cli", ("tnorm-axioms", "--grid", SIXTEENTHS), _failures_zero,
                    "23cd70686b3f30d2881482d4fb68dea1247442c09ae379e1a41a76641062e378",
                    ("grid_size",),
                ),
            ),
        ),
        Workload(
            "oracle",
            (
                Step(
                    "oracle", "oracle", ("--count", str(ORACLE_COUNT)),
                    _all(_zero("disagreements"), _equal("pairs", 2 * ORACLE_COUNT)),
                    "9c731552bb39c1be34dfc235844622d89e588aefa24f24afa6aa728d4e67a843",
                    ("pairs", "exact_witnesses", "truncated_witnesses"),
                ),
            ),
        ),
    )
}
