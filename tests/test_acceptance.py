"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance is exact (all arithmetic is rational);
the only numeric bounds are the stated runtime budgets.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from comaxlab.census import functional_census
from comaxlab.classify import step_value
from comaxlab.grid import Chain
from comaxlab.pairgen import GeneratorParams, generate_pair, pair_seed, random_pair
from comaxlab.properties import integral_property_suite
from comaxlab.seq_comonotone import (
    comonotone_truncated,
    comonotone_witness,
    defining_product,
)
from comaxlab.seqspace import constant, leq, ramp
from comaxlab.suites import ALL_BRANCHES, counterexample_suite
from comaxlab.tnorms import TNorm, check_axioms

F = Fraction

ACCEPTANCE_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
CHAIN2 = Chain((F(0), F(1)))
CHAIN3 = Chain((F(0), F(1, 2), F(1)))
SIXTEENTHS = tuple(F(k, 16) for k in range(17))
SRC = Path(__file__).resolve().parents[1] / "src"


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_non_monotonicity_exact():
    start = time.perf_counter()
    ramp0, ramp1 = ramp(F(0)), ramp(F(1))
    ordered = leq(ramp0, ramp1)
    lo, hi = step_value(ramp1), step_value(ramp0)
    elapsed = time.perf_counter() - start
    ok = ordered and lo == 0 and hi == 1 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"ordered pair reversed exactly: leq={ordered}, "
        f"step(upper)={lo}, step(lower)={hi}, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_maxitivity_family_and_samples():
    start = time.perf_counter()
    report = counterexample_suite(
        seed=0,
        samples=10_000,
        grid=ACCEPTANCE_GRID,
        prefix_max=2,
    )
    elapsed = time.perf_counter() - start
    branch_hits = {b: report.counts[f"branch_{b}"] for b in ALL_BRANCHES}
    ok = (
        report.status == "pass"
        and report.counts["maxitivity_violations"] == 0
        and report.counts["generated_pairs"] == 10_000
        and report.counts["maxitivity_checks"] >= 10_000
        and all(v >= 1 for v in branch_hits.values())
        and elapsed < 300.0
    )
    verdict(
        2,
        ok,
        f"{report.counts['maxitivity_checks']} comonotone pairs "
        f"(family comonotone {report.counts['family_comonotone_pairs']} of "
        f"{report.counts['family_pairs']}, generated 10000), 0 violations, "
        f"branches {branch_hits}, {elapsed:.1f}s < 300s",
    )


def test_criterion_3_decision_procedure_oracle_equivalence():
    params = GeneratorParams(prefix_max=2)
    checked = disagreements = exact_violations = truncated_violations = 0
    for index in range(5_000):
        for f, g in (
            generate_pair(pair_seed(1, index), params),
            random_pair(pair_seed(2, index), params),
        ):
            checked += 1
            exact = comonotone_witness(f, g)
            truncated = comonotone_truncated(f, g, depth=50)
            if truncated is not None:
                truncated_violations += 1
                if exact is None:
                    disagreements += 1
            if exact is not None:
                exact_violations += 1
                if not defining_product(f, g, *exact) < 0:
                    disagreements += 1
    ok = checked == 10_000 and disagreements == 0
    verdict(
        3,
        ok,
        f"{checked} pairs: {truncated_violations} truncated violations all "
        f"confirmed, {exact_violations} exact witnesses all verified by the "
        f"defining product, {disagreements} disagreements",
    )


def test_criterion_4_finite_census_both_scales():
    start = time.perf_counter()
    small = functional_census(CHAIN2, 2)
    big = functional_census(CHAIN3, 2)
    elapsed = time.perf_counter() - start
    witnesses = [w for w in small.witnesses + big.witnesses if w["kind"] == "monotone_not_maxitive"]
    ok = (
        small.counts["total"] == 16
        and big.counts["total"] == 19_683
        and small.counts["maxitive_not_monotone"] == 0
        and big.counts["maxitive_not_monotone"] == 0
        and big.counts["monotone_not_maxitive"] > 0
        and len(witnesses) > 0
        and "pair" in witnesses[0]
        and elapsed < 60.0
    )
    verdict(
        4,
        ok,
        f"16 and 19683 functionals classified, maxitive-not-monotone 0 and 0, "
        f"monotone-not-maxitive witness exhibited "
        f"({big.counts['monotone_not_maxitive']} found on the 3-chain), "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_5_integral_axiom_bundle_all_capacities():
    start = time.perf_counter()
    two = integral_property_suite(CHAIN3, 2, TNorm.MINIMUM)
    three = integral_property_suite(CHAIN3, 3, TNorm.MINIMUM)
    elapsed = time.perf_counter() - start
    failures = sum(
        v for r in (two, three) for k, v in r.counts.items() if k.endswith("_failures")
    )
    ok = (
        two.status == "pass"
        and three.status == "pass"
        and two.counts["capacities"] == 9
        and three.counts["capacities"] == 129
        and failures == 0
        and elapsed < 60.0
    )
    verdict(
        5,
        ok,
        f"all {two.counts['capacities']} + {three.counts['capacities']} capacities pass "
        f"normalization, comonotone maxitivity, homogeneity, monotonicity; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_6_tnorm_axioms_on_sixteenths():
    results = {norm: check_axioms(norm, SIXTEENTHS) for norm in TNorm}
    violations = {n.value: counts["violations"] for n, (counts, _) in results.items()}
    ok = not any(witnesses for _, witnesses in results.values()) and not any(
        violations.values()
    )
    verdict(6, ok, f"17-point grid, violations per norm: {violations}")


def test_criterion_7_step_functional_not_normalized():
    values = {c: step_value(constant(c)) for c in (F(1, 4), F(1, 2), F(3, 4), F(1))}
    zero = step_value(constant(F(0)))
    ok = all(v == 1 for v in values.values()) and zero == 0
    verdict(
        7,
        ok,
        "step(constant c) = 1 for c in {1/4,1/2,3/4,1} and 0 for c = 0: "
        f"{ {str(k): str(v) for k, v in values.items()} }, zero -> {zero}",
    )


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "comaxlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_8_report_determinism(tmp_path):
    base = ("verify-counterexample", "--samples", "300", "--seed", "17")
    paths = [tmp_path / name for name in ("a.json", "b.json", "j4.json")]
    assert _run_cli(*base, "--output", str(paths[0])).returncode == 0
    assert _run_cli(*base, "--output", str(paths[1])).returncode == 0
    assert _run_cli(*base, "--jobs", "4", "--output", str(paths[2])).returncode == 0
    blobs = [p.read_bytes() for p in paths]
    identical_rerun = blobs[0] == blobs[1]
    identical_jobs = blobs[0] == blobs[2]
    parsed = json.loads(blobs[0])
    ok = identical_rerun and identical_jobs and parsed["status"] == "pass"
    verdict(
        8,
        ok,
        f"byte-identical rerun: {identical_rerun}, jobs=4 matches jobs=1: "
        f"{identical_jobs} ({len(blobs[0])} bytes)",
    )
