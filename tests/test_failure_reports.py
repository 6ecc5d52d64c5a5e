"""Failing reports, reached by injecting a fault, with their bytes pinned by sha256.

Every suite is correct on the configurations the CLI runs by default,
so no other test sees a ``fail`` report.  Here a wrong membership, a
wrong integral or a broken norm is patched in (the fault lives in this
process only, so shards at ``--jobs`` above 1 run inline, not forked),
and the report must keep its bytes and exit 1.  Each count of violations
or failures must equal the number of witnesses of its kind.

``verify-counterexample`` reads every step value, of members, joins
and the exact facts alike, from ``suites.membership``, so that one name
is the fault's only injection point.  ``tnorm-axioms`` evaluates every
norm value through ``tnorms.apply_scaled`` on numerators, so the broken
norm goes in there, as a Fraction operation that
``grid_oracles.on_numerators`` scales to that signature.
"""

import hashlib
import os
from collections import Counter
from fractions import Fraction

import pytest

from comaxlab import cli, properties, suites, tnorms
from comaxlab.classify import Membership, membership
from comaxlab.integral import tnorm_integral
from comaxlab.rational import ZERO
from comaxlab.tnorms import TNorm
from grid_oracles import fraction_apply, on_numerators
from test_golden import exact_report

F = Fraction


def wrong_membership(f):
    """Never capped at the isolated point, never below 1 where the isolated value is 0,
    and below the ramp wherever the head is nonempty."""
    m = membership(f)
    return Membership(m.below_ramp or bool(f.head), capped_at_iso=False,
                      below_one=m.below_one and f.iso != 0)


def wrong_integral(cap, norm, f):
    """The integral's numerator over ``f.den * cap.den``, for a value reversed when
    mu({0}) = 1/2 and squared when mu({0}) = 1: a squared value's numerator is a Fraction."""
    num, den = tnorm_integral(cap, norm, f), f.den * cap.den
    low = cap(frozenset({0}))
    if low == F(1, 2):
        return den - num
    return F(num * num, den) if low == 1 else num


def broken_apply(norm, s, t):
    """Lukasiewicz with its cutoff moved from 1 to 1/2 and no clamp at 1."""
    if norm is TNorm.LUKASIEWICZ:
        return max(ZERO, s + t - F(1, 2))
    return fraction_apply(norm, s, t)


def failing_report(argv, capsys):
    assert cli.main(list(argv)) == 1
    text = capsys.readouterr().out
    report = exact_report(text)
    assert report["status"] == "fail"
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), report


FAILING_COUNTEREXAMPLE_DIGEST = "beecab91fba1f70536a278e2296f480971901f8213cbddac5da252f897546cac"


def failing_counterexample_report(monkeypatch, capsys, jobs):
    monkeypatch.setattr(suites, "membership", wrong_membership)
    argv = ("verify-counterexample", "--grid", "0,1", "--prefix-max", "1", "--samples", "30",
            "--jobs", str(jobs))
    return failing_report(argv, capsys)


def test_failing_counterexample_report_is_pinned(monkeypatch, capsys):
    digest, report = failing_counterexample_report(monkeypatch, capsys, 1)
    counts = report["counts"]
    kinds = Counter(w["kind"] for w in report["witnesses"])
    assert set(kinds) == {"exact_fact", "maxitivity", "restricted_monotonicity",
                          "branch_not_exercised"}
    assert counts["maxitivity_violations"] == kinds["maxitivity"] > 0
    assert counts["ordered_violations"] == kinds["restricted_monotonicity"] > 0
    assert kinds["exact_fact"] == sum(v == 0 for k, v in counts.items() if k.startswith("fact_"))
    assert kinds["branch_not_exercised"] == sum(
        v == 0 for k, v in counts.items() if k.startswith("branch_")
    )
    assert {w["source"] for w in report["witnesses"] if "source" in w} == {
        "named", "family", "generated"
    }
    assert digest == FAILING_COUNTEREXAMPLE_DIGEST


@pytest.mark.parametrize("jobs", [2, 3])
def test_failing_counterexample_report_keeps_its_bytes_over_shards(
    monkeypatch, capsys, pool_sizes, jobs
):
    # Every violation's source and index must survive the cut into shards.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    digest, _ = failing_counterexample_report(monkeypatch, capsys, jobs)
    assert pool_sizes == [jobs]  # one fan-out serves family and sample shards
    assert digest == FAILING_COUNTEREXAMPLE_DIGEST


FAILURE_COUNTS = {
    "normalized": "normalized_failures",
    "comonotone_maxitivity": "maxitivity_failures",
    "scale_homogeneity": "homogeneity_failures",
    "monotonicity": "monotonicity_failures",
}


@pytest.mark.parametrize(
    "norm, pinned",
    [
        ("minimum", "c91b4a3464791806d6bce53a0aa7d66f8bdb0cf7c55397ba6c1fd1f05c9f84ec"),
        ("product", "7ac49c181d48be176aad83ca8bcad1e021b9762a48e3d7b35951d745a1286fdc"),
    ],
)
def test_failing_integral_properties_report_is_pinned(monkeypatch, capsys, norm, pinned):
    monkeypatch.setattr(properties, "tnorm_integral", wrong_integral)
    digest, report = failing_report(("integral-properties", "--n", "2", "--norm", norm), capsys)
    kinds = Counter(w["property"] for w in report["witnesses"])
    assert set(kinds) == set(FAILURE_COUNTS)
    for prop, key in FAILURE_COUNTS.items():
        assert report["counts"][key] == kinds[prop] > 0
    assert digest == pinned


def test_failing_tnorm_axioms_report_is_pinned(monkeypatch, capsys):
    monkeypatch.setattr(tnorms, "apply_scaled", on_numerators(broken_apply))
    digest, report = failing_report(("tnorm-axioms", "--grid", "0,1/2,1"), capsys)
    counts = report["counts"]
    kinds = Counter((w["norm"], w["axiom"]) for w in report["witnesses"])
    assert set(kinds) == {("lukasiewicz", axiom) for axiom in ("closure", "unit", "associativity")}
    for norm in TNorm:
        found = {axiom: k for (name, axiom), k in kinds.items() if name == norm.value}
        assert counts[f"{norm.value}_violations"] == sum(found.values())
        assert counts[f"{norm.value}_closure_violations"] == found.get("closure", 0)
    assert digest == "e78a2a028cda65c199fff584161824b7024bdbed0c70c2663db0a2800e6faa5f"
