"""Continuous triangular norms on the rational unit interval.

Only the three canonical continuous norms are built in: minimum,
product, and Lukasiewicz.  All three map rational pairs to rationals,
so every identity here is decidable exactly.  The three formulas live
in ``apply_scaled``, on integer numerators; ``apply`` reads them.  The
axiom checker takes a built-in norm and is grid-exhaustive: callers
pick a finite grid and every required tuple on it is tested, with up
to ``WITNESS_CAP`` violating tuples per axiom reported verbatim as
Fractions, which only the report serializer writes out.  It evaluates
the norm once per grid pair; only associativity's outer calls are made
anew.  ``axiom_check_counts`` gives its check counts by formula;
``axiom_suite`` refuses their total over the budget, then checks every
built-in norm into the one ``tnorm-axioms`` report.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .rational import ONE, ZERO, check_unit_interval
from .report import FAIL, PASS, VerificationReport, check_budget

WITNESS_CAP = 10  # witnesses kept per axiom; every violation is still counted


class TNorm(enum.Enum):
    """The built-in continuous t-norms (a closed enumeration)."""

    MINIMUM = "minimum"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"


def apply(norm: TNorm, s: Fraction, t: Fraction) -> Fraction:
    """Evaluate ``s * t`` for the given norm.  Inputs must lie in [0,1]."""
    check_unit_interval(s, "left operand")
    check_unit_interval(t, "right operand")
    num = apply_scaled(norm, s.numerator, s.denominator, t.numerator, t.denominator)
    return Fraction(num, s.denominator * t.denominator)


def apply_scaled(norm: TNorm, s: int, s_den: int, t: int, t_den: int) -> int:
    """The norm of ``s / s_den`` and ``t / t_den``, unchecked: its numerator over both."""
    if norm is TNorm.MINIMUM:
        return min(s * t_den, t * s_den)
    if norm is TNorm.PRODUCT:
        return s * t
    return max(0, s * t_den + t * s_den - s_den * t_den)


def axiom_check_counts(g: int) -> dict[str, int]:
    """Checks per axiom that ``check_axioms`` runs for one norm on a grid of g distinct points."""
    return {
        "unit_checks": g,
        "commutativity_checks": g * g,
        "monotonicity_checks": g * g * (g + 1) // 2,  # s <= s2, any t
        "associativity_checks": g**3,
    }


def axiom_check_count(g: int) -> int:
    """Checks that ``check_axioms`` runs for one norm on a grid of g distinct points."""
    return sum(axiom_check_counts(g).values())


def check_axioms(norm: TNorm, grid: tuple[Fraction, ...]) -> tuple[dict[str, int], list[dict]]:
    """Exhaustively test the t-norm axioms on a finite grid: the counts and the witnesses.

    Checks unit on singles, commutativity on pairs, monotonicity and
    associativity on triples, and closure of every computed value.
    """
    for g in grid:
        check_unit_interval(g, "grid point")

    by_axiom: dict[str, list[dict]] = {}
    counts = {**axiom_check_counts(len(grid)), "closure_violations": 0, "violations": 0}

    def record(axiom: str, args: tuple[Fraction, ...], left: Fraction, right: Fraction) -> None:
        counts["violations"] += 1
        bucket = by_axiom.setdefault(axiom, [])
        if len(bucket) < WITNESS_CAP:
            bucket.append({"axiom": axiom, "args": args, "left": left, "right": right})

    def closed(value: Fraction, args: tuple[Fraction, ...]) -> Fraction:
        if not (ZERO <= value <= ONE):
            counts["closure_violations"] += 1
            record("closure", args, value, value)
        return value

    for s in grid:
        got = closed(apply(norm, s, ONE), (s, ONE))
        if got != s:
            record("unit", (s,), got, s)

    # rows[i][j] = apply(norm, grid[i], grid[j]), once per pair; zip(*rows) gives the columns.
    rows = [[apply(norm, s, t) for t in grid] for s in grid]

    for s, row, column in zip(grid, rows, zip(*rows)):
        for t, st, ts in zip(grid, row, column):
            closed(st, (s, t))
            if st != ts:
                record("commutativity", (s, t), st, ts)

    for s, row in zip(grid, rows):
        for s2, row2 in zip(grid, rows):
            if s > s2:
                continue
            for t, lo, hi in zip(grid, row, row2):
                if lo > hi:
                    record("monotonicity", (s, s2, t), lo, hi)

    for s, row in zip(grid, rows):
        for t, st, tu_row in zip(grid, row, rows):
            for u, tu in zip(grid, tu_row):
                left = apply(norm, st, u)
                right = apply(norm, s, tu)
                if left != right:
                    record("associativity", (s, t, u), left, right)

    order = ("closure", "unit", "commutativity", "monotonicity", "associativity")
    return counts, [w for axiom in order for w in by_axiom.get(axiom, [])]


def axiom_suite(grid: tuple[Fraction, ...], budget: int) -> VerificationReport:
    """Check the axioms of every built-in norm on ``grid``, refused over ``budget`` checks."""
    check_budget(axiom_check_count(len(grid)), budget, "t-norm axiom checks")
    counts = {"grid_size": len(grid)}
    witnesses = []
    for norm in TNorm:
        norm_counts, norm_witnesses = check_axioms(norm, grid)
        counts.update((f"{norm.value}_{key}", value) for key, value in norm_counts.items())
        witnesses.extend({"norm": norm.value, **w} for w in norm_witnesses)
    return VerificationReport(
        claim_id="tnorm-axioms",
        status=FAIL if witnesses else PASS,
        counts=counts,
        witnesses=witnesses,
    )
