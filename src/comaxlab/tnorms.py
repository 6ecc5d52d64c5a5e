"""Continuous triangular norms on the rational unit interval.

Only the three canonical continuous norms are built in: minimum,
product, and Lukasiewicz.  All three map rational pairs to rationals,
so every identity here is decidable exactly.  The three formulas live
in ``apply_scaled``, on integer numerators; ``apply`` reads them.  The
axiom checker takes a built-in norm and is grid-exhaustive: callers
pick a finite grid and every required tuple on it is tested, with up
to ``WITNESS_CAP`` violating tuples per axiom reported verbatim as
Fractions.  It evaluates the norm by ``apply_scaled`` on the grid over
its lcm, once per grid pair and twice per associativity triple, and
builds a Fraction only for a witness.  ``axiom_check_counts`` gives its check counts by formula;
``axiom_suite`` refuses their total over the budget, then checks every
built-in norm into the one ``tnorm-axioms`` report.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .rational import ONE, check_unit, check_unit_interval, over_lcm
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
    associativity on triples, and closure of every computed value.  The
    values are numerators over the grid's lcm ``d``, ``d2 = d * d`` or ``d2 * d``.
    """
    nums, d = over_lcm(grid)
    d2 = d * d

    by_axiom: dict[str, list[dict]] = {}
    counts = {**axiom_check_counts(len(grid)), "closure_violations": 0, "violations": 0}

    def record(axiom: str, args: tuple[Fraction, ...], left: int, right: int, den: int) -> None:
        counts["violations"] += 1
        bucket = by_axiom.setdefault(axiom, [])
        if len(bucket) < WITNESS_CAP:
            witness = {"left": Fraction(left, den), "right": Fraction(right, den)}
            bucket.append({"axiom": axiom, "args": args, **witness})

    def closed(value: int, den: int, args: tuple[Fraction, ...]) -> int:
        if not 0 <= value <= den:
            counts["closure_violations"] += 1
            record("closure", args, value, value, den)
        return value

    for s, s_num in zip(grid, nums):
        check_unit(s_num, d, "grid point")
        got = closed(apply_scaled(norm, s_num, d, 1, 1), d, (s, ONE))
        if got != s_num:
            record("unit", (s,), got, s_num, d)

    # rows[i][j] = grid[i] * grid[j] over d2, once per pair; zip(*rows) gives the columns.
    rows = [[apply_scaled(norm, s, d, t, d) for t in nums] for s in nums]

    for s, row, column in zip(grid, rows, zip(*rows)):
        for t, st, ts in zip(grid, row, column):
            closed(st, d2, (s, t))
            if st != ts:
                record("commutativity", (s, t), st, ts, d2)

    for s, row in zip(grid, rows):
        for s2, row2 in zip(grid, rows):
            if s > s2:
                continue
            for t, lo, hi in zip(grid, row, row2):
                if lo > hi:
                    record("monotonicity", (s, s2, t), lo, hi, d2)

    for s, s_num, row in zip(grid, nums, rows):
        for t, st, tu_row in zip(grid, row, rows):
            for u, u_num, tu in zip(grid, nums, tu_row):
                left = apply_scaled(norm, st, d2, u_num, d)
                right = apply_scaled(norm, s_num, d, tu, d2)
                if left != right:
                    record("associativity", (s, t, u), left, right, d2 * d)

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
