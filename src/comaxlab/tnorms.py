"""Continuous triangular norms on the rational unit interval.

Only the three canonical continuous norms are built in: minimum,
product, and Lukasiewicz.  All three map rational pairs to rationals,
so every identity here is decidable exactly.  The three formulas live
in ``apply_scaled``, on integer numerators; ``apply`` reads them.  The
axiom checker is grid-exhaustive: callers pick a finite grid and every
required tuple on it is tested, with violating tuples reported
verbatim.  It evaluates the operation once per grid pair; only
associativity's outer calls are made anew.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable

from .rational import ONE, ZERO, check_unit_interval, format_rational
from .report import FAIL, PASS, VerificationReport

BinaryOp = Callable[[Fraction, Fraction], Fraction]


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


def pointwise_scale(norm: TNorm, c: Fraction, values: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Apply ``c * .`` to every entry of a value vector."""
    return tuple(apply(norm, c, v) for v in values)


def _witness(axiom: str, args: tuple[Fraction, ...], left: Fraction, right: Fraction) -> dict:
    return {
        "axiom": axiom,
        "args": [format_rational(a) for a in args],
        "left": format_rational(left),
        "right": format_rational(right),
    }


def axiom_check_count(g: int) -> int:
    """Checks that ``check_axioms`` runs for one norm on a grid of g points."""
    # unit, commutativity, monotonicity (s <= s2, any t), associativity
    return g + g * g + g * g * (g + 1) // 2 + g**3


def check_axioms(
    op: TNorm | BinaryOp,
    grid: tuple[Fraction, ...],
    name: str | None = None,
    max_witnesses: int = 10,
) -> VerificationReport:
    """Exhaustively test the t-norm axioms on a finite grid.

    ``op`` may be a built-in TNorm or any rational binary operation
    (so near-misses can be probed for the tuple that breaks them).
    Checks unit on singles, commutativity on pairs, monotonicity and
    associativity on triples, and closure of every computed value.
    """
    for g in grid:
        check_unit_interval(g, "grid point")
    fn: BinaryOp = op if callable(op) else (lambda s, t: apply(op, s, t))
    label = name if name is not None else (op.value if isinstance(op, TNorm) else "custom")

    by_axiom: dict[str, list[dict]] = {}
    counts = {
        "grid_size": len(grid),
        "unit_checks": 0,
        "commutativity_checks": 0,
        "monotonicity_checks": 0,
        "associativity_checks": 0,
        "closure_violations": 0,
        "violations": 0,
    }

    def record(axiom: str, args: tuple[Fraction, ...], left: Fraction, right: Fraction) -> None:
        counts["violations"] += 1
        bucket = by_axiom.setdefault(axiom, [])
        if len(bucket) < max_witnesses:
            bucket.append(_witness(axiom, args, left, right))

    def closed(value: Fraction, args: tuple[Fraction, ...]) -> Fraction:
        if not (ZERO <= value <= ONE):
            counts["closure_violations"] += 1
            record("closure", args, value, value)
        return value

    for s in grid:
        counts["unit_checks"] += 1
        got = closed(fn(s, ONE), (s, ONE))
        if got != s:
            record("unit", (s,), got, s)

    # rows[i][j] = fn(grid[i], grid[j]), once per pair; zip(*rows) gives the columns.
    rows = [[fn(s, t) for t in grid] for s in grid]

    for s, row, column in zip(grid, rows, zip(*rows)):
        for t, st, ts in zip(grid, row, column):
            counts["commutativity_checks"] += 1
            closed(st, (s, t))
            if st != ts:
                record("commutativity", (s, t), st, ts)

    for s, row in zip(grid, rows):
        for s2, row2 in zip(grid, rows):
            if s > s2:
                continue
            for t, lo, hi in zip(grid, row, row2):
                counts["monotonicity_checks"] += 1
                if lo > hi:
                    record("monotonicity", (s, s2, t), lo, hi)

    for s, row in zip(grid, rows):
        for t, st, tu_row in zip(grid, row, rows):
            for u, tu in zip(grid, tu_row):
                counts["associativity_checks"] += 1
                left = fn(st, u)
                right = fn(s, tu)
                if left != right:
                    record("associativity", (s, t, u), left, right)

    status = PASS if counts["violations"] == 0 else FAIL
    order = ("closure", "unit", "commutativity", "monotonicity", "associativity")
    witnesses = [w for axiom in order for w in by_axiom.get(axiom, [])]
    return VerificationReport(
        claim_id=f"tnorm-axioms-{label}",
        status=status,
        counts=counts,
        witnesses=witnesses,
    )
