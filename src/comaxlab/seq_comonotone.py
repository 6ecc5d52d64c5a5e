"""Exact comonotonicity decision on the sequence compactum.

Two functions are comonotone when no pair of points is ordered
oppositely by them.  The space is infinite, but the representation
makes the decision finite:

* pairs among the isolated point, the shared head, and the limit are
  checked directly;
* two tail points disagree iff the tail slopes have opposite signs
  (their defining product is ``slope_f * slope_g * (dt)**2``);
* a tail point against a fixed point reduces to the sign of a rational
  quadratic that factors into two affine terms, whose open negativity
  interval is intersected with the sequence coordinates by exact
  integer bounds.  Boundary zeros are allowed.

``comonotone_truncated`` is the independent brute-force oracle over a
finite depth, kept deliberately dumb.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import ONE
from .seqspace import Point, SeqFn, points_upto, scaled_values, seq

Bound = Fraction | None  # None stands for the unbounded side


def _negativity_interval(
    a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction
) -> tuple[Bound, Bound] | None:
    """Open interval where (a1*t + b1)(a2*t + b2) < 0, or None when empty.

    Requires a1*a2 >= 0: the opposite-slope case is resolved before we
    get here, which is what keeps the negativity set a single interval.
    """
    if a1 * a2 < 0:
        raise ValueError("opposite tail slopes must be handled separately")
    if a1 == 0 and a2 == 0:
        return (None, None) if b1 * b2 < 0 else None
    if a1 == 0 or a2 == 0:
        const, a, b = (b1, a2, b2) if a1 == 0 else (b2, a1, b1)
        if const == 0:
            return None
        root = -b / a
        # Need the affine factor to oppose the constant factor's sign.
        opposes_below = (a > 0) == (const > 0)
        return (None, root) if opposes_below else (root, None)
    r1, r2 = -b1 / a1, -b2 / a2
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return None if lo == hi else (lo, hi)


def _first_seq_index_in(lo: Bound, hi: Bound, n_min: int) -> int | None:
    """Smallest n >= n_min with lo < 1 - 1/n < hi, or None."""
    if lo is None:
        n_lo = n_min
    else:
        if lo >= 1:
            return None
        n_lo = max(n_min, math.floor(1 / (ONE - lo)) + 1)
    if hi is None:
        return n_lo
    if hi >= 1:
        return n_lo
    bound = 1 / (ONE - hi)  # need n strictly below this
    n_hi = bound.numerator // bound.denominator
    if bound.denominator == 1:
        n_hi -= 1
    return n_lo if n_lo <= n_hi else None


def comonotone_witness(f: SeqFn, g: SeqFn) -> tuple[Point, Point] | None:
    """First point pair ordered oppositely by f and g, or None if comonotone."""
    shared = max(f.head_len, g.head_len)
    fixed = points_upto(shared)
    _, fv = scaled_values(f, shared)
    _, gv = scaled_values(g, shared)

    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            if (fv[i] - fv[j]) * (gv[i] - gv[j]) < 0:
                return (fixed[i], fixed[j])

    if f.slope * g.slope < 0:
        return (seq(shared + 1), seq(shared + 2))

    for x0 in fixed:
        interval = _negativity_interval(
            f.slope, f.intercept - f.at(x0), g.slope, g.intercept - g.at(x0)
        )
        if interval is None:
            continue
        lo, hi = interval
        n = _first_seq_index_in(lo, hi, shared + 1)
        if n is not None:
            return (x0, seq(n))

    return None


def comonotone(f: SeqFn, g: SeqFn) -> bool:
    return comonotone_witness(f, g) is None


def comonotone_truncated(f: SeqFn, g: SeqFn, depth: int = 50) -> tuple[Point, Point] | None:
    """Brute-force check over the isolated point, seq(1..depth), and the limit.

    Each function's values are compared as integers times its own
    positive scale, which keeps the sign of every product.
    """
    _, fv = scaled_values(f, depth)
    _, gv = scaled_values(g, depth)
    for i in range(len(fv)):
        for j in range(i + 1, len(fv)):
            if (fv[i] - fv[j]) * (gv[i] - gv[j]) < 0:
                pts = points_upto(depth)
                return (pts[i], pts[j])
    return None


def defining_product(f: SeqFn, g: SeqFn, x1: Point, x2: Point) -> Fraction:
    """The comonotonicity product (f(x1)-f(x2)) * (g(x1)-g(x2))."""
    return (f.at(x1) - f.at(x2)) * (g.at(x1) - g.at(x2))
