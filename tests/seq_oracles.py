"""Literal oracles for the sequence-model comonotonicity decision.

``fraction_truncated`` is the brute-force truncated check written on
``SeqFn.at`` values: every value a ``Fraction``, every product taken
in rational arithmetic, no scaling.  ``interval_witness`` is the exact
decision written on ``Fraction`` values too: each tail point against a
fixed point is settled by mapping the roots of two affine factors in
the coordinate ``t = 1 - 1/n`` to an open interval, then to the first
sequence index inside it.  The differential tests hold
``comaxlab.seq_comonotone`` to both: same verdict, same first witness.
"""

from __future__ import annotations

import math
from fractions import Fraction

from comaxlab.seqspace import points_upto, seq

Bound = Fraction | None  # None stands for the unbounded side


def fraction_truncated(f, g, depth=50):
    pts = points_upto(depth)
    fv = [f.at(p) for p in pts]
    gv = [g.at(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (fv[i] - fv[j]) * (gv[i] - gv[j]) < 0:
                return (pts[i], pts[j])
    return None


def negativity_interval(a1, b1, a2, b2):
    """Open interval where (a1*t + b1)(a2*t + b2) < 0, or None when empty.

    Requires a1*a2 >= 0, which keeps the negativity set a single interval.
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


def first_seq_index_in(lo: Bound, hi: Bound, n_min: int) -> int | None:
    """Smallest n >= n_min with lo < 1 - 1/n < hi, or None."""
    if lo is None:
        n_lo = n_min
    else:
        if lo >= 1:
            return None
        n_lo = max(n_min, math.floor(1 / (1 - lo)) + 1)
    if hi is None or hi >= 1:
        return n_lo
    bound = 1 / (1 - hi)  # need n strictly below this
    n_hi = bound.numerator // bound.denominator
    if bound.denominator == 1:
        n_hi -= 1
    return n_lo if n_lo <= n_hi else None


def interval_witness(f, g):
    shared = max(f.head_len, g.head_len)
    fixed = points_upto(shared)
    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            x1, x2 = fixed[i], fixed[j]
            if (f.at(x1) - f.at(x2)) * (g.at(x1) - g.at(x2)) < 0:
                return (x1, x2)
    if f.slope * g.slope < 0:
        return (seq(shared + 1), seq(shared + 2))
    for x0 in fixed:
        interval = negativity_interval(
            f.slope, f.intercept - f.at(x0), g.slope, g.intercept - g.at(x0)
        )
        if interval is not None:
            n = first_seq_index_in(*interval, shared + 1)
            if n is not None:
                return (x0, seq(n))
    return None
