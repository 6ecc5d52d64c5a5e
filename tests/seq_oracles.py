"""Literal oracles for the sequence-model comonotonicity decision.

``fraction_truncated`` is the brute-force truncated check written on
``SeqFn.at`` values: every value a ``Fraction``, every product taken
in rational arithmetic, no scaling.  ``interval_witness`` is the exact
decision written on ``Fraction`` values too: each tail point against a
fixed point is settled by mapping the roots of two affine factors in
the coordinate ``t = 1 - 1/n`` to an open interval, then to the first
sequence index inside it.  The differential tests hold
``comaxlab.seq_comonotone`` to both: same verdict, same first witness.

``fraction_make``, ``fraction_join``, ``fraction_leq`` and
``fraction_attained_max`` are the operations of ``comaxlab.seqspace``
written literally in ``Fraction`` arithmetic.  They work on the
``Fraction`` fields ``(iso, head, slope, intercept)`` and return them
(or a verdict, or a value), so the integer code is held to them field
by field.  ``comonotone``, ``constant_map`` and
``IDENTITY_MAP`` are small helpers only the tests need.
"""

from __future__ import annotations

import math
from fractions import Fraction

from comaxlab.pairgen import MonotoneMap
from comaxlab.rational import format_rational
from comaxlab.seq_comonotone import comonotone_witness
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


def comonotone(f, g):
    return comonotone_witness(f, g) is None


def constant_map(c):
    return MonotoneMap(((Fraction(0), c), (Fraction(1), c)))


IDENTITY_MAP = MonotoneMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


def fields(f):
    """The Fraction fields ``(iso, head, slope, intercept)`` of a SeqFn."""
    return (f.iso, f.head, f.slope, f.intercept)


def fields_json(fields_):
    iso, head, slope, intercept = fields_
    return {
        "vP": format_rational(iso),
        "prefix": [format_rational(v) for v in head],
        "alpha": format_rational(slope),
        "beta": format_rational(intercept),
    }


def fraction_tail_value(slope, intercept, n):
    return slope * (1 - Fraction(1, n)) + intercept


def fraction_at(fields_, n):
    """Value at seq(n) of a function given by its Fraction fields."""
    _, head, slope, intercept = fields_
    return head[n - 1] if n <= len(head) else fraction_tail_value(slope, intercept, n)


def fraction_make(iso, head, slope, intercept):
    """Trim head entries already implied by the tail; return the fields."""
    trimmed = list(head)
    while trimmed and trimmed[-1] == fraction_tail_value(slope, intercept, len(trimmed)):
        trimmed.pop()
    return (iso, tuple(trimmed), slope, intercept)


def fraction_leq(f, g):
    a, b = fields(f), fields(g)
    if a[0] > b[0]:
        return False
    shared = max(len(a[1]), len(b[1]))
    for n in range(1, shared + 2):
        if fraction_at(a, n) > fraction_at(b, n):
            return False
    return a[2] + a[3] <= b[2] + b[3]


def fraction_attained_max(f):
    iso, head, slope, intercept = fields(f)
    candidates = [iso, *head, slope + intercept]
    if slope < 0:
        candidates.append(fraction_tail_value(slope, intercept, len(head) + 1))
    return max(candidates)


def fraction_join(f, g):
    a, b = fields(f), fields(g)
    extend_to = max(len(a[1]), len(b[1]))
    if a[2] != b[2]:
        t_star = (b[3] - a[3]) / (a[2] - b[2])
        if t_star < 1:
            # seq(n) lies at or before the crossing iff n <= 1/(1 - t_star)
            extend_to = max(extend_to, math.floor(1 / (1 - t_star)))
    head = [max(fraction_at(a, n), fraction_at(b, n)) for n in range(1, extend_to + 1)]
    tail = a if (a[2] + a[3], -a[2]) >= (b[2] + b[3], -b[2]) else b
    return fraction_make(max(a[0], b[0]), head, tail[2], tail[3])
