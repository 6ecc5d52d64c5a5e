"""Exact comonotonicity decisions on the sequence compactum: for one pair, and within a family.

Two functions are comonotone when no pair of points is ordered
oppositely by them.  The space is infinite, but the representation
makes the decision finite:

* pairs among the isolated point, the shared head, and the limit are
  checked directly, by comparisons of the scaled values, not products;
* two tail points disagree iff the tail slopes have opposite signs
  (their defining product is ``slope_f * slope_g * (dt)**2``);
* a tail point seq(n) against a fixed point x: since
  ``f(seq(n)) = limit - slope/n``, the difference ``f(seq(n)) - f(x)``
  times ``n * scale`` is the integer ``n*a - b``, with ``a`` and ``b``
  the scaled ``limit - f(x)`` and ``slope``.  The pair is opposed iff
  the product of the two functions' affine factors is negative, and
  since each factor changes sign only once, at most three candidate
  ``n`` are tried.  Boundary zeros are allowed.

``PairRelations`` decides comonotonicity and pointwise order among the
members of a fixed list.  It evaluates every function once, on the
isolated point, ``seq(1..D + 1)`` and the limit, ``D`` the longest head, as
integers over one common scale (``scaled_values``, brought to the
``math.lcm`` of the functions' scales; never floats), and then:

* **Screen.** ``grid.signs`` gives each function's rise and fall
  bitmasks over every pair of those points, and ``grid.comonotone``
  tests two of them for a conflict.  A conflict is a real witness, so
  the pair is not comonotone.
* **Flat tails.** With no conflict and either tail slope 0, the pair
  is comonotone.  Say g's is: every ``seq(n)`` with ``n > D`` takes
  g's limit value, so a fixed point x compares with all of them as
  with the limit, and f's difference against x is affine in the tail
  coordinate; if it opposes g's fixed sign at some ``seq(n)``, it
  already does at ``seq(D + 1)`` or at the limit, both in the masks.
* **Fallback.** Otherwise the pair goes to ``comonotone_witness``.
* **Order.** ``f <= g`` is a compare of the integer vectors
  (``seqspace.order_rows``): both tails are affine past ``seq(D)``, so
  their difference is nonnegative on the whole tail iff it is at
  ``seq(D + 1)`` and at the limit.

The sequence suites walk the pairs ``i <= j`` in
``combinations_with_replacement`` order in one place,
``suites.comonotone_pairs``.

``comonotone_truncated`` is the independent brute-force oracle over a
finite depth, kept deliberately dumb: it still tries every pair of
points, comparing as above.  Both name only the points of a witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .grid import comonotone, signs
from .seqspace import Point, SeqFn, order_rows, point_at, scaled_values, seq


def _first_opposed(af: int, bf: int, ag: int, bg: int, n_min: int) -> int | None:
    """Smallest n >= n_min with (n*af - bf) * (n*ag - bg) < 0, or None.

    Each factor changes sign only at its root b/a (``b // a + 1`` is the
    first integer past it, for either sign), so the product first turns
    negative at n_min or at one of those two; past n_min, at most one is.
    """
    nf = max(n_min, bf // af + 1) if af else n_min
    ng = max(n_min, bg // ag + 1) if ag else n_min
    for n in (n_min, nf, ng):
        if (n * af - bf) * (n * ag - bg) < 0:
            return n
    return None


def comonotone_witness(f: SeqFn, g: SeqFn) -> tuple[Point, Point] | None:
    """First point pair ordered oppositely by f and g, or None if comonotone."""
    shared = max(f.head_len, g.head_len)
    f_scale, fv = scaled_values(f, shared)
    g_scale, gv = scaled_values(g, shared)

    # The values sit at point_at(0..shared + 1, shared), named only for a witness returned.
    # Literal, not grid.signs: it stops at the first opposed pair, and masking them all was slower.
    for i in range(len(fv)):
        fi, gi = fv[i], gv[i]
        for j in range(i + 1, len(fv)):
            if (fi < fv[j] and gi > gv[j]) or (fi > fv[j] and gi < gv[j]):
                return (point_at(i, shared), point_at(j, shared))

    bf = f.slope_num * (f_scale // f.den)
    bg = g.slope_num * (g_scale // g.den)
    if bf * bg < 0:
        return (seq(shared + 1), seq(shared + 2))

    # n * scale * (f(seq(n)) - f(x0)) == n * (fv[-1] - fv[x0]) - bf, and likewise for g.
    for x0, (fx, gx) in enumerate(zip(fv, gv)):
        n = _first_opposed(fv[-1] - fx, bf, gv[-1] - gx, bg, shared + 1)
        if n is not None:
            return (point_at(x0, shared), seq(n))

    return None


class PairRelations:
    """Comonotonicity and pointwise order among the members of ``fns``."""

    def __init__(self, fns: Sequence[SeqFn]):
        self._fns = list(fns)
        depth = max((f.head_len for f in self._fns), default=0)
        scaled = [scaled_values(f, depth + 1) for f in self._fns]
        scale = math.lcm(*(s for s, _ in scaled))
        # The points are the isolated point, seq(1..depth + 1) and the limit.
        self._vectors = [tuple(v * (scale // s) for v in row) for s, row in scaled]
        self._signs = [signs(vec) for vec in self._vectors]
        self._flat = [f.slope_num == 0 for f in self._fns]

    def comonotone(self, i: int, j: int) -> bool:
        """Are ``fns[i]`` and ``fns[j]`` comonotone on the whole space?"""
        if not comonotone(self._signs[i], self._signs[j]):
            return False
        if self._flat[i] or self._flat[j]:
            return True
        return comonotone_witness(self._fns[i], self._fns[j]) is None

    def order(self, i: int, j: int) -> int:
        """-1 when ``fns[i] <= fns[j]`` everywhere, 1 when only the reverse holds, else 0."""
        return order_rows(self._vectors[i], self._vectors[j])


def comonotone_truncated(f: SeqFn, g: SeqFn, depth: int = 50) -> tuple[Point, Point] | None:
    """Brute-force check over the isolated point, seq(1..depth), and the limit.

    Each function's values are compared as integers times its own
    positive scale, which keeps the order of every pair.
    """
    _, fv = scaled_values(f, depth)
    _, gv = scaled_values(g, depth)
    for i in range(len(fv)):
        fi, gi = fv[i], gv[i]
        for j in range(i + 1, len(fv)):
            if (fi < fv[j] and gi > gv[j]) or (fi > fv[j] and gi < gv[j]):
                return (point_at(i, depth), point_at(j, depth))
    return None


def defining_product(f: SeqFn, g: SeqFn, x1: Point, x2: Point) -> Fraction:
    """The comonotonicity product (f(x1)-f(x2)) * (g(x1)-g(x2))."""
    return (f.at(x1) - f.at(x2)) * (g.at(x1) - g.at(x2))
