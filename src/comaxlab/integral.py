"""Sugeno-style integral with the inner minimum replaced by a t-norm.

The integral of f against a capacity mu is the largest value of
``t * mu({f >= t})`` as the threshold t sweeps [0,1].  Because the
level set {f >= t} only changes at values of f, the sweep reduces to
the finite threshold set ``values(f) + {0, 1}`` with no loss: between
consecutive values the level set is fixed and ``t * mu`` is monotone
in t.  With the minimum norm this is the classical Sugeno integral.
The sweep runs on integers, with the norm's formula chosen once and
written into it, and returns the largest numerator over ``f.den *
cap.den``.  Each ``GridFn`` derives its thresholds and their level
sets once, when it is built, so every capacity reads the same ones.
"""

from __future__ import annotations

from .capacity import Capacity
from .grid import GridFn
from .tnorms import TNorm


def tnorm_integral(cap: Capacity, norm: TNorm, f: GridFn) -> int:
    """The integral's numerator over ``f.den * cap.den``; with MINIMUM, the Sugeno integral."""
    if len(f.values) != cap.n:
        raise ValueError(f"function on {len(f.values)} points vs capacity on {cap.n}")
    den, mu, fd = cap.den, cap.nums, f.den
    if norm is TNorm.MINIMUM:
        return max(min(t * den, mu[level] * fd) for t, level in f.levels)
    if norm is TNorm.PRODUCT:
        return max(t * mu[level] for t, level in f.levels)
    return max(0, max(t * den + mu[level] * fd for t, level in f.levels) - fd * den)
