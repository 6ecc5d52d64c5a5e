"""Sugeno-style integral with the inner minimum replaced by a t-norm.

The integral of f against a capacity mu is the largest value of
``t * mu({f >= t})`` as the threshold t sweeps [0,1].  Because the
level set {f >= t} only changes at values of f, the sweep reduces to
the finite threshold set ``values(f) + {0, 1}`` with no loss: between
consecutive values the level set is fixed and ``t * mu`` is monotone
in t.  With the minimum norm this is the classical Sugeno integral.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .capacity import Capacity
from .grid import GridFn
from .rational import ONE, ZERO
from .tnorms import TNorm, apply


@lru_cache(maxsize=4096)
def _levels(values: tuple[Fraction, ...]) -> tuple[tuple[Fraction, frozenset[int]], ...]:
    """Thresholds ``values + {0, 1}``, ascending, with their level sets (any capacity)."""
    return tuple(
        (t, frozenset(i for i, v in enumerate(values) if v >= t))
        for t in sorted({*values, ZERO, ONE})
    )


def tnorm_integral(cap: Capacity, norm: TNorm, f: GridFn) -> Fraction:
    """Exact integral value; with norm = MINIMUM this is the Sugeno integral."""
    if len(f) != cap.n:
        raise ValueError(f"function on {len(f)} points vs capacity on {cap.n}")
    best = ZERO
    for t, level in _levels(f.values):
        value = apply(norm, t, cap(level))
        if value > best:
            best = value
    return best
