"""Sugeno-style integral with the inner minimum replaced by a t-norm.

The integral of f against a capacity mu is the largest value of
``t * mu({f >= t})`` as the threshold t sweeps [0,1].  Because the
level set {f >= t} only changes at values of f, the sweep reduces to
the finite threshold set ``values(f) + {0, 1}`` with no loss: between
consecutive values the level set is fixed and ``t * mu`` is monotone
in t.  With the minimum norm this is the classical Sugeno integral.
A suite integrates the same inputs against every capacity, and they
share most of their levels, so it builds their ``LevelTable`` once;
``tnorm_integral`` then applies the norm's integer formula once per
atom and takes each input's maximum over its atoms, column by column.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter

from .capacity import Capacity
from .grid import GridFn
from .tnorms import TNorm


def _column(indices: tuple[int, ...]) -> itemgetter:
    """Picks the atoms at ``indices`` as a sequence, a lone one too (``itemgetter(i)`` is bare)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1))


class LevelTable:
    """The distinct level atoms of ``inputs`` over their lcm ``common``, and who reads which.

    ``atoms`` pairs each threshold, as a numerator over ``common``, with
    the points that reach it, in order of first use.  ``columns[c]``
    picks each input's c-th atom from a list indexed like ``atoms``;
    an input with fewer atoms than the widest repeats its last, which
    leaves its maximum as it is.
    """

    __slots__ = ("n", "common", "atoms", "columns")

    def __init__(self, inputs: tuple[GridFn, ...]) -> None:
        sizes = sorted({len(f.values) for f in inputs})
        if len(sizes) != 1:
            raise ValueError(f"table inputs must share one number of points, not {sizes}")
        common = math.lcm(*(f.den for f in inputs))
        index: dict[tuple[int, frozenset[int]], int] = {}
        rows = []
        for f in inputs:
            k = common // f.den
            rows.append([index.setdefault((t * k, level), len(index)) for t, level in f.levels])
        width = max(map(len, rows))
        padded = (row + row[-1:] * (width - len(row)) for row in rows)
        self.n, self.common, self.atoms = sizes[0], common, tuple(index)
        self.columns = tuple(map(_column, zip(*padded)))


def tnorm_integral(cap: Capacity, norm: TNorm, table: LevelTable) -> list[int]:
    """Each input's integral over ``table.common * cap.den``; with MINIMUM, the Sugeno integral."""
    if table.n != cap.n:
        raise ValueError(f"function on {table.n} points vs capacity on {cap.n}")
    den, mu, common = cap.den, cap.nums, table.common
    if norm is TNorm.MINIMUM:
        atoms = [min(t * den, mu[level] * common) for t, level in table.atoms]
    elif norm is TNorm.PRODUCT:
        atoms = [t * mu[level] for t, level in table.atoms]
    else:
        # t + mu - 1, clamped at 0 once per input: the 0 is one more column of the maximum.
        floor = common * den
        atoms = [t * den + mu[level] * common - floor for t, level in table.atoms]
        return list(map(max, repeat(0), *(column(atoms) for column in table.columns)))
    return list(map(max, *(column(atoms) for column in table.columns)))
