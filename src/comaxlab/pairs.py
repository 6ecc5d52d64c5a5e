"""Exact pair relations over a fixed list of sequence-space functions.

``PairRelations`` evaluates every function of the list once, on
``points_upto(D + 1)`` where ``D`` is the longest head in the list, as
integers over one common scale (``seqspace.scaled_values``, brought to
the ``math.lcm`` of the functions' scales; never floats).  From those
values it decides comonotonicity and pointwise order of any
two members:

* **Screen.** ``grid.signs`` gives each function's rise and fall
  bitmasks over every pair of those points, and ``grid.comonotone``
  tests two of them for a conflict.  If f and g conflict, the pair is
  not comonotone: the conflicting point pair is a real witness.
* **Flat tails.** If there is no conflict and either tail slope is 0,
  the pair is comonotone.  Say g's is: every ``seq(n)`` with ``n > D``
  takes g's limit value, so two such points are never ordered by g,
  and a fixed point x of ``points_upto(D)`` compares with all of them
  as with the limit.  Against x, f's difference is affine in the tail
  coordinate, so if it opposes g's fixed sign at some ``seq(n)``, it
  already does at ``seq(D + 1)`` or at the limit, both in the masks.
  (With both slopes 0 this is the plain fact that ``points_upto(D)``
  carries every order relation.)
* **Fallback.** Otherwise the pair goes to ``comonotone_witness``.
* **Order.** ``f <= g`` is a compare of the integer vectors.  Both tails
  are affine past ``seq(D)``, so their difference is nonnegative on the
  whole tail iff it is at ``seq(D + 1)`` and at the limit.

Callers walk the pairs ``i <= j`` as ``combinations_with_replacement``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .grid import comonotone, signs
from .seq_comonotone import comonotone_witness
from .seqspace import SeqFn, scaled_values


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

    def leq(self, i: int, j: int) -> bool:
        """Is ``fns[i] <= fns[j]`` pointwise on the whole space?"""
        return all(a <= b for a, b in zip(self._vectors[i], self._vectors[j]))

    def order(self, i: int, j: int) -> int:
        """-1 when ``fns[i] <= fns[j]``, 1 when only ``fns[j] <= fns[i]``, else 0."""
        if self.leq(i, j):
            return -1
        return 1 if self.leq(j, i) else 0

