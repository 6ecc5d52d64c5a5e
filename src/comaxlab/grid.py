"""Finite model: functions on an n-point space with values in a chain.

A Chain is the desk-scale stand-in for [0,1]: a strictly increasing
tuple of rationals running from 0 to 1.  A GridFn is simply the value
vector of a function on ``{0..n-1}``, kept for the integral's inputs and
the report.  ``signs`` masks where a finite row rises and falls, and
``comonotone`` tests two masks: the one decider for this model and for
the family screen ``seq_comonotone.PairRelations``.  ``relations``
indexes comonotonicity and the join over a whole grid, deciding them on
rows of chain indices, which the increasing chain orders as it orders
its values, and the pointwise order by its covers, where one entry rises
one chain step: the order is their transitive closure (Aho, Garey and
Ullman, 1972), and no cover reverses two entries, so each is comonotone.
Each suite or shard builds it once and hands it to the checkers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Any, Iterator, NamedTuple

from .rational import ONE, ZERO, Record, check_unit_interval, over_lcm


class Chain(Record):
    """Strictly increasing rational values from 0 to 1, closed under min/max."""

    __slots__ = _fields = ("values",)
    values: tuple[Fraction, ...]

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        if len(values) < 2:
            raise ValueError("chain needs at least the endpoints 0 and 1")
        if values[0] != ZERO or values[-1] != ONE:
            raise ValueError("chain must start at 0 and end at 1")
        for a, b in zip(values, values[1:]):
            if a >= b:
                raise ValueError("chain values must be strictly increasing")
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)


class GridFn(Record):
    """Function on a finite n-point space: its values, and its level sets over their lcm ``den``.

    ``levels`` pairs each threshold of ``values + {0, 1}``, ascending and
    as a numerator over ``den``, with the points where the function
    reaches it; ``integral.LevelTable`` gathers them over the lcm of its
    inputs' ``den``.  Equality, hash and repr read ``values`` alone.
    """

    __slots__ = ("values", "den", "levels")
    _fields = ("values",)
    values: tuple[Fraction, ...]
    den: int
    levels: tuple[tuple[int, frozenset[int]], ...]

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        for v in values:
            check_unit_interval(v, "function value")
        nums, den = over_lcm(values)
        self.values, self.den = values, den
        self.levels = tuple(
            (t, frozenset(i for i, v in enumerate(nums) if v >= t)) for t in sorted({*nums, 0, den})
        )

    def to_json(self) -> dict[str, Any]:
        return {"values": [str(v) for v in self.values]}


def signs(row: tuple) -> tuple[int, int]:
    """Bitmasks ``(rises, falls)`` of the pairs ``combinations(range(len(row)), 2)``, by index."""
    rises = falls = 0
    for bit, (x, y) in enumerate(combinations(row, 2)):
        if x < y:
            rises |= 1 << bit
        elif x > y:
            falls |= 1 << bit
    return rises, falls


def comonotone(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True iff the rows with ``signs`` a and b never order two points oppositely."""
    return not (a[0] & b[1] or a[1] & b[0])


def join(a: tuple, b: tuple) -> tuple:
    """The pointwise maximum of the rows a and b."""
    return tuple(map(max, a, b))


def all_functions(chain: Chain, n: int) -> list[GridFn]:
    """Every function on n points with values in the chain, in lexicographic order."""
    return [GridFn(vals) for vals in product(chain.values, repeat=n)]


class Relations(NamedTuple):
    """Index form of the pair relations over ``all_functions(chain, n)``."""

    domain: tuple[GridFn, ...]
    joins: tuple[tuple[int, int, int], ...]  # comonotone i < j, index of their join
    covers: tuple[tuple[int, int], ...]  # domain[j] is domain[i] with one entry one step up
    constants: tuple[int, ...]  # index of the constant function at each chain value


def relations(chain: Chain, n: int) -> Relations:
    """Comonotone pairs with their join, the order's covers, and the constants, over the grid.

    Each row's ``signs`` are taken once.  Pairs are listed in
    lexicographic ``(i, j)`` order.  Pairs of a function with itself are
    left out: they are comonotone, their join is the function, and they
    are ordered, so no check can fail on them.
    """
    m = len(chain)
    domain = tuple(all_functions(chain, n))
    index = {row: i for i, row in enumerate(product(range(m), repeat=n))}
    masks = [signs(row) for row in index]
    joins = []
    for (a, i), (b, j) in combinations(index.items(), 2):
        if comonotone(masks[i], masks[j]):
            joins.append((i, j, index[join(a, b)]))
    # Raising entry c one step moves m ** (n - 1 - c) rows on in lexicographic order.
    steps = [(c, m ** (n - 1 - c)) for c in reversed(range(n))]
    covers = [(i, i + step) for row, i in index.items() for c, step in steps if row[c] < m - 1]
    constants = tuple(index[(k,) * n] for k in range(m))
    return Relations(domain, tuple(joins), tuple(covers), constants)
