"""Finite model: functions on an n-point space with values in a chain.

A Chain is the desk-scale stand-in for [0,1]: a strictly increasing
tuple of rationals running from 0 to 1.  A GridFn is simply the value
vector of a function on ``{0..n-1}``.  Comonotonicity, the join and
the pointwise order are all decided exactly;
``relations`` indexes them over a whole grid, cached per ``(chain, n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Any, Iterator

from .rational import ONE, ZERO, check_unit_interval, format_rational, parse_rational


@dataclass(frozen=True)
class Chain:
    """Strictly increasing rational values from 0 to 1, closed under min/max."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("chain needs at least the endpoints 0 and 1")
        if self.values[0] != ZERO or self.values[-1] != ONE:
            raise ValueError("chain must start at 0 and end at 1")
        for a, b in zip(self.values, self.values[1:]):
            if a >= b:
                raise ValueError("chain values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __contains__(self, value: Fraction) -> bool:
        return value in self.values


@dataclass(frozen=True)
class GridFn:
    """Function on a finite n-point space: its values, also as ``nums`` over their lcm ``den``."""

    values: tuple[Fraction, ...]
    den: int = field(init=False, repr=False, compare=False)
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for v in self.values:
            check_unit_interval(v, "function value")
        den = math.lcm(*(v.denominator for v in self.values))
        nums = tuple(v.numerator * den // v.denominator for v in self.values)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def leq(self, other: GridFn) -> bool:
        _check_lengths(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def to_json(self) -> dict[str, Any]:
        return {"values": [format_rational(v) for v in self.values]}

    @classmethod
    def from_json(cls, data: Any) -> GridFn:
        if not isinstance(data, dict) or set(data) != {"values"}:
            raise ValueError('grid function JSON must be {"values": [...]}')
        raw = data["values"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("values: must be a nonempty list")
        return cls(tuple(parse_rational(v) for v in raw))


def _check_lengths(f: GridFn, g: GridFn) -> None:
    if len(f) != len(g):
        raise ValueError(f"length mismatch: {len(f)} vs {len(g)}")


def comonotone(f: GridFn, g: GridFn) -> bool:
    """True iff f and g never order two points oppositely."""
    _check_lengths(f, g)
    n = len(f)
    for i in range(n):
        for j in range(i + 1, n):
            if (f[i] - f[j]) * (g[i] - g[j]) < 0:
                return False
    return True


def join(f: GridFn, g: GridFn) -> GridFn:
    _check_lengths(f, g)
    return GridFn(tuple(max(a, b) for a, b in zip(f.values, g.values)))


def all_functions(chain: Chain, n: int) -> list[GridFn]:
    """Every function on n points with values in the chain, in lexicographic order."""
    return [GridFn(vals) for vals in product(chain.values, repeat=n)]


@dataclass(frozen=True)
class Relations:
    """Index form of the pair relations over ``all_functions(chain, n)``."""

    domain: tuple[GridFn, ...]
    joins: tuple[tuple[int, int, int], ...]  # comonotone i < j, index of their join
    order: tuple[tuple[int, int], ...]  # domain[i] <= domain[j], i != j
    comonotone_order: tuple[tuple[int, int], ...]  # the comonotone pairs of ``order``
    constants: tuple[int, ...]  # index of the constant function at each chain value


@lru_cache(maxsize=16)
def relations(chain: Chain, n: int) -> Relations:
    """Comonotone pairs with their join, ordered pairs, and the constants, over the grid.

    Pairs are listed in lexicographic ``(i, j)`` order.  Pairs of a
    function with itself are left out: they are comonotone, their join
    is the function, and they are ordered, so no check can fail on them.
    """
    domain = tuple(all_functions(chain, n))
    index = {f.values: i for i, f in enumerate(domain)}
    pairs = [(i, j, domain[i], domain[j]) for i, j in combinations(range(len(domain)), 2)]
    joins = tuple((i, j, index[join(f, g).values]) for i, j, f, g in pairs if comonotone(f, g))
    # The domain is lexicographic over an increasing chain: f <= g, f != g puts f first.
    order = tuple((i, j) for i, j, f, g in pairs if f.leq(g))
    together = {(i, j) for i, j, _ in joins}
    comonotone_order = tuple(p for p in order if p in together)
    return Relations(domain, joins, order, comonotone_order, tuple(index[(c,) * n] for c in chain))
