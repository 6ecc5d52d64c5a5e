"""Monotone normalized set functions on a finite space.

A capacity assigns a rational weight to every subset of ``{0..n-1}``,
with value 0 on the empty set, 1 on the whole space, and weights that
never decrease when a set grows.  On the wire subsets are encoded as
strings of sorted single-digit indices ("" for the empty set, "01" for
{0,1}), which keeps the format unambiguous for the desk-scale spaces
this package targets (n <= 10).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Any, Iterator

from .rational import ONE, ZERO, check_unit_interval, format_rational, parse_rational

_MAX_JSON_POINTS = 10


def subsets(n: int) -> list[frozenset[int]]:
    """All subsets of {0..n-1}, ordered by size then lexicographic content."""
    out = [frozenset(ix for ix in range(n) if mask & (1 << ix)) for mask in range(1 << n)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _subset_key(subset: frozenset[int]) -> str:
    return "".join(str(i) for i in sorted(subset))


def _first_drop(n: int, mu: dict[frozenset[int], Fraction]) -> tuple[frozenset[int], int] | None:
    """The first ``(subset, point)`` whose extension lowers ``mu``; None means monotone."""
    for subset, value in mu.items():
        for i in range(n):
            if i not in subset and value > mu[subset | {i}]:
                return subset, i
    return None


class Capacity:
    """A monotone set function, mu(empty) = 0, mu(all) = 1; also ``nums`` over the lcm ``den``."""

    def __init__(self, n: int, mu: dict[frozenset[int], Fraction]):
        if n < 1:
            raise ValueError("capacity needs at least one point")
        self.n = n
        self._mu = dict(mu)
        self._validate()
        self.den = math.lcm(*(v.denominator for v in self._mu.values()))
        self.nums = {s: v.numerator * self.den // v.denominator for s, v in self._mu.items()}

    def _validate(self) -> None:
        full = frozenset(range(self.n))
        expected = 1 << self.n
        if len(self._mu) != expected:
            raise ValueError(f"capacity table must cover all {expected} subsets")
        for subset, value in self._mu.items():
            if not subset <= full:
                raise ValueError(f"subset {_subset_key(subset)!r} outside the space")
            check_unit_interval(value, f"mu({_subset_key(subset)!r})")
        if self._mu[frozenset()] != ZERO:
            raise ValueError("mu(empty set) must be 0")
        if self._mu[full] != ONE:
            raise ValueError("mu(full set) must be 1")
        if drop := _first_drop(self.n, self._mu):
            subset, i = drop
            bigger = subset | {i}
            raise ValueError(
                "monotonicity violation: "
                f"mu({_subset_key(subset)!r}) = {format_rational(self._mu[subset])} > "
                f"{format_rational(self._mu[bigger])} = mu({_subset_key(bigger)!r})"
            )

    def __call__(self, subset: frozenset[int]) -> Fraction:
        return self._mu[subset]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Capacity) and self.n == other.n and self._mu == other._mu

    def __repr__(self) -> str:
        return f"Capacity(n={self.n})"

    def to_json(self) -> dict[str, Any]:
        if self.n > _MAX_JSON_POINTS:
            raise ValueError("subset-string encoding supports at most 10 points")
        return {
            "n": self.n,
            "mu": {_subset_key(s): format_rational(v) for s, v in self._mu.items()},
        }

    @classmethod
    def from_json(cls, data: Any) -> Capacity:
        if not isinstance(data, dict) or set(data) != {"n", "mu"}:
            raise ValueError('capacity JSON must be {"n": ..., "mu": {...}}')
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int) or not (1 <= n <= _MAX_JSON_POINTS):
            raise ValueError("n: must be an integer in 1..10")
        raw = data["mu"]
        if not isinstance(raw, dict):
            raise ValueError("mu: must be an object keyed by subset strings")
        mu: dict[frozenset[int], Fraction] = {}
        for key, value in raw.items():
            if not all(ch in "0123456789" for ch in key):
                raise ValueError(f"mu.{key!r}: bad subset key")
            indices = [int(ch) for ch in key]
            if sorted(indices) != indices or len(set(indices)) != len(indices):
                raise ValueError(f"mu.{key!r}: subset key must list sorted distinct indices")
            if any(i >= n for i in indices):
                raise ValueError(f"mu.{key!r}: index outside the space")
            mu[frozenset(indices)] = parse_rational(value)
        return cls(n, mu)


def enumerate_capacities(chain_values: tuple[Fraction, ...], n: int) -> Iterator[Capacity]:
    """Yield every capacity on n points whose values lie in the given set.

    Enumeration is deterministic: free subsets (everything but the empty
    and full set) are ordered by size then content, and their values run
    through the chain lexicographically.  Non-monotone assignments are
    skipped.
    """
    all_subs = subsets(n)
    full = frozenset(range(n))
    free = [s for s in all_subs if s and s != full]
    for combo in product(chain_values, repeat=len(free)):
        mu = {frozenset(): ZERO, full: ONE}
        mu.update(zip(free, combo))
        if _first_drop(n, mu) is None:
            yield Capacity(n, mu)
