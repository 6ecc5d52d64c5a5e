"""Monotone normalized set functions on a finite space.

A capacity assigns a rational weight to every subset of ``{0..n-1}``,
with value 0 on the empty set, 1 on the whole space, and weights that
never decrease when a set grows; ``enumerate_capacities`` backtracks
through only those.  A ``Capacity`` keeps its weights as integer
numerators over their lcm.  Reports write capacities, never read them,
with subsets as strings of sorted single-digit indices ("" for the empty set,
"01" for {0,1}), which keeps the format unambiguous up to n = 10 points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Any, Iterator

from .rational import ONE, ZERO, check_unit, over_lcm

_MAX_JSON_POINTS = 10


def subsets(n: int) -> list[frozenset[int]]:
    """All subsets of {0..n-1}, ordered by size then lexicographic content."""
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


def _subset_key(subset: frozenset[int]) -> str:
    return "".join(str(i) for i in sorted(subset))


def _first_drop(n: int, nums: dict[frozenset[int], int]) -> tuple[frozenset[int], int] | None:
    """The first ``(subset, point)`` whose extension lowers ``nums``; None means monotone."""
    for subset, value in nums.items():
        for i in range(n):
            if i not in subset and value > nums[subset | {i}]:
                return subset, i
    return None


class Capacity:
    """A monotone set function, mu(empty) = 0, mu(all) = 1, as ``nums`` over their lcm ``den``."""

    def __init__(self, n: int, mu: dict[frozenset[int], Fraction]):
        if n < 1:
            raise ValueError("capacity needs at least one point")
        self.n = n
        nums, self.den = over_lcm(mu.values())
        self.nums = dict(zip(mu, nums))
        self._validate()

    def _validate(self) -> None:
        full = frozenset(range(self.n))
        expected = 1 << self.n
        if len(self.nums) != expected:
            raise ValueError(f"capacity table must cover all {expected} subsets")
        for subset, num in self.nums.items():
            if not subset <= full:
                raise ValueError(f"subset {_subset_key(subset)!r} outside the space")
            check_unit(num, self.den, f"mu({_subset_key(subset)!r})")
        if self.nums[frozenset()] != 0:
            raise ValueError("mu(empty set) must be 0")
        if self.nums[full] != self.den:
            raise ValueError("mu(full set) must be 1")
        if drop := _first_drop(self.n, self.nums):
            subset, i = drop
            bigger = subset | {i}
            raise ValueError(
                "monotonicity violation: "
                f"mu({_subset_key(subset)!r}) = {self(subset)} > "
                f"{self(bigger)} = mu({_subset_key(bigger)!r})"
            )

    def __call__(self, subset: frozenset[int]) -> Fraction:
        return Fraction(self.nums[subset], self.den)

    def __repr__(self) -> str:
        return f"Capacity(n={self.n})"

    def to_json(self) -> dict[str, Any]:
        if self.n > _MAX_JSON_POINTS:
            raise ValueError("subset-string encoding supports at most 10 points")
        return {
            "n": self.n,
            "mu": {_subset_key(s): str(self(s)) for s in self.nums},
        }


def enumerate_capacities(chain_values: tuple[Fraction, ...], n: int) -> Iterator[Capacity]:
    """Yield every capacity on n points whose values lie in the given set.

    Enumeration is deterministic: free subsets (everything but the empty
    and full set) are ordered by size then content, and their values run
    through the chain lexicographically, from the largest value on their
    immediate subsets up to 1, so backtracking meets only monotone ones.
    """
    free = subsets(n)[1:-1]
    mu = {frozenset(): ZERO, frozenset(range(n)): ONE}

    def assign(k: int) -> Iterator[Capacity]:
        if k == len(free):
            yield Capacity(n, mu)
            return
        subset = free[k]
        low = max(mu[subset - {i}] for i in subset)
        for value in chain_values:
            if low <= value <= ONE:
                mu[subset] = value
                yield from assign(k + 1)

    yield from assign(0)
