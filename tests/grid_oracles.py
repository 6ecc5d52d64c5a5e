"""Literal oracles for the grid property checkers, and tabulated functionals.

Each oracle walks the pairs (or cases) of the grid in a literal double
loop and calls the functional on every input as it meets it: no shared
relations, no index lists, no caching.  The differential tests hold
the checkers of ``comaxlab.properties`` to these: same verdict, same
witness.  ``TabulatedFunctional`` and ``enumerate_functionals`` give
the tests functionals as explicit tables, walked in the census's order;
``uniform`` gives them the counting capacity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from comaxlab.capacity import Capacity, subsets
from comaxlab.census import table_count
from comaxlab.grid import Chain, GridFn, all_functions, comonotone, join
from comaxlab.properties import (
    BudgetExceededError,
    chain_closed_under,
    is_comonotone_maxitive,
    is_normalized,
    is_scale_homogeneous,
)
from comaxlab.rational import random_unit_rational
from comaxlab.report import jsonify
from comaxlab.tnorms import apply, pointwise_scale


def uniform(n: int) -> Capacity:
    """The capacity mu(A) = |A| / n."""
    return Capacity(n, {s: Fraction(len(s), n) for s in subsets(n)})


@dataclass(frozen=True)
class TabulatedFunctional:
    """A total map from grid functions to chain values."""

    chain: Chain
    n: int
    domain: tuple[GridFn, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.values):
            raise ValueError("table must assign a value to every domain function")

    def __call__(self, f: GridFn) -> Fraction:
        return self.values[self.domain.index(f)]


def enumerate_functionals(
    chain: Chain, n: int, budget: int = 10**7
) -> Iterator[TabulatedFunctional]:
    """Yield every functional table in lexicographic order of its value row.

    Refuses up front when the total count exceeds the budget.
    """
    total = table_count(chain, n)
    if total > budget:
        raise BudgetExceededError(total, budget, "functional enumeration")
    domain = tuple(all_functions(chain, n))
    for row in product(chain.values, repeat=len(domain)):
        yield TabulatedFunctional(chain, n, domain, row)


def satisfies_all_axioms(functional, norm, chain, n, samples=200, seed=0):
    """Normalized, comonotonically maxitive, and homogeneous for the norm."""
    if not is_normalized(functional, chain, n):
        return False
    ok, _ = is_comonotone_maxitive(functional, chain, n)
    if not ok:
        return False
    ok, _ = is_scale_homogeneous(functional, norm, chain, n, samples=samples, seed=seed)
    return ok


def oracle_comonotone_maxitive(functional, chain, n):
    fns = all_functions(chain, n)
    for i, f in enumerate(fns):
        for g in fns[i:]:
            if not comonotone(f, g):
                continue
            lhs = functional(join(f, g))
            rhs = max(functional(f), functional(g))
            if lhs != rhs:
                witness = {"f": f.to_json(), "g": g.to_json(), "F_join": lhs, "max_F": rhs}
                return False, jsonify(witness)
    return True, None


def oracle_monotone(functional, chain, n):
    fns = all_functions(chain, n)
    for f in fns:
        for g in fns:
            if not f.leq(g):
                continue
            vf, vg = functional(f), functional(g)
            if vf > vg:
                witness = {"f": f.to_json(), "g": g.to_json(), "F_f": vf, "F_g": vg}
                return False, jsonify(witness)
    return True, None


def oracle_scale_homogeneous(functional, norm, chain, n, samples=200, seed=0, max_denominator=8):
    if chain_closed_under(norm, chain):
        cases = ((c, f) for c in chain for f in all_functions(chain, n))
    else:
        rng = random.Random(seed)
        cases = (
            (
                random_unit_rational(rng, max_denominator),
                GridFn(tuple(random_unit_rational(rng, max_denominator) for _ in range(n))),
            )
            for _ in range(samples)
        )
    for c, f in cases:
        scaled = GridFn(pointwise_scale(norm, c, f.values))
        lhs = functional(scaled)
        rhs = apply(norm, c, functional(f))
        if lhs != rhs:
            witness = {"c": c, "f": f.to_json(), "F_scaled": lhs, "c_times_F": rhs}
            return False, jsonify(witness)
    return True, None
