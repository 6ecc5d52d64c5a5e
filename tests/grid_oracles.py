"""Literal oracles for the grid property checkers, and tabulated functionals.

Each oracle walks the pairs (or cases) of the grid in a literal double
loop and calls the functional on every input as it meets it: no shared
relations, no index lists, no caching.  The differential tests hold
the checkers of ``comaxlab.properties`` to these: same verdict, same
witness.  ``fraction_integral`` is the t-normed integral swept on
Fractions, and ``oracle_check_axioms`` the axiom checker that calls the
operation anew for every check; the integer integral and the tabled
checker of ``comaxlab.tnorms`` are held to them.  The oracles reach the
norms through ``fraction_apply``, the three formulas on Fractions, which
``tnorms.apply`` and ``tnorms.apply_scaled`` are held to in turn.
``TabulatedFunctional`` and ``enumerate_functionals`` give the tests
functionals as explicit tables, walked in the census's order;
``grid_table`` and ``homogeneity_table`` tabulate a functional the way
the checkers read it; ``uniform`` gives the tests the counting capacity
and ``constant`` the constant functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from comaxlab.capacity import Capacity, subsets
from comaxlab.census import table_count
from comaxlab.grid import Chain, GridFn, all_functions, comonotone, join, relations
from comaxlab.properties import (
    BudgetExceededError,
    _homogeneity_cases,
    chain_closed_under,
    is_comonotone_maxitive,
    is_normalized,
    is_scale_homogeneous,
)
from comaxlab.rational import ONE, ZERO, check_unit_interval, random_unit_rational
from comaxlab.report import FAIL, PASS, VerificationReport, jsonify
from comaxlab.tnorms import TNorm, _witness


def uniform(n: int) -> Capacity:
    """The capacity mu(A) = |A| / n."""
    return Capacity(n, {s: Fraction(len(s), n) for s in subsets(n)})


def constant(c: Fraction, n: int) -> GridFn:
    """The function with value c at each of n points."""
    check_unit_interval(c, "constant")
    return GridFn((c,) * n)


def fraction_apply(norm: TNorm, s: Fraction, t: Fraction) -> Fraction:
    """The norm of s and t by its textbook formula, on Fractions."""
    if norm is TNorm.MINIMUM:
        return min(s, t)
    if norm is TNorm.PRODUCT:
        return s * t
    return max(ZERO, s + t - ONE)


def grid_table(functional, chain, n):
    """The functional's values on the grid domain, in ``grid.relations`` order."""
    return [functional(f) for f in relations(chain, n).domain]


def homogeneity_table(functional, norm, chain, n, seed=0):
    """The functional's values on the homogeneity inputs: the grid domain, then off-grid ones."""
    inputs, _ = _homogeneity_cases(norm, chain, n, seed)
    return [functional(f) for f in inputs]


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


def satisfies_all_axioms(functional, norm, chain, n, seed=0):
    """Normalized, comonotonically maxitive, and homogeneous for the norm."""
    values = homogeneity_table(functional, norm, chain, n, seed)
    if not is_normalized(values, chain, n):
        return False
    ok, _ = is_comonotone_maxitive(values, chain, n)
    if not ok:
        return False
    ok, _ = is_scale_homogeneous(values, norm, chain, n, seed=seed)
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
        scaled = GridFn(tuple(fraction_apply(norm, c, v) for v in f.values))
        lhs = functional(scaled)
        rhs = fraction_apply(norm, c, functional(f))
        if lhs != rhs:
            witness = {"c": c, "f": f.to_json(), "F_scaled": lhs, "c_times_F": rhs}
            return False, jsonify(witness)
    return True, None


def fraction_integral(cap, norm, f):
    """The t-normed integral, swept over ``values(f) + {0, 1}`` on Fractions."""
    if len(f) != cap.n:
        raise ValueError(f"function on {len(f)} points vs capacity on {cap.n}")
    best = ZERO
    for t in sorted({*f.values, ZERO, ONE}):
        level = frozenset(i for i, v in enumerate(f.values) if v >= t)
        value = fraction_apply(norm, t, cap(level))
        if value > best:
            best = value
    return best


def oracle_check_axioms(op, grid, name=None, max_witnesses=10):
    """The four axiom passes, calling the operation for every value they compare."""
    for g in grid:
        check_unit_interval(g, "grid point")
    fn = op if callable(op) else (lambda s, t: fraction_apply(op, s, t))
    label = name if name is not None else (op.value if isinstance(op, TNorm) else "custom")

    by_axiom = {}
    counts = {
        "grid_size": len(grid),
        "unit_checks": 0,
        "commutativity_checks": 0,
        "monotonicity_checks": 0,
        "associativity_checks": 0,
        "closure_violations": 0,
        "violations": 0,
    }

    def record(axiom, args, left, right):
        counts["violations"] += 1
        bucket = by_axiom.setdefault(axiom, [])
        if len(bucket) < max_witnesses:
            bucket.append(_witness(axiom, args, left, right))

    def closed(value, args):
        if not (ZERO <= value <= ONE):
            counts["closure_violations"] += 1
            record("closure", args, value, value)
        return value

    for s in grid:
        counts["unit_checks"] += 1
        got = closed(fn(s, ONE), (s, ONE))
        if got != s:
            record("unit", (s,), got, s)

    for s in grid:
        for t in grid:
            counts["commutativity_checks"] += 1
            st = closed(fn(s, t), (s, t))
            ts = fn(t, s)
            if st != ts:
                record("commutativity", (s, t), st, ts)

    for s in grid:
        for s2 in grid:
            if s > s2:
                continue
            for t in grid:
                counts["monotonicity_checks"] += 1
                lo, hi = fn(s, t), fn(s2, t)
                if lo > hi:
                    record("monotonicity", (s, s2, t), lo, hi)

    for s in grid:
        for t in grid:
            for u in grid:
                counts["associativity_checks"] += 1
                left = fn(fn(s, t), u)
                right = fn(s, fn(t, u))
                if left != right:
                    record("associativity", (s, t, u), left, right)

    status = PASS if counts["violations"] == 0 else FAIL
    order = ("closure", "unit", "commutativity", "monotonicity", "associativity")
    witnesses = [w for axiom in order for w in by_axiom.get(axiom, [])]
    return VerificationReport(
        claim_id=f"tnorm-axioms-{label}",
        status=status,
        counts=counts,
        witnesses=witnesses,
    )
