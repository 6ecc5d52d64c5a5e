"""Literal oracles for the grid property checkers, and tabulated functionals.

Each oracle walks the pairs (or cases) of the grid in a literal double
loop and calls the functional on every input as it meets it: no shared
relations, no index lists, no caching.  The differential tests hold
the checkers of ``comaxlab.properties`` to these: same verdict, same
witness.  ``fraction_integral`` is the t-normed integral swept on
Fractions, one input at a time, and ``oracle_check_axioms`` the axiom
checker that calls the operation anew for every check; the integer
integral over a level table, read through ``integral_value`` on a table
of one input, and the tabled checker of ``comaxlab.tnorms`` are held
to them.  The oracles reach the norms through ``fraction_apply``, the
three formulas on Fractions, which ``tnorms.apply`` and
``tnorms.apply_scaled`` are held to in turn, and decide a chain's
closure under a norm with ``oracle_closed_under``, a scan of the
chain's Fractions per pair, which ``properties.chain_closed_under`` is
held to.  ``on_numerators``
turns a Fraction operation into a stand-in for ``tnorms.apply_scaled``,
the one point where a test patches a broken norm in.
``comonotone``, ``join`` and ``leq`` decide the pair relations on
``GridFn`` values by their definitions, for the oracles and the test of
``grid.relations``; ``walk_capacities`` is the product-and-filter
walk that ``capacity.enumerate_capacities`` prunes, and
``oracle_census_shard`` the scan of every ``product`` row, checked
whole, that the census shard's backtracking walk prunes; both take the
chain and the relations to walk.  ``level_set_count`` counts the
comonotone maxitive tables without walking any, from the level steps
that fix such a table, and ``macmahon_box`` the monotone ones on two
points, by MacMahon's box formula.
``TabulatedFunctional`` and ``enumerate_functionals`` give the tests
functionals as explicit tables, walked in the census's order;
``grid_table`` and ``homogeneity_table`` tabulate a functional the way
the checkers read it, as integers over one scale, on the relations or
the homogeneity cases a suite would build and hand them; ``uniform``
gives the tests the counting capacity and ``constant`` the constant
functions.  The sampled homogeneity cases draw with
``seq_oracles.fraction_unit``, which calls ``rng.randint`` itself, so
the package's own draw is checked against it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator

from comaxlab.capacity import Capacity, subsets
from comaxlab.census import WITNESS_CAP, table_count
from comaxlab.grid import Chain, GridFn, all_functions, relations
from comaxlab.integral import LevelTable, tnorm_integral
from comaxlab.properties import (
    _homogeneity_cases,
    is_comonotone_maxitive,
    is_normalized,
    is_scale_homogeneous,
    join_break,
    order_break,
)
from comaxlab.rational import ONE, ZERO, check_unit_interval, over_lcm
from comaxlab.report import BudgetExceededError
from comaxlab.tnorms import TNorm

from seq_oracles import fraction_unit


def comonotone(f: GridFn, g: GridFn) -> bool:
    """No two points that f puts strictly one way round and g strictly the other."""
    a, b = f.values, g.values
    for i in range(len(a)):
        for j in range(len(a)):
            if a[i] < a[j] and b[i] > b[j]:
                return False
    return True


def join(f: GridFn, g: GridFn) -> GridFn:
    """The pointwise maximum, point by point."""
    return GridFn(tuple(max(x, y) for x, y in zip(f.values, g.values)))


def leq(f: GridFn, g: GridFn) -> bool:
    """f lies below g at every point."""
    return all(x <= y for x, y in zip(f.values, g.values))


def ordered_pairs(domain) -> list[tuple[int, int]]:
    """Every ``(i, j)`` with ``domain[i] <= domain[j]`` pointwise and i != j, in ``(i, j)`` order."""
    return [
        (i, j) for i, f in enumerate(domain) for j, g in enumerate(domain) if i != j and leq(f, g)
    ]


def covers(chain: Chain, f: GridFn, g: GridFn) -> bool:
    """g is f with exactly one value raised to the next value of the chain."""
    steps = [
        chain.values.index(y) - chain.values.index(x) for x, y in zip(f.values, g.values) if x != y
    ]
    return steps == [1]


def transitive_closure(pairs, size: int) -> set[tuple[int, int]]:
    """Every ``(i, j)`` with a path of one or more ``pairs`` from i to j, over ``range(size)``."""
    after = [[] for _ in range(size)]
    for i, j in pairs:
        after[i].append(j)
    closure = set()
    for i in range(size):
        stack = list(after[i])
        while stack:
            j = stack.pop()
            if (i, j) not in closure:
                closure.add((i, j))
                stack.extend(after[j])
    return closure


def walk_capacities(chain_values, n):
    """Every capacity with values in the set: each raw assignment, kept if monotone.

    The literal walk over ``product(chain_values, repeat=2^n - 2)`` that
    ``enumerate_capacities`` prunes, checking every pair of nested
    subsets; it yields in the same order.
    """
    full = frozenset(range(n))
    free = [s for s in subsets(n) if s and s != full]
    for combo in product(chain_values, repeat=len(free)):
        mu = {frozenset(): ZERO, full: ONE}
        mu.update(zip(free, combo))
        if all(mu[s] <= mu[t] for s in mu for t in mu if s <= t):
            yield Capacity(n, mu)


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


def on_numerators(op):
    """A stand-in for ``tnorms.apply_scaled`` that evaluates ``op(norm, s, t)`` on Fractions.

    It returns the value times both denominators: a Fraction
    "numerator" whenever that product is not an integer, which the
    checkers compare and reduce all the same.
    """
    def scaled(norm, s, s_den, t, t_den):
        return op(norm, Fraction(s, s_den), Fraction(t, t_den)) * s_den * t_den

    return scaled


def oracle_closed_under(norm: TNorm, chain: Chain) -> bool:
    """Is the norm of every two chain values on the chain?  A scan of the values per pair."""
    return all(fraction_apply(norm, s, t) in chain.values for s in chain for t in chain)


def grid_table(functional, rel):
    """The functional's values on the domain of the relations ``rel``, in its order.

    As the checkers read them: numerators over one scale, and the scale.
    """
    return over_lcm([functional(f) for f in rel.domain])


def homogeneity_table(functional, norm, chain, n, seed=0):
    """The functional's values on the homogeneity inputs, as ``grid_table`` gives them, then
    the inputs and the cases.

    The inputs are the grid domain, then the off-grid functions of the cases.
    """
    inputs, cases = _homogeneity_cases(norm, chain, relations(chain, n).domain, seed)
    return *over_lcm([functional(f) for f in inputs]), inputs, cases


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
    rel = relations(chain, n)
    values, scale, inputs, cases = homogeneity_table(functional, norm, chain, n, seed)
    if not is_normalized(values, scale, rel):
        return False
    ok, _ = is_comonotone_maxitive(values, scale, rel)
    if not ok:
        return False
    ok, _ = is_scale_homogeneous(values, scale, norm, inputs, cases)
    return ok


def macmahon_box(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box.

    They are the monotone maps from the a x b grid into a chain of c + 1
    values.
    """
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                num *= i + j + k - 1
                den *= i + j + k - 2
    return num // den


def level_set_count(m: int, n: int) -> int:
    """Comonotone maxitive tables for an m-value chain on n points, walking no table.

    Every function is the comonotone join of its level steps, the chain's
    k-th value on the set where it reaches that value, so such a table is
    fixed by its value index v at the zero function and, for k = 1..m-1,
    the value indices g_k of the k-th value's steps on the nonempty
    subsets.  Each g_k is monotone under inclusion with values >= v, and
    g_1 <= ... <= g_{m-1} pointwise.  The count sums these chains over v.
    """
    sets = [s for s in subsets(n) if s]
    nested = [(a, b) for a, s in enumerate(sets) for b, t in enumerate(sets) if s < t]
    total = 0
    for v in range(m):
        maps = [
            g
            for g in product(range(v, m), repeat=len(sets))
            if all(g[a] <= g[b] for a, b in nested)
        ]
        ending = [1] * len(maps)  # chains of one map, ending at each map
        for _ in range(m - 2):
            ending = [
                sum(c for g, c in zip(maps, ending) if all(x <= y for x, y in zip(g, h)))
                for h in maps
            ]
        total += sum(ending)
    return total


def oracle_census_shard(args, lo=0, hi=None):
    """A census shard by the literal scan: each ``product`` row in [lo, hi), checked whole.

    Takes and returns what ``census._census_shard`` does: the chain and
    the relations to walk, and the tally with its witnesses.  By default
    it scans every row.
    """
    chain, structure = args
    domain = structure.domain
    # The literal order, and its comonotone pairs, from the domain; the
    # covers the relations list still count, so that patched ones do.
    order = ordered_pairs(domain)
    comonotone_order = [(i, j) for i, j in order if comonotone(domain[i], domain[j])]

    def table(row):
        return {",".join(map(str, f.values)): chain.values[x] for f, x in zip(domain, row)}

    classes = Counter()
    bad_maxitive = []
    first_monotone_only = None
    for row in islice(product(range(len(chain)), repeat=len(domain)), lo, hi):
        maxitivity_break = join_break(row, structure.joins)
        maxitive = maxitivity_break is None
        monotone = order_break(row, order) is None and order_break(row, structure.covers) is None
        classes[maxitive, monotone] += 1
        if maxitive and not monotone:
            if order_break(row, comonotone_order) is not None:
                raise AssertionError("maxitive table not monotone on a comonotone ordered pair")
            if len(bad_maxitive) < WITNESS_CAP:
                bad_maxitive.append({"kind": "maxitive_not_monotone", "table": table(row)})
        if monotone and not maxitive and first_monotone_only is None:
            i, j, k = maxitivity_break
            values = [chain.values[x] for x in row]
            first_monotone_only = {
                "kind": "monotone_not_maxitive",
                "table": table(row),
                "pair": {
                    "f": domain[i].to_json(),
                    "g": domain[j].to_json(),
                    "F_join": values[k],
                    "max_F": max(values[i], values[j]),
                },
            }
    return {
        "classes": classes,
        "bad_maxitive": bad_maxitive,
        "first_monotone_only": first_monotone_only,
    }


def oracle_comonotone_maxitive(functional, chain, n):
    fns = all_functions(chain, n)
    for i, f in enumerate(fns):
        for g in fns[i:]:
            if not comonotone(f, g):
                continue
            lhs = functional(join(f, g))
            rhs = max(functional(f), functional(g))
            if lhs != rhs:
                return False, {"f": f.to_json(), "g": g.to_json(), "F_join": lhs, "max_F": rhs}
    return True, None


def oracle_monotone(functional, chain, n):
    fns = all_functions(chain, n)
    for f in fns:
        for g in fns:
            if not leq(f, g):
                continue
            vf, vg = functional(f), functional(g)
            if vf > vg:
                return False, {"f": f.to_json(), "g": g.to_json(), "F_f": vf, "F_g": vg}
    return True, None


def oracle_scale_homogeneous(functional, norm, chain, n, samples=200, seed=0, max_denominator=8):
    if oracle_closed_under(norm, chain):
        cases = ((c, f) for c in chain for f in all_functions(chain, n))
    else:
        rng = random.Random(seed)
        cases = (
            (
                fraction_unit(rng, max_denominator),
                GridFn(tuple(fraction_unit(rng, max_denominator) for _ in range(n))),
            )
            for _ in range(samples)
        )
    for c, f in cases:
        scaled = GridFn(tuple(fraction_apply(norm, c, v) for v in f.values))
        lhs = functional(scaled)
        rhs = fraction_apply(norm, c, functional(f))
        if lhs != rhs:
            return False, {"c": c, "f": f.to_json(), "F_scaled": lhs, "c_times_F": rhs}
    return True, None


def fraction_integral(cap, norm, f):
    """The t-normed integral of one input, swept over ``values(f) + {0, 1}`` on Fractions."""
    if len(f.values) != cap.n:
        raise ValueError(f"function on {len(f.values)} points vs capacity on {cap.n}")
    best = ZERO
    for t in sorted({*f.values, ZERO, ONE}):
        level = frozenset(i for i, v in enumerate(f.values) if v >= t)
        value = fraction_apply(norm, t, cap(level))
        if value > best:
            best = value
    return best


def integral_value(cap, norm, f):
    """The value of ``tnorm_integral`` at f, a table of one input, as a Fraction."""
    table = LevelTable((f,))
    [num] = tnorm_integral(cap, norm, table)
    return Fraction(num, table.common * cap.den)


def oracle_check_axioms(op, grid):
    """The four axiom passes, calling the operation for every value they compare.

    ``op`` is a built-in TNorm or any rational binary operation; each
    axiom keeps its first 10 witnesses.
    """
    for g in grid:
        check_unit_interval(g, "grid point")
    fn = op if callable(op) else (lambda s, t: fraction_apply(op, s, t))

    by_axiom = {}
    counts = {
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
        if len(bucket) < 10:
            bucket.append({"axiom": axiom, "args": args, "left": left, "right": right})

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

    order = ("closure", "unit", "commutativity", "monotonicity", "associativity")
    return counts, [w for axiom in order for w in by_axiom.get(axiom, [])]
