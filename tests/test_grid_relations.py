"""The shared grid relations, and the checkers built on them, against literal oracles."""

import random
from fractions import Fraction
from functools import cache, partial

import pytest

from comaxlab.capacity import enumerate_capacities
from comaxlab.grid import Chain, GridFn, all_functions, relations
from comaxlab.properties import is_comonotone_maxitive, is_monotone, is_scale_homogeneous
from comaxlab.tnorms import TNorm

from grid_oracles import (
    TabulatedFunctional,
    comonotone,
    constant,
    covers,
    enumerate_functionals,
    grid_table,
    homogeneity_table,
    integral_value,
    join,
    oracle_comonotone_maxitive,
    oracle_monotone,
    oracle_scale_homogeneous,
    ordered_pairs,
    transitive_closure,
)

F = Fraction

CHAIN2 = Chain((F(0), F(1)))
CHAIN3 = Chain((F(0), F(1, 2), F(1)))
CHAIN4 = Chain((F(0), F(1, 3), F(2, 3), F(1)))


@pytest.mark.parametrize(
    "chain, n",
    [(CHAIN2, 1), (CHAIN2, 4), (CHAIN3, 2), (CHAIN4, 2), (CHAIN3, 3), (CHAIN4, 3), (CHAIN2, 5)],
)
def test_relations_match_definitions(chain, n):
    rel = relations(chain, n)
    fns = all_functions(chain, n)
    assert list(rel.domain) == fns
    assert list(rel.joins) == [
        (i, j, fns.index(join(f, g)))
        for i, f in enumerate(fns)
        for j, g in enumerate(fns)
        if i < j and comonotone(f, g)
    ]
    assert list(rel.covers) == [
        (i, j) for i, f in enumerate(fns) for j, g in enumerate(fns) if covers(chain, f, g)
    ]
    joins = set(rel.joins)
    for i, j in rel.covers:
        assert comonotone(fns[i], fns[j])
        assert (i, j, j) in joins
    assert sorted(transitive_closure(rel.covers, len(fns))) == ordered_pairs(fns)
    assert [fns[k] for k in rel.constants] == [constant(c, n) for c in chain]


def test_relations_build_no_grid_fn_beyond_the_domain(monkeypatch):
    built = []
    init = GridFn.__init__

    def counted(f, values):
        built.append(f)
        init(f, values)

    monkeypatch.setattr(GridFn, "__init__", counted)
    rel = relations(CHAIN4, 3)
    assert len(built) == len(rel.domain) == 4**3


def assert_checkers_agree(functional, chain, n, rel):
    values, scale = grid_table(functional, rel)
    got = is_comonotone_maxitive(values, scale, rel)
    assert got == oracle_comonotone_maxitive(functional, chain, n)
    assert is_monotone(values, scale, rel) == oracle_monotone(functional, chain, n)


def test_checkers_match_oracle_on_every_two_chain_table():
    rel = relations(CHAIN2, 2)
    for table in enumerate_functionals(CHAIN2, 2):
        assert_checkers_agree(table, CHAIN2, 2, rel)


def seeded_tables(chain, n, seed, count):
    """Random tables, integral tables, and integral tables with one entry changed.

    Random tables fail early; a changed integral table fails wherever
    the change lands, often late in the pair order.
    """
    rng = random.Random(seed)
    domain = tuple(all_functions(chain, n))
    caps = list(enumerate_capacities(chain.values, n))
    for _ in range(count):
        yield TabulatedFunctional(chain, n, domain, tuple(rng.choice(chain.values) for _ in domain))
        cap, norm = rng.choice(caps), rng.choice([TNorm.MINIMUM, TNorm.LUKASIEWICZ])
        row = [integral_value(cap, norm, f) for f in domain]
        yield TabulatedFunctional(chain, n, domain, tuple(row))
        row[rng.randrange(len(row))] = rng.choice(chain.values)
        yield TabulatedFunctional(chain, n, domain, tuple(row))


@pytest.mark.parametrize("n, seed, count", [(2, 11, 60), (3, 12, 15)])
def test_checkers_match_oracle_on_seeded_three_chain_tables(n, seed, count):
    rel = relations(CHAIN3, n)
    for table in seeded_tables(CHAIN3, n, seed, count):
        assert_checkers_agree(table, CHAIN3, n, rel)


@pytest.mark.parametrize("norm", list(TNorm))
@pytest.mark.parametrize("n", [2, 3])
def test_checkers_match_oracle_on_every_capacity_integral(n, norm):
    rel = relations(CHAIN3, n)
    for cap in enumerate_capacities(CHAIN3.values, n):
        # Memoized only to keep the oracle's repeated evaluations cheap.
        functional = cache(partial(integral_value, cap, norm))
        assert_checkers_agree(functional, CHAIN3, n, rel)
        values, scale, inputs, cases = homogeneity_table(functional, norm, CHAIN3, n)
        got = is_scale_homogeneous(values, scale, norm, inputs, cases)
        assert got == oracle_scale_homogeneous(functional, norm, CHAIN3, n)


def square_first(f: GridFn) -> Fraction:
    return f.values[0] * f.values[0]


def capped_first(f: GridFn) -> Fraction:
    return min(f.values[0], F(1, 2))


def largest(f: GridFn) -> Fraction:
    return max(f.values)


def smallest(f: GridFn) -> Fraction:
    return min(f.values)


FUNCTIONALS = {"square_first": square_first, "capped_first": capped_first,
               "max": largest, "min": smallest}


@pytest.mark.parametrize("functional", list(FUNCTIONALS.values()), ids=list(FUNCTIONALS))
@pytest.mark.parametrize("norm", list(TNorm))
@pytest.mark.parametrize("seed", [0, 3])
def test_homogeneity_matches_oracle(functional, norm, seed):
    for chain in (CHAIN3, CHAIN4):
        values, scale, inputs, cases = homogeneity_table(functional, norm, chain, 2, seed)
        got = is_scale_homogeneous(values, scale, norm, inputs, cases)
        assert got == oracle_scale_homogeneous(functional, norm, chain, 2, seed=seed)
