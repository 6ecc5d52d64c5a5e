"""The shared grid relations, and the checkers built on them, against literal oracles."""

import random
from fractions import Fraction
from functools import cache, partial

import pytest

from comaxlab.capacity import enumerate_capacities
from comaxlab.grid import Chain, GridFn, all_functions, comonotone, join, relations
from comaxlab.integral import tnorm_integral
from comaxlab.properties import is_comonotone_maxitive, is_monotone, is_scale_homogeneous
from comaxlab.tnorms import TNorm

from grid_oracles import (
    TabulatedFunctional,
    constant,
    enumerate_functionals,
    grid_table,
    homogeneity_table,
    oracle_comonotone_maxitive,
    oracle_monotone,
    oracle_scale_homogeneous,
)

F = Fraction

CHAIN2 = Chain((F(0), F(1)))
CHAIN3 = Chain((F(0), F(1, 2), F(1)))
CHAIN4 = Chain((F(0), F(1, 3), F(2, 3), F(1)))


@pytest.mark.parametrize("chain, n", [(CHAIN2, 1), (CHAIN2, 4), (CHAIN3, 2), (CHAIN4, 2), (CHAIN3, 3)])
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
    assert list(rel.order) == [
        (i, j) for i, f in enumerate(fns) for j, g in enumerate(fns) if i != j and f.leq(g)
    ]
    assert list(rel.comonotone_order) == [
        (i, j) for i, j in rel.order if comonotone(fns[i], fns[j])
    ]
    assert [fns[k] for k in rel.constants] == [constant(c, n) for c in chain]


def test_relations_built_once_per_chain_and_n():
    assert relations(CHAIN3, 2) is relations(Chain((F(0), F(1, 2), F(1))), 2)
    assert relations(CHAIN3, 2) is not relations(CHAIN3, 3)


def assert_checkers_agree(functional, chain, n):
    values = grid_table(functional, chain, n)
    assert is_comonotone_maxitive(values, chain, n) == oracle_comonotone_maxitive(
        functional, chain, n
    )
    assert is_monotone(values, chain, n) == oracle_monotone(functional, chain, n)


def test_checkers_match_oracle_on_every_two_chain_table():
    for table in enumerate_functionals(CHAIN2, 2):
        assert_checkers_agree(table, CHAIN2, 2)


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
        row = [tnorm_integral(cap, norm, f) for f in domain]
        yield TabulatedFunctional(chain, n, domain, tuple(row))
        row[rng.randrange(len(row))] = rng.choice(chain.values)
        yield TabulatedFunctional(chain, n, domain, tuple(row))


@pytest.mark.parametrize("n, seed, count", [(2, 11, 60), (3, 12, 15)])
def test_checkers_match_oracle_on_seeded_three_chain_tables(n, seed, count):
    for table in seeded_tables(CHAIN3, n, seed, count):
        assert_checkers_agree(table, CHAIN3, n)


@pytest.mark.parametrize("norm", list(TNorm))
@pytest.mark.parametrize("n", [2, 3])
def test_checkers_match_oracle_on_every_capacity_integral(n, norm):
    for cap in enumerate_capacities(CHAIN3.values, n):
        # Memoized only to keep the oracle's repeated evaluations cheap.
        functional = cache(partial(tnorm_integral, cap, norm))
        assert_checkers_agree(functional, CHAIN3, n)
        values = homogeneity_table(functional, norm, CHAIN3, n)
        assert is_scale_homogeneous(values, norm, CHAIN3, n) == oracle_scale_homogeneous(
            functional, norm, CHAIN3, n
        )


def square_first(f: GridFn) -> Fraction:
    return f[0] * f[0]


def capped_first(f: GridFn) -> Fraction:
    return min(f[0], F(1, 2))


@pytest.mark.parametrize("functional", [square_first, capped_first, max, min])
@pytest.mark.parametrize("norm", list(TNorm))
@pytest.mark.parametrize("seed", [0, 3])
def test_homogeneity_matches_oracle(functional, norm, seed):
    for chain in (CHAIN3, CHAIN4):
        values = homogeneity_table(functional, norm, chain, 2, seed)
        got = is_scale_homogeneous(values, norm, chain, 2, seed=seed)
        assert got == oracle_scale_homogeneous(functional, norm, chain, 2, seed=seed)
