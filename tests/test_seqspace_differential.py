"""The integer lattice operations of ``comaxlab.seqspace`` against the
``Fraction`` oracles of ``seq_oracles``: same fields, verdicts and values."""

from fractions import Fraction
from itertools import product

import pytest

from comaxlab.pairgen import GeneratorParams, generate_pair, random_pair
from comaxlab.seqspace import join, leq, make, seq
from comaxlab.suites import named_witness_pairs, structured_family

from seq_oracles import (
    attained_value,
    fields,
    fields_json,
    fraction_at,
    fraction_attained_max,
    fraction_join,
    fraction_leq,
    fraction_make,
)

F = Fraction

WIDE = GeneratorParams(prefix_max=6, max_denominator=12)
THIRDS = (F(0), F(1, 3), F(2, 3), F(1))
ACCEPTANCE_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def assert_matches_oracles(f, g):
    assert fields(join(f, g)) == fraction_join(f, g), (f, g)
    assert leq(f, g) == fraction_leq(f, g), (f, g)
    assert leq(g, f) == fraction_leq(g, f), (f, g)


def assert_make_matches_oracle(f):
    # Pad the head with the tail rule's own values, so trimming has work to do.
    padded = [fraction_at(fields(f), n) for n in range(1, f.head_len + 4)]
    assert fields(make(f.iso, padded, f.slope, f.intercept)) == fraction_make(
        f.iso, padded, f.slope, f.intercept
    ) == fields(f)
    assert attained_value(f) == fraction_attained_max(f)


@pytest.mark.parametrize("pair", [generate_pair, random_pair], ids=["generated", "random"])
def test_seeded_pairs_match_fraction_oracles(pair):
    for seed in range(1000):
        f, g = pair(seed, WIDE)
        assert_matches_oracles(f, g)
        assert_make_matches_oracle(f)
        assert_make_matches_oracle(g)


def test_thirds_family_matches_fraction_oracles_on_every_pair():
    family = structured_family(THIRDS, 2)
    assert len(family) * (len(family) + 1) // 2 == 47_895
    for i, f in enumerate(family):
        assert attained_value(f) == fraction_attained_max(f)
        for g in family[i:]:
            assert_matches_oracles(f, g)


def test_acceptance_family_builds_as_the_oracle_make():
    # The construction loops of structured_family, with each result
    # compared to the oracle's trimmed fields in wire form.
    grid = ACCEPTANCE_GRID
    inputs = [
        (iso, list(head), F(0), level)
        for head_len in range(3)
        for iso in grid
        for head in product(grid, repeat=head_len)
        for level in grid
    ]
    inputs += [(iso, [], y_limit - y_first, y_first) for iso, y_first, y_limit in product(grid, repeat=3)]
    built = {}
    for args in inputs:
        f = make(*args)
        assert f.to_json() == fields_json(fraction_make(*args)), args
        built[f] = None
    named = [fn for _, f, g in named_witness_pairs() for fn in (f, g)]
    for f in named:
        assert f.to_json() == fields_json(fraction_make(*fields(f)))
    assert set(structured_family(grid, 2)) == set(built) | set(named)


def test_join_head_reaches_the_crossing():
    # Tails 1 - 1/n and 59/60 cross at seq(60); the head must reach it.
    r = make(F(0), [], F(1), F(0))
    c = make(F(0), [], F(0), F(59, 60))
    j = join(r, c)
    assert fields(j) == fraction_join(r, c)
    assert j.head_len == 59 and j.at(seq(61)) == F(60, 61)
