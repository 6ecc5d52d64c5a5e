from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings

from comaxlab.classify import Membership, membership, step_value
from comaxlab.pairgen import GeneratorParams, generate_pair, pair_seed
from comaxlab.seq_comonotone import PairRelations
from comaxlab.seqspace import constant, join, leq, make, ramp, scaled_values
from comaxlab.suites import structured_family

from seq_oracles import comonotone, fraction_membership, seq_fns

F = Fraction


def test_unit_ramp_is_in_zero_class():
    m = membership(ramp(F(1)))
    assert m.below_ramp and m.capped_at_iso and not m.below_one
    assert m.in_zero_class
    assert step_value(ramp(F(1))) == 0


def test_zero_ramp_is_outside_zero_class():
    m = membership(ramp(F(0)))
    assert m.below_ramp
    assert not m.capped_at_iso  # peak 1 at the limit exceeds the value 0 at iso
    assert not m.below_one
    assert not m.in_zero_class
    assert step_value(ramp(F(0))) == 1


def test_constant_memberships():
    assert step_value(constant(F(0))) == 0
    for c in (F(1, 4), F(1, 2), F(3, 4), F(1)):
        m = membership(constant(c))
        assert not m.below_ramp  # positive constant exceeds the ramp at seq(1)
        assert step_value(constant(c)) == 1


def test_step_is_an_int_for_every_membership():
    for flags in product((True, False), repeat=3):
        m = Membership(*flags)
        assert type(m.step) is int, m
        assert m.step == (0 if m.in_zero_class else 1), m


@pytest.mark.parametrize("f", [ramp(F(0)), ramp(F(1)), constant(F(0))],
                         ids=["ramp0", "ramp1", "constant0"])
def test_step_value_is_a_fraction(f):
    assert type(step_value(f)) is Fraction
    assert step_value(f) == membership(f).step


def test_half_constant_fails_below_ramp_at_first_point():
    m = membership(constant(F(1, 2)))
    assert not m.below_ramp and m.capped_at_iso and m.below_one
    assert not m.in_zero_class


def test_mid_peak_function_in_zero_class_via_strict_bound():
    f = make(F(0), [F(0)], F(0), F(1, 4))
    m = membership(f)
    assert m.below_ramp and not m.capped_at_iso and m.below_one
    assert m.in_zero_class and step_value(f) == 0


def test_sloped_tail_below_ramp_with_full_peak():
    f = ramp(F(1, 2))
    m = membership(f)
    assert m.below_ramp and not m.capped_at_iso and not m.below_one
    assert not m.in_zero_class and step_value(f) == 1


def test_ordered_pair_reversed_by_step_functional():
    assert leq(ramp(F(0)), ramp(F(1)))
    assert step_value(ramp(F(0))) > step_value(ramp(F(1)))


def test_join_of_capped_and_strict_follows_peak_comparison():
    # When the capped function's iso value dominates the other peak, the
    # join stays capped at the isolated point.
    capped = make(F(1, 2), [F(0)], F(0), F(1, 2))
    low = make(F(0), [F(0)], F(0), F(1, 4))
    j = join(capped, low)
    m = membership(j)
    assert m.capped_at_iso and m.in_zero_class

    # When it does not, the join inherits the strict peak bound instead.
    capped_small = make(F(1, 4), [F(0)], F(0), F(1, 4))
    high = make(F(0), [F(0)], F(0), F(1, 2))
    j2 = join(capped_small, high)
    m2 = membership(j2)
    assert not m2.capped_at_iso and m2.below_one and m2.in_zero_class


@given(seq_fns(2, 6), seq_fns(2, 6))
@settings(max_examples=150)
def test_step_preserves_joins_of_comonotone_pairs(f, g):
    if not comonotone(f, g):
        return
    assert step_value(join(f, g)) == max(step_value(f), step_value(g))


@given(seq_fns(2, 6), seq_fns(2, 6))
@settings(max_examples=150)
def test_step_monotone_along_comonotone_ordered_pairs(f, g):
    if not comonotone(f, g):
        return
    if leq(f, g):
        assert step_value(f) <= step_value(g)


FAMILIES = {
    "halves": ((F(0), F(1, 2), F(1)), 2),
    "thirds": ((F(0), F(1, 3), F(2, 3), F(1)), 2),
    "quarters": ((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), 1),
}


@pytest.mark.parametrize("grid, prefix_max", FAMILIES.values(), ids=FAMILIES.keys())
def test_membership_matches_fraction_oracle_on_family_and_comonotone_joins(grid, prefix_max):
    family = structured_family(grid, prefix_max)
    relations = PairRelations(family)
    joins = {
        join(family[i], family[j])
        for i, j in combinations_with_replacement(range(len(family)), 2)
        if relations.comonotone(i, j)
    }
    assert len(joins) > len(family) // 2
    for f in [*family, *joins]:
        assert membership(f) == fraction_membership(f), f


def test_membership_matches_fraction_oracle_on_generated_pairs_and_joins():
    params = GeneratorParams()
    for index in range(5000):
        f, g = generate_pair(pair_seed(0, index), params)
        for h in (f, g, join(f, g)):
            assert membership(h) == fraction_membership(h), (index, h)


@given(seq_fns(4, 12))
@settings(max_examples=300)
def test_membership_matches_fraction_oracle(f):
    assert membership(f) == fraction_membership(f)


def test_below_ramp_at_a_head_point_whose_index_does_not_divide_the_scale():
    # Head length 3 over denominator 2: the scale is 2 * 4 = 8, and the
    # ramp's 2/3 at seq(3) is not a whole number over it.
    below = make(F(0), [F(0), F(1, 2), F(1, 2)], F(0), F(0))
    above = make(F(0), [F(0), F(1, 2), F(1)], F(0), F(0))
    for f in (below, above):
        scale, _ = scaled_values(f, f.head_len + 1)
        assert scale == 8
        assert membership(f) == fraction_membership(f)
    assert membership(below) == Membership(True, False, True)
    assert membership(above) == Membership(False, False, False)
