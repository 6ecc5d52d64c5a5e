from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comaxlab.pairgen import (
    GeneratorParams,
    MonotoneMap,
    compose,
    generate_pair,
    pair_seed,
    random_seqfn,
)
from comaxlab.seqspace import constant, make, ramp, seq

from seq_oracles import IDENTITY_MAP, comonotone, constant_map, fraction_map, points_upto

F = Fraction

small_fractions = st.fractions(min_value=0, max_value=1, max_denominator=6)


MAP_VALIDATION_CASES = [
    (2, ((0, 0), (1, 2)), "must run from 0 to 1"),  # ends at 1/2
    (2, ((1, 0), (2, 2)), "must run from 0 to 1"),  # starts at 1/2
    (2, ((0, 0), (1, 1), (1, 1), (2, 2)), "strictly increasing"),  # repeated abscissa
    (1, ((0, 1), (1, 0)), "nondecreasing"),  # decreasing ordinates
    (2, ((0, 0), (2, 3)), r"lie in \[0,1\]"),  # ordinate above den
    (2, ((0, -1), (2, 0)), r"lie in \[0,1\]"),  # ordinate below 0
    (0, ((0, 0), (0, 0)), "denominator 0 must be positive"),
    (-2, ((0, 0), (-2, -2)), "denominator -2 must be positive"),
    # Several faults: the message is the first in the order above.
    (2, ((0, 2), (1, 1), (1, 1), (2, 2)), "strictly increasing"),  # falls, then repeats
    (2, ((0, -1), (1, 0), (1, 1), (2, 2)), "strictly increasing"),  # below 0, then repeats
    (2, ((0, 3), (1, 1), (2, 2)), "nondecreasing"),  # above den and falling
    (2, ((0, 1), (1, 3), (2, 2)), "nondecreasing"),  # rises above den, then falls
    (2, ((0, 3), (0, 1), (1, 0)), "must run from 0 to 1"),  # every other fault too
    (0, ((1, 5), (0, 0)), "denominator 0 must be positive"),
    (2, ((0, 0), (1, 1), (2, 3)), r"lie in \[0,1\]"),  # only the last ordinate
]


def test_monotone_map_validation():
    for den, knots, message in MAP_VALIDATION_CASES:
        with pytest.raises(ValueError, match=message):
            MonotoneMap(den, knots)
    assert MonotoneMap(2, ((0, 0), (1, 2), (2, 2))).knots == ((0, 0), (1, 2), (2, 2))


@pytest.mark.parametrize(
    "fields",
    [{"prefix_max": -1}, {"max_denominator": 0}, {"max_breakpoints": -1}],
    ids=["prefix_max", "max_denominator", "max_breakpoints"],
)
def test_generator_params_are_refused_at_construction(fields):
    with pytest.raises(ValueError) as exc:
        GeneratorParams(**fields)
    assert str(exc.value) == "generator parameters must be nonnegative (denominator >= 1)"
    assert GeneratorParams(prefix_max=0, max_denominator=1, max_breakpoints=0).prefix_max == 0


def test_identity_composition_returns_same_function():
    h = make(F(1, 2), [F(0)], F(1, 2), F(1, 4))
    assert compose(IDENTITY_MAP, h) == h


def test_constant_map_composition_gives_constant():
    h = ramp(F(0))
    assert compose(constant_map(F(1, 3)), h) == constant(F(1, 3))


def test_composition_matches_pointwise_application():
    phi = MonotoneMap(4, ((0, 0), (2, 1), (4, 4)))
    h = ramp(F(1, 3))
    composed = compose(phi, h)
    for p in points_upto(composed.head_len + 10):
        assert composed.at(p) == fraction_map(phi)(h.at(p))


def test_composition_with_tail_starting_on_a_knot():
    # The tail starts exactly at the knot abscissa 1/2 at coordinate 0;
    # the composite must follow the segment the tail moves into.
    phi = MonotoneMap(2, ((0, 0), (1, 0), (2, 2)))
    h = make(F(0), [], F(1, 2), F(1, 2))  # rises from 1/2 to 1
    composed = compose(phi, h)
    for p in points_upto(composed.head_len + 10):
        assert composed.at(p) == fraction_map(phi)(h.at(p))


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=150, deadline=None)
def test_composition_pointwise_on_random_inputs(seed):
    import random

    rng = random.Random(seed)
    from comaxlab.pairgen import random_monotone_map

    params = GeneratorParams()
    h = random_seqfn(rng, params)
    phi = random_monotone_map(rng, params)
    composed = compose(phi, h)
    reference = fraction_map(phi)
    for p in points_upto(max(composed.head_len, h.head_len) + 10):
        assert composed.at(p) == reference(h.at(p))


def test_generate_pair_deterministic_and_comonotone():
    a = generate_pair(12345)
    b = generate_pair(12345)
    assert a == b
    assert comonotone(*a)


def test_pair_seed_is_integer_stable():
    assert pair_seed(1, 2) == (1 << 32) + 2
    assert pair_seed(0, 7) == 7


def test_identity_and_constant_reparameterizations():
    h = make(F(1, 4), [F(1, 2)], F(1, 3), F(1, 3))
    f = compose(IDENTITY_MAP, h)
    g = compose(constant_map(F(2, 3)), h)
    assert f == h
    assert g == constant(F(2, 3))
    assert comonotone(f, g)
