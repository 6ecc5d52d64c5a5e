from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comaxlab.capacity import Capacity, enumerate_capacities, subsets
from comaxlab.grid import Chain, GridFn, all_functions, relations
from comaxlab.integral import tnorm_integral
from comaxlab.properties import _homogeneity_cases
from comaxlab.tnorms import TNorm

from grid_oracles import (
    constant,
    fraction_apply,
    fraction_integral,
    integral_value,
    uniform,
    walk_capacities,
)

F = Fraction

unit12 = st.fractions(min_value=0, max_value=1, max_denominator=12)


def brute_force_integral(cap, norm, f, steps=64):
    """Independent oracle: sweep a dense threshold grid plus the value set."""
    thresholds = {F(k, steps) for k in range(steps + 1)} | set(f.values)
    best = F(0)
    for t in sorted(thresholds):
        level = frozenset(i for i, v in enumerate(f.values) if v >= t)
        best = max(best, fraction_apply(norm, t, cap(level)))
    return best


def halves_capacity():
    return Capacity(
        2,
        {
            frozenset(): F(0),
            frozenset({0}): F(1, 2),
            frozenset({1}): F(1, 2),
            frozenset({0, 1}): F(1),
        },
    )


def test_integral_matches_brute_force_oracle():
    cap = halves_capacity()
    f = GridFn((F(1, 4), F(3, 4)))
    expected = brute_force_integral(cap, TNorm.MINIMUM, f)
    assert expected == F(1, 2)  # max(min(1/4, 1), min(3/4, 1/2))
    assert integral_value(cap, TNorm.MINIMUM, f) == expected


@given(
    st.tuples(
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
    ),
    st.sampled_from(list(TNorm)),
)
@settings(max_examples=60)
def test_integral_agrees_with_oracle_on_random_inputs(values, norm):
    cap = halves_capacity()
    f = GridFn(values)
    assert integral_value(cap, norm, f) == brute_force_integral(cap, norm, f)


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10),
    st.sampled_from(list(TNorm)),
)
def test_constants_integrate_to_themselves(c, norm):
    for cap in (uniform(3), halves_capacity()):
        assert integral_value(cap, norm, constant(c, cap.n)) == c


def test_zero_function_integrates_to_zero():
    for norm in TNorm:
        assert integral_value(uniform(4), norm, constant(F(0), 4)) == 0


def violating_mu3():
    # mu({0}) = 1 above mu({0,1}) = 1/2: monotonicity breaks on a proper pair.
    return {
        frozenset(): F(0),
        frozenset({0}): F(1),
        frozenset({1}): F(0),
        frozenset({2}): F(0),
        frozenset({0, 1}): F(1, 2),
        frozenset({0, 2}): F(1),
        frozenset({1, 2}): F(0),
        frozenset({0, 1, 2}): F(1),
    }


def test_capacity_validation():
    with pytest.raises(ValueError, match="monotonicity"):
        Capacity(3, violating_mu3())
    with pytest.raises(ValueError, match="full set"):
        Capacity(
            2,
            {
                frozenset(): F(0),
                frozenset({0}): F(1, 2),
                frozenset({1}): F(1, 2),
                frozenset({0, 1}): F(1, 2),
            },
        )
    with pytest.raises(ValueError, match="empty"):
        Capacity(
            1,
            {frozenset(): F(1, 2), frozenset({0}): F(1)},
        )


def test_subsets_order():
    assert subsets(2) == [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    for n in range(6):
        # Every bitmask's subset, sorted by size and then by sorted content.
        masks = [frozenset(ix for ix in range(n) if mask >> ix & 1) for mask in range(1 << n)]
        assert subsets(n) == sorted(masks, key=lambda s: (len(s), sorted(s))), n


def test_enumerate_capacities_counts():
    two = tuple(enumerate_capacities((F(0), F(1, 2), F(1)), 2))
    assert len(two) == 9  # both singletons range freely over three values
    three = tuple(enumerate_capacities((F(0), F(1, 2), F(1)), 3))
    # Hand count: sum over singleton triples of prod over pairs of
    # #{d >= max(pair)} gives 27+36+9+24+12+3+8+6+3+1 = 129.
    assert len(three) == 129
    assert all(isinstance(c, Capacity) for c in three[:3])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_backtracking_yields_the_monotone_rows_of_the_product_walk(m, n):
    values = tuple(F(k, m - 1) for k in range(m))
    got = [cap.to_json() for cap in enumerate_capacities(values, n)]
    assert got == [cap.to_json() for cap in walk_capacities(values, n)]


def test_backtracking_keeps_the_walks_order_and_range_on_unsorted_values():
    # Values out of order, or outside [0,1], are walked and refused as the product walk does.
    for values in [(F(1, 2), F(0), F(1)), (F(-1, 2), F(0), F(3, 2), F(1))]:
        got = [cap.to_json() for cap in enumerate_capacities(values, 3)]
        assert got == [cap.to_json() for cap in walk_capacities(values, 3)]


def test_enumerate_capacities_count_at_four_points():
    # 7,246 of the 3**14 raw assignments on 0,1/2,1 are monotone.
    assert sum(1 for _ in enumerate_capacities((F(0), F(1, 2), F(1)), 4)) == 7_246


@pytest.mark.parametrize("norm", list(TNorm), ids=lambda t: t.value)
@pytest.mark.parametrize(
    "grid, n", [("0,1/2,1", 2), ("0,1/3,2/3,1", 2), ("0,1/2,1", 3)], ids=str
)
def test_integral_matches_fraction_oracle_on_every_chain_capacity(grid, n, norm):
    chain = Chain(tuple(F(v) for v in grid.split(",")))
    homogeneity_functions, _ = _homogeneity_cases(norm, chain, relations(chain, n).domain, 0)
    functions = {
        *all_functions(chain, n),
        *(constant(F(k, 12), n) for k in range(13)),
        *homogeneity_functions,
    }
    for cap in enumerate_capacities(chain.values, n):
        for f in functions:
            got = tnorm_integral(cap, norm, f)
            assert type(got) is int
            assert got == fraction_integral(cap, norm, f) * f.den * cap.den, (cap.to_json(), f)


@st.composite
def capacities(draw, n):
    """Monotone by construction: mu(S) is the largest drawn weight of a subset of S."""
    subs = subsets(n)
    full = frozenset(range(n))
    raw = {s: draw(unit12) for s in subs}
    mu = {s: max((raw[t] for t in subs if t and t <= s), default=F(0)) for s in subs}
    mu[full] = F(1)
    return Capacity(n, mu)


capacity_and_function = st.integers(1, 3).flatmap(
    lambda n: st.tuples(capacities(n), st.tuples(*[unit12] * n).map(GridFn))
)


@given(capacity_and_function, st.sampled_from(list(TNorm)))
@example(((halves_capacity(), GridFn((F(1, 3), F(3, 4))))), TNorm.LUKASIEWICZ)
@settings(max_examples=200)
def test_integral_matches_fraction_oracle_across_denominators(cap_f, norm):
    cap, f = cap_f
    assert integral_value(cap, norm, f) == fraction_integral(cap, norm, f)


@given(st.integers(1, 3).flatmap(capacities))
def test_capacity_integer_form_is_the_weights_over_their_least_denominator(cap):
    weights = [cap(s) for s in subsets(cap.n)]
    assert [F(cap.nums[s], cap.den) for s in subsets(cap.n)] == weights
    smaller = (d for d in range(1, cap.den) if cap.den % d == 0)
    assert all(any((w * d).denominator != 1 for w in weights) for d in smaller)


def test_capacity_refusal_messages():
    e, full1 = frozenset(), frozenset({0})
    cases = [
        (lambda: Capacity(0, {}), "capacity needs at least one point"),
        (lambda: Capacity(1, {e: F(0)}), "capacity table must cover all 2 subsets"),
        (lambda: Capacity(1, {e: F(0), frozenset({1}): F(1)}), "subset '1' outside the space"),
        (lambda: Capacity(1, {e: F(0), full1: F(3, 2)}), "mu('0') 3/2 outside [0,1]"),
        (lambda: Capacity(1, {e: F(1, 2), full1: F(1)}), "mu(empty set) must be 0"),
        (lambda: Capacity(1, {e: F(0), full1: F(1, 2)}), "mu(full set) must be 1"),
        (
            lambda: Capacity(3, violating_mu3()),
            "monotonicity violation: mu('0') = 1 > 1/2 = mu('01')",
        ),
        (lambda: uniform(11).to_json(), "subset-string encoding supports at most 10 points"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_capacity_integer_form_stays_out_of_equality_and_codec():
    a = Capacity(2, {s: F(len(s), 2) for s in subsets(2)})
    assert repr(a) == "Capacity(n=2)"
    assert (a.den, a.nums) == (2, {s: len(s) for s in subsets(2)})
    assert a.to_json() == {"n": 2, "mu": {"": "0", "0": "1/2", "1": "1/2", "01": "1"}}

