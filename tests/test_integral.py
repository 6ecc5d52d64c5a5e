from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comaxlab.capacity import Capacity, enumerate_capacities, subsets
from comaxlab.grid import GridFn, constant
from comaxlab.integral import tnorm_integral
from comaxlab.tnorms import TNorm, apply

from grid_oracles import uniform

F = Fraction


def brute_force_integral(cap, norm, f, steps=64):
    """Independent oracle: sweep a dense threshold grid plus the value set."""
    thresholds = {F(k, steps) for k in range(steps + 1)} | set(f.values)
    best = F(0)
    for t in sorted(thresholds):
        level = frozenset(i for i, v in enumerate(f.values) if v >= t)
        best = max(best, apply(norm, t, cap(level)))
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
    assert tnorm_integral(cap, TNorm.MINIMUM, f) == expected


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
    assert tnorm_integral(cap, norm, f) == brute_force_integral(cap, norm, f)


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10),
    st.sampled_from(list(TNorm)),
)
def test_constants_integrate_to_themselves(c, norm):
    for cap in (uniform(3), halves_capacity()):
        assert tnorm_integral(cap, norm, constant(c, cap.n)) == c


def test_zero_function_integrates_to_zero():
    for norm in TNorm:
        assert tnorm_integral(uniform(4), norm, constant(F(0), 4)) == 0


def violating_mu3():
    # mu({0}) = 1 above mu({0,1}) = 1/2: monotonicity breaks on a proper pair.
    return {
        "": "0",
        "0": "1",
        "1": "0",
        "2": "0",
        "01": "1/2",
        "02": "1",
        "12": "0",
        "012": "1",
    }


def test_capacity_validation():
    with pytest.raises(ValueError, match="monotonicity"):
        Capacity.from_json({"n": 3, "mu": violating_mu3()})
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


def test_capacity_json_round_trip():
    cap = halves_capacity()
    data = cap.to_json()
    assert data == {"n": 2, "mu": {"": "0", "0": "1/2", "1": "1/2", "01": "1"}}
    assert Capacity.from_json(data) == cap


def test_capacity_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="capacity JSON must be"):
        Capacity.from_json({"n": 1, "mu": {"": "0", "0": "1"}, "m": {}})


def test_capacity_json_rejects_boolean_n():
    # True == 1 and bool subclasses int, yet JSON true is no point count.
    with pytest.raises(ValueError, match="n: must be an integer"):
        Capacity.from_json({"n": True, "mu": {"": "0", "0": "1"}})


@pytest.mark.parametrize(
    "key",
    [
        "\u0660",  # ARABIC-INDIC DIGIT ZERO, which int() reads as 0
        "\uff10",  # FULLWIDTH DIGIT ZERO, which int() reads as 0
    ],
)
def test_capacity_json_rejects_non_ascii_digit_keys(key):
    with pytest.raises(ValueError, match="bad subset key"):
        Capacity.from_json({"n": 1, "mu": {"": "0", key: "1"}})


def test_capacity_json_rejects_monotonicity_violation():
    with pytest.raises(ValueError, match="monotonicity"):
        Capacity.from_json({"n": 3, "mu": violating_mu3()})


def test_subsets_order():
    subs = subsets(2)
    assert subs == [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]


def test_enumerate_capacities_counts():
    two = tuple(enumerate_capacities((F(0), F(1, 2), F(1)), 2))
    assert len(two) == 9  # both singletons range freely over three values
    three = tuple(enumerate_capacities((F(0), F(1, 2), F(1)), 3))
    # Hand count: sum over singleton triples of prod over pairs of
    # #{d >= max(pair)} gives 27+36+9+24+12+3+8+6+3+1 = 129.
    assert len(three) == 129
    assert all(isinstance(c, Capacity) for c in three[:3])
