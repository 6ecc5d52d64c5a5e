from fractions import Fraction

import pytest

from comaxlab import properties
from comaxlab.grid import Chain, GridFn, join
from comaxlab.integral import tnorm_integral
from comaxlab.properties import (
    BudgetExceededError,
    _homogeneity_cases,
    capped_power,
    check_budget,
    chain_closed_under,
    integral_property_suite,
    is_comonotone_maxitive,
    is_monotone,
    is_normalized,
    is_scale_homogeneous,
)
from comaxlab.tnorms import TNorm

from grid_oracles import grid_table, homogeneity_table, satisfies_all_axioms, uniform

F = Fraction

CHAIN2 = Chain((F(0), F(1)))
CHAIN3 = Chain((F(0), F(1, 2), F(1)))


def first_coord(f: GridFn) -> Fraction:
    return f[0]


def test_normalized_examples():
    assert is_normalized(grid_table(first_coord, CHAIN3, 2), CHAIN3, 2)
    assert not is_normalized(grid_table(lambda f: F(0), CHAIN3, 2), CHAIN3, 2)
    cap = uniform(2)
    integral = grid_table(lambda f: tnorm_integral(cap, TNorm.MINIMUM, f), CHAIN3, 2)
    assert is_normalized(integral, CHAIN3, 2)


def test_maxitive_examples():
    ok, _ = is_comonotone_maxitive(grid_table(first_coord, CHAIN3, 2), CHAIN3, 2)
    assert ok
    cap = uniform(2)
    integral = grid_table(lambda f: tnorm_integral(cap, TNorm.MINIMUM, f), CHAIN3, 2)
    ok, _ = is_comonotone_maxitive(integral, CHAIN3, 2)
    assert ok


def test_min_functional_maxitive_but_not_join_preserving_everywhere():
    def min_coords(f: GridFn) -> Fraction:
        return min(f[0], f[1])

    ok, _ = is_comonotone_maxitive(grid_table(min_coords, CHAIN2, 2), CHAIN2, 2)
    assert ok
    # The unrestricted identity fails on the one non-comonotone pair.
    f, g = GridFn((F(0), F(1))), GridFn((F(1), F(0)))
    assert min_coords(join(f, g)) == F(1) != max(min_coords(f), min_coords(g))


def test_monotone_examples():
    ok, _ = is_monotone(grid_table(first_coord, CHAIN3, 2), CHAIN3, 2)
    assert ok

    def reversed_first(f: GridFn) -> Fraction:
        return 1 - f[0]

    ok, witness = is_monotone(grid_table(reversed_first, CHAIN2, 2), CHAIN2, 2)
    assert not ok
    assert witness["f"] == {"values": ["0", "0"]}
    assert witness["g"] == {"values": ["1", "0"]}


def test_chain_closure():
    assert chain_closed_under(TNorm.MINIMUM, CHAIN3)
    assert chain_closed_under(TNorm.LUKASIEWICZ, CHAIN3)
    assert not chain_closed_under(TNorm.PRODUCT, CHAIN3)
    assert chain_closed_under(TNorm.PRODUCT, CHAIN2)


def test_homogeneity_examples():
    for norm in TNorm:
        values = homogeneity_table(first_coord, norm, CHAIN3, 2)
        ok, _ = is_scale_homogeneous(values, norm, CHAIN3, 2)
        assert ok


def test_integral_homogeneous_for_every_norm():
    cap = uniform(2)
    for norm in TNorm:
        values = homogeneity_table(
            lambda f, _n=norm: tnorm_integral(cap, _n, f), norm, CHAIN3, 2, seed=7
        )
        ok, witness = is_scale_homogeneous(values, norm, CHAIN3, 2, seed=7)
        assert ok, witness

    def square_first(f: GridFn) -> Fraction:
        return f[0] * f[0]

    values = homogeneity_table(square_first, TNorm.PRODUCT, CHAIN3, 2, seed=1)
    ok, witness = is_scale_homogeneous(values, TNorm.PRODUCT, CHAIN3, 2, seed=1)
    assert not ok
    # Re-verify the reported witness by direct algebra.
    c = Fraction(witness["c"])
    x = Fraction(witness["f"]["values"][0])
    assert (c * x) ** 2 != c * x**2


def test_axiom_bundle():
    cap = uniform(2)
    assert satisfies_all_axioms(
        lambda f: tnorm_integral(cap, TNorm.MINIMUM, f), TNorm.MINIMUM, CHAIN3, 2
    )
    assert satisfies_all_axioms(first_coord, TNorm.MINIMUM, CHAIN3, 2)
    assert not satisfies_all_axioms(lambda f: F(0), TNorm.MINIMUM, CHAIN3, 2)


def test_integral_property_suite_passes():
    report = integral_property_suite(CHAIN3, 2, TNorm.MINIMUM)
    assert report.status == "pass"
    assert report.counts["capacities"] == 9


@pytest.mark.parametrize("norm, calls", [(TNorm.MINIMUM, 3_483), (TNorm.PRODUCT, 36_765)])
def test_integral_property_suite_integrates_once_per_input_per_capacity(monkeypatch, norm, calls):
    made = 0

    def counted(*args):
        nonlocal made
        made += 1
        return tnorm_integral(*args)

    monkeypatch.setattr(properties, "tnorm_integral", counted)
    report = integral_property_suite(CHAIN3, 3, norm)
    assert report.status == "pass" and report.counts["capacities"] == 129
    inputs, _ = _homogeneity_cases(norm, CHAIN3, 3, 0)
    assert made == 129 * len(inputs) == calls


def test_integral_property_suite_budget_refusal():
    with pytest.raises(BudgetExceededError) as info:
        integral_property_suite(CHAIN3, 4, TNorm.MINIMUM, budget=100)
    assert info.value.required == 3**14


def test_capped_power_is_exact_below_the_digit_cap():
    assert capped_power(10, 4299) == 10**4299
    assert capped_power(10, 4300) is None
    assert capped_power(3, 0) == 1
    # Stops at the cap, for an exponent past any machine integer too.
    assert capped_power(2, 10**30) is None


def test_check_budget_refuses_a_count_past_the_cap_without_it():
    check_budget(10**4300 - 1, 10**4300, "items")
    with pytest.raises(BudgetExceededError) as info:
        check_budget(10**4300, 10**7, "items")
    assert info.value.required is None
    assert str(info.value) == "items needs more than 10**4300 items, over the budget of 10000000"


@pytest.mark.parametrize("required", [None, 10**4302], ids=["none", "past-the-cap"])
def test_check_budget_refuses_under_a_budget_past_the_cap(required):
    with pytest.raises(BudgetExceededError) as info:
        check_budget(required, 10**4301, "items")
    assert info.value.budget == 10**4301
    assert str(info.value) == (
        "items needs more than 10**4300 items, over the budget of 10**4300 or more"
    )


def test_check_budget_passes_a_small_count_under_a_budget_past_the_cap():
    check_budget(5, 10**4301, "items")


def test_integral_property_suite_refuses_a_count_past_the_cap():
    with pytest.raises(BudgetExceededError) as info:
        integral_property_suite(CHAIN3, 15, TNorm.MINIMUM)
    assert info.value.required is None
    assert "more than 10**4300" in str(info.value)
