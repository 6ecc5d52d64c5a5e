from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comaxlab import properties
from comaxlab.capacity import enumerate_capacities
from comaxlab.grid import Chain, GridFn, relations
from comaxlab.integral import tnorm_integral
from comaxlab.properties import (
    _homogeneity_cases,
    chain_closed_under,
    integral_property_suite,
    is_comonotone_maxitive,
    is_monotone,
    is_normalized,
    is_scale_homogeneous,
)
from comaxlab.report import BudgetExceededError, capped_power, check_budget
from comaxlab.tnorms import TNorm

from grid_oracles import (
    grid_table,
    homogeneity_table,
    integral_value,
    join,
    oracle_closed_under,
    satisfies_all_axioms,
    uniform,
)

F = Fraction

CHAIN2 = Chain((F(0), F(1)))
CHAIN3 = Chain((F(0), F(1, 2), F(1)))
REL2 = relations(CHAIN2, 2)
REL3 = relations(CHAIN3, 2)


def first_coord(f: GridFn) -> Fraction:
    return f.values[0]


def test_normalized_examples():
    assert is_normalized(*grid_table(first_coord, REL3), REL3)
    assert not is_normalized(*grid_table(lambda f: F(0), REL3), REL3)
    cap = uniform(2)
    integral = grid_table(lambda f: integral_value(cap, TNorm.MINIMUM, f), REL3)
    assert is_normalized(*integral, REL3)


def test_normalized_checks_the_zero_function():
    # Every t-normed integral sends the zero function to 0, so only a table
    # that is wrong there alone tells whether the checker reads that constant.
    zero = REL3.constants[0]
    assert set(REL3.domain[zero].values) == {0}
    values, scale = grid_table(first_coord, REL3)
    values[zero] = scale // 2  # 1/2
    assert not is_normalized(values, scale, REL3)


def test_maxitive_examples():
    ok, _ = is_comonotone_maxitive(*grid_table(first_coord, REL3), REL3)
    assert ok
    cap = uniform(2)
    integral = grid_table(lambda f: integral_value(cap, TNorm.MINIMUM, f), REL3)
    ok, _ = is_comonotone_maxitive(*integral, REL3)
    assert ok


def test_min_functional_maxitive_but_not_join_preserving_everywhere():
    def min_coords(f: GridFn) -> Fraction:
        return min(f.values[0], f.values[1])

    ok, _ = is_comonotone_maxitive(*grid_table(min_coords, REL2), REL2)
    assert ok
    # The unrestricted identity fails on the one non-comonotone pair.
    f, g = GridFn((F(0), F(1))), GridFn((F(1), F(0)))
    assert min_coords(join(f, g)) == F(1) != max(min_coords(f), min_coords(g))


def test_monotone_examples():
    ok, _ = is_monotone(*grid_table(first_coord, REL3), REL3)
    assert ok

    def reversed_first(f: GridFn) -> Fraction:
        return 1 - f.values[0]

    ok, witness = is_monotone(*grid_table(reversed_first, REL2), REL2)
    assert not ok
    assert witness["f"] == {"values": ["0", "0"]}
    assert witness["g"] == {"values": ["1", "0"]}


def test_chain_closure():
    assert chain_closed_under(TNorm.MINIMUM, CHAIN3)
    assert chain_closed_under(TNorm.LUKASIEWICZ, CHAIN3)
    assert not chain_closed_under(TNorm.PRODUCT, CHAIN3)
    assert chain_closed_under(TNorm.PRODUCT, CHAIN2)


# Interior points with mixed denominators up to 12, between the endpoints 0 and 1.
drawn_chains = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda v: 0 < v < 1),
    max_size=8,
    unique=True,
).map(lambda interior: Chain((F(0), *sorted(interior), F(1))))


@settings(max_examples=200)
@given(drawn_chains)
@example(Chain((F(0), F(1, 2), F(1))))  # closed under minimum and Lukasiewicz, not product
def test_chain_closure_matches_the_literal_oracle(chain):
    for norm in TNorm:
        assert chain_closed_under(norm, chain) == oracle_closed_under(norm, chain)


def test_homogeneity_examples():
    for norm in TNorm:
        values, scale, inputs, cases = homogeneity_table(first_coord, norm, CHAIN3, 2)
        ok, _ = is_scale_homogeneous(values, scale, norm, inputs, cases)
        assert ok


def test_integral_homogeneous_for_every_norm():
    cap = uniform(2)
    for norm in TNorm:
        values, scale, inputs, cases = homogeneity_table(
            lambda f, _n=norm: integral_value(cap, _n, f), norm, CHAIN3, 2, seed=7
        )
        ok, witness = is_scale_homogeneous(values, scale, norm, inputs, cases)
        assert ok, witness

    def square_first(f: GridFn) -> Fraction:
        return f.values[0] * f.values[0]

    values, scale, inputs, cases = homogeneity_table(square_first, TNorm.PRODUCT, CHAIN3, 2, seed=1)
    ok, witness = is_scale_homogeneous(values, scale, TNorm.PRODUCT, inputs, cases)
    assert not ok
    # Re-verify the reported witness by direct algebra.
    c = Fraction(witness["c"])
    x = Fraction(witness["f"]["values"][0])
    assert (c * x) ** 2 != c * x**2


def test_axiom_bundle():
    cap = uniform(2)
    assert satisfies_all_axioms(
        lambda f: integral_value(cap, TNorm.MINIMUM, f), TNorm.MINIMUM, CHAIN3, 2
    )
    assert satisfies_all_axioms(first_coord, TNorm.MINIMUM, CHAIN3, 2)
    assert not satisfies_all_axioms(lambda f: F(0), TNorm.MINIMUM, CHAIN3, 2)


def test_integral_property_suite_passes():
    report = integral_property_suite(CHAIN3, 2, TNorm.MINIMUM)
    assert report.status == "pass"
    assert report.counts["capacities"] == 9


@pytest.mark.parametrize("norm", list(TNorm), ids=lambda t: t.value)
def test_checkers_read_a_table_alike_at_every_multiple_of_its_scale(norm):
    # The suite puts a capacity's table over common * cap.den, a multiple of
    # its least scale.  The integral passes every check; the reversed and the
    # squared integral give witnesses too.
    def verdicts(values, scale, inputs, cases):
        return (
            is_normalized(values, scale, REL3),
            is_comonotone_maxitive(values, scale, REL3),
            is_monotone(values, scale, REL3),
            is_scale_homogeneous(values, scale, norm, inputs, cases),
        )

    failed = 0
    for cap in enumerate_capacities(CHAIN3.values, 2):
        value = partial(integral_value, cap, norm)
        for functional in (value, lambda f: 1 - value(f), lambda f: value(f) ** 2):
            values, scale, inputs, cases = homogeneity_table(functional, norm, CHAIN3, 2)
            expected = verdicts(values, scale, inputs, cases)
            failed += expected != (True, (True, None), (True, None), (True, None))
            for k in (2, 3, 7):
                scaled = [k * v for v in values]
                assert verdicts(scaled, k * scale, inputs, cases) == expected, (cap.to_json(), k)
    assert failed > 0


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
    inputs, _ = _homogeneity_cases(norm, CHAIN3, relations(CHAIN3, 3).domain, 0)
    assert made == 129 * len(inputs) == calls


def test_integral_property_suite_budget_refusal():
    with pytest.raises(BudgetExceededError) as info:
        integral_property_suite(CHAIN3, 4, TNorm.MINIMUM, budget=100)
    assert info.value.counts == {"required": 3**14, "budget": 100}


def test_capped_power_is_exact_below_the_digit_cap():
    assert capped_power(10, 4299) == 10**4299
    assert capped_power(10, 4300) == 10**4300
    assert capped_power(3, 0) == 1
    # Stops at the cap, for an exponent past any machine integer too.
    assert capped_power(2, 10**30) == 10**4300


def test_check_budget_refuses_a_count_past_the_cap_without_it():
    check_budget(10**4300 - 1, 10**4300, "items")
    with pytest.raises(BudgetExceededError) as info:
        check_budget(10**4300, 10**7, "items")
    assert "required" not in info.value.counts
    assert str(info.value) == "items needs more than 10**4300 items, over the budget of 10000000"


def test_budget_error_counts_are_the_refusal_report_counts():
    assert BudgetExceededError(230, 229, "items").counts == {"required": 230, "budget": 229}
    with pytest.raises(BudgetExceededError) as info:
        check_budget(10**4300, 10**7, "items")
    assert info.value.counts == {"required_digits_over": 4300, "budget": 10**7}


@pytest.mark.parametrize("required", [10**4300, 10**4302], ids=["at-the-cap", "past-the-cap"])
def test_check_budget_refuses_under_a_budget_past_the_cap(required):
    with pytest.raises(BudgetExceededError) as info:
        check_budget(required, 10**4301, "items")
    assert info.value.counts == {"required_digits_over": 4300, "budget": 10**4301}
    assert str(info.value) == (
        "items needs more than 10**4300 items, over the budget of 10**4300 or more"
    )


def test_check_budget_passes_a_small_count_under_a_budget_past_the_cap():
    check_budget(5, 10**4301, "items")


def test_integral_property_suite_refuses_a_count_past_the_cap():
    with pytest.raises(BudgetExceededError) as info:
        integral_property_suite(CHAIN3, 15, TNorm.MINIMUM)
    assert info.value.counts == {"required_digits_over": 4300, "budget": 10**7}
    assert "more than 10**4300" in str(info.value)
