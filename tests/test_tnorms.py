from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comaxlab.tnorms import TNorm, apply, axiom_check_count, check_axioms

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)

SIXTEENTHS = tuple(F(k, 16) for k in range(17))


def test_apply_examples():
    assert apply(TNorm.MINIMUM, F(3, 10), F(7, 10)) == F(3, 10)
    assert apply(TNorm.PRODUCT, F(1, 2), F(1, 2)) == F(1, 4)
    assert apply(TNorm.LUKASIEWICZ, F(1, 2), F(7, 10)) == F(1, 5)


def test_apply_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply(TNorm.MINIMUM, F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        apply(TNorm.PRODUCT, F(1, 2), F(-1, 2))


@given(unit_fractions, unit_fractions)
def test_unit_and_commutativity(s, t):
    for norm in TNorm:
        assert apply(norm, s, F(1)) == s
        assert apply(norm, s, t) == apply(norm, t, s)
        assert 0 <= apply(norm, s, t) <= 1


@given(unit_fractions, unit_fractions, unit_fractions)
def test_associativity_and_monotonicity(s, t, u):
    for norm in TNorm:
        assert apply(norm, apply(norm, s, t), u) == apply(norm, s, apply(norm, t, u))
        lo, hi = min(s, t), max(s, t)
        assert apply(norm, lo, u) <= apply(norm, hi, u)


@given(unit_fractions, unit_fractions)
def test_minimum_dominates(s, t):
    cap = apply(TNorm.MINIMUM, s, t)
    assert apply(TNorm.PRODUCT, s, t) <= cap
    assert apply(TNorm.LUKASIEWICZ, s, t) <= cap


def test_axioms_pass_on_small_grid():
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    report = check_axioms(TNorm.MINIMUM, grid)
    assert report.status == "pass"
    assert report.counts["violations"] == 0


def test_axioms_exhaustive_on_sixteenths():
    for norm in TNorm:
        report = check_axioms(norm, SIXTEENTHS)
        assert report.status == "pass", report.witnesses
        assert report.counts["associativity_checks"] == 17**3


def test_shifted_cutoff_op_fails_with_witness_triple():
    def pseudo(s, t):
        return max(F(0), s + t - F(1, 2))

    report = check_axioms(pseudo, SIXTEENTHS, name="shifted-cutoff")
    assert report.status == "fail"
    triples = [w for w in report.witnesses if w["axiom"] == "associativity"]
    assert triples, "expected an associativity witness triple"
    s, t, u = (Fraction(a) for a in triples[0]["args"])
    assert pseudo(pseudo(s, t), u) != pseudo(s, pseudo(t, u))


@pytest.mark.parametrize("size", [2, 3, 5, 17])
def test_axiom_check_count_is_exact(size):
    grid = tuple(F(k, size - 1) for k in range(size))
    counts = check_axioms(TNorm.PRODUCT, grid).counts
    checks = sum(v for k, v in counts.items() if k.endswith("_checks"))
    assert axiom_check_count(size) == checks
