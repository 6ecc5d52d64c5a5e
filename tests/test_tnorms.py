from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comaxlab.tnorms import TNorm, apply, apply_scaled, axiom_check_count, check_axioms

from grid_oracles import fraction_apply, oracle_check_axioms

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


def shifted_cutoff(s, t):
    return max(F(0), s + t - F(1, 2))


def left_projection(s, t):
    return s


def cliff(s, t):
    # The minimum, except that it drops to 0 once s + t passes 1 below the corner.
    return min(s, t) if s + t <= 1 or max(s, t) == 1 else F(0)


def plain_sum(s, t):
    return s + t


# Each custom op, with an axiom it breaks on the sixteenths.
BROKEN = {
    shifted_cutoff: "associativity",
    left_projection: "commutativity",
    cliff: "monotonicity",
    plain_sum: "closure",
}
AXIOM_GRIDS = {
    "sixteenths": SIXTEENTHS,
    "0,1/3,1/2,1": (F(0), F(1, 3), F(1, 2), F(1)),
    "0,1": (F(0), F(1)),
}


def _op_id(op):
    return op.value if isinstance(op, TNorm) else op.__name__


@pytest.mark.parametrize("op", [*TNorm, *BROKEN], ids=_op_id)
@pytest.mark.parametrize("grid", list(AXIOM_GRIDS.values()), ids=list(AXIOM_GRIDS))
def test_check_axioms_matches_the_literal_oracle(grid, op):
    for max_witnesses in (10, 2):
        report = check_axioms(op, grid, max_witnesses=max_witnesses)
        oracle = oracle_check_axioms(op, grid, max_witnesses=max_witnesses)
        assert report.to_json() == oracle.to_json()
    if grid is SIXTEENTHS and op in BROKEN:
        assert BROKEN[op] in {w["axiom"] for w in report.witnesses}


@pytest.mark.parametrize("grid", list(AXIOM_GRIDS.values()), ids=list(AXIOM_GRIDS))
def test_check_axioms_calls_the_op_once_per_pair_and_twice_per_triple(grid):
    calls = 0

    def counted(s, t):
        nonlocal calls
        calls += 1
        return apply(TNorm.PRODUCT, s, t)

    check_axioms(counted, grid)
    g = len(grid)
    assert calls == g + g * g + 2 * g**3


@given(unit_fractions, unit_fractions)
def test_apply_scaled_is_apply_on_numerators(s, t):
    for norm in TNorm:
        expected = fraction_apply(norm, s, t)
        num = apply_scaled(norm, s.numerator, s.denominator, t.numerator, t.denominator)
        assert F(num, s.denominator * t.denominator) == expected
        assert apply(norm, s, t) == expected


def test_shifted_cutoff_op_fails_with_witness_triple():
    report = check_axioms(shifted_cutoff, SIXTEENTHS, name="shifted-cutoff")
    assert report.status == "fail"
    triples = [w for w in report.witnesses if w["axiom"] == "associativity"]
    assert triples, "expected an associativity witness triple"
    s, t, u = (Fraction(a) for a in triples[0]["args"])
    assert shifted_cutoff(shifted_cutoff(s, t), u) != shifted_cutoff(s, shifted_cutoff(t, u))


@pytest.mark.parametrize("size", [2, 3, 5, 17])
def test_axiom_check_count_is_exact(size):
    grid = tuple(F(k, size - 1) for k in range(size))
    counts = check_axioms(TNorm.PRODUCT, grid).counts
    checks = sum(v for k, v in counts.items() if k.endswith("_checks"))
    assert axiom_check_count(size) == checks
