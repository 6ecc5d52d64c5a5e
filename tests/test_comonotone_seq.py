import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from comaxlab.pairgen import GeneratorParams, generate_pair, pair_seed, random_pair
from comaxlab.seq_comonotone import (
    _first_opposed,
    comonotone_truncated,
    comonotone_witness,
    defining_product,
)
from comaxlab.seqspace import ISOLATED, constant, make, ramp, seq

from seq_oracles import comonotone, fraction_truncated, interval_witness, seq_fns

F = Fraction


def test_opposed_ramps_witness():
    witness = comonotone_witness(ramp(F(0)), ramp(F(1)))
    assert witness == (ISOLATED, seq(2))
    assert defining_product(ramp(F(0)), ramp(F(1)), *witness) == F(-1, 4)


def test_constants_comonotone_with_everything():
    for f in (ramp(F(0)), ramp(F(1)), make(F(1, 2), [F(0)], F(-1, 4), F(1, 4))):
        for c in (F(0), F(1, 3), F(1)):
            assert comonotone(f, constant(c))
            assert comonotone(constant(c), f)


def test_opposite_tail_slopes_always_clash():
    up = make(F(0), [], F(1, 2), F(0))
    down = make(F(0), [], F(-1, 2), F(1, 2))
    witness = comonotone_witness(up, down)
    assert witness is not None
    assert defining_product(up, down, *witness) < 0


def test_full_peak_function_clashes_with_unit_valued_partner():
    # A function below the unit ramp whose peak 1 is approached only along
    # the sequence must eventually exceed its own isolated value, while any
    # ramp-bounded partner with value 1 at the isolated point sits strictly
    # below 1 on the sequence: the orderings disagree.
    f = ramp(F(1, 2))  # below the ramp, peak 1 at the limit, iso value 1/2
    g = ramp(F(1))  # below the ramp with value 1 at the isolated point
    witness = comonotone_witness(f, g)
    assert witness is not None
    assert defining_product(f, g, *witness) < 0


def test_tail_against_fixed_point_interval_analysis():
    # f rises along the tail while g stays above f's isolated value only
    # beyond a crossing; the violating sequence index is found exactly.
    f = make(F(1, 2), [], F(1), F(0))  # ramp with iso 1/2
    g = make(F(0), [], F(1), F(0))  # plain ramp, iso 0
    assert comonotone(f, g)

    h = make(F(1, 2), [], F(-1, 2), F(1, 2))  # falls from 1/2 toward 0
    witness = comonotone_witness(f, h)
    assert witness is not None
    assert defining_product(f, h, *witness) < 0


def test_negativity_interval_boundary_zeros_are_allowed():
    # Both ramps sit at their crossing thresholds exactly on sequence
    # points: the defining product vanishes there but never goes negative,
    # so the pair is comonotone.
    f = make(F(1, 2), [], F(1), F(0))  # threshold hit exactly at seq(2)
    g = make(F(2, 3), [], F(1), F(0))  # threshold hit exactly at seq(3)
    assert comonotone_witness(f, g) is None
    assert comonotone_truncated(f, g, depth=50) is None


def test_negativity_interval_interior_point_is_found_exactly():
    # Same shape, but now one sequence point falls strictly between the
    # two thresholds; the decision must name it.
    f = make(F(1, 2), [], F(1), F(0))
    g = make(F(3, 4), [], F(1), F(0))
    witness = comonotone_witness(f, g)
    assert witness == (ISOLATED, seq(3))
    assert defining_product(f, g, *witness) < 0


def test_violation_beyond_truncated_horizon_is_still_found():
    # The thresholds 59/60 and 61/62 leave exactly one sequence point,
    # seq(61), inside the negativity interval: past the depth-50 oracle
    # but found by the interval analysis.
    f = make(F(59, 60), [], F(1), F(0))
    g = make(F(61, 62), [], F(1), F(0))
    assert comonotone_truncated(f, g, depth=50) is None
    witness = comonotone_witness(f, g)
    assert witness == interval_witness(f, g) == (ISOLATED, seq(61))
    assert defining_product(f, g, *witness) < 0
    assert comonotone_truncated(f, g, depth=70) is not None


@given(seq_fns(3, 6), seq_fns(3, 6))
@settings(max_examples=120)
def test_symmetry_and_reflexivity(f, g):
    assert comonotone(f, f)
    assert comonotone(f, g) == comonotone(g, f)


@given(seq_fns(3, 6), seq_fns(3, 6))
@settings(max_examples=120)
def test_exact_decision_vs_truncated_oracle(f, g):
    exact = comonotone_witness(f, g)
    truncated = comonotone_truncated(f, g, depth=50)
    if truncated is not None:
        assert exact is not None, "exact check passed a pair the oracle rejects"
    if exact is not None:
        assert defining_product(f, g, *exact) < 0


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=100, deadline=None)
def test_generated_pairs_vs_oracle(seed):
    f, g = generate_pair(seed)
    assert comonotone_truncated(f, g, depth=50) is None
    assert comonotone_witness(f, g) is None


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=100, deadline=None)
def test_random_pairs_vs_oracle(seed):
    f, g = random_pair(seed, GeneratorParams())
    exact = comonotone_witness(f, g)
    truncated = comonotone_truncated(f, g, depth=50)
    if truncated is not None:
        assert exact is not None
    if exact is not None:
        assert defining_product(f, g, *exact) < 0


PARAMS2 = GeneratorParams(prefix_max=2)
DEPTHS = (50, 70)


def test_integer_oracle_matches_fraction_oracle_on_generated_pairs():
    for seed in range(1_000):
        f, g = generate_pair(pair_seed(1, seed), PARAMS2)
        for depth in DEPTHS:
            assert comonotone_truncated(f, g, depth) == fraction_truncated(f, g, depth) is None


def test_integer_oracle_matches_fraction_oracle_on_random_pairs():
    found = {depth: 0 for depth in DEPTHS}
    for seed in range(1_000):
        f, g = random_pair(pair_seed(2, seed), PARAMS2)
        for depth in DEPTHS:
            witness = fraction_truncated(f, g, depth)
            assert comonotone_truncated(f, g, depth) == witness, (seed, depth, f, g)
            found[depth] += witness is not None
    assert all(0 < n < 1_000 for n in found.values()), found


def test_exact_decision_keeps_the_first_fixed_point_witness():
    # Among the isolated point, the shared head and the limit, the exact
    # decision names the first opposed pair in the oracle's loop order.
    for seed in range(1_000):
        f, g = random_pair(pair_seed(3, seed), GeneratorParams(prefix_max=4, max_denominator=12))
        fixed = fraction_truncated(f, g, max(f.head_len, g.head_len))
        if fixed is not None:
            assert comonotone_witness(f, g) == fixed, (seed, f, g)


def test_exact_decision_matches_interval_oracle_on_generated_pairs():
    for seed in range(1_000):
        f, g = generate_pair(pair_seed(4, seed), PARAMS2)
        assert comonotone_witness(f, g) == interval_witness(f, g) is None, (seed, f, g)


def test_exact_decision_matches_interval_oracle_on_random_pairs():
    params = GeneratorParams(prefix_max=4, max_denominator=12)
    tail_witnesses = 0
    for seed in range(1_000):
        f, g = random_pair(pair_seed(5, seed), params)
        witness = interval_witness(f, g)
        assert comonotone_witness(f, g) == witness, (seed, f, g)
        shared = max(f.head_len, g.head_len)
        tail_witnesses += witness is not None and witness[1].index > shared
    assert tail_witnesses > 0


@given(st.integers(1, 200), st.integers(1, 200), st.fractions(F(1, 6), 1, max_denominator=6))
@settings(max_examples=200, deadline=None)
def test_exact_decision_matches_interval_oracle_on_late_thresholds(k, m, s):
    # Thresholds k/(k+1) at the isolated point against rising tails
    # 1 - s/n put the first opposed sequence point near seq(k), often
    # far past any fixed depth.
    f = make(F(k, k + 1), [], F(1), F(0))
    g = make(F(m, m + 1), [], s, 1 - s)
    witness = interval_witness(f, g)
    assert comonotone_witness(f, g) == witness
    if witness is not None:
        assert defining_product(f, g, *witness) < 0


def _brute_first_opposed(af, bf, ag, bg, n_min):
    # Every root lies at |b/a| <= 5 here, so past n = 6 each factor keeps its sign.
    for n in range(n_min, 12):
        if (n * af - bf) * (n * ag - bg) < 0:
            return n
    return None


def test_first_opposed_matches_brute_force_on_small_box():
    box = range(-5, 6)
    for af, bf, ag, bg in itertools.product(box, repeat=4):
        for n_min in range(1, 6):
            assert _first_opposed(af, bf, ag, bg, n_min) == _brute_first_opposed(
                af, bf, ag, bg, n_min
            ), (af, bf, ag, bg, n_min)
