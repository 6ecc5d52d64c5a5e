import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from comaxlab.pairgen import GeneratorParams, random_seqfn
from comaxlab.seq_comonotone import PairRelations, comonotone_witness
from comaxlab.seqspace import pointwise_order
from comaxlab.suites import structured_family

F = Fraction

ACCEPTANCE_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def assert_matches_reference(fns):
    """Both relations against the one-pair deciders on every pair, both ways;
    returns how often each answer of ``order`` came up."""
    relations = PairRelations(fns)
    answers = Counter()
    for i, f in enumerate(fns):
        for j in range(i, len(fns)):
            g = fns[j]
            expected = comonotone_witness(f, g) is None
            assert relations.comonotone(i, j) == expected == relations.comonotone(j, i), (f, g)
            to_g, to_f = pointwise_order(f, g), pointwise_order(g, f)
            below, above = to_g < 0, to_f < 0  # leq(f, g), leq(g, f)
            forward = -1 if below else 1 if above else 0
            backward = -1 if above else 1 if below else 0
            assert relations.order(i, j) == forward == to_g, (f, g)
            assert relations.order(j, i) == backward == to_f, (f, g)
            answers[forward] += 1
    return answers


def test_acceptance_family_matches_reference_on_every_pair():
    family = structured_family(ACCEPTANCE_GRID, 2)
    assert len(family) * (len(family) + 1) // 2 == 263_175
    assert set(assert_matches_reference(family)) == {-1, 0, 1}


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_random_lists_match_reference(seed, size):
    rng = random.Random(seed)
    params = GeneratorParams(prefix_max=4, max_denominator=12)
    assert_matches_reference([random_seqfn(rng, params) for _ in range(size)])
