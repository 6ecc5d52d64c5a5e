"""Wider-denominator fuzzing of the join and composition machinery.

The cheap strategies elsewhere stay at denominator 6; these push the
head lengths and denominators up so tail crossings land at awkward
rational coordinates and head extension has to work harder.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from comaxlab.pairgen import GeneratorParams, compose, random_monotone_map, random_seqfn
from comaxlab.seq_comonotone import comonotone_truncated, comonotone_witness, defining_product
from comaxlab.seqspace import join, leq

from seq_oracles import fraction_map, points_upto, seq_fns

HEAVY = GeneratorParams(prefix_max=4, max_denominator=12, max_breakpoints=4)


@given(seq_fns(5, 12), seq_fns(5, 12))
@settings(max_examples=150, deadline=None)
def test_join_pointwise_wide(f, g):
    j = join(f, g)
    depth = max(f.head_len, g.head_len, j.head_len) + 6
    for p in points_upto(depth):
        assert j.at(p) == max(f.at(p), g.at(p))
    assert leq(f, j) and leq(g, j)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_composition_pointwise_wide(seed):
    rng = random.Random(seed)
    h = random_seqfn(rng, HEAVY)
    phi = random_monotone_map(rng, HEAVY)
    composed = compose(phi, h)
    reference = fraction_map(phi)
    for p in points_upto(max(composed.head_len, h.head_len) + 6):
        assert composed.at(p) == reference(h.at(p))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_exact_decision_vs_oracle_wide(seed):
    rng = random.Random(seed)
    f = random_seqfn(rng, HEAVY)
    g = random_seqfn(rng, HEAVY)
    exact = comonotone_witness(f, g)
    truncated = comonotone_truncated(f, g, depth=60)
    if truncated is not None:
        assert exact is not None
    if exact is not None:
        assert defining_product(f, g, *exact) < 0
