"""The integer generator of ``comaxlab.pairgen`` against the ``Fraction``
generator of ``seq_oracles``: the same draws from the same random
stream, the same maps, and compositions equal field for field."""

import random
from fractions import Fraction

import pytest

from comaxlab.pairgen import (
    GeneratorParams,
    MonotoneMap,
    compose,
    generate_pair,
    random_monotone_map,
    random_seqfn,
)
from comaxlab.seqspace import constant, make, ramp

from seq_oracles import (
    IDENTITY_MAP,
    constant_map,
    fields,
    fraction_compose,
    fraction_map,
    fraction_random_monotone_map,
    fraction_random_seqfn,
    points_upto,
)

F = Fraction

# (prefix_max, max_denominator, max_breakpoints); max_denominator 1 still
# draws interior knots at 1/2.
PARAMS = [
    GeneratorParams(2, 6, 3),
    GeneratorParams(6, 12, 3),
    GeneratorParams(4, 12, 5),
    GeneratorParams(0, 1, 3),
]


@pytest.mark.parametrize(
    "params",
    PARAMS,
    ids=[f"{p.prefix_max}-{p.max_denominator}-{p.max_breakpoints}" for p in PARAMS],
)
def test_generator_matches_fraction_generator(params):
    for seed in range(1000):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        base = random_seqfn(rng, params)
        ref_base = fraction_random_seqfn(ref_rng, params)
        assert fields(base) == ref_base, seed
        assert rng.getstate() == ref_rng.getstate(), seed
        pair, ref_pair = [], []
        for _ in range(2):
            phi = random_monotone_map(rng, params)
            ref_phi = fraction_random_monotone_map(ref_rng, params)
            assert fraction_map(phi) == ref_phi, seed
            assert rng.getstate() == ref_rng.getstate(), seed
            pair.append(compose(phi, base))
            ref_pair.append(fraction_compose(ref_phi, ref_base))
        assert [fields(f) for f in pair] == ref_pair, seed
        # generate_pair runs the same draws from a fresh stream.
        assert generate_pair(seed, params) == tuple(pair), seed


FALLING = make(F(1, 5), [F(1, 3)], F(-3, 4), F(1))  # tail 5/8 at seq(2), falling to 1/4

# Widths 4, 2 and 6 over 12: the one denominator's factor L = 12 exceeds every width.
SHARED_WIDTHS = MonotoneMap(12, ((0, 0), (4, 3), (6, 6), (12, 12)))
IDENTITY_12 = MonotoneMap(12, ((0, 0), (4, 4), (6, 6), (12, 12)))

FIXED_CASES = {
    # The tail starts on the knot 1/2 at coordinate 0 and rises into the next segment.
    "tail-starts-on-knot": (MonotoneMap(2, ((0, 0), (1, 0), (2, 2))), make(F(0), [], F(1, 2), F(1, 2))),
    # Falls through the knots 1/2 (at seq(3)) and 1/3 (at seq(9)).
    "falling-tail-crosses-knots": (MonotoneMap(6, ((0, 0), (2, 1), (3, 5), (6, 6))), FALLING),
    "flat-tail-on-knot": (MonotoneMap(4, ((0, 0), (2, 1), (4, 4))), make(F(1, 2), [F(1)], F(0), F(1, 2))),
    # Reaches the knot 1/2 only in the limit.
    "tail-limit-on-knot": (MonotoneMap(4, ((0, 0), (2, 1), (4, 4))), make(F(0), [], F(1, 2), F(0))),
    "identity": (IDENTITY_MAP, FALLING),
    # Rises through the knots 1/3 (past seq(2)) and 1/2 (at seq(6)) toward 3/5.
    "shared-widths-rising-tail": (SHARED_WIDTHS, make(F(1, 7), [F(1, 2)], F(3, 5), F(0))),
    # Falls through the knots 1/2 (past seq(2)) and 1/3 (at seq(5)) toward 1/6.
    "shared-widths-falling-tail": (SHARED_WIDTHS, make(F(1), [], F(-5, 6), F(1))),
    "shared-widths-flat-tail": (SHARED_WIDTHS, make(F(2, 9), [F(5, 6), F(1, 3)], F(0), F(5, 12))),
    # Every value over 12*q*12 reduces back to FALLING's denominator.
    "shared-widths-identity": (IDENTITY_12, FALLING),
    "constant": (constant_map(F(2, 3)), FALLING),
}


@pytest.mark.parametrize("phi, h", FIXED_CASES.values(), ids=FIXED_CASES.keys())
def test_fixed_compositions_match_oracle(phi, h):
    composed = compose(phi, h)
    assert fields(composed) == fraction_compose(fraction_map(phi), fields(h))
    reference = fraction_map(phi)
    for p in points_upto(max(composed.head_len, h.head_len) + 12):
        assert composed.at(p) == reference(h.at(p))


def test_fixed_compositions_known_results():
    phi, h = FIXED_CASES["falling-tail-crosses-knots"]
    # Extended to seq(10); seq(9) sits on the knot 1/3, so seq(9) and seq(10)
    # follow the final segment and are trimmed, and seq(8) is the last head entry.
    assert compose(phi, h).head_len == 8
    assert compose(IDENTITY_MAP, FALLING) == FALLING
    assert compose(IDENTITY_12, FALLING) == FALLING
    assert compose(constant_map(F(2, 3)), FALLING) == constant(F(2, 3))
    phi, h = FIXED_CASES["flat-tail-on-knot"]
    assert compose(phi, h) == make(F(1, 4), [F(1)], F(0), F(1, 4))
    assert compose(IDENTITY_MAP, ramp(F(1, 3))) == ramp(F(1, 3))
