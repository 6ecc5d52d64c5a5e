import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comaxlab.pairgen import GeneratorParams, random_seqfn
from comaxlab.seqspace import (
    ISOLATED,
    LIMIT,
    Point,
    PointKind,
    SeqFn,
    attained_max,
    constant,
    join,
    leq,
    make,
    order_rows,
    point_at,
    ramp,
    scaled_values,
    seq,
)

from seq_oracles import attained_value, points_upto, seq_fns

F = Fraction


def test_ramp_examples():
    r1 = ramp(F(1))
    assert r1.at(seq(2)) == F(1, 2)
    assert r1.at(seq(3)) == F(2, 3)
    assert r1.at(ISOLATED) == 1
    assert r1.at(LIMIT) == 1
    assert ramp(F(0)).at(ISOLATED) == 0


def test_constant_everywhere():
    c = constant(F(1, 3))
    for p in points_upto(10):
        assert c.at(p) == F(1, 3)


def test_eval_head_then_tail():
    f = make(F(0), [F(0)], F(0), F(1, 2))
    assert f.at(seq(1)) == 0
    assert f.at(seq(5)) == F(1, 2)
    assert f.at(LIMIT) == F(1, 2)


def test_constructor_validation():
    with pytest.raises(ValueError):
        constant(F(3, 2))
    with pytest.raises(ValueError):
        make(F(0), [], F(2), F(0))  # limit value 2
    with pytest.raises(ValueError, match="not canonical"):
        SeqFn(2, 0, (1,), 0, 1)  # head entry equals tail rule
    with pytest.raises(ValueError, match="^sequence points are numbered from 1$"):
        Point(PointKind.SEQ)
    with pytest.raises(ValueError, match="^only sequence points carry an index$"):
        Point(PointKind.LIMIT, index=2)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((2, 3, (), 0, 1), "value at the isolated point 3/2 outside"),
        ((2, 0, (1, -1), 0, 1), "head value at seq\\(2\\) -1/2 outside"),
        ((1, 0, (0,), -4, 4), "tail value at seq\\(2\\) 2 outside"),  # limit 0
        ((1, 0, (0,), 4, -3), "tail value at seq\\(2\\) -1 outside"),  # limit 1
        ((2, 0, (), 0, 3), "tail value at seq\\(1\\) 3/2 outside"),
        ((2, 0, (), 4, 0), "limit value 2 outside"),
        ((4, 0, (2,), 0, 2), "not reduced"),
        ((6, 0, (2,), 0, 4), "not reduced"),  # head canonical, common factor 2
        ((2, 0, (2, 1), 0, 1), "not canonical"),
        ((0, 0, (), 0, 0), "must be positive"),
        ((-1, 0, (), 0, 0), "must be positive"),
    ],
)
def test_integer_constructor_validation(fields, message):
    with pytest.raises(ValueError, match=message):
        SeqFn(*fields)


def test_canonicalization_trims_redundant_head():
    # Explicitly padding the head with tail values must not change anything.
    f = make(F(1, 2), [], F(1), F(0))
    padded = make(F(1, 2), [f.tail_value(1), f.tail_value(2)], F(1), F(0))
    assert padded == f
    assert padded.head_len == 0


@given(seq_fns(3, 6))
@settings(max_examples=80)
def test_recanonicalization_round_trip(f):
    pad = [f.at(seq(n)) for n in range(1, f.head_len + 4)]
    rebuilt = make(f.iso, pad, f.slope, f.intercept)
    assert rebuilt == f
    for p in points_upto(f.head_len + 10):
        assert rebuilt.at(p) == f.at(p)


def test_leq_examples():
    assert leq(ramp(F(0)), ramp(F(1)))
    assert not leq(ramp(F(1)), ramp(F(0)))
    assert not leq(constant(F(1, 2)), ramp(F(1)))  # fails at seq(1), coord 0


@given(seq_fns(3, 6), seq_fns(3, 6))
@settings(max_examples=80)
def test_leq_agrees_with_sampled_eval(f, g):
    # Sampling past both heads plus the limit is decisive: the tail
    # difference is affine, so its sign over the whole tail is pinned by
    # the first shared tail point and the limit, both of which are sampled.
    depth = max(f.head_len, g.head_len) + 12
    sampled = all(f.at(p) <= g.at(p) for p in points_upto(depth))
    assert leq(f, g) == sampled


@given(seq_fns(3, 6), seq_fns(3, 6))
@settings(max_examples=80)
def test_leq_antisymmetry_is_equality(f, g):
    if leq(f, g) and leq(g, f):
        assert f == g


def test_attained_max_examples():
    assert attained_value(ramp(F(1))) == 1
    assert attained_value(ramp(F(0))) == 1  # reached only at the limit
    assert attained_value(constant(F(1, 3))) == F(1, 3)
    f = make(F(1, 2), [F(0), F(1, 3)], F(1, 4), F(0))
    scale, values = scaled_values(f, f.head_len + 1)
    assert attained_max(f) == (max(values), scale, values)


def test_attained_max_decreasing_tail_peaks_at_first_tail_point():
    f = make(F(0), [F(0)], F(-1, 2), F(1, 2))  # tail falls from 1/4 toward 0
    assert attained_value(f) == f.tail_value(2) == F(1, 4)


@given(seq_fns(3, 6))
@settings(max_examples=80)
def test_attained_max_matches_truncated_oracle(f):
    depth = f.head_len + 12
    best = max(f.at(p) for p in points_upto(depth))
    assert attained_value(f) == best


def test_join_of_ramps_collapses():
    assert join(ramp(F(0)), ramp(F(1))) == ramp(F(1))


def test_join_with_crossing_tails():
    r = ramp(F(0))
    c = constant(F(1, 2))
    j = join(r, c)
    for p in points_upto(12):
        assert j.at(p) == max(r.at(p), c.at(p))
    assert j.slope == 1 and j.intercept == 0
    assert j.head == (F(1, 2),)  # the seq(2) entry 1/2 is already the tail value


def test_join_with_crossing_near_the_limit():
    # Tails crossing at 7/8 force the head out to seq(8) before the steeper
    # tail takes over.
    r = ramp(F(0))
    c = constant(F(7, 8))
    j = join(r, c)
    for p in points_upto(20):
        assert j.at(p) == max(r.at(p), c.at(p))
    assert (j.slope, j.intercept) == (F(1), F(0))
    assert j.head_len == 7  # seq(8) sits exactly at the crossing, so it trims


def test_join_with_equal_limits_picks_flatter_tail():
    rising = make(F(0), [], F(1, 2), F(1, 2))  # 1/2 up to 1
    flat = constant(F(1))
    j = join(rising, flat)
    assert j == flat


@given(seq_fns(3, 6), seq_fns(3, 6))
@settings(max_examples=80)
def test_join_pointwise(f, g):
    j = join(f, g)
    depth = max(f.head_len, g.head_len, j.head_len) + 8
    for p in points_upto(depth):
        assert j.at(p) == max(f.at(p), g.at(p))


@given(seq_fns(3, 6), seq_fns(3, 6), seq_fns(3, 6))
@settings(max_examples=60)
def test_lattice_laws(f, g, h):
    assert join(f, f) == f
    assert join(f, g) == join(g, f)
    assert join(join(f, g), h) == join(f, join(g, h))
    assert join(f, join(f, g)) == join(f, g)
    if leq(f, g):
        assert join(f, g) == g


def literal_order_rows(u, v):
    if all(a <= b for a, b in zip(u, v)):
        return -1
    return 1 if all(b <= a for a, b in zip(u, v)) else 0


# Values in 0..3 make ties and equal rows common.
equal_length_rows = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 3), min_size=n, max_size=n)] * 2)
)


@given(equal_length_rows)
@settings(max_examples=300)
def test_order_rows_matches_zip_definition(rows):
    u, v = rows
    assert order_rows(u, v) == literal_order_rows(u, v)
    assert order_rows(v, u) == literal_order_rows(v, u)


def test_order_rows_examples():
    assert order_rows((), ()) == -1
    assert order_rows([1, 2], [1, 2]) == -1
    assert order_rows([1, 3], [1, 2]) == 1
    assert order_rows([0, 3], [1, 2]) == 0


def test_json_round_trip():
    f = make(F(1, 2), [F(0), F(1, 2)], F(0), F(1, 2))
    data = f.to_json()
    assert data == {"vP": "1/2", "prefix": ["0"], "alpha": "0", "beta": "1/2"}
    assert SeqFn.from_json(data) == f


def test_json_rejects_out_of_range():
    with pytest.raises(ValueError):
        SeqFn.from_json({"vP": "3/2", "prefix": [], "alpha": "0", "beta": "0"})


def test_json_rejects_unknown_keys():
    # A misspelled "prefix" must not load as a function with an empty head.
    with pytest.raises(ValueError, match="unknown keys: \\['prefx'\\]"):
        SeqFn.from_json({"vP": "1", "prefx": ["0"], "alpha": "1", "beta": "0"})


def test_json_accepts_redundant_prefix_and_canonicalizes():
    data = {"vP": "1", "prefix": ["0"], "alpha": "1", "beta": "0"}
    f = SeqFn.from_json(data)
    assert f == ramp(F(1))
    assert f.head_len == 0


def assert_scaled_values_match(f, count):
    scale, values = scaled_values(f, count)
    assert isinstance(scale, int) and scale > 0
    assert all(isinstance(v, int) for v in values)
    assert [Fraction(v, scale) for v in values] == [f.at(p) for p in points_upto(count)]
    assert [point_at(k, count) for k in range(len(values))] == points_upto(count)


def counts_for(f):
    return {0, 1, max(f.head_len - 1, 0), f.head_len, 50}


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_scaled_values_equal_pointwise_values(seed):
    f = random_seqfn(random.Random(seed), GeneratorParams(prefix_max=6, max_denominator=12))
    for count in counts_for(f):
        assert_scaled_values_match(f, count)


@pytest.mark.parametrize(
    "f",
    [
        constant(F(3, 7)),  # flat tail, no head
        make(F(1, 5), [F(1), F(0), F(2, 3)], F(0), F(5, 11)),  # flat tail after a head
        make(F(0), [], F(-1, 2), F(1, 2)),  # falling tail
        make(F(1, 9), [F(1, 4), F(5, 6)], F(-3, 4), F(7, 8)),  # falling tail after a head
        make(F(1), [F(1, 2)] * 5 + [F(1, 3)], F(1), F(0)),  # head of 6, longer than 0..5
        ramp(F(1, 12)),
    ],
)
def test_scaled_values_special_shapes(f):
    for count in counts_for(f) | set(range(f.head_len + 2)):
        assert_scaled_values_match(f, count)
