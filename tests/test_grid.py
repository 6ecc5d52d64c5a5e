from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comaxlab.grid import Chain, GridFn, all_functions, comonotone, join, signs

from grid_oracles import comonotone as literal_comonotone

F = Fraction

CHAIN3 = Chain((F(0), F(1, 2), F(1)))

grid_values = st.sampled_from([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])


def rows(n):
    return st.tuples(*([grid_values] * n))


def test_chain_validation():
    Chain((F(0), F(1)))
    with pytest.raises(ValueError, match="^chain needs at least the endpoints 0 and 1$"):
        Chain((F(0),))
    with pytest.raises(ValueError, match="^chain must start at 0 and end at 1$"):
        Chain((F(0), F(1, 2)))
    with pytest.raises(ValueError, match="^chain values must be strictly increasing$"):
        Chain((F(0), F(1, 2), F(1, 2), F(1)))


def co(a, b):
    """Comonotonicity of the rows a and b, through their ``signs``."""
    return comonotone(signs(a), signs(b))


def test_comonotone_examples():
    assert co((F(1, 5), F(4, 5)), (F(1, 10), F(9, 10)))
    assert not co((F(0), F(1)), (F(1), F(0)))
    assert co((0, 2, 1), (1, 2, 1))
    assert not co((0, 2, 1), (1, 1, 2))


@given(rows(3))
def test_constants_comonotone_with_anything(g):
    assert co((F(1, 2),) * 3, g)
    assert co(g, (F(1, 2),) * 3)


@given(rows(3), rows(3))
def test_comonotone_symmetric(f, g):
    assert co(f, g) == co(g, f)
    assert co(f, f)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(rows(n), rows(n))))
def test_comonotone_through_signs_matches_the_literal_oracle(pair):
    a, b = pair
    assert co(a, b) == literal_comonotone(GridFn(a), GridFn(b))


def test_signs_of_a_row_without_point_pairs_are_empty():
    assert signs(()) == signs((F(1, 2),)) == (0, 0)
    assert signs((0, 2, 1)) == (0b011, 0b100)


def test_join_examples():
    assert join((F(0), F(1)), (F(1), F(0))) == (F(1), F(1))
    assert join((F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))) == (F(1, 2), F(3, 4))
    assert join((0, 3, 1), (2, 1, 1)) == (2, 3, 1)


@given(rows(2), rows(2), rows(2))
def test_lattice_laws(f, g, h):
    assert join(f, f) == f
    assert join(f, g) == join(g, f)
    assert join(join(f, g), h) == join(f, join(g, h))


def test_all_functions_count_and_order():
    fns_list = all_functions(CHAIN3, 2)
    assert len(fns_list) == 9
    assert fns_list[0] == GridFn((F(0), F(0)))
    assert fns_list[-1] == GridFn((F(1), F(1)))
    assert len(set(fns_list)) == 9


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GridFn((F(1, 2), F(3, 2))), ValueError, "function value 3/2 outside [0,1]"),
        (lambda: GridFn((F(-1, 2),)), ValueError, "function value -1/2 outside [0,1]"),
        (lambda: GridFn((F(3, 2),)), ValueError, "function value 3/2 outside [0,1]"),
    ],
)
def test_grid_fn_refusal_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=1, max_size=4))
def test_grid_fn_integer_form_is_the_values_over_their_least_denominator(values):
    f = GridFn(tuple(values))
    thresholds = sorted({F(0), F(1), *values})
    assert [F(t, f.den) for t, _ in f.levels] == thresholds
    for t, level in zip(thresholds, (level for _, level in f.levels)):
        assert level == {i for i, v in enumerate(values) if v >= t}
    smaller = (d for d in range(1, f.den) if f.den % d == 0)
    assert all(any((v * d).denominator != 1 for v in values) for d in smaller)


def test_grid_fn_integer_form_stays_out_of_equality_hash_repr_and_codec():
    # 2/4 and 1/2 are one Fraction; a second build derives the same den and levels.
    f, g = GridFn((F(2, 4), F(1, 3))), GridFn((F(1, 2), F(1, 3)))
    assert f == g and hash(f) == hash(g)
    assert (f.den, f.levels) == (6, ((0, {0, 1}), (2, {0, 1}), (3, {0}), (6, set())))
    assert (g.den, g.levels) == (f.den, f.levels)
    assert repr(f) == "GridFn(values=(Fraction(1, 2), Fraction(1, 3)))"
    assert f.to_json() == {"values": ["1/2", "1/3"]}
    assert {f: 1}[g] == 1
