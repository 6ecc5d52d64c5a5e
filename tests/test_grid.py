from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comaxlab.grid import Chain, GridFn, all_functions, comonotone, join
from comaxlab.rational import RationalFormatError

from grid_oracles import constant

F = Fraction

CHAIN3 = Chain((F(0), F(1, 2), F(1)))

grid_values = st.sampled_from([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])


def fns(n):
    return st.builds(GridFn, st.tuples(*([grid_values] * n)))


def test_chain_validation():
    Chain((F(0), F(1)))
    with pytest.raises(ValueError):
        Chain((F(0), F(1, 2)))
    with pytest.raises(ValueError):
        Chain((F(0), F(1, 2), F(1, 2), F(1)))


def test_comonotone_examples():
    assert comonotone(GridFn((F(1, 5), F(4, 5))), GridFn((F(1, 10), F(9, 10))))
    assert not comonotone(GridFn((F(0), F(1))), GridFn((F(1), F(0))))


@given(fns(3))
def test_constants_comonotone_with_anything(g):
    assert comonotone(constant(F(1, 2), 3), g)
    assert comonotone(g, constant(F(1, 2), 3))


@given(fns(3), fns(3))
def test_comonotone_symmetric(f, g):
    assert comonotone(f, g) == comonotone(g, f)
    assert comonotone(f, f)


def test_join_examples():
    a, b = GridFn((F(0), F(1))), GridFn((F(1), F(0)))
    assert join(a, b) == GridFn((F(1), F(1)))
    assert join(GridFn((F(1, 4), F(3, 4))), GridFn((F(1, 2), F(1, 2)))) == GridFn(
        (F(1, 2), F(3, 4))
    )


def test_length_mismatch():
    with pytest.raises(ValueError):
        join(GridFn((F(0),)), GridFn((F(0), F(1))))
    with pytest.raises(ValueError):
        comonotone(GridFn((F(0),)), GridFn((F(0), F(1))))


@given(fns(2), fns(2), fns(2))
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


def test_grid_fn_json_round_trip():
    f = GridFn((F(1, 2), F(3, 4)))
    assert f.to_json() == {"values": ["1/2", "3/4"]}
    assert GridFn.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        GridFn.from_json({"values": []})
    with pytest.raises(ValueError):
        GridFn.from_json({"values": ["3/2"]})


def test_grid_fn_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="must be"):
        GridFn.from_json({"values": ["1/2"], "value": ["1"]})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GridFn((F(1, 2), F(3, 2))), ValueError, "function value 3/2 outside [0,1]"),
        (lambda: GridFn((F(-1, 2),)), ValueError, "function value -1/2 outside [0,1]"),
        (
            lambda: GridFn.from_json({"value": ["1"]}),
            ValueError,
            'grid function JSON must be {"values": [...]}',
        ),
        (lambda: GridFn.from_json({"values": []}), ValueError, "values: must be a nonempty list"),
        (lambda: GridFn.from_json({"values": "1"}), ValueError, "values: must be a nonempty list"),
        (
            lambda: GridFn.from_json({"values": ["3/2"]}),
            ValueError,
            "function value 3/2 outside [0,1]",
        ),
        (
            lambda: GridFn.from_json({"values": ["0.5"]}),
            RationalFormatError,
            "not a rational: '0.5'",
        ),
    ],
)
def test_grid_fn_refusal_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=1, max_size=4))
def test_grid_fn_integer_form_is_the_values_over_their_least_denominator(values):
    f = GridFn(tuple(values))
    assert [F(num, f.den) for num in f.nums] == values
    smaller = (d for d in range(1, f.den) if f.den % d == 0)
    assert all(any((v * d).denominator != 1 for v in values) for d in smaller)


def test_grid_fn_integer_form_stays_out_of_equality_hash_repr_and_codec():
    # 2/4 and 1/2 are one Fraction; a second build derives the same den and nums.
    f, g = GridFn((F(2, 4), F(1, 3))), GridFn.from_json({"values": ["1/2", "1/3"]})
    assert f == g and hash(f) == hash(g)
    assert (f.den, f.nums) == (6, (3, 2))
    assert repr(f) == "GridFn(values=(Fraction(1, 2), Fraction(1, 3)))"
    assert f.to_json() == {"values": ["1/2", "1/3"]}
    assert {f: 1}[g] == 1
