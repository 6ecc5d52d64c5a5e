import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comaxlab.classify import Membership
from comaxlab.grid import Chain, GridFn, relations
from comaxlab.pairgen import GeneratorParams, MonotoneMap
from comaxlab.rational import (
    RationalFormatError,
    check_unit_interval,
    draw_int,
    parse_grid,
    parse_rational,
)
from comaxlab.report import PASS, VerificationReport
from comaxlab.seqspace import make, seq

F = Fraction

# (a, b) ranges for draw_int: widths 1 and 2, every power of two from 4
# to 2**70 with its neighbours, negative and huge offsets, and the
# generator's own ranges (denominators up to 12, numerators under them,
# head lengths and breakpoint counts).
POWERS = [(1 << e) + d for e in range(2, 71) for d in (-1, 0, 1)]
DRAW_RANGES = sorted(
    {(0, 0), (5, 5), (0, 1), (-1, 0)}
    | {(0, n - 1) for n in POWERS}
    | {(-7, n - 8) for n in POWERS[::5]}
    | {(10**30, 10**30 + n - 1) for n in POWERS[::7]}
    | {(lo, hi) for hi in range(1, 13) for lo in (0, 1, 2) if lo <= hi}
    | {(1, d - 1) for d in range(2, 13)}
    | {(0, m) for m in range(0, 9)}
)


def test_draw_int_is_randint_value_for_value_and_state_for_state():
    for seed in range(2000):
        ours, ref = random.Random(seed), random.Random(seed)
        for k in range(150):
            a, b = DRAW_RANGES[(seed * 150 + k) % len(DRAW_RANGES)]
            assert draw_int(ours, a, b) == ref.randint(a, b), (seed, k, a, b)
        assert ours.getstate() == ref.getstate(), seed


def test_draw_int_refuses_an_empty_range_as_randint_does():
    for a, b in ((1, 0), (5, -5)):
        with pytest.raises(ValueError):
            random.Random(0).randint(a, b)
        with pytest.raises(ValueError, match="empty range"):
            draw_int(random.Random(0), a, b)


def test_parse_plain_and_fraction():
    assert parse_rational("0") == 0
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 7/8 ") == Fraction(7, 8)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "1.5",
        "1/0",
        "1/-2",
        "a/b",
        "1//2",
        # One digit past Python's limit for converting a string to int.
        pytest.param("1" * 4301, id="4301-digit integer"),
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "1_0",  # digit separator
        "3/ 4",  # inner space
        "+1",  # explicit plus sign
        "\u0661/2",  # Arabic-Indic digit one
    ],
)
def test_parse_rejects_forms_int_would_accept(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=1000))
def test_round_trip(x):
    assert parse_rational(str(x)) == x


def test_parse_grid():
    assert parse_grid("0,1/2,1") == (Fraction(0), Fraction(1, 2), Fraction(1))
    with pytest.raises(RationalFormatError):
        parse_grid("")


@pytest.mark.parametrize("text", ["0,,1", "0,1/2,1,", ",0,1", "0, ,1"])
def test_parse_grid_rejects_empty_entries(text):
    with pytest.raises(RationalFormatError, match="empty grid entry"):
        parse_grid(text)


def test_unit_interval_guard():
    check_unit_interval(Fraction(1))
    with pytest.raises(ValueError):
        check_unit_interval(Fraction(3, 2), "value")


@pytest.mark.parametrize(
    "value",
    [Fraction(0), Fraction(1), Fraction(1, 7), Fraction(10**40, 10**40 + 1)],
)
def test_unit_interval_accepts(value):
    assert check_unit_interval(value) is value


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-1, 7), "-1/7"),
        (Fraction(8, 7), "8/7"),
        (Fraction(10**40 + 1, 10**40), f"{10**40 + 1}/{10**40}"),
        (Fraction(-(10**40), 3), f"-{10**40}/3"),
    ],
)
def test_unit_interval_rejects_with_message(value, text):
    with pytest.raises(ValueError) as excinfo:
        check_unit_interval(value, "head value")
    assert str(excinfo.value) == f"head value {text} outside [0,1]"


# Per value class: a build that two calls make equal, and one that differs
# in a field.  Keywords are used where the package and the bench use them.
VALUE_CLASSES = {
    "Chain": (lambda: Chain((F(0), F(1, 2), F(1))), lambda: Chain((F(0), F(1)))),
    "GridFn": (lambda: GridFn((F(2, 4), F(1))), lambda: GridFn((F(1, 2), F(0)))),
    "Relations": (lambda: relations(Chain((F(0), F(1))), 2),
                  lambda: relations(Chain((F(0), F(1))), 1)),
    "Point": (lambda: seq(3), lambda: seq(4)),
    "SeqFn": (lambda: make(F(1, 3), [F(1, 2)], F(1, 4), F(1, 4)),
              lambda: make(F(1, 3), [F(1, 2)], F(1, 4), F(1, 2))),
    "VerificationReport": (lambda: VerificationReport("c", PASS, {"pairs": 1}),
                           lambda: VerificationReport("c", PASS, {"pairs": 2})),
    "Membership": (lambda: Membership(True, capped_at_iso=False, below_one=True),
                   lambda: Membership(True, capped_at_iso=True, below_one=True)),
    "GeneratorParams": (lambda: GeneratorParams(prefix_max=3), lambda: GeneratorParams()),
    "MonotoneMap": (lambda: MonotoneMap(2, ((0, 0), (2, 2))),
                    lambda: MonotoneMap(2, ((0, 0), (1, 2), (2, 2)))),
}


@pytest.mark.parametrize("build, other", VALUE_CLASSES.values(), ids=VALUE_CLASSES.keys())
def test_value_classes_compare_hash_and_pickle_by_their_fields(build, other):
    a, b = build(), build()
    assert a == b and not a != b and a is not b
    assert a != other()
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a and repr(copy) == repr(a)
    if isinstance(a, VerificationReport):  # filled in after construction
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
