from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comaxlab.rational import (
    RationalFormatError,
    check_unit_interval,
    parse_grid,
    parse_rational,
)


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
