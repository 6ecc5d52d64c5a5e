"""Exact rational scalars: parsing their wire format and the unit-interval check.

Every numeric value in this package is exact: a :class:`fractions.Fraction`,
or, inside the sequence model and the finite integral, integers over
one common denominator; nothing is ever rounded.  On the wire
rationals travel as strings, ``"p/q"`` in lowest terms with a positive
denominator, or a bare integer string when the denominator is 1
(``"0"``, ``"1"``, ``"3/4"``), exactly ``str`` of a Fraction.  This
module reads that format; only the report serializer and the codecs
write it.  ``over_lcm`` puts rationals over one common denominator, and
``draw_int`` is the one seeded integer draw.  ``Record`` is the base of
the package's value classes.
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Collection
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Record:
    """Equality, hash and repr by the attributes a subclass names in ``_fields``.

    The value classes are ``__slots__`` classes on this base: importing
    ``dataclasses`` took a fifth of each CLI process's start.
    """

    __slots__ = ()
    _fields = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class RationalFormatError(ValueError):
    """A string does not encode a rational number."""


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction.

    The grammar is ASCII ``-?[0-9]+(/[0-9]+)?`` after trimming outer
    whitespace.  Raises RationalFormatError for anything else: floats
    (this package never accepts inexact input), signs other than a
    leading minus, digit separators, inner spaces, non-ASCII digits,
    zero denominators, and parts longer than ``int`` converts
    (``sys.get_int_max_str_digits``).
    """
    if not isinstance(text, str):
        raise RationalFormatError(f"expected a rational string, got {text!r}")
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise RationalFormatError(f"not a rational: {text!r}")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError:
        raise RationalFormatError(f"too many digits in a {len(text)}-character rational") from None
    if den == 0:
        raise RationalFormatError(f"denominator must be positive in {text!r}")
    return Fraction(num, den)


def parse_grid(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals, e.g. ``"0,1/2,1"``.

    Every entry must be a rational: an empty entry (``"0,,1"``, a
    trailing comma, or an empty string) is refused.
    """
    pieces = text.split(",")
    if any(not piece.strip() for piece in pieces):
        raise RationalFormatError(f"empty grid entry in {text!r}")
    return tuple(parse_rational(piece) for piece in pieces)


def draw_int(rng: random.Random, a: int, b: int) -> int:
    """``rng.randint(a, b)``: the same value, and the same state of ``rng`` after it.

    CPython 3.10-3.13 all draw ``randint(a, b)`` as ``a + r``, where ``r``
    is the first ``rng.getrandbits(k)`` below ``n = b - a + 1``, with
    ``k = n.bit_length()``.  Written out here, the draw skips the
    ``randint`` -> ``randrange`` -> ``_randbelow`` frames, and every
    seeded draw of the package comes from ``getrandbits`` alone.
    """
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range [{a}, {b}]")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def random_unit_rational(rng: random.Random, max_denominator: int) -> Fraction:
    """A seeded rational in [0,1]: a denominator in 1..max_denominator, then its numerator."""
    den = draw_int(rng, 1, max_denominator)
    return Fraction(draw_int(rng, 0, den), den)


def over_lcm(values: Collection[Fraction]) -> tuple[list[int], int]:
    """The numerators of the rationals over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def check_unit(num: int, den: int, where: str) -> None:
    """Raise ValueError unless 0 <= num/den <= 1 (den is positive)."""
    if not 0 <= num <= den:
        raise ValueError(f"{where} {Fraction(num, den)} outside [0,1]")


def check_unit_interval(value: Fraction, where: str = "value") -> Fraction:
    """Return ``value`` unchanged, raising ValueError unless 0 <= value <= 1."""
    check_unit(value.numerator, value.denominator, where)
    return value
