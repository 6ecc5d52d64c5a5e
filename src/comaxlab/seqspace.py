"""Exact model of functions on a convergent sequence plus an isolated point.

The space has one isolated point, the strictly increasing sequence of
points with coordinates ``1 - 1/n`` (n = 1, 2, ...), and the limit
point with coordinate 1.  A continuous [0,1]-valued function on it is
represented finitely: the value at the isolated point, explicit values
at the first N sequence points (the head), and an affine tail rule
``slope * (1 - 1/n) + intercept`` for every later sequence point.  The
value at the limit is forced by continuity to ``slope + intercept``.

The representation is canonical (the head is as short as possible), so
structural equality is function equality, and every decision here --
pointwise order, attained maximum, join -- is exact.
Joins stay inside the class: two affine tails cross at most once, so
extending the head past the crossing leaves a single dominant tail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .rational import ONE, ZERO, check_unit_interval, format_rational, parse_rational


class PointKind(enum.Enum):
    ISOLATED = "isolated"
    SEQ = "seq"
    LIMIT = "limit"


@dataclass(frozen=True)
class Point:
    """A point of the space: isolated, n-th sequence point, or the limit."""

    kind: PointKind
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind is PointKind.SEQ and self.index < 1:
            raise ValueError("sequence points are numbered from 1")
        if self.kind is not PointKind.SEQ and self.index != 0:
            raise ValueError("only sequence points carry an index")

    def sort_key(self) -> tuple[int, int]:
        order = {PointKind.ISOLATED: 0, PointKind.SEQ: 1, PointKind.LIMIT: 2}
        return (order[self.kind], self.index)

    def __str__(self) -> str:
        if self.kind is PointKind.SEQ:
            return f"seq({self.index})"
        return self.kind.value


ISOLATED = Point(PointKind.ISOLATED)
LIMIT = Point(PointKind.LIMIT)


def seq(n: int) -> Point:
    return Point(PointKind.SEQ, n)


def seq_coord(n: int) -> Fraction:
    """Coordinate of the n-th sequence point: 1 - 1/n (so seq(1) sits at 0)."""
    return ONE - Fraction(1, n)


@dataclass(frozen=True)
class SeqFn:
    """Canonical finitely-presented continuous function on the space.

    Fields: value at the isolated point, explicit head values at the
    first ``len(head)`` sequence points, and the affine tail
    coefficients.  Use :func:`make` (or the constructors below) instead
    of instantiating directly with a non-canonical head.
    """

    iso: Fraction
    head: tuple[Fraction, ...]
    slope: Fraction
    intercept: Fraction

    def __post_init__(self) -> None:
        check_unit_interval(self.iso, "value at the isolated point")
        for k, value in enumerate(self.head, start=1):
            check_unit_interval(value, f"head value at seq({k})")
        n = len(self.head)
        check_unit_interval(self.tail_value(n + 1), f"tail value at seq({n + 1})")
        check_unit_interval(self.limit, "limit value")
        if self.head and self.head[-1] == self.tail_value(n):
            raise ValueError("head is not canonical: last entry matches the tail rule")

    @property
    def head_len(self) -> int:
        return len(self.head)

    @property
    def limit(self) -> Fraction:
        return self.slope + self.intercept

    def tail_value(self, n: int) -> Fraction:
        return self.slope * seq_coord(n) + self.intercept

    def at(self, point: Point) -> Fraction:
        if point.kind is PointKind.ISOLATED:
            return self.iso
        if point.kind is PointKind.LIMIT:
            return self.limit
        n = point.index
        if n <= len(self.head):
            return self.head[n - 1]
        return self.tail_value(n)

    def to_json(self) -> dict[str, Any]:
        return {
            "vP": format_rational(self.iso),
            "prefix": [format_rational(v) for v in self.head],
            "alpha": format_rational(self.slope),
            "beta": format_rational(self.intercept),
        }

    @classmethod
    def from_json(cls, data: Any) -> SeqFn:
        if not isinstance(data, dict):
            raise ValueError("function JSON must be an object")
        missing = {"vP", "alpha", "beta"} - set(data)
        if missing:
            raise ValueError(f"missing keys: {sorted(missing)}")
        unknown = set(data) - {"vP", "prefix", "alpha", "beta"}
        if unknown:
            raise ValueError(f"unknown keys: {sorted(unknown)}")
        prefix = data.get("prefix", [])
        if not isinstance(prefix, list):
            raise ValueError("prefix: must be a list of rationals")
        return make(
            parse_rational(data["vP"]),
            tuple(parse_rational(v) for v in prefix),
            parse_rational(data["alpha"]),
            parse_rational(data["beta"]),
        )


def make(
    iso: Fraction,
    head: tuple[Fraction, ...] | list[Fraction],
    slope: Fraction,
    intercept: Fraction,
) -> SeqFn:
    """Build a SeqFn, trimming head entries already implied by the tail."""
    trimmed = list(head)
    while trimmed and trimmed[-1] == slope * seq_coord(len(trimmed)) + intercept:
        trimmed.pop()
    return SeqFn(iso, tuple(trimmed), slope, intercept)


def constant(c: Fraction) -> SeqFn:
    """The function with value c everywhere."""
    check_unit_interval(c, "constant")
    return SeqFn(c, (), ZERO, c)


def ramp(iso_value: Fraction) -> SeqFn:
    """Identity on sequence coordinates (value 1 - 1/n at seq(n), 1 at the
    limit) with a chosen value at the isolated point."""
    check_unit_interval(iso_value, "value at the isolated point")
    return SeqFn(iso_value, (), ONE, ZERO)


def points_upto(count: int) -> list[Point]:
    """Isolated point, seq(1..count), and the limit, in canonical order."""
    return [ISOLATED] + [seq(n) for n in range(1, count + 1)] + [LIMIT]


def scaled_values(f: SeqFn, count: int) -> tuple[int, list[int]]:
    """A positive integer ``scale`` and ``scale * f.at(p)`` for p in ``points_upto(count)``.

    ``scale`` is ``D * M``: ``D`` is the lcm of the denominators of f's
    iso value, head, slope and intercept, and ``M`` the lcm of the
    indices ``n`` of the tail points ``seq(head_len + 1 .. count)``.
    With ``S = D * slope`` and ``I = D * intercept``, the tail value at
    ``seq(n)`` is ``(S*(n-1) + I*n) / (D*n)``, so every value comes out
    as an integer with no Fraction arithmetic.  The scale is positive,
    so signs and order are those of the values.
    """
    den = math.lcm(
        f.iso.denominator,
        f.slope.denominator,
        f.intercept.denominator,
        *(v.denominator for v in f.head),
    )
    tail = range(f.head_len + 1, count + 1)
    mult = math.lcm(*tail)
    s = f.slope.numerator * (den // f.slope.denominator)
    i = f.intercept.numerator * (den // f.intercept.denominator)
    values = [v.numerator * (den // v.denominator) * mult for v in (f.iso, *f.head[:count])]
    values += [(s * (n - 1) + i * n) * (mult // n) for n in tail]
    values.append((s + i) * mult)
    return den * mult, values


def leq(f: SeqFn, g: SeqFn) -> bool:
    """Pointwise f <= g over the whole space, decided exactly.

    The head region is compared pointwise; on the common tail the
    difference is affine in the coordinate, so checking it at the first
    shared tail point and at the limit covers every later point.
    """
    if f.iso > g.iso:
        return False
    shared = max(f.head_len, g.head_len)
    for n in range(1, shared + 1):
        if f.at(seq(n)) > g.at(seq(n)):
            return False
    return f.tail_value(shared + 1) <= g.tail_value(shared + 1) and f.limit <= g.limit


@dataclass(frozen=True)
class AttainedMax:
    """Maximum of a function over the space and the first point attaining it."""

    value: Fraction
    site: Point


def attained_max(f: SeqFn) -> AttainedMax:
    """Largest value of f, with ties resolved toward the earliest point.

    Candidate sites are the isolated point, every head point, the first
    tail point when the tail falls (that is where it peaks), and the
    limit (where a nondecreasing tail peaks).  The space is compact and
    f continuous, so the maximum is attained at one of these.
    """
    n = f.head_len
    candidates: list[tuple[Point, Fraction]] = [(ISOLATED, f.iso)]
    candidates += [(seq(k), f.head[k - 1]) for k in range(1, n + 1)]
    if f.slope < 0:
        candidates.append((seq(n + 1), f.tail_value(n + 1)))
    candidates.append((LIMIT, f.limit))
    best_site, best_value = candidates[0]
    for site, value in candidates[1:]:
        if value > best_value:
            best_site, best_value = site, value
    return AttainedMax(best_value, best_site)


def join(f: SeqFn, g: SeqFn) -> SeqFn:
    """Pointwise maximum.

    The head reaches past the (single) crossing of the two tails, if
    any.  Past it, the tail with the larger limit wins; with equal
    limits the difference is ``(slope_f - slope_g) * (t - 1)``, so the
    smaller slope wins.
    """
    extend_to = max(f.head_len, g.head_len)
    if f.slope != g.slope:
        t_star = (g.intercept - f.intercept) / (f.slope - g.slope)
        if t_star < 1:
            # seq(n) lies at or before the crossing iff n <= 1/(1 - t_star)
            extend_to = max(extend_to, math.floor(1 / (1 - t_star)))
    head = [max(f.at(seq(n)), g.at(seq(n))) for n in range(1, extend_to + 1)]
    tail = f if (f.limit, -f.slope) >= (g.limit, -g.slope) else g
    return make(max(f.iso, g.iso), head, tail.slope, tail.intercept)
