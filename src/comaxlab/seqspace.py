"""Exact model of functions on a convergent sequence plus an isolated point.

The space has one isolated point, the strictly increasing sequence of
points with coordinates ``1 - 1/n`` (n = 1, 2, ...), and the limit
point with coordinate 1.  A continuous [0,1]-valued function on it is
represented finitely: the value at the isolated point, explicit values
at the first N sequence points (the head), and an affine tail rule
``slope * (1 - 1/n) + intercept`` for every later sequence point.  The
value at the limit is forced by continuity to ``slope + intercept``.

All of these are stored as integers over one least common denominator,
canonically (shortest head, reduced denominator), so structural
equality is function equality, and every decision here -- pointwise
order, attained maximum, join -- is exact integer arithmetic.
Joins stay inside the class: two affine tails cross at most once, so
extending the head past the crossing leaves a single dominant tail.
``order_rows`` compares two integer rows over one scale, for
``pointwise_order`` here and for ``seq_comonotone.PairRelations``.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from typing import Any, Sequence

from .rational import Record, check_unit, check_unit_interval, over_lcm, parse_rational


class PointKind(enum.Enum):
    ISOLATED = "isolated"
    SEQ = "seq"
    LIMIT = "limit"


class Point(Record):
    """A point of the space: isolated, n-th sequence point, or the limit."""

    __slots__ = _fields = ("kind", "index")
    kind: PointKind
    index: int

    def __init__(self, kind: PointKind, index: int = 0) -> None:
        if kind is PointKind.SEQ and index < 1:
            raise ValueError("sequence points are numbered from 1")
        if kind is not PointKind.SEQ and index != 0:
            raise ValueError("only sequence points carry an index")
        self.kind, self.index = kind, index

    def __str__(self) -> str:
        if self.kind is PointKind.SEQ:
            return f"seq({self.index})"
        return self.kind.value


ISOLATED = Point(PointKind.ISOLATED)
LIMIT = Point(PointKind.LIMIT)


def seq(n: int) -> Point:
    return Point(PointKind.SEQ, n)


class SeqFn(Record):
    """Canonical finitely-presented continuous function on the space.

    Values are integers over ``den``: ``iso_num / den`` at the isolated
    point, ``head_nums[k-1] / den`` at ``seq(k)`` in the head, and, with
    ``S = slope_num`` and ``I = intercept_num``, ``(S*(n-1) + I*n) / (den*n)``
    at a later ``seq(n)``.  Canonical: the last head entry is not the tail
    value and ``gcd(den, iso_num, *head_nums, S, I) == 1``.  Build one
    from Fractions with :func:`make`.
    """

    _fields = ("den", "iso_num", "head_nums", "slope_num", "intercept_num")
    __slots__ = (*_fields, "__weakref__")
    den: int
    iso_num: int
    head_nums: tuple[int, ...]
    slope_num: int
    intercept_num: int

    def __init__(
        self, den: int, iso_num: int, head_nums: tuple[int, ...], slope_num: int, intercept_num: int
    ) -> None:
        s, i = slope_num, intercept_num
        if den < 1:
            raise ValueError(f"denominator {den} must be positive")
        check_unit(iso_num, den, "value at the isolated point")
        for k, num in enumerate(head_nums, start=1):
            if not 0 <= num <= den:
                check_unit(num, den, f"head value at seq({k})")
        n = len(head_nums)
        if not 0 <= s * n + i * (n + 1) <= den * (n + 1):
            check_unit(s * n + i * (n + 1), den * (n + 1), f"tail value at seq({n + 1})")
        check_unit(s + i, den, "limit value")
        if math.gcd(den, iso_num, s, i, *head_nums) != 1:
            raise ValueError("denominator is not reduced")
        if n and head_nums[-1] * n == s * (n - 1) + i * n:
            raise ValueError("head is not canonical: last entry matches the tail rule")
        self.den, self.iso_num, self.head_nums = den, iso_num, head_nums
        self.slope_num, self.intercept_num = s, i

    @property
    def head_len(self) -> int:
        return len(self.head_nums)

    @property
    def iso(self) -> Fraction:
        return Fraction(self.iso_num, self.den)

    @property
    def head(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(h, self.den) for h in self.head_nums)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.slope_num, self.den)

    @property
    def intercept(self) -> Fraction:
        return Fraction(self.intercept_num, self.den)

    @property
    def limit(self) -> Fraction:
        return Fraction(self.slope_num + self.intercept_num, self.den)

    def tail_value(self, n: int) -> Fraction:
        """The tail rule at ``seq(n)``: slope * (1 - 1/n) + intercept."""
        return Fraction(self.slope_num * (n - 1) + self.intercept_num * n, self.den * n)

    def at(self, point: Point) -> Fraction:
        if point.kind is PointKind.ISOLATED:
            return self.iso
        if point.kind is PointKind.LIMIT:
            return self.limit
        n = point.index
        if n <= self.head_len:
            return Fraction(self.head_nums[n - 1], self.den)
        return self.tail_value(n)

    def to_json(self) -> dict[str, Any]:
        return {
            "vP": str(self.iso),
            "prefix": [str(v) for v in self.head],
            "alpha": str(self.slope),
            "beta": str(self.intercept),
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


def _reduced(den: int, iso: int, head: list[int], slope: int, intercept: int) -> SeqFn:
    """SeqFn from integers over ``den``: trim head entries the tail rule gives, reduce."""
    while head and head[-1] * len(head) == slope * (len(head) - 1) + intercept * len(head):
        head.pop()
    k = math.gcd(den, iso, slope, intercept, *head)
    return SeqFn(den // k, iso // k, tuple(h // k for h in head), slope // k, intercept // k)


def make(
    iso: Fraction,
    head: tuple[Fraction, ...] | list[Fraction],
    slope: Fraction,
    intercept: Fraction,
) -> SeqFn:
    """Build a SeqFn, trimming head entries already implied by the tail."""
    nums, den = over_lcm((iso, *head, slope, intercept))
    return _reduced(den, nums[0], nums[1:-2], nums[-2], nums[-1])


def constant(c: Fraction) -> SeqFn:
    """The function with value c everywhere."""
    check_unit_interval(c, "constant")
    return SeqFn(c.denominator, c.numerator, (), 0, c.numerator)


def ramp(iso_value: Fraction) -> SeqFn:
    """Identity on sequence coordinates (value 1 - 1/n at seq(n), 1 at the
    limit) with a chosen value at the isolated point."""
    check_unit_interval(iso_value, "value at the isolated point")
    return SeqFn(iso_value.denominator, iso_value.numerator, (), iso_value.denominator, 0)


def point_at(index: int, count: int) -> Point:
    """The point of entry ``index`` in a ``scaled_values(f, count)`` row."""
    return ISOLATED if index == 0 else LIMIT if index == count + 1 else seq(index)


def scaled_values(f: SeqFn, count: int) -> tuple[int, list[int]]:
    """A positive integer ``scale`` and ``scale * f.at(p)`` for p = isolated, seq(1..count), limit.

    ``scale`` is ``f.den * M``, with ``M`` the lcm of the indices ``n``
    of the tail points ``seq(head_len + 1 .. count)``, so every value,
    ``(S*(n-1) + I*n) / (den*n)`` at a tail point included, comes out
    as an integer.  The scale is positive, so signs and order are those
    of the values.
    """
    tail = range(f.head_len + 1, count + 1)
    mult = math.lcm(*tail) if tail else 1
    s, i = f.slope_num, f.intercept_num
    values = [v * mult for v in (f.iso_num, *f.head_nums[:count])]
    values += [(s * (n - 1) + i * n) * (mult // n) for n in tail]
    values.append((s + i) * mult)
    return f.den * mult, values


def leq(f: SeqFn, g: SeqFn) -> bool:
    """Pointwise f <= g over the whole space, decided exactly by ``pointwise_order``."""
    return pointwise_order(f, g) < 0


def order_rows(u: Sequence[int], v: Sequence[int]) -> int:
    """-1 when ``u <= v`` entry by entry, 1 when only ``v <= u`` does, else 0."""
    if all(map(operator.le, u, v)):
        return -1
    return 1 if all(map(operator.le, v, u)) else 0


def pointwise_order(f: SeqFn, g: SeqFn) -> int:
    """-1 when f <= g everywhere, 1 when only g <= f, else 0.

    The difference is affine on the common tail, so the rows run to its
    first shared point and the limit, cross-multiplied onto one scale.
    """
    count = max(f.head_len, g.head_len) + 1
    f_scale, fv = scaled_values(f, count)
    g_scale, gv = scaled_values(g, count)
    return order_rows([a * g_scale for a in fv], [b * f_scale for b in gv])


def attained_max(f: SeqFn) -> tuple[int, int, list[int]]:
    """Largest value of f as ``(peak, scale, values)``: the value is ``peak / scale``.

    ``scale, values`` is ``scaled_values(f, f.head_len + 1)`` and
    ``peak`` its maximum: a tail peaks at its first point or at the limit.
    """
    scale, values = scaled_values(f, f.head_len + 1)
    return max(values), scale, values


def join(f: SeqFn, g: SeqFn) -> SeqFn:
    """Pointwise maximum.

    A tail takes ``limit - slope/n`` at ``seq(n)``, so two tails differ
    by ``dl - ds/n`` and cross only at ``n = ds/dl``, when ``ds*dl > 0``;
    the head reaches that far.  Past it, the tail with the larger limit
    wins; with equal limits the smaller slope wins.
    """
    den = math.lcm(f.den, g.den)
    fk, gk = den // f.den, den // g.den
    ds = f.slope_num * fk - g.slope_num * gk
    dl = (f.slope_num + f.intercept_num) * fk - (g.slope_num + g.intercept_num) * gk
    extend_to = max(f.head_len, g.head_len)
    if ds * dl > 0:
        # seq(n) lies at or before the crossing iff n <= ds / dl
        extend_to = max(extend_to, ds // dl)
    tail = f if (dl, -ds) >= (0, 0) else g
    f_scale, fv = scaled_values(f, extend_to)
    g_scale, gv = scaled_values(g, extend_to)
    scale = math.lcm(f_scale, g_scale)
    fm, gm = scale // f_scale, scale // g_scale
    values = [max(a * fm, b * gm) for a, b in zip(fv, gv)]
    k = scale // tail.den
    return _reduced(scale, values[0], values[1:-1], tail.slope_num * k, tail.intercept_num * k)
