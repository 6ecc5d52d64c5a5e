"""Seeded generation of comonotone function pairs.

Rather than rejection-sampling pairs, both functions are produced as
monotone reparameterizations of one base function: f = phi(h) and
g = psi(h) with phi, psi nondecreasing piecewise-linear maps of [0,1].
Any two nondecreasing transforms of the same function are comonotone,
and composing a piecewise-linear map with an affine tail is piecewise
affine with finitely many rational breakpoints, so the result stays
representable once the head is extended past the last breakpoint.

Everything runs on integers over one denominator, as in ``SeqFn``:
a map keeps its knots as integer pairs ``(X, Y)`` over ``den``, every
drawn rational is put over ``lcm(1..max(2, max_denominator))``, and
``compose`` maps each value of h through a table of the map's segments,
all over one denominator.  Every draw is ``rational.draw_int``: the value
``rng.randint`` would give, taken straight from ``rng.getrandbits``.

Every output is still post-validated with the exact comonotonicity
decision; a validation failure would mean a bug in the construction and
aborts loudly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left

from .rational import Record, draw_int
from .seq_comonotone import comonotone_witness
from .seqspace import SeqFn, _reduced, scaled_values


class GeneratorParams(Record):
    """Size bounds for generated objects."""

    __slots__ = _fields = ("prefix_max", "max_denominator", "max_breakpoints")
    prefix_max: int
    max_denominator: int
    max_breakpoints: int

    def __init__(self, prefix_max: int = 2, max_denominator: int = 6, max_breakpoints: int = 3):
        if prefix_max < 0 or max_denominator < 1 or max_breakpoints < 0:
            raise ValueError("generator parameters must be nonnegative (denominator >= 1)")
        self.prefix_max, self.max_denominator = prefix_max, max_denominator
        self.max_breakpoints = max_breakpoints


class MonotoneMap(Record):
    """Nondecreasing piecewise-linear self-map of [0,1]; knot ``(X, Y)`` is ``(X/den, Y/den)``."""

    __slots__ = _fields = ("den", "knots")
    den: int
    knots: tuple[tuple[int, int], ...]

    def __init__(self, den: int, knots: tuple[tuple[int, int], ...]) -> None:
        if den < 1:
            raise ValueError(f"denominator {den} must be positive")
        (x_first, y_first), (x_last, y_last) = knots[0], knots[-1]
        if x_first != 0 or x_last != den:
            raise ValueError("knot abscissas must run from 0 to 1")
        for (x0, _), (x1, _) in zip(knots, knots[1:]):
            if x0 >= x1:
                raise ValueError("knot abscissas must be strictly increasing")
        if any(y0 > y1 for (_, y0), (_, y1) in zip(knots, knots[1:])):
            raise ValueError("knot ordinates must be nondecreasing")
        # Nondecreasing ordinates lie in [0,1] once the end ones do.
        if y_first < 0 or y_last > den:
            raise ValueError("knot ordinates must lie in [0,1]")
        self.den, self.knots = den, knots


def compose(phi: MonotoneMap, h: SeqFn) -> SeqFn:
    """The function phi(h(.)), renormalized into canonical form.

    The head is extended past every coordinate where the tail of h
    crosses a knot abscissa of phi; beyond that the composite follows a
    single segment of phi and is affine in the coordinate again.  With
    ``E = phi.den`` and h's ``(D, S, I)``, the tail meets the abscissa
    ``X`` at the coordinate ``t = (X*D - I*E) / (S*E)``, and ``seq(n)``
    lies past it once ``n > 1/(1 - t)``.

    Every value comes out over ``E*q*L``, with ``L`` the lcm of the
    segment widths: a segment from ``(X0, Y0)`` of slope ``m / L`` maps
    the value ``v / q`` of h (``scaled_values``) to ``(Y0*L - m*X0)*q + m*E*v``.
    """
    e, knots = phi.den, phi.knots
    d, s, i = h.den, h.slope_num, h.intercept_num
    extend_to = h.head_len
    if s:
        for x, _ in knots:
            num, den = x * d - i * e, s * e
            if den < 0:
                num, den = -num, -den
            # Include 0 so a tail starting exactly at a knot is carried past
            # it explicitly; the open tail must stay inside one segment.
            if 0 <= num < den:
                extend_to = max(extend_to, den // (den - num) + 1)
    q, values = scaled_values(h, extend_to + 1)
    width_lcm = math.lcm(*(x1 - x0 for (x0, _), (x1, _) in zip(knots, knots[1:])))
    rows = []
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        m = (y1 - y0) * (width_lcm // (x1 - x0))
        rows.append(((y0 * width_lcm - m * x0) * q, m * e))
    # v / q lies on the first segment with v <= floor(X1*q/E), or on the last one.
    bounds = [x * q // e for x, _ in knots[1:-1]]
    nums = []
    for v in values:
        c, me = rows[bisect_left(bounds, v)]
        nums.append(c + me * v)
    # From seq(extend_to + 1) on, the composite is affine in the
    # coordinate, so that point and the limit give its tail.
    slope = (nums[-1] - nums[-2]) * (extend_to + 1)
    return _reduced(e * q * width_lcm, nums[0], nums[1:-2], slope, nums[-1] - slope)


def _draw_denominator(max_denominator: int) -> int:
    """``lcm(1..max(2, max_denominator))``: a multiple of every denominator drawn."""
    return math.lcm(*range(1, max(2, max_denominator) + 1))


def _unit_num(rng: random.Random, max_denominator: int, den: int) -> int:
    """``random_unit_rational``'s draw, as an integer over ``den``."""
    d = draw_int(rng, 1, max_denominator)
    return draw_int(rng, 0, d) * (den // d)


def _interior_num(rng: random.Random, max_denominator: int, den: int) -> int:
    """A draw strictly inside (0, 1), with denominator 2..max(2, max_denominator), over ``den``."""
    d = draw_int(rng, 2, max(2, max_denominator))
    return draw_int(rng, 1, d - 1) * (den // d)


def random_seqfn(rng: random.Random, params: GeneratorParams) -> SeqFn:
    """A random representable function within the size bounds."""
    maxd = params.max_denominator
    den = _draw_denominator(maxd)
    head_len = draw_int(rng, 0, params.prefix_max)
    iso = _unit_num(rng, maxd, den)
    head = [_unit_num(rng, maxd, den) for _ in range(head_len)]
    # Tail from its two endpoint values; affine between in-range endpoints
    # stays in range.
    y_first = _unit_num(rng, maxd, den)
    y_limit = _unit_num(rng, maxd, den)
    slope = (y_limit - y_first) * (head_len + 1)
    return _reduced(den, iso, head, slope, y_limit - slope)


def random_monotone_map(rng: random.Random, params: GeneratorParams) -> MonotoneMap:
    maxd = params.max_denominator
    den = _draw_denominator(maxd)
    count = draw_int(rng, 0, params.max_breakpoints)
    inner = sorted({_interior_num(rng, maxd, den) for _ in range(count)})
    xs = [0, *inner, den]
    ys = sorted(_unit_num(rng, maxd, den) for _ in xs)
    return MonotoneMap(den, tuple(zip(xs, ys)))


def pair_seed(seed: int, index: int) -> int:
    """Stable per-pair seed (integer-only so it is process independent)."""
    return seed * (1 << 32) + index


def generate_pair(seed: int, params: GeneratorParams = GeneratorParams()) -> tuple[SeqFn, SeqFn]:
    """Deterministic comonotone pair for the given seed."""
    rng = random.Random(seed)
    base = random_seqfn(rng, params)
    f = compose(random_monotone_map(rng, params), base)
    g = compose(random_monotone_map(rng, params), base)
    witness = comonotone_witness(f, g)
    if witness is not None:
        raise AssertionError(
            "generator produced a non-comonotone pair (construction bug): "
            f"seed={seed} f={f.to_json()} g={g.to_json()} "
            f"witness=({witness[0]}, {witness[1]})"
        )
    return f, g


def random_pair(seed: int, params: GeneratorParams = GeneratorParams()) -> tuple[SeqFn, SeqFn]:
    """Two independent random functions (usually not comonotone)."""
    rng = random.Random(seed)
    return random_seqfn(rng, params), random_seqfn(rng, params)
