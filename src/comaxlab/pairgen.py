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
composition scales the head values of h to one denominator
(``scaled_values``) and maps each through its segment by integer
cross-multiplication.  Every draw is ``rational.draw_int``: the value
``rng.randint`` would give, taken straight from ``rng.getrandbits``.

Every output is still post-validated with the exact comonotonicity
decision; a validation failure would mean a bug in the construction and
aborts loudly.
"""

from __future__ import annotations

import math
import random

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
        xs = [x for x, _ in knots]
        ys = [y for _, y in knots]
        if xs[0] != 0 or xs[-1] != den:
            raise ValueError("knot abscissas must run from 0 to 1")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("knot abscissas must be strictly increasing")
        if any(a > b for a, b in zip(ys, ys[1:])):
            raise ValueError("knot ordinates must be nondecreasing")
        for y in ys:
            if not 0 <= y <= den:
                raise ValueError("knot ordinates must lie in [0,1]")
        self.den, self.knots = den, knots


def _segment(knots: tuple[tuple[int, int], ...], w: int, q: int) -> tuple[int, int, int, int]:
    """``(X0, Y0, dX, dY)`` of the first segment with ``X0*q <= w <= X1*q``, for ``0 <= w <= den*q``."""
    k = 1
    while k < len(knots) - 1 and w > knots[k][0] * q:
        k += 1
    (x0, y0), (x1, y1) = knots[k - 1], knots[k]
    return x0, y0, x1 - x0, y1 - y0


def compose(phi: MonotoneMap, h: SeqFn) -> SeqFn:
    """The function phi(h(.)), renormalized into canonical form.

    The head is extended past every coordinate where the tail of h
    crosses a knot abscissa of phi; beyond that the composite follows a
    single segment of phi and is affine in the coordinate again.  With
    ``E = phi.den`` and h's ``(D, S, I)``, the tail meets the abscissa
    ``X`` at the coordinate ``t = (X*D - I*E) / (S*E)``, and ``seq(n)``
    lies past it once ``n > 1/(1 - t)``.
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
    # phi(v/q) = (Y0*dX*q + dY*(v*E - X0*q)) / (E*dX*q) on the segment of v/q.
    parts = []
    for v in values[: extend_to + 1]:
        x0, y0, dx, dy = _segment(knots, v * e, q)
        parts.append((y0 * dx * q + dy * (v * e - x0 * q), e * dx * q))
    # The tail point seq(extend_to + 1) lies strictly inside the segment
    # the whole tail follows (or, for a flat tail, on its value).
    x0, y0, dx, dy = _segment(knots, values[extend_to + 1] * e, q)
    parts.append((dy * s * e, e * dx * d))
    parts.append((dy * i * e + (y0 * dx - dy * x0) * d, e * dx * d))
    den = math.lcm(*(b for _, b in parts))
    nums = [a * (den // b) for a, b in parts]
    return _reduced(den, nums[0], nums[1:-2], nums[-2], nums[-1])


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
