"""Seeded generation of comonotone function pairs.

Rather than rejection-sampling pairs, both functions are produced as
monotone reparameterizations of one base function: f = phi(h) and
g = psi(h) with phi, psi nondecreasing piecewise-linear maps of [0,1].
Any two nondecreasing transforms of the same function are comonotone,
and composing a piecewise-linear map with an affine tail is piecewise
affine with finitely many rational breakpoints, so the result stays
representable once the head is extended past the last breakpoint.

Every output is still post-validated with the exact comonotonicity
decision; a validation failure would mean a bug in the construction and
aborts loudly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .rational import ONE, ZERO, random_unit_rational
from .seq_comonotone import comonotone_witness
from .seqspace import SeqFn, make, seq


@dataclass(frozen=True)
class GeneratorParams:
    """Size bounds for generated objects."""

    prefix_max: int = 2
    max_denominator: int = 6
    max_breakpoints: int = 3

    def validate(self) -> None:
        if self.prefix_max < 0 or self.max_denominator < 1 or self.max_breakpoints < 0:
            raise ValueError("generator parameters must be nonnegative (denominator >= 1)")


@dataclass(frozen=True)
class MonotoneMap:
    """Nondecreasing piecewise-linear self-map of [0,1], stored as knots."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.knots]
        ys = [y for _, y in self.knots]
        if xs[0] != ZERO or xs[-1] != ONE:
            raise ValueError("knot abscissas must run from 0 to 1")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("knot abscissas must be strictly increasing")
        if any(a > b for a, b in zip(ys, ys[1:])):
            raise ValueError("knot ordinates must be nondecreasing")
        for y in ys:
            if not (ZERO <= y <= ONE):
                raise ValueError("knot ordinates must lie in [0,1]")

    def segment(self, v: Fraction) -> tuple[Fraction, Fraction]:
        """Slope and offset of the segment containing v (as y = s*v + c)."""
        for (x0, y0), (x1, y1) in zip(self.knots, self.knots[1:]):
            if x0 <= v <= x1:
                s = (y1 - y0) / (x1 - x0)
                return s, y0 - s * x0
        raise ValueError(f"{v} outside [0,1]")

    def __call__(self, v: Fraction) -> Fraction:
        s, c = self.segment(v)
        return s * v + c


def compose(phi: MonotoneMap, h: SeqFn) -> SeqFn:
    """The function phi(h(.)), renormalized into canonical form.

    The head is extended past every coordinate where the tail of h
    crosses a knot abscissa of phi; beyond that the composite follows a
    single segment of phi and is affine in the coordinate again.
    """
    if h.slope == 0:
        tail_slope, tail_intercept = ZERO, phi(h.intercept)
        extend_to = h.head_len
    else:
        extend_to = h.head_len
        for x_knot, _ in phi.knots:
            t_cross = (x_knot - h.intercept) / h.slope
            # Include 0 so a tail starting exactly at a knot is carried past
            # it explicitly; the open tail must stay inside one segment.
            if 0 <= t_cross < 1:
                extend_to = max(extend_to, math.floor(1 / (1 - t_cross)) + 1)
        s, c = phi.segment(h.tail_value(extend_to + 1))
        tail_slope = s * h.slope
        tail_intercept = s * h.intercept + c
    head = [phi(h.at(seq(k))) for k in range(1, extend_to + 1)]
    return make(phi(h.iso), head, tail_slope, tail_intercept)


def _interior_fraction(rng: random.Random, max_denominator: int) -> Fraction:
    den = rng.randint(2, max(2, max_denominator))
    return Fraction(rng.randint(1, den - 1), den)


def random_seqfn(rng: random.Random, params: GeneratorParams) -> SeqFn:
    """A random representable function within the size bounds."""
    head_len = rng.randint(0, params.prefix_max)
    iso = random_unit_rational(rng, params.max_denominator)
    head = [random_unit_rational(rng, params.max_denominator) for _ in range(head_len)]
    # Tail from its two endpoint values; affine between in-range endpoints
    # stays in range.
    y_first = random_unit_rational(rng, params.max_denominator)
    y_limit = random_unit_rational(rng, params.max_denominator)
    m = head_len + 1
    slope = (y_limit - y_first) * m
    return make(iso, head, slope, y_limit - slope)


def random_monotone_map(rng: random.Random, params: GeneratorParams) -> MonotoneMap:
    count = rng.randint(0, params.max_breakpoints)
    inner = sorted({_interior_fraction(rng, params.max_denominator) for _ in range(count)})
    xs = [ZERO, *inner, ONE]
    ys = sorted(random_unit_rational(rng, params.max_denominator) for _ in xs)
    return MonotoneMap(tuple(zip(xs, ys)))


def pair_seed(seed: int, index: int) -> int:
    """Stable per-pair seed (integer-only so it is process independent)."""
    return seed * (1 << 32) + index


def generate_pair(seed: int, params: GeneratorParams = GeneratorParams()) -> tuple[SeqFn, SeqFn]:
    """Deterministic comonotone pair for the given seed."""
    params.validate()
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
    params.validate()
    rng = random.Random(seed)
    return random_seqfn(rng, params), random_seqfn(rng, params)
