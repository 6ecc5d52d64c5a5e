"""Membership classification and the 0/1 step functional.

The step functional looks at three exact properties of a function:
whether it sits below the unit ramp everywhere, whether its maximum is
already attained at the isolated point, and whether its maximum stays
strictly below 1.  Functions below the ramp whose peak is tame in
either sense form the zero class; the functional maps the zero class to
0 and everything else to 1.  ``Membership.step`` is that value as the
int 0 or 1, which the pair checks compare; only ``step_value`` (and the
witnesses the checks write) carry it as a ``Fraction``.

All three are read from one integer row, ``attained_max``'s
``scaled_values(f, f.head_len + 1)``: the isolated point,
``seq(1..head_len + 1)`` and the limit, times one positive scale.  The
unit ramp is 1 at the isolated point and at the limit and
``(k - 1)/k`` at ``seq(k)``, and both tails are affine past the head,
so f is below it iff it is at the limit and at each ``seq(k)`` of the
row (the isolated value is at most 1 anyway).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rational import ONE, ZERO
from .seqspace import SeqFn, attained_max


class Membership(NamedTuple):
    """Exact classification flags for one function."""

    below_ramp: bool  # f <= unit ramp pointwise
    capped_at_iso: bool  # max f <= f(isolated point)
    below_one: bool  # max f < 1

    @property
    def in_zero_class(self) -> bool:
        return self.below_ramp and (self.capped_at_iso or self.below_one)

    @property
    def step(self) -> int:
        """The step functional's value as an int: 0 on the zero class, 1 elsewhere."""
        return 0 if self.in_zero_class else 1


def membership(f: SeqFn) -> Membership:
    peak, scale, row = attained_max(f)
    heads = enumerate(row[1:-1], start=1)  # v = scale * f(seq(k))
    return Membership(
        below_ramp=row[-1] <= scale and all(v * k <= scale * (k - 1) for k, v in heads),
        capped_at_iso=peak <= row[0],
        below_one=peak < scale,
    )


def step_value(f: SeqFn) -> Fraction:
    """0 on the zero class, 1 elsewhere, as a ``Fraction``."""
    return ONE if membership(f).step else ZERO
