"""Membership classification and the 0/1 step functional.

The step functional looks at three exact properties of a function:
whether it sits below the unit ramp everywhere, whether its maximum is
already attained at the isolated point, and whether its maximum stays
strictly below 1.  Functions below the ramp whose peak is tame in
either sense form the zero class; the functional maps the zero class to
0 and everything else to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import ONE, ZERO
from .seqspace import SeqFn, attained_max, leq, ramp

RAMP_ONE = ramp(ONE)


@dataclass(frozen=True)
class Membership:
    """Exact classification flags for one function."""

    below_ramp: bool  # f <= unit ramp pointwise
    capped_at_iso: bool  # max f <= f(isolated point)
    below_one: bool  # max f < 1

    @property
    def in_zero_class(self) -> bool:
        return self.below_ramp and (self.capped_at_iso or self.below_one)

    @property
    def step(self) -> Fraction:
        """The step functional's value: 0 on the zero class, 1 elsewhere."""
        return ZERO if self.in_zero_class else ONE


def membership(f: SeqFn) -> Membership:
    peak = attained_max(f)
    return Membership(
        below_ramp=leq(f, RAMP_ONE),
        capped_at_iso=peak <= f.iso,
        below_one=peak < ONE,
    )


def step_value(f: SeqFn) -> Fraction:
    """0 on the zero class, 1 elsewhere."""
    return membership(f).step
