"""Literal oracles for the sequence-model comonotonicity decision.

``fraction_truncated`` is the brute-force truncated check written on
``SeqFn.at`` values: every value a ``Fraction``, every product taken
in rational arithmetic, no scaling.  It keeps the defining product,
which the integer pair loops replace by comparisons.  ``interval_witness`` is the exact
decision written on ``Fraction`` values too: each tail point against a
fixed point is settled by mapping the roots of two affine factors in
the coordinate ``t = 1 - 1/n`` to an open interval, then to the first
sequence index inside it.  The differential tests hold
``comaxlab.seq_comonotone`` to both: same verdict, same first witness.

``fraction_make``, ``fraction_join``, ``fraction_leq`` and
``fraction_attained_max`` are the operations of ``comaxlab.seqspace``
written literally in ``Fraction`` arithmetic.  They work on the
``Fraction`` fields ``(iso, head, slope, intercept)`` and return them
(or a verdict, or a value), so the integer code is held to them field
by field.

``FractionMap``, ``fraction_compose``, ``fraction_random_monotone_map``
and ``fraction_random_seqfn`` are the seeded generator of
``comaxlab.pairgen`` in ``Fraction`` arithmetic: a map's
knots are ``Fraction`` pairs, a drawn rational is a ``Fraction``, and
composition evaluates the head point by point.  Fed the same seed they
make the same ``randint`` calls as the integer generator, which draws
through ``rational.draw_int``; ``fraction_unit`` is the unit draw, written
with ``rng.randint`` so that the stream is checked against it.
``fraction_membership`` is ``comaxlab.classify.membership`` from
``fraction_leq`` against the unit ramp and ``fraction_attained_max``.

``fraction_check_pair`` is ``comaxlab.suites._check_pair`` with every
step value ``fraction_step``'s ``Fraction`` ``ZERO`` or ``ONE``: each comparison, the
``max`` and the violation fields run on ``Fraction``s, so the integer
check is held to it tally by tally and violation by violation.

``list_normalized_search`` is ``comaxlab.suites.normalized_search``
written as lists: every comonotone family pair with its join, every
ordered family pair, every generated and every sampled ordered pair is
stored first, then rescanned once per candidate through a cache of the
candidate's values.  It reads ``suites._candidate_zoo`` at call time,
so a test may swap the zoo for both.

``points_upto`` lists the isolated point, ``seq(1..count)`` and the
limit, the points ``seqspace.point_at`` names one at a time.
``comonotone``, ``attained_value``, ``constant_map``, ``IDENTITY_MAP``
and ``fraction_map`` are small helpers only the tests need, and
``seq_fns`` is the one Hypothesis strategy for sequence-space functions.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from comaxlab import suites
from comaxlab.classify import Membership
from comaxlab.pairgen import GeneratorParams, MonotoneMap, generate_pair, pair_seed, random_seqfn
from comaxlab.rational import ONE, ZERO
from comaxlab.report import FINDING, INCONCLUSIVE, VerificationReport, check_budget
from comaxlab.seq_comonotone import PairRelations, comonotone_witness
from comaxlab.seqspace import ISOLATED, LIMIT, attained_max, constant, join, make, ramp, seq

Bound = Fraction | None  # None stands for the unbounded side


def points_upto(count):
    """Isolated point, seq(1..count), and the limit, in canonical order."""
    return [ISOLATED] + [seq(n) for n in range(1, count + 1)] + [LIMIT]


def fraction_truncated(f, g, depth=50):
    pts = points_upto(depth)
    fv = [f.at(p) for p in pts]
    gv = [g.at(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (fv[i] - fv[j]) * (gv[i] - gv[j]) < 0:
                return (pts[i], pts[j])
    return None


def negativity_interval(a1, b1, a2, b2):
    """Open interval where (a1*t + b1)(a2*t + b2) < 0, or None when empty.

    Requires a1*a2 >= 0, which keeps the negativity set a single interval.
    """
    if a1 * a2 < 0:
        raise ValueError("opposite tail slopes must be handled separately")
    if a1 == 0 and a2 == 0:
        return (None, None) if b1 * b2 < 0 else None
    if a1 == 0 or a2 == 0:
        const, a, b = (b1, a2, b2) if a1 == 0 else (b2, a1, b1)
        if const == 0:
            return None
        root = -b / a
        # Need the affine factor to oppose the constant factor's sign.
        opposes_below = (a > 0) == (const > 0)
        return (None, root) if opposes_below else (root, None)
    r1, r2 = -b1 / a1, -b2 / a2
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return None if lo == hi else (lo, hi)


def first_seq_index_in(lo: Bound, hi: Bound, n_min: int) -> int | None:
    """Smallest n >= n_min with lo < 1 - 1/n < hi, or None."""
    if lo is None:
        n_lo = n_min
    else:
        if lo >= 1:
            return None
        n_lo = max(n_min, math.floor(1 / (1 - lo)) + 1)
    if hi is None or hi >= 1:
        return n_lo
    bound = 1 / (1 - hi)  # need n strictly below this
    n_hi = bound.numerator // bound.denominator
    if bound.denominator == 1:
        n_hi -= 1
    return n_lo if n_lo <= n_hi else None


def interval_witness(f, g):
    shared = max(f.head_len, g.head_len)
    fixed = points_upto(shared)
    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            x1, x2 = fixed[i], fixed[j]
            if (f.at(x1) - f.at(x2)) * (g.at(x1) - g.at(x2)) < 0:
                return (x1, x2)
    if f.slope * g.slope < 0:
        return (seq(shared + 1), seq(shared + 2))
    for x0 in fixed:
        interval = negativity_interval(
            f.slope, f.intercept - f.at(x0), g.slope, g.intercept - g.at(x0)
        )
        if interval is not None:
            n = first_seq_index_in(*interval, shared + 1)
            if n is not None:
                return (x0, seq(n))
    return None


def comonotone(f, g):
    return comonotone_witness(f, g) is None


def attained_value(f):
    """``attained_max``'s peak as a Fraction."""
    peak, scale, _ = attained_max(f)
    return Fraction(peak, scale)


def constant_map(c):
    return MonotoneMap(c.denominator, ((0, c.numerator), (c.denominator, c.numerator)))


IDENTITY_MAP = MonotoneMap(1, ((0, 0), (1, 1)))


@st.composite
def seq_fns(draw, max_head, max_denominator):
    """A SeqFn with a head of at most ``max_head`` values, all on denominators up to the given one."""
    fractions = st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)
    iso = draw(fractions)
    head = draw(st.lists(fractions, max_size=max_head))
    y_first = draw(fractions)
    y_limit = draw(fractions)
    m = len(head) + 1
    slope = (y_limit - y_first) * m
    return make(iso, head, slope, y_limit - slope)


def fields(f):
    """The Fraction fields ``(iso, head, slope, intercept)`` of a SeqFn."""
    return (f.iso, f.head, f.slope, f.intercept)


def fields_json(fields_):
    iso, head, slope, intercept = fields_
    return {
        "vP": str(iso),
        "prefix": [str(v) for v in head],
        "alpha": str(slope),
        "beta": str(intercept),
    }


def fraction_tail_value(slope, intercept, n):
    return slope * (1 - Fraction(1, n)) + intercept


def fraction_at(fields_, n):
    """Value at seq(n) of a function given by its Fraction fields."""
    _, head, slope, intercept = fields_
    return head[n - 1] if n <= len(head) else fraction_tail_value(slope, intercept, n)


def fraction_make(iso, head, slope, intercept):
    """Trim head entries already implied by the tail; return the fields."""
    trimmed = list(head)
    while trimmed and trimmed[-1] == fraction_tail_value(slope, intercept, len(trimmed)):
        trimmed.pop()
    return (iso, tuple(trimmed), slope, intercept)


def fraction_leq(f, g):
    a, b = fields(f), fields(g)
    if a[0] > b[0]:
        return False
    shared = max(len(a[1]), len(b[1]))
    for n in range(1, shared + 2):
        if fraction_at(a, n) > fraction_at(b, n):
            return False
    return a[2] + a[3] <= b[2] + b[3]


def fraction_attained_max(f):
    iso, head, slope, intercept = fields(f)
    candidates = [iso, *head, slope + intercept]
    if slope < 0:
        candidates.append(fraction_tail_value(slope, intercept, len(head) + 1))
    return max(candidates)


UNIT_RAMP = ramp(Fraction(1))


def fraction_membership(f):
    """``classify.membership`` from ``fraction_leq`` against the unit ramp
    and ``fraction_attained_max``."""
    peak = fraction_attained_max(f)
    return Membership(
        below_ramp=fraction_leq(f, UNIT_RAMP),
        capped_at_iso=peak <= f.iso,
        below_one=peak < 1,
    )


def fraction_step(m):
    return ZERO if m.in_zero_class else ONE


def fraction_check_pair(pair, tally, violations):
    """``suites._check_pair`` with ``Fraction`` step values."""
    source, index, f, g, mf, mg, m_join, order = pair
    tally[suites.PAIR_COUNTS[source]] += 1
    tally[f"branch_{suites.branch_tag(mf, mg)}"] += 1
    nu_f, nu_g = fraction_step(mf), fraction_step(mg)
    lower, upper, nu_lo, nu_hi = (f, g, nu_f, nu_g) if order <= 0 else (g, f, nu_g, nu_f)
    nu_join, expected = fraction_step(m_join), max(nu_f, nu_g)
    where = {"source": source, "index": index}
    if nu_join != expected:
        violations.append({"kind": "maxitivity", **where, "f": f.to_json(), "g": g.to_json(),
                           "step_join": nu_join, "max_steps": expected})
    if order:
        tally["ordered_comonotone_checks"] += 1
        if nu_lo > nu_hi:
            violations.append({"kind": "restricted_monotonicity", **where,
                               "lower": lower.to_json(), "upper": upper.to_json(),
                               "step_lower": nu_lo, "step_upper": nu_hi})


def fraction_join(f, g):
    a, b = fields(f), fields(g)
    extend_to = max(len(a[1]), len(b[1]))
    if a[2] != b[2]:
        t_star = (b[3] - a[3]) / (a[2] - b[2])
        if t_star < 1:
            # seq(n) lies at or before the crossing iff n <= 1/(1 - t_star)
            extend_to = max(extend_to, math.floor(1 / (1 - t_star)))
    head = [max(fraction_at(a, n), fraction_at(b, n)) for n in range(1, extend_to + 1)]
    tail = a if (a[2] + a[3], -a[2]) >= (b[2] + b[3], -b[2]) else b
    return fraction_make(max(a[0], b[0]), head, tail[2], tail[3])


@dataclass(frozen=True)
class FractionMap:
    """Nondecreasing piecewise-linear self-map of [0,1], knots as Fractions."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def segment(self, v):
        """Slope and offset of the first segment containing v (as y = s*v + c)."""
        for (x0, y0), (x1, y1) in zip(self.knots, self.knots[1:]):
            if x0 <= v <= x1:
                s = (y1 - y0) / (x1 - x0)
                return s, y0 - s * x0
        raise ValueError(f"{v} outside [0,1]")

    def __call__(self, v):
        s, c = self.segment(v)
        return s * v + c


def fraction_map(phi):
    """The FractionMap with the same knots as an integer MonotoneMap."""
    return FractionMap(tuple((Fraction(x, phi.den), Fraction(y, phi.den)) for x, y in phi.knots))


def fraction_compose(phi, h):
    """Fields of phi(h(.)); ``phi`` a FractionMap, ``h`` given by its fields.

    The head is extended past every coordinate where the tail of h
    crosses a knot abscissa of phi (a crossing at coordinate 0 included);
    beyond that the composite follows one segment of phi.
    """
    iso, head, slope, intercept = h
    extend_to = len(head)
    if slope == 0:
        tail_slope, tail_intercept = Fraction(0), phi(intercept)
    else:
        for x_knot, _ in phi.knots:
            t_cross = (x_knot - intercept) / slope
            if 0 <= t_cross < 1:
                extend_to = max(extend_to, math.floor(1 / (1 - t_cross)) + 1)
        s, c = phi.segment(fraction_tail_value(slope, intercept, extend_to + 1))
        tail_slope, tail_intercept = s * slope, s * intercept + c
    new_head = [phi(fraction_at(h, k)) for k in range(1, extend_to + 1)]
    return fraction_make(phi(iso), new_head, tail_slope, tail_intercept)


def fraction_unit(rng, max_denominator):
    """``rational.random_unit_rational``'s draw, written with ``rng.randint`` itself."""
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def fraction_interior(rng, max_denominator):
    den = rng.randint(2, max(2, max_denominator))
    return Fraction(rng.randint(1, den - 1), den)


def fraction_random_seqfn(rng, params):
    head_len = rng.randint(0, params.prefix_max)
    iso = fraction_unit(rng, params.max_denominator)
    head = [fraction_unit(rng, params.max_denominator) for _ in range(head_len)]
    y_first = fraction_unit(rng, params.max_denominator)
    y_limit = fraction_unit(rng, params.max_denominator)
    slope = (y_limit - y_first) * (head_len + 1)
    return fraction_make(iso, head, slope, y_limit - slope)


def fraction_random_monotone_map(rng, params):
    count = rng.randint(0, params.max_breakpoints)
    inner = sorted({fraction_interior(rng, params.max_denominator) for _ in range(count)})
    xs = [Fraction(0), *inner, Fraction(1)]
    ys = sorted(fraction_unit(rng, params.max_denominator) for _ in xs)
    return FractionMap(tuple(zip(xs, ys)))



def list_normalized_search(seed, samples, grid, prefix_max, budget=10**7):
    """``suites.normalized_search`` over stored pair lists, one rescan per candidate."""
    size = suites.family_size(grid, prefix_max)
    check_budget(size * (size + 1) // 2, budget, "structured family pairs")
    params = GeneratorParams(prefix_max=prefix_max)

    family = suites.structured_family(grid, prefix_max)
    relations = PairRelations(family)
    family_pairs = []
    ordered_pairs = []
    for i, f in enumerate(family):
        for j in range(i, len(family)):
            g = family[j]
            if relations.comonotone(i, j):
                family_pairs.append((f, g, join(f, g)))
            order = relations.order(i, j)
            if order < 0:
                ordered_pairs.append((f, g))
            elif order > 0:
                ordered_pairs.append((g, f))

    generated = []
    for index in range(samples):
        f, g = generate_pair(pair_seed(seed, index), params)
        generated.append((f, g, join(f, g)))
    rng = random.Random(pair_seed(seed, samples))
    sampled_ordered = []
    for _ in range(samples):
        f = random_seqfn(rng, params)
        g = join(f, random_seqfn(rng, params))
        sampled_ordered.append((f, g))

    probe_constants = sorted({*grid, Fraction(1, 3), Fraction(2, 3)})

    counts = Counter(
        {
            "candidates": 0,
            "rejected_not_normalized": 0,
            "rejected_not_maxitive": 0,
            "monotone_at_this_scale": 0,
            "candidates_found": 0,
        }
    )
    outcomes = []
    for name, functional in suites._candidate_zoo(grid):
        counts["candidates"] += 1
        record = {"candidate": name}

        bad_constant = next(
            (c for c in probe_constants if functional(constant(c)) != c), None
        )
        if bad_constant is not None:
            counts["rejected_not_normalized"] += 1
            record["outcome"] = "rejected_not_normalized"
            record["constant"] = bad_constant
            record["value"] = functional(constant(bad_constant))
            outcomes.append(record)
            continue

        value = functools.cache(functional)
        maxitivity_break = None
        for f, g, joined in family_pairs + generated:
            if value(joined) != max(value(f), value(g)):
                maxitivity_break = (f, g)
                break
        if maxitivity_break is not None:
            counts["rejected_not_maxitive"] += 1
            record["outcome"] = "rejected_not_maxitive"
            record["f"] = maxitivity_break[0].to_json()
            record["g"] = maxitivity_break[1].to_json()
            outcomes.append(record)
            continue

        monotonicity_break = None
        for f, g in ordered_pairs + sampled_ordered:
            if value(f) > value(g):
                monotonicity_break = (f, g)
                break
        if monotonicity_break is None:
            counts["monotone_at_this_scale"] += 1
            record["outcome"] = "monotone_at_this_scale"
        else:
            counts["candidates_found"] += 1
            record["outcome"] = "candidate_found"
            record["lower"] = monotonicity_break[0].to_json()
            record["upper"] = monotonicity_break[1].to_json()
        outcomes.append(record)

    counts["family_pairs_screened"] = len(family_pairs)
    counts["generated_pairs_screened"] = len(generated)
    counts["ordered_pairs_screened"] = len(ordered_pairs) + len(sampled_ordered)

    return VerificationReport(
        claim_id="explore-problem1",
        status=FINDING if counts["candidates_found"] else INCONCLUSIVE,
        counts=dict(counts),
        witnesses=outcomes,
        seed=seed,
    )
