"""Property checkers for functionals on grid functions.

Each checker reads a functional's value table as integers over one
``scale``, indexed like the domain of the ``grid.Relations`` it is
handed, and decides one axiom exhaustively over a chain grid, comparing
integers and returning the verdict with the first violating input; a
Fraction is built only for a witness.  Only ``join_break`` and
``order_break`` decide maxitivity and monotonicity, the latter on the
order's covers, whose first break sends ``is_monotone`` to the whole
order for its first broken pair as the witness; the census runs
them on its rows of chain indices too.  ``integral_property_suite``
bundles the four checks for the t-normed integral across every chain
capacity, refused over budget by ``report.check_budget``: it builds the
relations, the homogeneity cases and the ``integral.LevelTable`` of
their inputs (the grid domain first) once, integrates each capacity
once over that table, as numerators over ``table.common * cap.den``,
and hands all four checkers what they read.  The checkers
cross-multiply and reduce witnesses, so any common scale will do.  Only
the scaled homogeneity inputs are built with the Fraction norm.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import partial

from .capacity import enumerate_capacities
from .grid import Chain, GridFn, Relations, relations
from .integral import LevelTable, tnorm_integral
from .rational import over_lcm, random_unit_rational
from .report import FAIL, PASS, VerificationReport, capped_power, check_budget
from .tnorms import TNorm, apply, apply_scaled

Witness = dict


def join_break(values: list, joins: tuple) -> tuple[int, int, int] | None:
    """The first ``(i, j, k)`` of ``joins`` with ``values[k] != max(values[i], values[j])``."""
    for i, j, k in joins:
        vi, vj = values[i], values[j]
        if values[k] != (vi if vi >= vj else vj):
            return i, j, k
    return None


def order_break(values: list, pairs: tuple) -> tuple[int, int] | None:
    """The first ``(i, j)`` of ``pairs`` with ``values[i] > values[j]``."""
    for i, j in pairs:
        if values[i] > values[j]:
            return i, j
    return None


def join_witness(
    values: list[int], scale: int, domain: tuple[GridFn, ...], i: int, j: int, k: int
) -> Witness:
    """The report form of the maxitivity break ``(i, j, k)`` of a table over ``domain``."""
    f, g = domain[i], domain[j]
    max_f = max(values[i], values[j])
    return {
        "f": f.to_json(),
        "g": g.to_json(),
        "F_join": Fraction(values[k], scale),
        "max_F": Fraction(max_f, scale),
    }


def is_normalized(values: list[int], scale: int, rel: Relations) -> bool:
    """Does the table send every constant function to its value?"""
    for k in rel.constants:
        c = rel.domain[k].values[0]
        if values[k] * c.denominator != c.numerator * scale:
            return False
    return True


def is_comonotone_maxitive(
    values: list[int], scale: int, rel: Relations
) -> tuple[bool, Witness | None]:
    """Check F(f v g) = max(F(f), F(g)) over every comonotone pair on the grid."""
    found = join_break(values, rel.joins)
    if found is not None:
        return False, join_witness(values, scale, rel.domain, *found)
    return True, None


def is_monotone(values: list[int], scale: int, rel: Relations) -> tuple[bool, Witness | None]:
    """Check f <= g pointwise implies F(f) <= F(g), exhaustively on the grid's covers."""
    if order_break(values, rel.covers) is None:
        return True, None
    # The witness is the order's first broken pair.  The domain is lexicographic
    # over an increasing chain: f <= g, f != g puts f first.
    rows = [f.values for f in rel.domain]
    i, j = next(
        (i, j)
        for i, a in enumerate(rows)
        for j in range(i + 1, len(rows))
        if values[i] > values[j] and all(x <= y for x, y in zip(a, rows[j]))
    )
    f, g = rel.domain[i], rel.domain[j]
    return False, {
        "f": f.to_json(),
        "g": g.to_json(),
        "F_f": Fraction(values[i], scale),
        "F_g": Fraction(values[j], scale),
    }


def chain_closed_under(norm: TNorm, chain: Chain) -> bool:
    nums, d = over_lcm(chain.values)
    squared = {v * d for v in nums}  # the chain over d * d, where the norm of two values lands
    return all(apply_scaled(norm, s, d, t, d) in squared for s in nums for t in nums)


HOMOGENEITY_SAMPLES = 200
HOMOGENEITY_MAX_DENOMINATOR = 8


def _homogeneity_cases(
    norm: TNorm, chain: Chain, domain: tuple[GridFn, ...], seed: int
) -> tuple[tuple[GridFn, ...], tuple[tuple[Fraction, int, int, int, int], ...]]:
    """Inputs, ``domain`` first, and per case ``(c, c_num, c_den, index of f, index of c * f)``."""
    if chain_closed_under(norm, chain):
        pairs = [(c, f) for c in chain for f in domain]
    else:
        draw = partial(random_unit_rational, random.Random(seed), HOMOGENEITY_MAX_DENOMINATOR)
        n = len(domain[0].values)
        pairs = [
            (draw(), GridFn(tuple(draw() for _ in range(n)))) for _ in range(HOMOGENEITY_SAMPLES)
        ]
    positions = {f: i for i, f in enumerate(domain)}
    cases = []
    for c, f in pairs:
        scaled = GridFn(tuple(apply(norm, c, v) for v in f.values))
        i, k = (positions.setdefault(g, len(positions)) for g in (f, scaled))
        cases.append((c, c.numerator, c.denominator, i, k))
    return tuple(positions), tuple(cases)


def is_scale_homogeneous(
    values: list[int], scale: int, norm: TNorm, inputs: tuple[GridFn, ...], cases: tuple
) -> tuple[bool, Witness | None]:
    """Check F(c * f) = c * F(f) with the norm acting pointwise on the left.

    The table is indexed like ``inputs``; ``inputs`` and ``cases`` come
    from ``_homogeneity_cases``.  Both sides are compared as numerators
    over ``c.denominator * scale``.  When the chain is closed under the
    norm the check is exhaustive over all scalars and functions on the
    grid.  Otherwise (the product norm on any chain with interior
    points) scaled functions leave the grid, so the check samples seeded
    rational scalars and functions, and the table holds them too.
    """
    for c, c_num, c_den, i, k in cases:
        rhs = apply_scaled(norm, c_num, c_den, values[i], scale)
        if values[k] * c_den != rhs:
            return False, {
                "c": c,
                "f": inputs[i].to_json(),
                "F_scaled": Fraction(values[k], scale),
                "c_times_F": Fraction(rhs, c_den * scale),
            }
    return True, None


def integral_property_suite(
    chain: Chain,
    n: int,
    norm: TNorm = TNorm.MINIMUM,
    budget: int = 10**7,
    seed: int = 0,
) -> VerificationReport:
    """Run the four checks on the t-normed integral for every chain capacity.

    Capacities range over all monotone set functions with values on the
    chain.  The number of raw value assignments is |chain|^(2^n - 2);
    if that exceeds the budget the suite refuses (see ``check_budget``).
    The report fails exactly when some capacity has a witness.
    """
    required = capped_power(len(chain), capped_power(2, n) - 2)
    check_budget(required, budget, "capacity enumeration")

    rel = relations(chain, n)
    inputs, cases = _homogeneity_cases(norm, chain, rel.domain, seed)
    table = LevelTable(inputs)
    capacities = 0
    witnesses: list[dict] = []
    for cap in enumerate_capacities(chain.values, n):
        capacities += 1
        values = tnorm_integral(cap, norm, table)
        scale = table.common * cap.den
        checks = {
            "normalized": (is_normalized(values, scale, rel), None),
            "comonotone_maxitivity": is_comonotone_maxitive(values, scale, rel),
            "scale_homogeneity": is_scale_homogeneous(values, scale, norm, inputs, cases),
            "monotonicity": is_monotone(values, scale, rel),
        }
        for prop, (ok, witness) in checks.items():
            if not ok:
                failure = {"property": prop, "capacity": cap.to_json()}
                witnesses.append(failure if witness is None else {**failure, "witness": witness})

    # Each failure count is named for the last word of its property: "maxitivity_failures".
    failed = Counter(w["property"].rpartition("_")[2] for w in witnesses)
    words = ("normalized", "maxitivity", "homogeneity", "monotonicity")
    return VerificationReport(
        claim_id=f"integral-properties-{norm.value}-n{n}",
        status=FAIL if witnesses else PASS,
        counts={"capacities": capacities, **{f"{w}_failures": failed[w] for w in words}},
        witnesses=witnesses,
        seed=seed,
    )
