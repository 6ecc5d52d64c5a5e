"""Property checkers for functionals on grid functions.

Each checker reads a functional's value table, indexed like the grid
domain of ``grid.relations``, and decides one axiom exhaustively over a
chain grid, returning the verdict with the first violating input.  Only
``join_break`` and ``order_break`` decide maxitivity and monotonicity;
the census runs them on its rows of chain indices too.
``integral_property_suite`` bundles the four checks for the t-normed
integral across every chain capacity: it tabulates the integral once on
the inputs of ``_homogeneity_cases`` (the grid domain first) for all four.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial

from .capacity import enumerate_capacities
from .grid import Chain, GridFn, relations
from .integral import tnorm_integral
from .rational import random_unit_rational
from .report import FAIL, PASS, VerificationReport, jsonify
from .tnorms import TNorm, apply, pointwise_scale

Witness = dict


COUNT_DIGITS = 4300
_COUNT_CAP = 10**COUNT_DIGITS


def capped_power(base: int, exponent: int) -> int | None:
    """``base ** exponent`` for ``base >= 2``, or None once it reaches ``10**COUNT_DIGITS``.

    The exact product stops at the cap: Python will not print a longer integer.
    """
    power = 1
    for _ in range(exponent):
        power *= base
        if power >= _COUNT_CAP:
            return None
    return power


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the caller's budget; carries the count, None past the cap."""

    def __init__(self, required: int | None, budget: int, what: str):
        needs = f"more than 10**{COUNT_DIGITS}" if required is None else required
        allowed = budget if budget < _COUNT_CAP else f"10**{COUNT_DIGITS} or more"
        super().__init__(f"{what} needs {needs} items, over the budget of {allowed}")
        self.required = required
        self.budget = budget
        self.what = what


def check_budget(required: int | None, budget: int, what: str) -> None:
    """Refuse a count over the budget; one that is None or past the cap, without the count."""
    if required is not None and required >= _COUNT_CAP:
        required = None
    if required is None or required > budget:
        raise BudgetExceededError(required, budget, what)


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


def join_witness(values: list, domain: tuple[GridFn, ...], i: int, j: int, k: int) -> Witness:
    """The report form of the maxitivity break ``(i, j, k)`` of a table over ``domain``."""
    f, g = domain[i], domain[j]
    max_f = max(values[i], values[j])
    return jsonify({"f": f.to_json(), "g": g.to_json(), "F_join": values[k], "max_F": max_f})


def is_normalized(values: list, chain: Chain, n: int) -> bool:
    """Does the table send every constant c to c?"""
    return all(values[k] == c for c, k in zip(chain, relations(chain, n).constants))


def is_comonotone_maxitive(values: list, chain: Chain, n: int) -> tuple[bool, Witness | None]:
    """Check F(f v g) = max(F(f), F(g)) over every comonotone pair on the grid."""
    rel = relations(chain, n)
    found = join_break(values, rel.joins)
    if found is not None:
        return False, join_witness(values, rel.domain, *found)
    return True, None


def is_monotone(values: list, chain: Chain, n: int) -> tuple[bool, Witness | None]:
    """Check f <= g pointwise implies F(f) <= F(g), exhaustively on the grid."""
    rel = relations(chain, n)
    found = order_break(values, rel.order)
    if found is not None:
        i, j = found
        f, g = rel.domain[i], rel.domain[j]
        witness = {"f": f.to_json(), "g": g.to_json(), "F_f": values[i], "F_g": values[j]}
        return False, jsonify(witness)
    return True, None


def chain_closed_under(norm: TNorm, chain: Chain) -> bool:
    return all(apply(norm, s, t) in chain for s in chain for t in chain)


HOMOGENEITY_SAMPLES = 200
HOMOGENEITY_MAX_DENOMINATOR = 8


@lru_cache(maxsize=64)
def _homogeneity_cases(
    norm: TNorm, chain: Chain, n: int, seed: int
) -> tuple[tuple[GridFn, ...], tuple[tuple[Fraction, int, int], ...]]:
    """Inputs to tabulate, grid domain first, and ``(c, index of f, index of c * f)`` per case."""
    domain = relations(chain, n).domain
    if chain_closed_under(norm, chain):
        pairs = [(c, f) for c in chain for f in domain]
    else:
        rng = random.Random(seed)
        draw = partial(random_unit_rational, rng, HOMOGENEITY_MAX_DENOMINATOR)
        pairs = [
            (draw(), GridFn(tuple(draw() for _ in range(n)))) for _ in range(HOMOGENEITY_SAMPLES)
        ]
    positions = {f: i for i, f in enumerate(domain)}
    cases = []
    for c, f in pairs:
        scaled = GridFn(pointwise_scale(norm, c, f.values))
        i = positions.setdefault(f, len(positions))
        cases.append((c, i, positions.setdefault(scaled, len(positions))))
    return tuple(positions), tuple(cases)


def is_scale_homogeneous(
    values: list, norm: TNorm, chain: Chain, n: int, seed: int = 0
) -> tuple[bool, Witness | None]:
    """Check F(c * f) = c * F(f) with the norm acting pointwise on the left.

    The table is indexed like the inputs of ``_homogeneity_cases``.  When the
    chain is closed under the norm the check is exhaustive over all scalars
    and functions on the grid.  Otherwise (the product norm on any chain with
    interior points) scaled functions leave the grid, so the check samples
    seeded rational scalars and functions, and the table holds them too.
    """
    inputs, cases = _homogeneity_cases(norm, chain, n, seed)
    for c, i, k in cases:
        lhs, rhs = values[k], apply(norm, c, values[i])
        if lhs != rhs:
            witness = {"c": c, "f": inputs[i].to_json(), "F_scaled": lhs, "c_times_F": rhs}
            return False, jsonify(witness)
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
    """
    slots = capped_power(2, n)
    required = None if slots is None else capped_power(len(chain), slots - 2)
    check_budget(required, budget, "capacity enumeration")

    counts = {
        "capacities": 0,
        "normalized_failures": 0,
        "maxitivity_failures": 0,
        "homogeneity_failures": 0,
        "monotonicity_failures": 0,
    }
    witnesses: list[dict] = []

    inputs, _ = _homogeneity_cases(norm, chain, n, seed)
    for cap in enumerate_capacities(chain.values, n):
        counts["capacities"] += 1
        values = [tnorm_integral(cap, norm, f) for f in inputs]
        if not is_normalized(values, chain, n):
            counts["normalized_failures"] += 1
            witnesses.append({"property": "normalized", "capacity": cap.to_json()})
        ok, witness = is_comonotone_maxitive(values, chain, n)
        if not ok:
            counts["maxitivity_failures"] += 1
            witnesses.append(
                {"property": "comonotone_maxitivity", "capacity": cap.to_json(), "witness": witness}
            )
        ok, witness = is_scale_homogeneous(values, norm, chain, n, seed=seed)
        if not ok:
            counts["homogeneity_failures"] += 1
            witnesses.append(
                {"property": "scale_homogeneity", "capacity": cap.to_json(), "witness": witness}
            )
        ok, witness = is_monotone(values, chain, n)
        if not ok:
            counts["monotonicity_failures"] += 1
            witnesses.append(
                {"property": "monotonicity", "capacity": cap.to_json(), "witness": witness}
            )

    failures = sum(v for k, v in counts.items() if k.endswith("_failures"))
    return VerificationReport(
        claim_id=f"integral-properties-{norm.value}-n{n}",
        status=PASS if failures == 0 else FAIL,
        counts=counts,
        witnesses=witnesses,
        seed=seed,
    )
