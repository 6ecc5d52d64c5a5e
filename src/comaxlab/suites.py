"""Verification suites over the sequence-compactum model.

``counterexample_suite`` checks the two headline facts about the 0/1
step functional -- it reverses a pointwise-ordered pair, yet preserves
joins across every comonotone pair thrown at it -- over a structured
exhaustive family, a set of named witness pairs (one per case of the
membership analysis), and a stream of seeded generated pairs.

``normalized_search`` probes whether requiring normalization on top of
comonotone maxitivity already forces monotonicity: it screens a small
zoo of candidate functionals and reports what happened, deliberately
never claiming to settle the question.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from typing import Callable, Sequence

from .classify import Membership, membership, step_value
from .pairgen import GeneratorParams, generate_pair, pair_seed, random_seqfn
from .parallel import run_shards, split_range
from .rational import ONE, ZERO
from .report import (
    FAIL, FINDING, INCONCLUSIVE, PASS, VerificationReport, capped_power, check_budget,
)
from .seq_comonotone import PairRelations, comonotone_witness
from .seqspace import SeqFn, constant, join, leq, make, pointwise_order, ramp, seq

DEFAULT_GRID = (ZERO, Fraction(1, 2), ONE)

BRANCH_BOTH_CAPPED = "both_capped_at_iso"
BRANCH_CAPPED_AND_STRICT = "capped_and_strict"
BRANCH_BOTH_STRICT = "both_strict_below_one"
BRANCH_NOT_BELOW_RAMP = "not_below_ramp"
BRANCH_PEAK_ONE = "below_ramp_peak_one"

ALL_BRANCHES = (
    BRANCH_BOTH_CAPPED,
    BRANCH_CAPPED_AND_STRICT,
    BRANCH_BOTH_STRICT,
    BRANCH_NOT_BELOW_RAMP,
    BRANCH_PEAK_ONE,
)

# Counts that every verify-counterexample report carries, zero or not.
REPORTED_COUNTS = (
    *(f"branch_{branch}" for branch in ALL_BRANCHES),
    "ordered_comonotone_checks",
    "family_comonotone_pairs",
    "generated_pairs",
    "named_pairs",
)


def branch_tag(mf: Membership, mg: Membership) -> str:
    """Which case of the zero-class analysis a comonotone pair exercises."""
    if mf.in_zero_class and mg.in_zero_class:
        if mf.capped_at_iso and mg.capped_at_iso:
            return BRANCH_BOTH_CAPPED
        if mf.capped_at_iso or mg.capped_at_iso:
            return BRANCH_CAPPED_AND_STRICT
        return BRANCH_BOTH_STRICT
    if not (mf.below_ramp and mg.below_ramp):
        return BRANCH_NOT_BELOW_RAMP
    return BRANCH_PEAK_ONE


def named_witness_pairs() -> list[tuple[str, SeqFn, SeqFn]]:
    """Hand-picked comonotone pairs, one per analysis case.

    These anchor case coverage independently of the family parameters:
    an eventually-constant function below the ramp can never peak at
    exactly 1 along the sequence, so the constant-tail part of the
    family misses the last case, and generated pairs reach it only by
    luck.
    """
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    capped = make(half, [ZERO], ZERO, half)  # peak 1/2 sits at the isolated point
    strict_low = make(ZERO, [ZERO], ZERO, quarter)  # peak 1/4 < 1, above iso value
    strict_high = make(ZERO, [ZERO], ZERO, half)
    return [
        (BRANCH_BOTH_CAPPED, capped, constant(ZERO)),
        (BRANCH_CAPPED_AND_STRICT, capped, strict_low),
        (BRANCH_BOTH_STRICT, strict_low, strict_high),
        (BRANCH_NOT_BELOW_RAMP, constant(half), constant(ZERO)),
        (BRANCH_PEAK_ONE, ramp(half), constant(ZERO)),
    ]


def structured_family(grid: Sequence[Fraction], prefix_max: int) -> list[SeqFn]:
    """Deterministic family of canonical functions built from grid values.

    Contains every function with head length up to ``prefix_max`` and a
    constant tail on the grid (the only way all values of an eventually
    affine function can stay inside a finite grid), every empty-head
    function whose tail interpolates two grid values (so ramps and
    crossing tails are exercised), and the named witness functions.
    """
    fns: set[SeqFn] = set()
    for head_len in range(prefix_max + 1):
        for iso in grid:
            for head in product(grid, repeat=head_len):
                for level in grid:
                    fns.add(make(iso, list(head), ZERO, level))
    for iso in grid:
        for y_first in grid:
            for y_limit in grid:
                # empty head: the tail starts at seq(1), coordinate 0
                fns.add(make(iso, [], y_limit - y_first, y_first))
    for _, f, g in named_witness_pairs():
        fns.add(f)
        fns.add(g)
    return sorted(fns, key=lambda f: (f.iso, f.head, f.slope, f.intercept))


def family_size(grid: Sequence[Fraction], prefix_max: int) -> int:
    """``len(structured_family(grid, prefix_max))``, without building the family.

    With g distinct grid values and P = ``prefix_max``: a constant-tail
    member is an isolated value, a level, and a head of length h <= P
    whose last entry differs from the level, which gives
    g * g * (1 + sum over h of g^(h-1) * (g-1)) = g^(P+2) members; the
    sloped empty-head members are g * g * (g-1) (isolated value, first
    value, a different limit); the named witness functions add those not
    already among them.  g^(P+2) saturates at ``10**COUNT_DIGITS``.
    """
    values = set(grid)
    g = len(values)

    def generated(fn: SeqFn) -> bool:
        on_grid = fn.iso in values and fn.intercept in values and fn.limit in values
        if fn.slope == 0:
            return on_grid and fn.head_len <= prefix_max and set(fn.head) <= values
        return on_grid and not fn.head

    named = {fn for _, f, h in named_witness_pairs() for fn in (f, h)}
    extra = g * g * (g - 1) + sum(not generated(fn) for fn in named)
    return capped_power(g, prefix_max + 2) + extra


def _check_family_budget(grid: Sequence[Fraction], prefix_max: int, budget: int) -> tuple[int, int]:
    """The family size and pair count; a family whose pairs exceed the budget is refused."""
    size = family_size(grid, prefix_max)
    pairs = size * (size + 1) // 2
    check_budget(pairs, budget, "structured family pairs")
    return size, pairs


def _check_pair(
    f: SeqFn,
    g: SeqFn,
    mf: Membership,
    mg: Membership,
    nu_join: Fraction,
    order: int,
    tally: Counter,
    violations: list[dict],
    source: str,
    index: int,
) -> None:
    """Maxitivity and restricted-monotonicity checks for one comonotone pair.

    ``nu_join`` is the step value of ``join(f, g)``; ``order`` is -1
    when f <= g, 1 when only g <= f, and 0 when they are incomparable.
    """
    tally[f"branch_{branch_tag(mf, mg)}"] += 1
    nu_f, nu_g = mf.step, mg.step
    expected = max(nu_f, nu_g)
    if nu_join != expected:
        violations.append(
            {
                "kind": "maxitivity",
                "source": source,
                "index": index,
                "f": f.to_json(),
                "g": g.to_json(),
                "step_join": nu_join,
                "max_steps": expected,
            }
        )
    if order:
        lower, upper, nu_lo, nu_hi = (f, g, nu_f, nu_g) if order < 0 else (g, f, nu_g, nu_f)
        tally["ordered_comonotone_checks"] += 1
        if nu_lo > nu_hi:
            violations.append(
                {
                    "kind": "restricted_monotonicity",
                    "source": source,
                    "index": index,
                    "lower": lower.to_json(),
                    "upper": upper.to_json(),
                    "step_lower": nu_lo,
                    "step_upper": nu_hi,
                }
            )


def _check_new_pair(
    f: SeqFn, g: SeqFn, tally: Counter, violations: list[dict], source: str, index: int
) -> None:
    """Count a named or generated pair under ``{source}_pairs`` and check it from scratch."""
    tally[f"{source}_pairs"] += 1
    _check_pair(
        f, g, membership(f), membership(g), step_value(join(f, g)), pointwise_order(f, g),
        tally, violations, source, index,
    )


def _family_shard(args: tuple) -> dict:
    grid, prefix_max, lo, hi = args
    family = structured_family(grid, prefix_max)
    relations = PairRelations(family)
    memberships = [membership(f) for f in family]
    # Joins of different pairs often coincide; their step value is a
    # pure function of the joined function.
    step_of = functools.cache(step_value)

    tally: Counter = Counter()
    violations: list[dict] = []
    pairs = combinations_with_replacement(range(len(family)), 2)
    for flat, (i, j) in enumerate(islice(pairs, lo, hi), lo):
        if not relations.comonotone(i, j):
            continue
        tally["family_comonotone_pairs"] += 1
        f, g = family[i], family[j]
        _check_pair(
            f, g, memberships[i], memberships[j], step_of(join(f, g)),
            relations.order(i, j), tally, violations, "family", flat,
        )
    return {"tally": tally, "violations": violations}


def _sample_shard(args: tuple) -> dict:
    seed, lo, hi, params = args
    tally: Counter = Counter()
    violations: list[dict] = []
    for index in range(lo, hi):
        f, g = generate_pair(pair_seed(seed, index), params)
        _check_new_pair(f, g, tally, violations, "generated", index)
    return {"tally": tally, "violations": violations}


def counterexample_suite(
    seed: int = 0,
    samples: int = 10_000,
    grid: Sequence[Fraction] = DEFAULT_GRID,
    prefix_max: int = 2,
    jobs: int = 1,
    budget: int = 10**7,
) -> VerificationReport:
    """Verify the step functional's headline behaviour end to end.

    Exact facts first: the zero-at-isolated-point ramp sits below the
    unit ramp yet maps to 1 while the unit ramp maps to 0, so the
    functional is not monotone.  Then every comonotone pair drawn from
    the named witnesses, the structured family, and ``samples`` seeded
    generated pairs must satisfy step(f v g) = max(step f, step g), and
    all five analysis cases must occur.  Each failed check adds one
    violation, and the report fails exactly when there is one; the
    violation counts are the violations of each kind.  A family with
    more than ``budget`` pairs is refused before anything runs.
    """
    size, total_pairs = _check_family_budget(grid, prefix_max, budget)
    params = GeneratorParams(prefix_max=prefix_max)
    tally = Counter(dict.fromkeys(REPORTED_COUNTS, 0))
    violations: list[dict] = []

    ramp0, ramp1 = ramp(ZERO), ramp(ONE)
    facts = {
        "ramp0_below_ramp1": leq(ramp0, ramp1),
        "step_of_ramp1_is_zero": step_value(ramp1) == ZERO,
        "step_of_ramp0_is_one": step_value(ramp0) == ONE,
    }
    for name, ok in facts.items():
        tally[f"fact_{name}"] = int(ok)
        if not ok:
            violations.append({"kind": "exact_fact", "fact": name})

    for tag, f, g in named_witness_pairs():
        if comonotone_witness(f, g) is not None:
            violations.append(
                {"kind": "named_pair_not_comonotone", "branch": tag, "f": f.to_json()}
            )
            continue
        _check_new_pair(f, g, tally, violations, "named", tally["named_pairs"])

    tally["family_functions"] = size
    tally["family_pairs"] = total_pairs
    shards = [
        (tuple(grid), prefix_max, lo, hi) for lo, hi in split_range(total_pairs, jobs)
    ]
    sample_shards = [
        (seed, lo, hi, params) for lo, hi in split_range(samples, jobs)
    ]
    for result in [*run_shards(_family_shard, shards, jobs),
                   *run_shards(_sample_shard, sample_shards, jobs)]:
        tally.update(result["tally"])
        violations.extend(result["violations"])

    for branch in ALL_BRANCHES:
        if tally[f"branch_{branch}"] == 0:
            violations.append({"kind": "branch_not_exercised", "branch": branch})

    kinds = Counter(v["kind"] for v in violations)
    tally["maxitivity_violations"] = kinds["maxitivity"]
    tally["ordered_violations"] = kinds["restricted_monotonicity"]
    tally["maxitivity_checks"] = (
        tally["named_pairs"] + tally["family_comonotone_pairs"] + tally["generated_pairs"]
    )
    return VerificationReport(
        claim_id="verify-counterexample",
        status=FAIL if violations else PASS,
        counts=dict(tally),
        witnesses=violations,
        seed=seed,
    )


def _candidate_zoo(grid: Sequence[Fraction]) -> list[tuple[str, Callable[[SeqFn], Fraction]]]:
    """Normalization-minded variations on the step functional and evaluations."""
    zoo = [("step-functional", step_value)]
    zoo.append(("eval-isolated", lambda f: f.iso))
    zoo.append(("eval-seq2", lambda f: f.at(seq(2))))
    zoo.append(("eval-limit", lambda f: f.limit))
    for level in grid:
        if ZERO < level < ONE:
            zoo += [
                (f"limit-join-capped-iso-{level}", lambda f, c=level: max(f.limit, min(f.iso, c))),
                (f"limit-join-step-{level}", lambda f, c=level: max(f.limit, c * step_value(f))),
            ]
    return zoo


def normalized_search(
    seed: int = 0,
    samples: int = 10_000,
    grid: Sequence[Fraction] = DEFAULT_GRID,
    prefix_max: int = 2,
    budget: int = 10**7,
) -> VerificationReport:
    """Look for a normalized, comonotonically maxitive, non-monotone functional.

    Candidates failing normalization on some constant are rejected.  The
    rest are screened together in one walk of each pair source (the
    structured family, generated comonotone pairs, sampled ordered
    pairs), keeping no pair past its check: a maxitivity break rejects a
    candidate, a monotonicity break alone would be a finding.  The
    expected outcome is ``inconclusive``, never a settled question.  A
    family over ``budget`` pairs is refused before anything runs.
    """
    _check_family_budget(grid, prefix_max, budget)
    params = GeneratorParams(prefix_max=prefix_max)
    probe_constants = sorted({*grid, Fraction(1, 3), Fraction(2, 3)})

    records: list[dict] = []
    screened = []  # (record, functional) for each normalized candidate
    for name, functional in _candidate_zoo(grid):
        record = {"candidate": name}
        records.append(record)
        bad = next((c for c in probe_constants if functional(constant(c)) != c), None)
        if bad is None:
            screened.append((record, functional))
        else:
            value = functional(constant(bad))
            record.update(outcome="rejected_not_normalized", constant=bad, value=value)

    functionals = [functional for _, functional in screened]
    maxitivity_breaks: dict[int, dict] = {}
    monotonicity_breaks: dict[int, dict] = {}

    def evaluate(fn: SeqFn) -> list[Fraction]:
        return [functional(fn) for functional in functionals]

    def check_join(f: SeqFn, g: SeqFn, vf: list, vg: list) -> None:
        joined = join(f, g)
        for k, functional in enumerate(functionals):
            if k not in maxitivity_breaks and functional(joined) != max(vf[k], vg[k]):
                maxitivity_breaks[k] = {"f": f.to_json(), "g": g.to_json()}

    def check_order(lower: SeqFn, upper: SeqFn, v_lower: list, v_upper: list) -> None:
        for k in range(len(functionals)):
            if k not in monotonicity_breaks and v_lower[k] > v_upper[k]:
                monotonicity_breaks[k] = {"lower": lower.to_json(), "upper": upper.to_json()}

    family = structured_family(grid, prefix_max)
    relations = PairRelations(family)
    values = [evaluate(f) for f in family]
    family_pairs = ordered_pairs = 0
    for i, j in combinations_with_replacement(range(len(family)), 2):
        if relations.comonotone(i, j):
            family_pairs += 1
            check_join(family[i], family[j], values[i], values[j])
        order = relations.order(i, j)
        if order:
            ordered_pairs += 1
            lo, hi = (i, j) if order < 0 else (j, i)
            check_order(family[lo], family[hi], values[lo], values[hi])

    for index in range(samples):
        f, g = generate_pair(pair_seed(seed, index), params)
        check_join(f, g, evaluate(f), evaluate(g))
    rng = random.Random(pair_seed(seed, samples))
    for _ in range(samples):
        f = random_seqfn(rng, params)
        g = join(f, random_seqfn(rng, params))  # g >= f by construction
        check_order(f, g, evaluate(f), evaluate(g))

    for k, (record, _) in enumerate(screened):
        if k in maxitivity_breaks:
            record.update(outcome="rejected_not_maxitive", **maxitivity_breaks[k])
        elif k in monotonicity_breaks:
            record.update(outcome="candidate_found", **monotonicity_breaks[k])
        else:
            record["outcome"] = "monotone_at_this_scale"

    outcomes = Counter(record["outcome"] for record in records)
    counts = {
        "candidates": len(records),
        "rejected_not_normalized": outcomes["rejected_not_normalized"],
        "rejected_not_maxitive": outcomes["rejected_not_maxitive"],
        "monotone_at_this_scale": outcomes["monotone_at_this_scale"],
        "candidates_found": outcomes["candidate_found"],
        "family_pairs_screened": family_pairs,
        "generated_pairs_screened": samples,
        "ordered_pairs_screened": ordered_pairs + samples,
    }
    return VerificationReport(
        claim_id="explore-problem1",
        status=FINDING if counts["candidates_found"] else INCONCLUSIVE,
        counts=counts,
        witnesses=records,
        seed=seed,
    )
