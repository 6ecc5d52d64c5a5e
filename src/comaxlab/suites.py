"""Verification suites over the sequence-compactum model.

``counterexample_suite`` checks the two headline facts about the 0/1
step functional -- it reverses a pointwise-ordered pair, yet preserves
joins across every comonotone pair thrown at it -- over a structured
exhaustive family, a set of named witness pairs (one per case of the
membership analysis), and a stream of seeded generated pairs.

``normalized_search`` probes whether requiring normalization on top of
comonotone maxitivity already forces monotonicity: it screens a small
zoo of candidate functionals, settling each one's record at its first
break, and never claims to settle the question.

Both take their comonotone pairs, with the value of each join, from
one walk, ``comonotone_pairs``, which evaluates each function once
(``membership``, or the screened zoo); ``_pair`` alone decides a join's
value, and ``_check_pair`` checks every counterexample pair.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .classify import Membership, membership, step_value
from .pairgen import GeneratorParams, generate_pair, pair_seed, random_seqfn
from .parallel import run_shards, split_range
from .rational import ONE, ZERO
from .report import (
    FAIL, FINDING, INCONCLUSIVE, PASS, VerificationReport, capped_power, check_budget,
)
from .seq_comonotone import PairRelations, comonotone_witness
from .seqspace import SeqFn, constant, join, leq, make, pointwise_order, ramp, seq

V = TypeVar("V")
# A family, its PairRelations, and a value of each member.
Table = tuple[list[SeqFn], PairRelations, list]

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

# The count of checked pairs from each source.
PAIR_COUNTS = {
    "named": "named_pairs",
    "family": "family_comonotone_pairs",
    "generated": "generated_pairs",
}

BRANCH_COUNTS = {branch: f"branch_{branch}" for branch in ALL_BRANCHES}

# Counts that every verify-counterexample report carries, zero or not.
REPORTED_COUNTS = (
    *BRANCH_COUNTS.values(),
    "ordered_comonotone_checks",
    *PAIR_COUNTS.values(),
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


def _family_table(
    grid: Sequence[Fraction], prefix_max: int, budget: int, evaluate: Callable[[SeqFn], V]
) -> tuple[Table, int]:
    """The family's ``Table`` and pair count; over ``budget`` pairs, refused before it is built."""
    size = family_size(grid, prefix_max)
    pairs = size * (size + 1) // 2
    check_budget(pairs, budget, "structured family pairs")
    family = structured_family(grid, prefix_max)
    return (family, PairRelations(family), [evaluate(f) for f in family]), pairs


def _pair(evaluate: Callable[[SeqFn], V], source: str, index: int, f: SeqFn, g: SeqFn,
          vf: V, vg: V, order: int) -> tuple[str, int, SeqFn, SeqFn, V, V, V, int]:
    """A comonotone pair with the value of its join: an ordered pair's is its upper member's."""
    v_join = (vg if order < 0 else vf) if order else evaluate(join(f, g))
    return source, index, f, g, vf, vg, v_join, order


def comonotone_pairs(
    evaluate: Callable[[SeqFn], V], table: Table | None = None, lo: int = 0, hi: int = 0,
    seed: int = 0, first: int = 0, last: int = 0, params: GeneratorParams | None = None,
) -> Iterator[tuple[str, int, SeqFn, SeqFn, V, V, V, int]]:
    """The comonotone pairs of family pairs ``lo..hi``, then generated pairs ``first..last``.

    Each is ``(source, index, f, g, evaluate(f), evaluate(g), evaluate(f v g), order)``,
    as ``_pair`` builds it: ``index`` counts family pairs ``i <= j`` in
    ``combinations_with_replacement`` order, or generated ones by
    ``pair_seed(seed, index)``; ``order`` is -1 when f <= g, 1 when only
    g <= f, else 0.  Family values come from ``table``; a generated pair
    is not held past the next draw.
    """
    if table is not None:
        family, relations, values = table
        pairs = combinations_with_replacement(range(len(family)), 2)
        for index, (i, j) in enumerate(islice(pairs, lo, hi), lo):
            if relations.comonotone(i, j):
                yield _pair(evaluate, "family", index, family[i], family[j], values[i], values[j],
                            relations.order(i, j))
    for index in range(first, last):
        f, g = generate_pair(pair_seed(seed, index), params)
        yield _pair(evaluate, "generated", index, f, g, evaluate(f), evaluate(g),
                    pointwise_order(f, g))


def _check_pair(pair: tuple[str, int, SeqFn, SeqFn, Membership, Membership, Membership, int],
                tally: Counter, violations: list[dict]) -> None:
    """Count one comonotone pair under its source and check the step functional on it.

    ``pair`` is as ``_pair`` builds it, with memberships for values, so
    every step value is read from a membership in hand, as the int 0 or
    1.  The join's step value must be the larger step value, and an
    ordered pair's lower step value must not exceed its upper one.  A
    violation writes its step values as ``Fraction``s.
    """
    source, index, f, g, mf, mg, m_join, order = pair
    tally[PAIR_COUNTS[source]] += 1
    tally[BRANCH_COUNTS[branch_tag(mf, mg)]] += 1
    nu_f, nu_g = mf.step, mg.step
    nu_join, expected = m_join.step, max(nu_f, nu_g)
    if nu_join != expected:
        violations.append({"kind": "maxitivity", "source": source, "index": index,
                           "f": f.to_json(), "g": g.to_json(),
                           "step_join": Fraction(nu_join), "max_steps": Fraction(expected)})
    if order:
        tally["ordered_comonotone_checks"] += 1
        lower, upper, nu_lo, nu_hi = (f, g, nu_f, nu_g) if order < 0 else (g, f, nu_g, nu_f)
        if nu_lo > nu_hi:
            violations.append({"kind": "restricted_monotonicity", "source": source,
                               "index": index, "lower": lower.to_json(),
                               "upper": upper.to_json(), "step_lower": Fraction(nu_lo),
                               "step_upper": Fraction(nu_hi)})


def _check_pairs(pairs: Iterable[tuple]) -> dict:
    tally: Counter = Counter()
    violations: list[dict] = []
    for pair in pairs:
        _check_pair(pair, tally, violations)
    return {"tally": tally, "violations": violations}


def _family_shard(args: tuple) -> dict:
    table, lo, hi = args
    return _check_pairs(comonotone_pairs(membership, table, lo, hi))


def _sample_shard(args: tuple) -> dict:
    seed, lo, hi, params = args
    return _check_pairs(comonotone_pairs(membership, seed=seed, first=lo, last=hi, params=params))


def _run_shard(job: tuple) -> dict:
    """One ``(worker, args)`` job: a family shard or a sample shard."""
    worker, args = job
    return worker(args)


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
    table, total_pairs = _family_table(grid, prefix_max, budget, membership)
    params = GeneratorParams(prefix_max=prefix_max)
    tally = Counter(dict.fromkeys(REPORTED_COUNTS, 0))
    violations: list[dict] = []

    ramp0, ramp1 = ramp(ZERO), ramp(ONE)
    facts = {
        "ramp0_below_ramp1": leq(ramp0, ramp1),
        "step_of_ramp1_is_zero": membership(ramp1).step == 0,
        "step_of_ramp0_is_one": membership(ramp0).step == 1,
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
        _check_pair(_pair(membership, "named", tally["named_pairs"], f, g, membership(f),
                          membership(g), pointwise_order(f, g)), tally, violations)

    tally["family_functions"] = len(table[0])
    tally["family_pairs"] = total_pairs
    # Family and sample shards share one fan-out; results merge in list
    # order.  Every family shard reads the one table built above: forked
    # workers inherit it, and an unforked run reads it in process.
    shards = [(_family_shard, (table, lo, hi)) for lo, hi in split_range(total_pairs, jobs)]
    shards += [(_sample_shard, (seed, lo, hi, params)) for lo, hi in split_range(samples, jobs)]
    for result in run_shards(_run_shard, shards, jobs):
        tally.update(result["tally"])
        violations.extend(result["violations"])

    for branch in ALL_BRANCHES:
        if tally[BRANCH_COUNTS[branch]] == 0:
            violations.append({"kind": "branch_not_exercised", "branch": branch})

    kinds = Counter(v["kind"] for v in violations)
    tally["maxitivity_violations"] = kinds["maxitivity"]
    tally["ordered_violations"] = kinds["restricted_monotonicity"]
    tally["maxitivity_checks"] = sum(tally[count] for count in PAIR_COUNTS.values())
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

    A candidate failing normalization on some constant is rejected.  The
    rest are screened together on the comonotone pairs of
    ``comonotone_pairs``, then on ordered family and sampled pairs,
    keeping no pair past its check.  Each record is settled at its first
    break: a maxitivity break rejects the candidate (the comonotone walk
    runs first, so maxitivity wins), a monotonicity break alone would be
    a finding, and an unbroken record stays ``monotone_at_this_scale``.
    The expected outcome is ``inconclusive``, never a settled question.
    A family over ``budget`` pairs is refused before any pair is walked.
    """
    params = GeneratorParams(prefix_max=prefix_max)
    probe_constants = sorted({*grid, Fraction(1, 3), Fraction(2, 3)})

    records: list[dict] = []
    screened = []  # (record, functional) for each normalized candidate
    for name, functional in _candidate_zoo(grid):
        record = {"candidate": name, "outcome": "monotone_at_this_scale"}
        records.append(record)
        bad = next((c for c in probe_constants if functional(constant(c)) != c), None)
        if bad is None:
            screened.append((record, functional))
        else:
            value = functional(constant(bad))
            record.update(outcome="rejected_not_normalized", constant=bad, value=value)

    def evaluate(fn: SeqFn) -> list[Fraction]:
        return [functional(fn) for _, functional in screened]

    def check_order(lower: SeqFn, upper: SeqFn, v_lower: list, v_upper: list) -> None:
        for (record, _), a, b in zip(screened, v_lower, v_upper):
            if record["outcome"] == "monotone_at_this_scale" and a > b:
                record.update(outcome="candidate_found", lower=lower.to_json(),
                              upper=upper.to_json())

    table, total_pairs = _family_table(grid, prefix_max, budget, evaluate)
    sources: Counter = Counter()
    for source, _, f, g, vf, vg, v_join, _ in comonotone_pairs(
        evaluate, table, 0, total_pairs, seed, 0, samples, params
    ):
        sources[source] += 1
        for (record, _), a, b, joined in zip(screened, vf, vg, v_join):
            if record["outcome"] == "monotone_at_this_scale" and joined != max(a, b):
                record.update(outcome="rejected_not_maxitive", f=f.to_json(), g=g.to_json())

    family, relations, values = table
    ordered_pairs = 0
    for i, j in combinations_with_replacement(range(len(family)), 2):
        order = relations.order(i, j)
        if order:
            ordered_pairs += 1
            lo, hi = (i, j) if order < 0 else (j, i)
            check_order(family[lo], family[hi], values[lo], values[hi])
    rng = random.Random(pair_seed(seed, samples))
    for _ in range(samples):
        f = random_seqfn(rng, params)
        g = join(f, random_seqfn(rng, params))  # g >= f by construction
        check_order(f, g, evaluate(f), evaluate(g))

    outcomes = Counter(record["outcome"] for record in records)
    counts = {
        "candidates": len(records),
        "rejected_not_normalized": outcomes["rejected_not_normalized"],
        "rejected_not_maxitive": outcomes["rejected_not_maxitive"],
        "monotone_at_this_scale": outcomes["monotone_at_this_scale"],
        "candidates_found": outcomes["candidate_found"],
        "family_pairs_screened": sources["family"],
        "generated_pairs_screened": sources["generated"],
        "ordered_pairs_screened": ordered_pairs + samples,
    }
    return VerificationReport(
        claim_id="explore-problem1",
        status=FINDING if counts["candidates_found"] else INCONCLUSIVE,
        counts=counts,
        witnesses=records,
        seed=seed,
    )
