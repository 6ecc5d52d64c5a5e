"""Exhaustive enumeration and classification of grid functionals.

A functional on the finite model is just a table: one chain value per
grid function.  There are ``m ** (m ** n)`` such tables for a chain of
size m on n points, so enumeration is guarded by an explicit budget and
refuses (with the exact count) rather than run away.

The census classifies every table as comonotonically maxitive and/or
monotone.  Both properties only compare values, so tables are rows of
chain indices against ``grid.relations``, decided by the checkers' own
scans, ``properties.join_break`` and ``order_break``, and tallied once
by ``(maxitive, monotone)``; the five reported counts are read off that
tally.  Witnesses are translated back to real functions for the
report, the maxitivity break by the checkers' ``join_witness``.

Rows are walked in lexicographic order by backtracking (Knuth, TAOCP
Vol. 4B, 7.2.2), without recursion: the walk starts at the zero row,
entries are set in domain order, and each join triple and cover is
checked as soon as its largest index is set.  A prefix breaks a cover
iff it breaks an ordered pair: the covers from f up to g pass only
through functions between them, which come no later than g.  Once a
prefix breaks both maxitivity and monotonicity, every row below it is
counted as neither without being visited.  One walk, in one process,
covers every row over the relations the suite builds once; the budget
still counts every row.
"""

from __future__ import annotations

from collections import Counter

from .grid import Chain, Relations, comonotone, relations, signs
from .parallel import run_shards
from .properties import join_break, join_witness, order_break
from .rational import over_lcm
from .report import FINDING, PASS, VerificationReport, capped_power, check_budget


WITNESS_CAP = 5  # maxitive-but-not-monotone tables kept, the first in row order


def table_count(chain: Chain, n: int) -> int:
    """``m ** (m ** n)`` tables for m chain values, saturating at ``10**COUNT_DIGITS``."""
    m = len(chain)
    return capped_power(m, capped_power(m, n))


def _census_shard(args: tuple[Chain, Relations]) -> dict:
    """Tally every table on the relations ``structure`` by ``(maxitive, monotone)``."""
    chain, structure = args
    m, size = len(chain), len(structure.domain)
    nums, scale = over_lcm(chain.values)

    # Each check waits for the largest index it reads.
    joins_at: list[list] = [[] for _ in range(size)]
    covers_at: list[list] = [[] for _ in range(size)]
    for triple in structure.joins:
        joins_at[max(triple)].append(triple)
    for pair in structure.covers:
        covers_at[max(pair)].append(pair)
    below = [m ** (size - 1 - d) for d in range(size)]  # rows sharing a prefix of d + 1 entries

    classes: Counter = Counter()
    bad_maxitive: list[dict] = []
    first_monotone_only: dict | None = None

    # maxitive[d] and monotone[d] hold whether the first d entries of row pass
    # every check they can decide; every entry past depth d is 0.
    row = [0] * size
    maxitive = [True] * (size + 1)
    monotone = [True] * (size + 1)
    d = 0
    while True:
        while d < size:
            mx = maxitive[d] and join_break(row, joins_at[d]) is None
            mo = monotone[d] and order_break(row, covers_at[d]) is None
            if not (mx or mo):
                break
            d += 1
            maxitive[d], monotone[d] = mx, mo

        if d < size:
            # No row below this prefix is maxitive or monotone.
            classes[False, False] += below[d]
        else:
            mx, mo = maxitive[size], monotone[size]
            classes[mx, mo] += 1
            # Maxitivity forbids breaking a comonotone cover; the rows' signs say which are.
            if mx and not mo:
                fns = structure.domain
                broken = [(fns[i], fns[j]) for i, j in structure.covers if row[i] > row[j]]
                if any(comonotone(signs(f.values), signs(g.values)) for f, g in broken):
                    raise AssertionError("maxitive table not monotone on a comonotone ordered pair")
                if len(bad_maxitive) < WITNESS_CAP:
                    bad_maxitive.append(
                        {"kind": "maxitive_not_monotone", "table": _row_json(structure, chain, row)}
                    )
            if mo and not mx and first_monotone_only is None:
                first_monotone_only = {
                    "kind": "monotone_not_maxitive",
                    "table": _row_json(structure, chain, row),
                    "pair": join_witness(
                        [nums[x] for x in row],
                        scale,
                        structure.domain,
                        *join_break(row, structure.joins),
                    ),
                }
            d = size - 1

        # Step to the next prefix of d + 1 entries, carrying into shorter ones.
        while d >= 0 and row[d] == m - 1:
            row[d] = 0
            d -= 1
        if d < 0:
            break
        row[d] += 1

    return {
        "classes": classes,
        "bad_maxitive": bad_maxitive,
        "first_monotone_only": first_monotone_only,
    }


def functional_census(chain: Chain, n: int, budget: int = 10**7) -> VerificationReport:
    """Classify every functional table on the grid.

    Reports how many tables are comonotonically maxitive, monotone,
    maxitive-but-not-monotone (the noteworthy count: on a finite space
    it is expected to be zero, and a nonzero tally is flagged as a
    finding rather than an error), and monotone-but-not-maxitive, with
    the first witness of the latter kind exhibited.  Also cross-checks
    that every maxitive table is monotone along comonotone ordered
    pairs, which maxitivity forces.
    """
    check_budget(table_count(chain, n), budget, "functional enumeration")

    # One walk over the relations built here, handed to run_shards at one
    # job so that the bench tracer times it as a shard.  Pruning leaves
    # almost all of the work in the first of any lexicographic cut, so
    # more shards would buy no speed.
    [result] = run_shards(_census_shard, [(chain, relations(chain, n))], 1)
    classes = result["classes"]
    witnesses = result["bad_maxitive"]
    if result["first_monotone_only"] is not None:
        witnesses.append(result["first_monotone_only"])
    counts = {
        "total": classes.total(),
        "comonotone_maxitive": classes[True, True] + classes[True, False],
        "monotone": classes[True, True] + classes[False, True],
        "maxitive_not_monotone": classes[True, False],
        "monotone_not_maxitive": classes[False, True],
    }

    status = PASS if counts["maxitive_not_monotone"] == 0 else FINDING
    return VerificationReport(
        claim_id=f"finite-census-m{len(chain)}-n{n}",
        status=status,
        counts=counts,
        witnesses=witnesses,
    )


def _row_json(structure: Relations, chain: Chain, row: tuple[int, ...]) -> dict:
    return {
        ",".join(map(str, f.values)): chain.values[ix]
        for f, ix in zip(structure.domain, row)
    }
