"""Exhaustive enumeration and classification of grid functionals.

A functional on the finite model is just a table: one chain value per
grid function.  There are ``m ** (m ** n)`` such tables for a chain of
size m on n points, so enumeration is guarded by an explicit budget and
refuses (with the exact count) rather than run away.

The census classifies every table as comonotonically maxitive and/or
monotone.  Both properties only compare values, so tables are walked as
rows of chain indices against ``grid.relations`` and decided by the
checkers' own scans, ``properties.join_break`` and ``order_break``.
Witnesses are translated back to real functions for the report, the
maxitivity break by the checkers' ``join_witness``.  The table space
splits into contiguous lexicographic ranges, one per job, and the merge
is by shard order, so the report is independent of parallelism.
"""

from __future__ import annotations

from fractions import Fraction

from .grid import Chain, Relations, relations
from .parallel import run_shards, split_range
from .properties import capped_power, check_budget, join_break, join_witness, order_break
from .report import FINDING, PASS, VerificationReport, jsonify


_COUNTS = (
    "total", "comonotone_maxitive", "monotone", "maxitive_not_monotone", "monotone_not_maxitive"
)


def table_count(chain: Chain, n: int) -> int | None:
    """``m ** (m ** n)`` tables for m chain values, or None past ``10**COUNT_DIGITS``."""
    m = len(chain)
    cells = capped_power(m, n)
    return None if cells is None else capped_power(m, cells)


def _decode_row(index: int, m: int, width: int) -> list[int]:
    row = [0] * width
    for pos in range(width - 1, -1, -1):
        index, row[pos] = divmod(index, m)
    return row


def _advance_row(row: list[int], m: int) -> None:
    pos = len(row) - 1
    while pos >= 0:
        row[pos] += 1
        if row[pos] < m:
            return
        row[pos] = 0
        pos -= 1


def _census_shard(args: tuple[tuple[Fraction, ...], int, int, int]) -> dict:
    """Classify tables with lexicographic indices in [lo, hi)."""
    chain_values, n, lo, hi = args
    chain = Chain(chain_values)
    structure = relations(chain, n)
    m = len(chain_values)
    d = len(structure.domain)

    counts = dict.fromkeys(_COUNTS, 0)
    bad_maxitive: list[dict] = []
    first_monotone_only: dict | None = None

    row = _decode_row(lo, m, d)
    for _ in range(lo, hi):
        counts["total"] += 1

        maxitivity_break = join_break(row, structure.joins)
        maxitive = maxitivity_break is None
        monotone = order_break(row, structure.order) is None

        if maxitive:
            counts["comonotone_maxitive"] += 1
            if order_break(row, structure.comonotone_order) is not None:
                raise AssertionError("maxitive table not monotone on a comonotone ordered pair")
        if monotone:
            counts["monotone"] += 1
        if maxitive and not monotone:
            counts["maxitive_not_monotone"] += 1
            if len(bad_maxitive) < 5:
                bad_maxitive.append(
                    {"kind": "maxitive_not_monotone", "table": _row_json(structure, chain, row)}
                )
        if monotone and not maxitive:
            counts["monotone_not_maxitive"] += 1
            if first_monotone_only is None:
                values = [chain.values[x] for x in row]
                first_monotone_only = {
                    "kind": "monotone_not_maxitive",
                    "table": _row_json(structure, chain, row),
                    "pair": join_witness(values, structure.domain, *maxitivity_break),
                }
        _advance_row(row, m)

    return {
        "counts": counts,
        "bad_maxitive": bad_maxitive,
        "first_monotone_only": first_monotone_only,
    }


def functional_census(
    chain: Chain, n: int, budget: int = 10**7, jobs: int = 1
) -> VerificationReport:
    """Classify every functional table on the grid.

    Reports how many tables are comonotonically maxitive, monotone,
    maxitive-but-not-monotone (the noteworthy count: on a finite space
    it is expected to be zero, and a nonzero tally is flagged as a
    finding rather than an error), and monotone-but-not-maxitive, with
    the first witness of the latter kind exhibited.  Also cross-checks
    that every maxitive table is monotone along comonotone ordered
    pairs, which maxitivity forces.
    """
    total = table_count(chain, n)
    check_budget(total, budget, "functional enumeration")

    shards = [
        (chain.values, n, lo, hi) for lo, hi in split_range(total, jobs)
    ]
    results = run_shards(_census_shard, shards, jobs)

    counts = dict.fromkeys(_COUNTS, 0)
    witnesses: list[dict] = []
    first_monotone_only: dict | None = None
    for result in results:
        for key, value in result["counts"].items():
            counts[key] += value
        for item in result["bad_maxitive"]:
            if len(witnesses) < 5:
                witnesses.append(item)
        if first_monotone_only is None and result["first_monotone_only"] is not None:
            first_monotone_only = result["first_monotone_only"]
    if first_monotone_only is not None:
        witnesses.append(first_monotone_only)

    status = PASS if counts["maxitive_not_monotone"] == 0 else FINDING
    return VerificationReport(
        claim_id=f"finite-census-m{len(chain)}-n{n}",
        status=status,
        counts=counts,
        witnesses=witnesses,
    )


def _row_json(structure: Relations, chain: Chain, row: list[int]) -> dict:
    return {
        ",".join(jsonify(v) for v in f.values): jsonify(chain.values[ix])
        for f, ix in zip(structure.domain, row)
    }
