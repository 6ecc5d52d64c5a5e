"""Machine-readable verification reports.

A report is the single source of truth for a suite run.  Two runs with
the same configuration must serialize to byte-identical JSON, so the
format is pinned: UTF-8, sorted keys, two-space indentation, rationals
as ``"p/q"`` strings, trailing newline.  Suites hand over plain
Fractions; only ``to_json`` writes them, and it refuses floats and any
other value ``json`` cannot write exactly.  Reports never carry
wall-clock or host data.

The budget contract lives here too: every enumerating suite counts its
work (``capped_power``) and calls ``check_budget`` before running, and
the ``BudgetExceededError`` it raises builds the refusal report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .rational import Record

PASS = "pass"
FAIL = "fail"
FINDING = "finding"
INCONCLUSIVE = "inconclusive"

_STATUSES = (PASS, FAIL, FINDING, INCONCLUSIVE)

COUNT_DIGITS = 4300
_COUNT_CAP = 10**COUNT_DIGITS


class VerificationReport(Record):
    """Outcome of one verification suite.

    ``counts`` holds integer tallies, ``witnesses`` holds dictionaries of
    JSON values and Fractions describing violations or findings.  A report
    whose status is ``fail`` must exhibit at least one witness.  The CLI
    fills in ``seed`` and ``config_echo``, so a report is not hashable.
    """

    __slots__ = _fields = ("claim_id", "status", "counts", "witnesses", "seed", "config_echo")
    __hash__ = None
    claim_id: str
    status: str
    counts: dict[str, int]
    witnesses: list[dict[str, Any]]
    seed: int
    config_echo: dict[str, Any] | None

    def __init__(
        self, claim_id: str, status: str, counts: dict[str, int] | None = None,
        witnesses: list[dict[str, Any]] | None = None, seed: int = 0,
        config_echo: dict[str, Any] | None = None,
    ) -> None:
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        if status == FAIL and not witnesses:
            raise ValueError("a failing report must carry a witness")
        self.claim_id, self.status = claim_id, status
        self.counts = {} if counts is None else counts
        self.witnesses = [] if witnesses is None else witnesses
        self.seed, self.config_echo = seed, config_echo

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "counts": dict(self.counts),
            "witnesses": list(self.witnesses),
            "seed": self.seed,
            "config_echo": self.config_echo,
        }

    def to_json(self) -> str:
        return json.dumps(_exact(self.to_dict()), sort_keys=True, indent=2) + "\n"


def _exact(value: Any) -> Any:
    """``value`` with each Fraction as ``"p/q"`` (``"p"`` when q == 1), keys too.

    Refuses a float (``nan`` and ``inf`` included) and anything else
    ``json`` would not write exactly: a report holds no inexact number.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {_exact(k): _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def capped_power(base: int, exponent: int) -> int:
    """``base ** exponent`` for ``base >= 2``, saturating at ``10**COUNT_DIGITS``.

    The exact product stops at the cap: Python will not print a longer
    integer.  A count built from a saturated power is only known to be
    at least the cap, and ``check_budget`` refuses it without the count.
    """
    power = 1
    for _ in range(exponent):
        power *= base
        if power >= _COUNT_CAP:
            return _COUNT_CAP
    return power


class BudgetExceededError(RuntimeError):
    """An enumeration over budget; ``counts`` holds the refusal report's counts."""

    def __init__(self, required: int | None, budget: int, what: str):
        needs = f"more than 10**{COUNT_DIGITS}" if required is None else required
        allowed = budget if budget < _COUNT_CAP else f"10**{COUNT_DIGITS} or more"
        super().__init__(f"{what} needs {needs} items, over the budget of {allowed}")
        self.what = what
        if required is None:
            self.counts = {"required_digits_over": COUNT_DIGITS, "budget": budget}
        else:
            self.counts = {"required": required, "budget": budget}

    def refusal(self, claim_id: str) -> VerificationReport:
        """The ``inconclusive`` report of this refusal, with one ``budget_refusal`` witness."""
        witness = {"kind": "budget_refusal", "what": self.what}
        return VerificationReport(claim_id, INCONCLUSIVE, self.counts, [witness])


def check_budget(required: int, budget: int, what: str) -> None:
    """Refuse a count over the budget; one at or past the cap, without the count."""
    if required >= _COUNT_CAP:
        raise BudgetExceededError(None, budget, what)
    if required > budget:
        raise BudgetExceededError(required, budget, what)
