"""Machine-readable verification reports.

A report is the single source of truth for a suite run.  Two runs with
the same configuration must serialize to byte-identical JSON, so the
format is pinned: UTF-8, sorted keys, two-space indentation, rationals
as ``"p/q"`` strings, trailing newline.  Suites hand over plain
Fractions; only ``to_json`` writes them, and it refuses floats and any
other value ``json`` cannot write exactly.  Reports never carry
wall-clock or host data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

PASS = "pass"
FAIL = "fail"
FINDING = "finding"
INCONCLUSIVE = "inconclusive"

_STATUSES = (PASS, FAIL, FINDING, INCONCLUSIVE)


@dataclass
class VerificationReport:
    """Outcome of one verification suite.

    ``counts`` holds integer tallies, ``witnesses`` holds dictionaries of
    JSON values and Fractions describing violations or findings.  A report
    whose status is ``fail`` must exhibit at least one witness.
    """

    claim_id: str
    status: str
    counts: dict[str, int] = field(default_factory=dict)
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    seed: int = 0
    config_echo: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == FAIL and not self.witnesses:
            raise ValueError("a failing report must carry a witness")

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
