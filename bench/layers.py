"""Which comaxlab functions the traced run wraps, and the per-layer metrics.

Names are ``<module>.<function>`` so that ``grid.join`` and
``seqspace.join`` stay apart.  ``TIMED`` functions report ``.calls``,
``.self_s`` and ``.per_s`` (calls per second of inclusive time); the
rest report the single figures listed in ``METRICS``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from tracing import Stat, Tracer, replace_everywhere

TIMED = (
    "seq_comonotone.comonotone_witness",
    "seq_comonotone.comonotone_truncated",
    "seqspace.join",
    "seqspace.leq",
    "seqspace.attained_max",
    "classify.membership",
    "pairgen.generate_pair",
    "pairgen.compose",
    "pairgen.random_pair",
    "grid.comonotone",
    "grid.join",
    "integral.tnorm_integral",
    "tnorms.apply",
)

# Suite, phase and shard boundaries: these also record spans.
SPANNED = (
    "cli.main",
    "suites.counterexample_suite",
    "suites.structured_family",
    "census.functional_census",
    "properties.integral_property_suite",
    "properties.is_normalized",
    "properties.is_comonotone_maxitive",
    "properties.is_monotone",
    "properties.is_scale_homogeneous",
    "tnorms.check_axioms",
)

CALLS_ONLY = ("seqspace.make", "grid.all_functions")

SHARDS = ("suites._family_shard", "suites._sample_shard", "census._census_shard")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _found(stat: Stat, result: Any) -> None:
    if result is not None:
        stat.count("found")


def _report_bytes(stat: Stat, result: str) -> None:
    stat.count("bytes", len(result.encode("utf-8")))


def _tables(stat: Stat, result: Any) -> None:
    stat.count("tables", result.counts["total"])


def _raw_assignments(stat: Stat, args: tuple) -> None:
    chain_values, n = args
    stat.count("raw", len(chain_values) ** ((1 << n) - 2))


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every module that binds it."""
    # Imported here, not at the top: run.py imports this module in a
    # process that never imports comaxlab itself.
    import comaxlab  # noqa: F401  (loads every submodule)
    from comaxlab.report import VerificationReport

    modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "comaxlab" or name.startswith("comaxlab.")
    ]

    def patch(name: str, make: Callable[[str, Callable], Callable]) -> None:
        module, attr = name.split(".")
        original = getattr(sys.modules[f"comaxlab.{module}"], attr)
        replace_everywhere(modules, original, make(name, original))

    seen: set = set()

    def repeat(stat: Stat, args: tuple) -> None:
        if args[0] in seen:
            stat.count("repeat")
        else:
            seen.add(args[0])

    hooks: dict[str, dict] = {
        "seq_comonotone.comonotone_witness": {"after": _found},
        "classify.membership": {"before": repeat},
        "census.functional_census": {"after": _tables},
    }
    for name in TIMED + CALLS_ONLY:
        patch(name, lambda n, fn: tracer.wrap(n, fn, **hooks.get(n, {})))
    for name in SPANNED:
        patch(name, lambda n, fn: tracer.wrap(n, fn, span=True, **hooks.get(n, {})))
    for name in SHARDS:
        patch(name, tracer.wrap_shard)
    patch("parallel.run_shards", tracer.wrap_run_shards)
    patch(
        "capacity.enumerate_capacities",
        lambda n, fn: tracer.wrap_generator(n, fn, before=_raw_assignments),
    )
    VerificationReport.to_json = tracer.wrap(
        "report.to_json", VerificationReport.to_json, after=_report_bytes
    )


def _stat(stats: dict, name: str) -> dict:
    return stats.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counters": {}})


def _counter(stats: dict, name: str, key: str) -> float:
    return _stat(stats, name)["counters"].get(key, 0)


def _metric_table() -> list[tuple[str, str, Callable[[dict], float]]]:
    table: list[tuple[str, str, Callable[[dict], float]]] = []

    def calls(name: str) -> None:
        table.append((f"{name}.calls", "count", lambda s: _stat(s, name)["calls"]))

    def self_s(name: str) -> None:
        table.append((f"{name}.self_s", "s", lambda s: _stat(s, name)["self_s"]))

    def per_s(name: str) -> None:
        table.append((f"{name}.per_s", "1/s",
                      lambda s: _ratio(_stat(s, name)["calls"], _stat(s, name)["incl_s"])))

    def counter(metric: str, unit: str, name: str, key: str) -> None:
        table.append((metric, unit, lambda s: _counter(s, name, key)))

    def ratio(metric: str, name: str, key: str, base: Callable[[dict], float]) -> None:
        table.append((metric, "ratio", lambda s: _ratio(_counter(s, name, key), base(s))))

    def calls_of(name: str) -> Callable[[dict], float]:
        return lambda s: _stat(s, name)["calls"]

    for name in TIMED:
        calls(name)
        self_s(name)
        per_s(name)
    witness, member = "seq_comonotone.comonotone_witness", "classify.membership"
    ratio(f"{witness}.found_ratio", witness, "found", calls_of(witness))
    ratio(f"{member}.repeat_ratio", member, "repeat", calls_of(member))
    for name in CALLS_ONLY:
        calls(name)
    calls("suites.structured_family")
    self_s("suites.structured_family")
    self_s("suites.counterexample_suite")
    for name in SHARDS:  # the pair and table loops run here
        self_s(name)
    shards = "parallel.run_shards"
    calls(shards)
    counter("parallel.shards", "count", shards, "shards")
    counter("parallel.shard_busy_s", "s", shards, "busy_s")
    counter("parallel.shard_imbalance", "ratio", shards, "imbalance")
    counter("parallel.overhead_s", "s", shards, "overhead_s")
    caps = "capacity.enumerate_capacities"
    self_s(caps)
    ratio("capacity.accept_ratio", caps, "items", lambda s: _counter(s, caps, "raw"))
    self_s("tnorms.check_axioms")
    for name in ("is_normalized", "is_comonotone_maxitive", "is_monotone", "is_scale_homogeneous"):
        self_s(f"properties.{name}")
    census = "census.functional_census"
    self_s(census)
    table.append(("census.tables_per_s", "1/s",
                  lambda s: _ratio(_counter(s, census, "tables"), _stat(s, census)["incl_s"])))
    self_s("report.to_json")
    counter("report.report_bytes", "bytes", "report.to_json", "bytes")
    self_s("cli.main")
    return table


METRICS = _metric_table()

# Measured by run.py around the traced processes, not by the tracer.
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric values from an exported tracer's stats."""
    return {metric: (get(stats), unit) for metric, unit, get in METRICS}
