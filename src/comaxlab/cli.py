"""Command-line entry point.

Every subcommand runs one suite and serializes one JSON report; stdout
(or the --output file) receives exactly the report, so scripts can
assert on the file instead of scraping text.  Exit codes: 0 when no
check failed, 1 when the report status is ``fail``, 2 for malformed
input, bad flags, or a refused enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .census import functional_census
from .grid import Chain
from .properties import COUNT_DIGITS, BudgetExceededError, check_budget, integral_property_suite
from .rational import RationalFormatError, parse_grid
from .report import FAIL, INCONCLUSIVE, PASS, FINDING, SuiteConfig, VerificationReport
from .seq_comonotone import comonotone_witness, defining_product
from .seqspace import SeqFn
from .suites import counterexample_suite, normalized_search
from .tnorms import TNorm, axiom_check_count, check_axioms

SUBCOMMANDS = (
    "verify-counterexample",
    "finite-census",
    "integral-properties",
    "tnorm-axioms",
    "comonotone-check",
    "explore-problem1",
)


class InputError(Exception):
    """Malformed file or flag content; maps to exit code 2."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict, refusing a repeated key."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def validate_function_file(path: str) -> SeqFn:
    """Load and canonicalize a sequence-space function from a JSON file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # A repeated key, or nesting past the interpreter's recursion limit.
        raise InputError(f"{path}: {exc}") from exc
    try:
        return SeqFn.from_json(data)
    except (ValueError, RationalFormatError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comaxlab",
        description="Exact verification suites for comonotone maxitivity and t-normed integrals.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--prefix-max", type=int, default=2)
        p.add_argument("--grid", type=str, default="0,1/2,1")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--budget", type=int, default=10**7)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--output", type=str, default=None)
        if name == "integral-properties":
            p.add_argument(
                "--norm",
                choices=[t.value for t in TNorm],
                default=TNorm.MINIMUM.value,
            )
        if name == "comonotone-check":
            p.add_argument("files", nargs="+", help="JSON function files to compare pairwise")
    return parser


def _config_from_args(args: argparse.Namespace) -> SuiteConfig:
    try:
        grid = parse_grid(args.grid)
    except RationalFormatError as exc:
        raise InputError(f"--grid: {exc}") from exc
    config = SuiteConfig(
        seed=args.seed,
        samples=args.samples,
        prefix_max=args.prefix_max,
        grid=grid,
        n=args.n,
        budget=args.budget,
        jobs=args.jobs,
        output_path=args.output,
    )
    try:
        config.validate()
        Chain(config.grid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return config


def _run_tnorm_axioms(config: SuiteConfig) -> VerificationReport:
    check_budget(axiom_check_count(len(config.grid)), config.budget, "t-norm axiom checks")
    counts: dict[str, int] = {}
    witnesses = []
    failed = False
    for norm in TNorm:
        report = check_axioms(norm, config.grid)
        failed = failed or report.failed
        for key, value in report.counts.items():
            if key == "grid_size":
                counts[key] = value
            else:
                counts[f"{norm.value}_{key}"] = value
        witnesses.extend({"norm": norm.value, **w} for w in report.witnesses)
    return VerificationReport(
        claim_id="tnorm-axioms",
        status=FAIL if failed else PASS,
        counts=counts,
        witnesses=witnesses,
        seed=config.seed,
    )


def _run_comonotone_check(config: SuiteConfig, files: Sequence[str]) -> VerificationReport:
    if len(files) < 2:
        raise InputError("comonotone-check needs at least two function files")
    fns = [validate_function_file(path) for path in files]
    witnesses = []
    comonotone_pairs = 0
    for i in range(len(fns)):
        for j in range(i + 1, len(fns)):
            witness = comonotone_witness(fns[i], fns[j])
            if witness is None:
                comonotone_pairs += 1
                continue
            x1, x2 = witness
            witnesses.append(
                {
                    "kind": "not_comonotone",
                    "files": [files[i], files[j]],
                    "points": [str(x1), str(x2)],
                    "product": str(defining_product(fns[i], fns[j], x1, x2)),
                }
            )
    total = len(fns) * (len(fns) - 1) // 2
    return VerificationReport(
        claim_id="comonotone-check",
        status=PASS if not witnesses else FINDING,
        counts={
            "functions": len(fns),
            "pairs": total,
            "comonotone_pairs": comonotone_pairs,
            "non_comonotone_pairs": total - comonotone_pairs,
        },
        witnesses=witnesses,
        seed=config.seed,
    )


def _dispatch(subcommand: str, config: SuiteConfig, args: argparse.Namespace) -> VerificationReport:
    if subcommand == "verify-counterexample":
        return counterexample_suite(
            seed=config.seed,
            samples=config.samples,
            grid=config.grid,
            prefix_max=config.prefix_max,
            jobs=config.jobs,
            budget=config.budget,
        )
    if subcommand == "finite-census":
        return functional_census(Chain(config.grid), config.n, config.budget, jobs=config.jobs)
    if subcommand == "integral-properties":
        return integral_property_suite(
            Chain(config.grid),
            config.n,
            TNorm(args.norm),
            budget=config.budget,
            seed=config.seed,
        )
    if subcommand == "tnorm-axioms":
        return _run_tnorm_axioms(config)
    if subcommand == "comonotone-check":
        return _run_comonotone_check(config, args.files)
    if subcommand == "explore-problem1":
        return normalized_search(
            seed=config.seed,
            samples=config.samples,
            grid=config.grid,
            prefix_max=config.prefix_max,
            budget=config.budget,
        )
    raise InputError(f"unknown subcommand {subcommand!r}")


def _emit(report: VerificationReport, config: SuiteConfig, subcommand: str, extra: dict | None = None) -> bool:
    """Write the report; False, after an error line, if --output cannot be written."""
    echo = config.echo()
    echo["subcommand"] = subcommand
    if extra:
        echo.update(extra)
    report.config_echo = echo
    text = report.to_json()
    if config.output_path:
        try:
            Path(config.output_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: --output: {exc}", file=sys.stderr)
            return False
    else:
        sys.stdout.write(text)
    return True


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    extra = {"files": list(args.files)} if args.subcommand == "comonotone-check" else None
    try:
        report = _dispatch(args.subcommand, config, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        if exc.required is None:
            counts = {"required_digits_over": COUNT_DIGITS, "budget": exc.budget}
        else:
            counts = {"required": exc.required, "budget": exc.budget}
        refusal = VerificationReport(
            claim_id=args.subcommand,
            status=INCONCLUSIVE,
            counts=counts,
            witnesses=[{"kind": "budget_refusal", "what": exc.what}],
            seed=config.seed,
        )
        _emit(refusal, config, args.subcommand, extra)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not _emit(report, config, args.subcommand, extra):
        return 2
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
