"""Command-line entry point.

Every subcommand runs one suite and serializes one JSON report; stdout
(or the --output file) receives exactly the report, so scripts can
assert on the file instead of scraping text.  Every report, the refusal
a suite's ``BudgetExceededError`` builds too, gets its ``seed`` and
``config_echo`` from the flags here.  Exit codes: 0 when no check
failed, 1 when the report status is ``fail``, 2 for malformed input,
bad flags, an unwritable --output, or a refused enumeration budget.
Every exit-2 path but argparse's usage error raises one ``InputError``,
which ``main`` prints as one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, NoReturn, Sequence

from .census import functional_census
from .grid import Chain
from .properties import integral_property_suite
from .rational import RationalFormatError, parse_grid
from .report import FAIL, FINDING, PASS, BudgetExceededError, VerificationReport
from .seq_comonotone import comonotone_witness, defining_product
from .seqspace import SeqFn
from .suites import counterexample_suite, normalized_search
from .tnorms import TNorm, axiom_suite

# One row per subcommand: the flags it takes besides --output ("norm"
# and the positional "files" included; argparse refuses any other) and
# the call of its suite.  The call names its suite rather than storing
# it, so a caller that rebinds the module global (a test fake, the bench
# tracer) is honoured on each call.
SUBCOMMANDS = {
    "verify-counterexample": (
        ("seed", "samples", "prefix_max", "grid", "budget", "jobs"),
        lambda a, chain: counterexample_suite(
            seed=a.seed, samples=a.samples, grid=chain.values, prefix_max=a.prefix_max,
            jobs=a.jobs, budget=a.budget,
        ),
    ),
    "finite-census": (
        ("seed", "grid", "n", "budget"),
        lambda a, chain: functional_census(chain, a.n, a.budget),
    ),
    "integral-properties": (
        ("seed", "grid", "n", "budget", "norm"),
        lambda a, chain: integral_property_suite(chain, a.n, TNorm(a.norm), a.budget, a.seed),
    ),
    "tnorm-axioms": (
        ("seed", "grid", "budget"),
        lambda a, chain: axiom_suite(chain.values, a.budget),
    ),
    "comonotone-check": (("seed", "files"), lambda a, chain: _run_comonotone_check(a.files)),
    "explore-problem1": (
        ("seed", "samples", "prefix_max", "grid", "budget"),
        lambda a, chain: normalized_search(
            seed=a.seed, samples=a.samples, grid=chain.values, prefix_max=a.prefix_max,
            budget=a.budget,
        ),
    ),
}
DEFAULTS = {
    "seed": 0,
    "samples": 10_000,
    "prefix_max": 2,
    "grid": "0,1/2,1",
    "n": 2,
    "budget": 10**7,
    "jobs": 1,
}


class InputError(Exception):
    """Malformed file or flag content, a refusal, or an unwritable --output; exit code 2."""


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
        return SeqFn.from_json(json.loads(raw, object_pairs_hook=_unique_keys))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        # The strerror alone: the message of an OSError names the path again.
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, a repeated key, nesting past the recursion limit, or
        # content SeqFn refuses (a RationalFormatError is a ValueError).
        raise InputError(f"{path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage and one ``error:`` line through ``_error``, then exit 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        _error(message)
        self.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="comaxlab",
        description="Exact verification suites for comonotone maxitivity and t-normed integrals.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (flags, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            if flag == "files":
                p.add_argument("files", nargs="+", help="JSON function files to compare pairwise")
            elif flag == "norm":
                p.add_argument("--norm", choices=[t.value for t in TNorm], default="minimum")
            else:
                default = DEFAULTS[flag]
                p.add_argument(f"--{flag.replace('_', '-')}", type=type(default), default=default)
        p.add_argument("--output", type=str, default=None)
        p.set_defaults(**{flag: value for flag, value in DEFAULTS.items() if flag not in flags})
    return parser


def _chain_from_args(args: argparse.Namespace) -> Chain:
    """The grid as a Chain, after the integer bounds of every flag."""
    try:
        grid = parse_grid(args.grid)
    except RationalFormatError as exc:
        raise InputError(f"--grid: {exc}") from exc
    if args.seed < 0:
        raise InputError("seed must be nonnegative")
    for flag in ("samples", "prefix_max", "n", "budget", "jobs"):
        if getattr(args, flag) < 1:
            raise InputError(f"{flag.replace('_', '-')} must be positive")
    try:
        return Chain(grid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _run_comonotone_check(files: Sequence[str]) -> VerificationReport:
    if len(files) < 2:
        raise InputError("comonotone-check needs at least two function files")
    fns = [validate_function_file(path) for path in files]
    witnesses = []
    for i, j in combinations(range(len(fns)), 2):
        witness = comonotone_witness(fns[i], fns[j])
        if witness is not None:
            x1, x2 = witness
            witnesses.append(
                {
                    "kind": "not_comonotone",
                    "files": [files[i], files[j]],
                    "points": [str(x1), str(x2)],
                    "product": defining_product(fns[i], fns[j], x1, x2),
                }
            )
    pairs = comb(len(fns), 2)
    return VerificationReport(
        claim_id="comonotone-check",
        status=PASS if not witnesses else FINDING,
        counts={
            "functions": len(fns),
            "pairs": pairs,
            "comonotone_pairs": pairs - len(witnesses),
            "non_comonotone_pairs": len(witnesses),
        },
        witnesses=witnesses,
    )


def _error(message: str) -> None:
    """Print one ``error:`` line; a message over 200 characters keeps its head and its length."""
    if len(message) > 200:
        message = f"{message[:200]}... ({len(message)} characters)"
    print(f"error: {message}", file=sys.stderr)


def _emit(report: VerificationReport, args: argparse.Namespace, chain: Chain) -> None:
    """Write the report to --output or stdout; an unwritable --output is an InputError."""
    # Every flag is echoed, at its default where the subcommand does not
    # take it, except jobs: two runs that differ only in an execution
    # detail must still produce byte-identical reports.
    echo = {flag: getattr(args, flag) for flag in DEFAULTS if flag != "jobs"}
    echo["grid"] = chain.values
    echo["subcommand"] = args.subcommand
    if args.subcommand == "comonotone-check":
        echo["files"] = list(args.files)
    report.config_echo = echo
    report.seed = args.seed
    text = report.to_json()
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"--output: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        chain = _chain_from_args(args)
        try:
            report = SUBCOMMANDS[args.subcommand][1](args, chain)
        except BudgetExceededError as exc:
            _emit(exc.refusal(args.subcommand), args, chain)
            raise InputError(str(exc)) from exc
        _emit(report, args, chain)
    except InputError as exc:
        _error(str(exc))
        return 2
    return 1 if report.status == FAIL else 0


if __name__ == "__main__":
    sys.exit(main())
