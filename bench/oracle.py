"""Differential loop: the exact comonotonicity decision against the oracle.

Usage: python3 bench/oracle.py --seed S --count N

For each index it builds one ``generate_pair`` pair (always comonotone)
and one ``random_pair`` pair (usually not).  Each pair goes through the
exact ``comonotone_witness`` and the brute-force
``comonotone_truncated`` at depth 50.  A truncated witness the exact
decision misses is a disagreement, and so is an exact witness that the
defining product does not confirm.  This is the loop of acceptance
criterion 3.  Its report, printed to stdout, is deterministic JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from comaxlab import pairgen, seq_comonotone

DEPTH = 50


def run(seed: int, count: int) -> dict:
    params = pairgen.GeneratorParams(prefix_max=2)
    counts = {"pairs": 0, "exact_witnesses": 0, "truncated_witnesses": 0, "disagreements": 0}
    for index in range(count):
        for f, g in (
            pairgen.generate_pair(pairgen.pair_seed(seed, 2 * index), params),
            pairgen.random_pair(pairgen.pair_seed(seed, 2 * index + 1), params),
        ):
            counts["pairs"] += 1
            exact = seq_comonotone.comonotone_witness(f, g)
            truncated = seq_comonotone.comonotone_truncated(f, g, depth=DEPTH)
            if truncated is not None:
                counts["truncated_witnesses"] += 1
                if exact is None:
                    counts["disagreements"] += 1
            if exact is not None:
                counts["exact_witnesses"] += 1
                if not seq_comonotone.defining_product(f, g, *exact) < 0:
                    counts["disagreements"] += 1
    return {
        "claim_id": "oracle",
        "status": "pass" if counts["disagreements"] == 0 else "fail",
        "counts": counts,
        "seed": seed,
        "config_echo": {"count": count, "depth": DEPTH, "prefix_max": params.prefix_max},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="oracle")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    report = run(args.seed, args.count)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
