"""Literal oracles for the grid property checkers.

Each one walks the pairs (or cases) of the grid in a literal double
loop and calls the functional on every input as it meets it: no shared
relations, no index lists, no caching.  The differential tests hold
the checkers of ``comaxlab.properties`` to these: same verdict, same
witness.
"""

from __future__ import annotations

import random

from comaxlab.grid import GridFn, all_functions, comonotone, join
from comaxlab.properties import _sampled_rationals, chain_closed_under
from comaxlab.report import jsonify
from comaxlab.tnorms import apply, pointwise_scale


def oracle_comonotone_maxitive(functional, chain, n):
    fns = all_functions(chain, n)
    for i, f in enumerate(fns):
        for g in fns[i:]:
            if not comonotone(f, g):
                continue
            lhs = functional(join(f, g))
            rhs = max(functional(f), functional(g))
            if lhs != rhs:
                witness = {"f": f.to_json(), "g": g.to_json(), "F_join": lhs, "max_F": rhs}
                return False, jsonify(witness)
    return True, None


def oracle_monotone(functional, chain, n):
    fns = all_functions(chain, n)
    for f in fns:
        for g in fns:
            if not f.leq(g):
                continue
            vf, vg = functional(f), functional(g)
            if vf > vg:
                witness = {"f": f.to_json(), "g": g.to_json(), "F_f": vf, "F_g": vg}
                return False, jsonify(witness)
    return True, None


def oracle_scale_homogeneous(functional, norm, chain, n, samples=200, seed=0, max_denominator=8):
    if chain_closed_under(norm, chain):
        cases = ((c, f) for c in chain for f in all_functions(chain, n))
    else:
        rng = random.Random(seed)
        cases = (
            (
                _sampled_rationals(rng, max_denominator),
                GridFn(tuple(_sampled_rationals(rng, max_denominator) for _ in range(n))),
            )
            for _ in range(samples)
        )
    for c, f in cases:
        scaled = GridFn(pointwise_scale(norm, c, f.values))
        lhs = functional(scaled)
        rhs = apply(norm, c, functional(f))
        if lhs != rhs:
            witness = {"c": c, "f": f.to_json(), "F_scaled": lhs, "c_times_F": rhs}
            return False, jsonify(witness)
    return True, None
