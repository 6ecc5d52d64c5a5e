"""Literal oracles for the sequence-model comonotonicity decision.

``fraction_truncated`` is the brute-force truncated check written on
``SeqFn.at`` values: every value a ``Fraction``, every product taken
in rational arithmetic, no scaling.  The differential tests hold
``comaxlab.seq_comonotone`` to it: same verdict, same first witness.
"""

from __future__ import annotations

from comaxlab.seqspace import points_upto


def fraction_truncated(f, g, depth=50):
    pts = points_upto(depth)
    fv = [f.at(p) for p in pts]
    gv = [g.at(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (fv[i] - fv[j]) * (gv[i] - gv[j]) < 0:
                return (pts[i], pts[j])
    return None
