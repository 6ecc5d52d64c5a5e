"""comaxlab: exact verification of comonotone maxitivity and its limits.

Everything computes over arbitrary-precision rationals.  The package
has two models: a finite grid model (functions on n points with values
in a chain, capacities, t-normed integrals, and an exhaustive census of
functionals) and a sequence-compactum model (finitely presented
continuous functions on a convergent sequence plus an isolated point,
where a 0/1 step functional preserves joins of comonotone pairs while
reversing a pointwise-ordered pair).
"""

# ``import comaxlab`` loads every submodule except the entry point
# ``cli``: loading it here would make ``python -m comaxlab.cli`` warn
# that the module is already in ``sys.modules``.
from . import (  # noqa: F401
    capacity,
    census,
    classify,
    grid,
    integral,
    pairgen,
    parallel,
    properties,
    rational,
    report,
    seq_comonotone,
    seqspace,
    suites,
    tnorms,
)

__version__ = "0.1.0"
