"""comaxlab: exact verification of comonotone maxitivity and its limits.

Everything computes over arbitrary-precision rationals.  The package
has two models: a finite grid model (functions on n points with values
in a chain, capacities, t-normed integrals, and an exhaustive census of
functionals) and a sequence-compactum model (finitely presented
continuous functions on a convergent sequence plus an isolated point,
where a 0/1 step functional preserves joins of comonotone pairs while
reversing a pointwise-ordered pair).
"""

from .capacity import Capacity, enumerate_capacities, subsets, uniform
from .census import functional_census, table_count
from .classify import Membership, membership, step_value
from .grid import Chain, GridFn, all_functions, constant as grid_constant
from .grid import comonotone as grid_comonotone, join as grid_join, meet as grid_meet
from .integral import tnorm_integral
from .pairgen import GeneratorParams, MonotoneMap, compose, generate_pair, random_pair
from .properties import (
    BudgetExceededError,
    integral_property_suite,
    is_comonotone_maxitive,
    is_monotone,
    is_normalized,
    is_scale_homogeneous,
)
from .rational import format_rational, parse_grid, parse_rational
from .report import SuiteConfig, VerificationReport
from .seq_comonotone import comonotone, comonotone_truncated, comonotone_witness
from .seqspace import (
    ISOLATED,
    LIMIT,
    AttainedMax,
    Point,
    SeqFn,
    attained_max,
    constant,
    join,
    leq,
    make,
    meet,
    points_upto,
    ramp,
    seq,
    seq_coord,
)
from .suites import counterexample_suite, normalized_search, structured_family
from .tnorms import TNorm, apply as tnorm_apply, check_axioms

__version__ = "0.1.0"

__all__ = [
    "AttainedMax",
    "BudgetExceededError",
    "Capacity",
    "Chain",
    "GeneratorParams",
    "GridFn",
    "ISOLATED",
    "LIMIT",
    "Membership",
    "MonotoneMap",
    "Point",
    "SeqFn",
    "SuiteConfig",
    "TNorm",
    "VerificationReport",
    "all_functions",
    "attained_max",
    "check_axioms",
    "comonotone",
    "comonotone_truncated",
    "comonotone_witness",
    "compose",
    "constant",
    "counterexample_suite",
    "enumerate_capacities",
    "format_rational",
    "functional_census",
    "generate_pair",
    "grid_comonotone",
    "grid_constant",
    "grid_join",
    "grid_meet",
    "integral_property_suite",
    "is_comonotone_maxitive",
    "is_monotone",
    "is_normalized",
    "is_scale_homogeneous",
    "join",
    "leq",
    "make",
    "meet",
    "membership",
    "normalized_search",
    "parse_grid",
    "parse_rational",
    "points_upto",
    "ramp",
    "random_pair",
    "seq",
    "seq_coord",
    "step_value",
    "structured_family",
    "subsets",
    "table_count",
    "tnorm_apply",
    "tnorm_integral",
    "uniform",
]
