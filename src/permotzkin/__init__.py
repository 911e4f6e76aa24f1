"""Exact arithmetic for permutation statistics, weighted 3-colored Motzkin
paths, Jacobi-type continued fractions, and sign-imbalance identity
verifiers.  Everything is integer/polynomial exact; see the README for the
CLI and the verification battery."""

from .algebra import MultiPoly, P, Q, S, T, q_integer
from .bijection import decode, encode
from .errors import InvalidPathError, ParseError, SizeLimitError
from .identities import (
    derangement_series_rhs,
    derangement_signed_gf,
    derangement_table_report,
    signed_gf_permutations,
)
from .involution import (
    euler_numbers,
    parity_reversing_involution,
    sign_imbalance_depth,
    sign_imbalance_exc,
)
from .jfraction import (
    JFractionSpec,
    brute_force_depth_gf,
    brute_force_gf,
    expand,
    preset_depth,
    preset_refined,
)
from .motzkin import (
    StepKind,
    WeightedMotzkinPath,
    enumerate_weighted,
    path_exponents,
    path_weight,
    step_weight,
    validate,
)
from .permutations import (
    Permutation,
    depth_via_factorization,
    is_alternating,
    iter_derangements,
    iter_group,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidPathError",
    "JFractionSpec",
    "MultiPoly",
    "P",
    "ParseError",
    "Permutation",
    "Q",
    "S",
    "SizeLimitError",
    "StepKind",
    "T",
    "WeightedMotzkinPath",
    "brute_force_depth_gf",
    "brute_force_gf",
    "decode",
    "depth_via_factorization",
    "derangement_series_rhs",
    "derangement_signed_gf",
    "derangement_table_report",
    "encode",
    "enumerate_weighted",
    "euler_numbers",
    "expand",
    "is_alternating",
    "iter_derangements",
    "iter_group",
    "parity_reversing_involution",
    "path_exponents",
    "path_weight",
    "preset_depth",
    "preset_refined",
    "q_integer",
    "sign_imbalance_depth",
    "sign_imbalance_exc",
    "signed_gf_permutations",
    "step_weight",
    "validate",
]
