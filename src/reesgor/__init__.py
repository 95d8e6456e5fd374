"""Exact decision procedures for Gorenstein, quasi-Gorenstein, and
Cohen-Macaulay properties of (normalized) extended Rees algebras of
monomial ideals, with the derived invariants: reduction numbers,
nilpotency indices, degree invariants, cores, conductor exponents.

All arithmetic is exact (arbitrary-precision integers only);
every nontrivial verdict is cross-checked along an independent route
before it is returned.
"""

from .analysis import (
    CMVerdict,
    ConsistencyCheck,
    ConsistencyReport,
    QGVerdict,
    ReductionData,
    a_invariant_consistency,
    analyze_reduction,
    canonical_piece,
    closure_nilpotency_index,
    cohen_macaulay_test,
    conductor_exponent,
    core_compute,
    core_matches_power,
    find_pure_power_reduction,
    is_monomial_reduction,
    nilpotency_index,
    powers_upto,
    quasi_gorenstein_test,
    reduction_number,
    two_standard_test,
)
from .cone import (
    CanonicalData,
    PurePowerTest,
    ReesCone,
    canonical_generators,
    compute_q,
    embed_phi,
    filtration_reduction_number,
    is_gorenstein_normalization,
    lift_halfspaces,
    pure_power_gorenstein_test,
)
from .errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InapplicableError,
    IncompleteSearchError,
    InvalidIdealError,
    InvariantViolationError,
    NotAReductionError,
    NotMPrimaryError,
    StabilizationError,
)
from .ideals import MonomialIdeal, minimalize
from .polyhedra import (
    FacetSystem,
    HalfSpace,
    closure_power,
    extreme_rays,
    integral_closure,
    newton_polyhedron,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CMVerdict",
    "CanonicalData",
    "ConeGeometryError",
    "ConsistencyCheck",
    "ConsistencyReport",
    "DimensionMismatchError",
    "FacetSystem",
    "HalfSpace",
    "InapplicableError",
    "IncompleteSearchError",
    "InvalidIdealError",
    "InvariantViolationError",
    "MonomialIdeal",
    "NotAReductionError",
    "NotMPrimaryError",
    "PurePowerTest",
    "QGVerdict",
    "ReductionData",
    "ReesCone",
    "StabilizationError",
    "a_invariant_consistency",
    "analyze_reduction",
    "canonical_generators",
    "canonical_piece",
    "closure_nilpotency_index",
    "closure_power",
    "cohen_macaulay_test",
    "compute_q",
    "conductor_exponent",
    "core_compute",
    "core_matches_power",
    "embed_phi",
    "extreme_rays",
    "filtration_reduction_number",
    "find_pure_power_reduction",
    "integral_closure",
    "is_gorenstein_normalization",
    "is_monomial_reduction",
    "lift_halfspaces",
    "minimalize",
    "newton_polyhedron",
    "nilpotency_index",
    "powers_upto",
    "pure_power_gorenstein_test",
    "quasi_gorenstein_test",
    "reduction_number",
    "two_standard_test",
]
