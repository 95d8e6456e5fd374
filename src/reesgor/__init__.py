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
    QGVerdict,
    a_invariant_consistency,
    closure_nilpotency_index,
    cohen_macaulay_test,
    conductor_exponent,
    core_compute,
    find_pure_power_reduction,
    is_monomial_reduction,
    nilpotency_index,
    quasi_gorenstein_test,
    reduction_number,
)
from .cone import (
    CanonicalData,
    PurePowerTest,
    ReesCone,
    canonical_generators,
    compute_q,
    is_gorenstein_normalization,
    lift_halfspaces,
    pure_power_gorenstein_test,
)
from .errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InapplicableError,
    InvalidIdealError,
    InvariantViolationError,
    NotAReductionError,
    NotMPrimaryError,
)
from .ideals import MonomialIdeal, minimalize
from .polyhedra import (
    FacetSystem,
    HalfSpace,
    closure_power,
    extreme_rays,
    newton_polyhedron,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CMVerdict",
    "CanonicalData",
    "ConeGeometryError",
    "ConsistencyCheck",
    "DimensionMismatchError",
    "FacetSystem",
    "HalfSpace",
    "InapplicableError",
    "InvalidIdealError",
    "InvariantViolationError",
    "MonomialIdeal",
    "NotAReductionError",
    "NotMPrimaryError",
    "PurePowerTest",
    "QGVerdict",
    "ReesCone",
    "a_invariant_consistency",
    "canonical_generators",
    "closure_nilpotency_index",
    "closure_power",
    "cohen_macaulay_test",
    "compute_q",
    "conductor_exponent",
    "core_compute",
    "extreme_rays",
    "find_pure_power_reduction",
    "is_gorenstein_normalization",
    "is_monomial_reduction",
    "lift_halfspaces",
    "minimalize",
    "newton_polyhedron",
    "nilpotency_index",
    "pure_power_gorenstein_test",
    "quasi_gorenstein_test",
    "reduction_number",
]
