"""ordercalc: Riemann integration and calculus on finite-dimensional vector lattices.

Values live in R^A for a finite atom set A; bands are coordinate subsets
and every claim of the classical integral calculus is either computed
exactly or verified numerically with declared tolerances.
"""

from ._kernels_fallback import NAME as BACKEND_NAME
from .lattice import (
    Band,
    BandDecomposition,
    DimensionMismatchError,
    Element,
    OrderInterval,
    band_eq,
    band_leq,
    band_lt,
    totally_ordered_decomposition,
    totord,
    totord_by_lattice_polynomial,
    trichotomy,
)
from .functions import (
    ExtremaPair,
    LatticeFunction,
    LbpCheckResult,
    ScalarKernel,
    continuity_modulus,
    extrema,
    lbp_check,
)
from .partitions import Partition, TaggedPartition, common_refinement, refines, tag, uniform
from .integrate import (
    DarbouxSums,
    IntegralResult,
    ToleranceSchedule,
    darboux_sums,
    integrate,
    riemann_sum,
    signed_integrate,
    split_integrate,
)
from .calculus import (
    VerificationReport,
    antiderivative,
    mvt_integral_solve,
    numeric_derivative,
    verify_by_parts,
    verify_ftc1,
    verify_ftc2,
    verify_substitution,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "Band",
    "BandDecomposition",
    "DarbouxSums",
    "DimensionMismatchError",
    "Element",
    "ExtremaPair",
    "IntegralResult",
    "LatticeFunction",
    "LbpCheckResult",
    "OrderInterval",
    "Partition",
    "ScalarKernel",
    "TaggedPartition",
    "ToleranceSchedule",
    "VerificationReport",
    "antiderivative",
    "band_eq",
    "band_leq",
    "band_lt",
    "common_refinement",
    "continuity_modulus",
    "darboux_sums",
    "extrema",
    "integrate",
    "lbp_check",
    "mvt_integral_solve",
    "numeric_derivative",
    "refines",
    "riemann_sum",
    "signed_integrate",
    "split_integrate",
    "tag",
    "totally_ordered_decomposition",
    "totord",
    "totord_by_lattice_polynomial",
    "trichotomy",
    "uniform",
    "verify_by_parts",
    "verify_ftc1",
    "verify_ftc2",
    "verify_substitution",
]
