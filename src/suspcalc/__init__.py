"""suspcalc: wedge decompositions of suspended 4-manifolds and their
2-local cohomotopy bookkeeping, as a symbolic calculator."""

__version__ = "0.1.0"

from .abelian import CyclicFactor, FgAbelianGroup  # noqa: F401
from .catalog import (  # noqa: F401
    ElementaryComplex,
    WedgeComplex,
    integral_homology,
    maps_group,
    peterson_of_group,
)
from .classifier import (  # noqa: F401
    DecompositionReport,
    ManifoldInvariants,
    OmittedCase,
    Sq2Case,
    ThetaAction,
    classify_double_suspension,
    classify_suspension,
)
