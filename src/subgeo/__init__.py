"""subgeo: numerical residual checks for metric splittings, dual
connections, and tangent-bundle lifts on charted manifolds."""

__version__ = "0.1.0"

from .errors import (
    BoundaryExit,
    ConfigError,
    ContractViolation,
    EvalDomain,
    ExprSyntaxError,
    PremiseFailed,
    RankDrop,
    SingularMatrix,
    SubgeoError,
)

__all__ = [
    "__version__",
    "SubgeoError",
    "ContractViolation",
    "SingularMatrix",
    "EvalDomain",
    "ExprSyntaxError",
    "PremiseFailed",
    "RankDrop",
    "BoundaryExit",
    "ConfigError",
]
