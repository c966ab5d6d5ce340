"""Cross-domain linear classification with a shared orthogonal projection,
source instance weighting and first-moment distribution matching.

The root exports the fitting API and the error classes; everything else is
imported from its own module.
"""

from .data import generate_synthetic_pair
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleProblemError,
    ParseError,
    ValidationError,
)
from .model import HyperParams, TransferModel, classify_target
from .optimizer import fit

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "HyperParams",
    "InfeasibleProblemError",
    "ParseError",
    "TransferModel",
    "ValidationError",
    "classify_target",
    "fit",
    "generate_synthetic_pair",
]
