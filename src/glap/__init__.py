"""Exact construction and analysis of conformal graded Lie algebras.

The package builds fundamental graded Lie algebras carrying a conformal
class of symmetric bilinear forms, computes their conformal derivation
algebras and full prolongations in exact rational arithmetic, analyzes the
outcome (Killing form, simplicity, module structure of the degree -1 part),
and cross-checks everything against an independent root-system oracle.
"""

from .errors import (
    AlgebraMismatch,
    BadParameters,
    DegenerateForm,
    DegeneratePairing,
    DimTooLarge,
    DimensionMismatch,
    GlapError,
    NonNegativeDegreePresent,
    NotFundamental,
    NotIsotropic,
    NotSemisimple,
    NotSymmetric,
    ParseError,
    StepLimitExceeded,
    UnsupportedType,
)

__version__ = "0.1.0"
