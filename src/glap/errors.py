"""Exception types shared across the package.

Every error raised on purpose derives from GlapError so callers (and the
CLI) can distinguish "bad input / failed precondition" from genuine bugs.
"""


class GlapError(Exception):
    pass


def require(cond, msg: str) -> None:
    """Raise ``GlapError(msg)`` unless cond holds.  Certificates and internal
    consistency checks go through this instead of ``assert``, so they still
    run under ``python -O``."""
    if not cond:
        raise GlapError(msg)


# exact linear algebra
class NotSymmetric(GlapError):
    pass


# composition algebras
class DimTooLarge(GlapError):
    pass


class AlgebraMismatch(GlapError):
    pass


# graded Lie algebra core
class DimensionMismatch(GlapError):
    pass


class NonNegativeDegreePresent(GlapError):
    pass


class ParseError(GlapError):
    """Raised on malformed input files; message carries position info."""


class DegenerateForm(GlapError):
    pass


# prolongation
class NotFundamental(GlapError):
    pass


class StepLimitExceeded(GlapError):
    pass


# structure analysis
class NotSemisimple(GlapError):
    pass


class NotIsotropic(GlapError):
    pass


class DegeneratePairing(GlapError):
    pass


# families / oracle
class BadParameters(GlapError):
    pass


class UnsupportedType(GlapError):
    pass
