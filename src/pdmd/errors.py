"""Exception and warning taxonomy shared across the package.

Errors split along the CLI exit-code contract: bad input data maps to
``DataError`` (exit 3), failed numerics map to ``NumericalError`` (exit 4).
Telemetry that should not abort a run is emitted through warning
subclasses so callers can filter or promote them.
"""


class PdmdError(Exception):
    """Base class for all package errors."""


class DataError(PdmdError):
    """Invalid input data: shapes, file formats, precondition violations."""


class NumericalError(PdmdError):
    """Numerical failure: non-convergence, singularity, instability."""


class RankDeficientError(NumericalError):
    """The data support a lower rank than the one requested; the largest
    rank they support is ``supported_rank``."""

    def __init__(self, message: str, supported_rank: int):
        super().__init__(message)
        self.supported_rank = supported_rank


class PdmdWarning(UserWarning):
    """Base class for telemetry warnings."""


class ImaginaryResidualWarning(PdmdWarning):
    """A nominally real result carried a non-negligible imaginary part."""


class ExtrapolationWarning(PdmdWarning):
    """A regression query fell outside the training hull and was clamped."""


class IllConditionedWarning(PdmdWarning):
    """A linear system was solved despite a very large condition number."""


class ConvergenceWarning(PdmdWarning):
    """An iterative solver stopped before meeting its tolerances."""
