"""Exception types shared across the package.

Everything derives from ``ValueError`` (bad inputs) or ``RuntimeError``
(a well-posed computation that could not finish), so callers that do not
care about the fine distinctions can catch the builtins.
"""


class ParameterError(ValueError):
    """A numeric or structural parameter is outside its contract."""


class DimensionMismatchError(ValueError):
    """Points, measures or kernels with incompatible ambient dimensions."""


class MeasureError(ValueError):
    """A measure fails a required property (e.g. is not a probability)."""


class DegenerateMeasureError(MeasureError):
    """The zero measure was passed where a nonzero one is required."""


class NotAWitnessError(MeasureError):
    """A measure whose embedding norm is not (numerically) zero was passed
    where an annihilated witness is required."""


class SearchFailureError(RuntimeError):
    """The candidate budget ran out before a point set was completed.

    ``failed_index`` is the 1-based index of the first point that could not
    be placed; ``candidates_scanned`` counts every candidate drawn, those
    inside the exclusion ball included.
    """

    def __init__(
        self,
        message: str,
        failed_index: int | None = None,
        candidates_scanned: int | None = None,
    ):
        super().__init__(message)
        self.failed_index = failed_index
        self.candidates_scanned = candidates_scanned


class UsageError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""
