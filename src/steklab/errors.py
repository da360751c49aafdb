"""Exception hierarchy shared across the package."""


class SteklabError(Exception):
    """Base class for all library errors."""


class DegenerateCurveError(SteklabError):
    """Curve fails a regularity/simplicity requirement."""


class OutOfTubeError(SteklabError):
    """Point lies outside the tubular neighborhood of the boundary."""


class FootPointError(SteklabError):
    """Newton iteration for the nearest boundary point did not converge."""


class ConditioningError(SteklabError):
    """Boundary-integral matrix too ill-conditioned to invert reliably."""


class SolverError(SteklabError):
    """Dense eigensolver failed or produced inconsistent output."""


class OutOfDomainError(SteklabError):
    """Evaluation point outside the domain and beyond the extension band."""


class InvalidCenterError(SteklabError):
    """Frequency center where the leading coefficient matrix is not the identity."""


class RegionError(SteklabError):
    """Domain lacks the shape a quadrature needs (star-shaped about its centroid)."""


class AssumptionError(SteklabError):
    """A quantitative hypothesis of an inequality fails numerically."""


class UndersampledError(SteklabError):
    """Sample count below the Nyquist-type guard for zero detection."""


class DegenerateCenterError(SteklabError):
    """Doubling center with vanishing mass at the smallest radius."""
