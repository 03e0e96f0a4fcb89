"""Exception types shared across the package.

Every named failure mode of the geometric and dynamical routines gets its
own class so callers (and the CLI exit-code mapping) can react precisely.
"""


class PEBilliardsError(Exception):
    """Base class for all package-specific errors."""


class ZeroDirection(PEBilliardsError):
    """A ray or line was given a direction vector of zero Euclidean length."""


class PoleParameter(PEBilliardsError):
    """A confocal-family parameter hit a pole, where a member coefficient vanishes."""


class RootIsolationFailure(PEBilliardsError):
    """Bracketing could not isolate or refine the tangency roots."""


class NotInward(PEBilliardsError):
    """Ray direction does not point into the ellipsoid (or grazes the boundary)."""


class OffBoundary(PEBilliardsError):
    """A point expected on the ellipsoid boundary is not on it within tolerance."""


class NullNormal(PEBilliardsError):
    """The boundary normal is light-like; reflection is undefined there."""


class NonFinite(PEBilliardsError):
    """A recorded state, H or F_k is not finite: the orbit's values overflow double precision."""


class ResonantAxes(PEBilliardsError):
    """Two semi-axes make a quadratic-integral denominator vanish."""


class DegenerateChord(PEBilliardsError):
    """A vertical/horizontal chord was requested at a coordinate extremum."""


class ZeroSlope(PEBilliardsError):
    """A curve slope of zero (or non-finite) entered a speed-factor product."""


class NoConvergence(PEBilliardsError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class ConvexityViolation(PEBilliardsError):
    """A constructed curve failed the strict-convexity check.

    margin_index is the scan-grid index where a radial table's curvature
    numerator is least, or None where the check computed no numerator.
    """

    def __init__(self, message: str, margin_index: int | None = None):
        super().__init__(message)
        self.margin_index = margin_index


class InfeasibleSlopes(PEBilliardsError):
    """Requested slope signs are incompatible with any convex traversal."""


class ConfigError(PEBilliardsError):
    """A run configuration failed validation."""
