"""Exception types shared across the laboratory modules."""


class MetricLabError(Exception):
    """Base class for all metriclab errors."""


class DomainError(MetricLabError, ValueError):
    """A point lies outside the domain it was required to be in."""


class GridError(MetricLabError, RuntimeError):
    """Quadrature grid construction failed (e.g. no node falls inside the domain)."""


class FactorizationError(MetricLabError, RuntimeError):
    """The weighted Vandermonde of the kernel fit is rank-deficient.

    Carries the first degree whose monomial the grid cannot separate from
    the lower ones: the polynomial degree is too large for the grid
    resolution.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"weighted Vandermonde rank-deficient at degree {degree}; "
            f"degree too large for the grid resolution"
        )


class KernelInstabilityError(MetricLabError, RuntimeError):
    """Kernel-derived quantity became numerically untrustworthy.

    Raised instead of clamping: a negative curvature radicand or a kernel
    value below the positivity floor (degree or grid too coarse there), or
    a fitted basis whose orthonormality defect exceeds 1e-6 (degree too high).
    """


class InvalidPathError(MetricLabError, ValueError):
    """A polyline leaves the domain."""


class ResolutionTooCoarseError(MetricLabError, RuntimeError):
    """The grid graph at the requested resolution does not connect the endpoints."""


class DivergentDistanceError(MetricLabError, RuntimeError):
    """Weighted distance diverges: an endpoint is on (or within one
    resolution step of) the boundary while the density blows up there."""


class DivergentValueError(MetricLabError, RuntimeError):
    """A mean or modulus evaluated to a non-finite value (divergent report)."""


class InsufficientDataError(MetricLabError, ValueError):
    """Not enough usable points for a power-law fit."""


class ConfigError(MetricLabError, ValueError):
    """Experiment configuration is malformed or inconsistent."""
