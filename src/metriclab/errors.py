"""Exception types shared across the laboratory modules."""


class MetricLabError(Exception):
    """Base class for all metriclab errors."""


class DomainError(MetricLabError, ValueError):
    """A point lies outside the domain it was required to be in."""


class GridError(MetricLabError, RuntimeError):
    """A lattice search found no point inside the domain (the interior anchor)."""


class FactorizationError(MetricLabError, RuntimeError):
    """The kernel fit's inner product is rank-deficient.

    Carries the first degree whose monomial the boundary rule cannot
    separate from the lower ones: the polynomial degree is too large for
    the rule.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"inner product rank-deficient at degree {degree}; "
            f"degree too large for the boundary rule"
        )


class KernelInstabilityError(MetricLabError, RuntimeError):
    """Kernel-derived quantity became numerically untrustworthy.

    Raised instead of clamping: a negative curvature radicand or a kernel
    value below the positivity floor (degree too low there), or
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
