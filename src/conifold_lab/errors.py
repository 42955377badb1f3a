"""Exception and warning types shared across the package."""


class ConifoldLabError(Exception):
    """Base class for all package errors."""


class OnZeroSection(ConifoldLabError):
    """Operation requires a point off the zero section."""


class NonFinite(ConifoldLabError):
    """A finite real argument was required (rho = +-inf rejected)."""


class InfiniteFibre(ConifoldLabError):
    """Fibre operations need a finite fibre coordinate (xi1 != 0)."""


class BaseMismatch(ConifoldLabError):
    """Two forms were compared at different base points."""


class NotPositiveDefinite(ConifoldLabError):
    """The reference form in a comparison must be positive definite."""


class StencilOutOfDomain(ConifoldLabError):
    """A finite-difference stencil left the domain of the sampled field."""


class SingularMetric(ConifoldLabError):
    """det <= 0 encountered while evaluating log det of a metric."""


class DegenerateMetric(ConifoldLabError):
    """A cloud edge weight came out nonfinite or the metric degenerated."""


class ConfigError(ConifoldLabError):
    """Invalid experiment configuration."""


class RangeClampedWarning(UserWarning):
    """rho was clamped into the safe exponentiation range before use."""
