"""Exception hierarchy.

Every failure mode that a caller can sensibly recover from (resample a
point, reject a configuration) gets its own class; all inherit from
:class:`YbLabError` so blanket handling stays possible.
"""


class YbLabError(Exception):
    """Base class for all library errors."""


class NomeTooLarge(YbLabError):
    """Elliptic nome too close to the unit circle for safe series evaluation."""


class ZeroNome(YbLabError):
    """Elliptic nome of zero: the theta series, and so every weight, vanishes identically."""


class NonConvergent(YbLabError):
    """Theta series hit its term cap before meeting the truncation tolerance."""


class RegimeMismatch(YbLabError):
    """Operation defined only in one regime was called in the other."""


class DynamicalPole(YbLabError):
    """A dynamical argument landed on (or too near) a zero of the weight function."""


class SamplingExhausted(YbLabError):
    """Admissible-point sampling hit its try cap without enough points."""


class NonFinite(YbLabError, ValueError):
    """A computed operator or residual is not finite (overflow or NaN)."""


class SizeMismatch(YbLabError):
    """Spectral-set cardinality incompatible with the model."""


class SingularCoefficient(YbLabError):
    """A functional-equation coefficient hit a vanishing denominator."""


class CoincidentPoints(YbLabError):
    """Spectral points too close together; residue poles would not be simple."""


class SingularR(YbLabError):
    """A reciprocal factor in the scalar-product integrand is effectively zero."""


class DegreeMismatch(YbLabError):
    """A polynomial given to the operator pencil lacks its shape: L variables, degree L - 1."""


class InterpolationIllConditioned(YbLabError):
    """Polynomial extraction failed its held-out reproduction check."""


class ConfigError(YbLabError):
    """Run configuration is malformed; message names the offending field."""
