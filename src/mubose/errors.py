"""Value types, exception types, the argument checks that raise them, and the
numeric limits shared across the package.

This module imports neither numpy nor the kernels, so the subcommands and
library calls that sum no series load only it and their own module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: double-precision unit roundoff, used in reported error bounds
DBL_EPS = sys.float_info.epsilon

#: default tolerance of every moment, intercept and oracle
DEFAULT_TOL = 1e-12

#: largest moment or expansion order the kernels accept
MAX_ORDER = 64

#: term budget of every kernel series sum, which bounds the work of one call
MAX_TERMS = 2**21

#: largest alpha times the largest Lerch shift at which Phi(e^-alpha, 1, a) is
#: taken from its z -> 1 expansion: there e^(a alpha) stays below e^0.5, so its
#: terms barely cancel, and 24 Bernoulli terms leave a tail below 1e-19.  The
#: smallest alpha of the figure presets, 0.775, lies beyond it.
EXPANSION_REACH = 0.5


#: method tags carried by CorrelationResult
CLOSED_FORM = "closed_form"
ORACLE = "oracle"
ASYMPTOTIC = "asymptotic"


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """A denominator of the requested expression vanishes."""


class ConvergenceError(RuntimeError):
    """A series could not be driven below the requested tolerance."""


def _check_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")


def _check_positive(value: float, what: str) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value}")


def _check_nonnegative(value: float, what: str) -> None:
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{what} must be >= 0 and finite, got {value}")


def _check_int(value: int, what: str, minimum: int, maximum: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an int in [minimum, maximum]; bool is no int here."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{what} {value} exceeds the supported bound {maximum}")


def _check_order(r: int, minimum: int = 1) -> None:
    _check_int(r, "order", minimum, MAX_ORDER)


def _convergence_error(max_terms: int, what: str, **context: float) -> ConvergenceError:
    """The failure of a sum of ``what`` that used its whole ``max_terms`` budget."""
    args = ", ".join(f"{name}={val}" for name, val in context.items())
    return ConvergenceError(f"{what} did not converge within {max_terms} terms ({args})")


def _beyond_range(what: str, **context: float) -> DomainError:
    """The failure of ``what`` at the ``context`` arguments: its value is no finite double."""
    args = ", ".join(f"{name}={val}" for name, val in context.items())
    return DomainError(f"{what} at {args} lies beyond the double range")


@dataclass(frozen=True)
class DeformationMu:
    """Deformation strength mu >= 0 of the structure function."""

    mu: float

    def __post_init__(self) -> None:
        _check_nonnegative(self.mu, "deformation parameter")


@dataclass(frozen=True)
class ThermoPoint:
    """Temperature and mode kinematics fixing alpha = sqrt(m^2+k^2)/T."""

    temperature: float
    momentum: float
    mass: float

    def __post_init__(self) -> None:
        _check_positive(self.temperature, "temperature")
        _check_nonnegative(self.momentum, "momentum")
        _check_positive(self.mass, "mass")

    @property
    def alpha(self) -> float:
        """Dimensionless mode energy sqrt(m^2 + k^2) / T."""
        return math.hypot(self.mass, self.momentum) / self.temperature


@dataclass(frozen=True)
class CorrelationResult:
    """A computed value, a propagated error bound, and how it was obtained."""

    value: float
    error_bound: float
    method: str


def _as_mu(d: DeformationMu | float) -> float:
    if isinstance(d, DeformationMu):
        return d.mu
    return DeformationMu(float(d)).mu
