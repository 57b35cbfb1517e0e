"""Exception types, the argument checks that raise them, and the numeric limits
shared across the package."""

import math
import sys

#: double-precision unit roundoff, used in reported error bounds
DBL_EPS = sys.float_info.epsilon

#: largest moment or expansion order the kernels accept
MAX_ORDER = 64

#: term budget of every kernel series sum
MAX_TERMS = 10**8

#: largest alpha times the largest Lerch shift at which Phi(e^-alpha, 1, a) is
#: taken from its z -> 1 expansion: there e^(a alpha) stays below e^0.5, so its
#: terms barely cancel, and 24 Bernoulli terms leave a tail below 1e-19.  The
#: smallest alpha of the figure presets, 0.775, lies beyond it.
EXPANSION_REACH = 0.5


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


def _check_int(value: int, what: str, minimum: int) -> None:
    """Raise DomainError unless ``value`` is an int of at least ``minimum``; bool is no int here."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")


def _check_order(r: int, minimum: int = 1) -> None:
    _check_int(r, "order", minimum)
    if r > MAX_ORDER:
        raise DomainError(f"order {r} exceeds the supported bound {MAX_ORDER}")


def _convergence_error(max_terms: int, what: str, **context: float) -> ConvergenceError:
    """The failure of a sum of ``what`` that used its whole ``max_terms`` budget."""
    args = ", ".join(f"{name}={val}" for name, val in context.items())
    return ConvergenceError(f"{what} did not converge within {max_terms} terms ({args})")


def _beyond_range(what: str, **context: float) -> DomainError:
    """The failure of ``what`` at the ``context`` arguments: its value is no finite double."""
    args = ", ".join(f"{name}={val}" for name, val in context.items())
    return DomainError(f"{what} at {args} lies beyond the double range")
