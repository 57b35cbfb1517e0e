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


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")


def _check_int(value: int, what: str, minimum: int) -> None:
    """Raise DomainError unless ``value`` is an int of at least ``minimum``; bool is no int here."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")


def _check_order(r: int, minimum: int = 1) -> None:
    _check_int(r, "order", minimum)
    if r > MAX_ORDER:
        raise DomainError(f"order {r} exceeds the supported bound {MAX_ORDER}")


def _check_tol(tol: float) -> None:
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tolerance must be positive, got {tol}")


def _check_mu(mu: float) -> None:
    if not (mu >= 0.0) or not math.isfinite(mu):
        raise DomainError(f"deformation parameter must be >= 0, got {mu}")


def _check_mu_positive(mu: float) -> None:
    if not (mu > 0.0) or not math.isfinite(mu):
        raise DomainError(f"deformation parameter must be positive, got {mu}")


def _convergence_error(max_terms: int, what: str, **context: float) -> ConvergenceError:
    """The failure of a sum of ``what`` that used its whole ``max_terms`` budget."""
    args = ", ".join(f"{name}={val}" for name, val in context.items())
    return ConvergenceError(f"{what} did not converge within {max_terms} terms ({args})")


def _converged(summed: tuple[float, float, int], max_terms: int, what: str,
               **context: float) -> tuple[float, float]:
    """(value, error) of a kernel sum (value, error, terms_used).

    A sum that used its whole ``max_terms`` budget stopped on the budget,
    not on its tolerance, and raises ConvergenceError naming ``what`` and
    the ``context`` arguments.
    """
    value, err, used = summed
    if used >= max_terms:
        raise _convergence_error(max_terms, what, **context)
    return value, err
