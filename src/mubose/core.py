"""Thermal averages and correlation intercepts of the mu-Bose gas.

Modes are independent deformed oscillators with structure function
phi(N) = N / (1 + mu N) and energy sqrt(m^2 + k^2), so every observable
of one mode depends on the single combination alpha = sqrt(m^2+k^2)/T
(natural units, MeV).  The r-particle intercept is

    lambda^(r) = <(a+)^r a^r> / <a+ a>^r - 1,

with the moments evaluated either through the partial-fraction/Lerch
closed form or through direct series summation (the oracle); both
routes live in the kernel backend and are kept deliberately independent
so they can validate each other.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

from ._backend import kernels
from .errors import (
    MAX_TERMS,
    DomainError,
    PoleError,
    _check_alpha,
    _check_mu,
    _check_order,
    _check_tol,
    _converged,
)

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-12

#: double-precision unit roundoff, used in reported error bounds
DBL_EPS = sys.float_info.epsilon

#: method tags carried by CorrelationResult
CLOSED_FORM = "closed_form"
ORACLE = "oracle"
ASYMPTOTIC = "asymptotic"

#: below mean^r = UNDERFLOW_FLOOR the intercept ratio is 0/0 in doubles
#: and the asymptotic value is returned instead
UNDERFLOW_FLOOR = 1e-280

#: safety margin applied to the closed-form conditioning estimate
_CONDITION_SAFETY = 32.0

#: relative tolerance for recognising 1/mu as an integer (pole of the
#: defining series when that integer is <= r-1)
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class DeformationMu:
    """Deformation strength mu >= 0 of the structure function."""

    mu: float

    def __post_init__(self) -> None:
        _check_mu(self.mu)


@dataclass(frozen=True)
class ThermoPoint:
    """Temperature and mode kinematics fixing alpha = sqrt(m^2+k^2)/T."""

    temperature: float
    momentum: float
    mass: float

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0) or not math.isfinite(self.temperature):
            raise DomainError(f"temperature must be positive, got {self.temperature}")
        if not (self.momentum >= 0.0) or not math.isfinite(self.momentum):
            raise DomainError(f"momentum must be >= 0, got {self.momentum}")
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise DomainError(f"mass must be positive, got {self.mass}")

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


def mu_bracket(n: float, mu: float) -> float:
    """Structure function phi(n) = n / (1 + mu n)."""
    if not (n >= 0.0) or not math.isfinite(n):
        raise DomainError(f"occupation argument must be >= 0, got {n}")
    _check_mu(mu)
    return n / (1.0 + mu * n)


def mu_factorial(r: int, mu: float) -> float:
    """Deformed factorial prod_{j=1}^{r} j / (1 + mu j)."""
    _check_order(r)
    _check_mu(mu)
    out = 1.0
    for j in range(1, r + 1):
        out *= j / (1.0 + mu * j)
    return out


def closed_form_admissible(mu: float, r: int) -> bool:
    """True when the Lerch closed form is defined: mu < 1/(r-1) for r >= 2."""
    if r < 2 or mu == 0.0:
        return True
    return mu < 1.0 / (r - 1)


def _closed_condition(mu: float, r: int) -> float:
    """Cancellation amplification of the closed-form sum, ~mu^(2-2r).

    A power beyond the double range (mu near 0) is infinitely ill
    conditioned, so the closed form is never chosen there.
    """
    if r < 2:
        return 1.0
    try:
        scale = mu ** (2 - 2 * r)
    except OverflowError:
        return math.inf
    kappa = scale * 2.0 ** (r - 1) / (math.factorial(r - 1) * math.factorial(r))
    return max(kappa, 1.0)


def _closed_is_reliable(mu: float, r: int, rtol: float) -> bool:
    return _closed_condition(mu, r) * kernels.EPS * _CONDITION_SAFETY <= rtol


def _series_pole(mu: float, r: int) -> bool:
    """Defining series has a pole when 1/mu is an integer <= r - 1."""
    if mu <= 0.0 or r < 2:
        return False
    inv = 1.0 / mu
    nearest = round(inv)
    return 1 <= nearest <= r - 1 and abs(inv - nearest) <= _POLE_TOL * inv


def _closed_sum(mu: float, alpha: float, r: int, rtol: float) -> tuple[float, float]:
    return _converged(kernels.closed_moment_sum(mu, alpha, r, rtol, 0.0, MAX_TERMS),
                      MAX_TERMS, "closed-form moment", mu=mu, alpha=alpha, r=r)


def _oracle_sum(mu: float, alpha: float, r: int, rtol: float) -> tuple[float, float]:
    return _converged(kernels.oracle_moment_sum(mu, alpha, r, rtol, 0.0, MAX_TERMS),
                      MAX_TERMS, "oracle moment", mu=mu, alpha=alpha, r=r)


def mean_occupation(d: DeformationMu | float, alpha: float,
                    tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Average occupation <a+ a> of one mode.

    mu = 0 reduces to the Bose-Einstein value 1/(e^alpha - 1); mu > 0 is
    the Lerch closed form mu^-1 - mu^-2 (1 - e^-alpha) Phi(e^-alpha, 1, 1/mu),
    evaluated through its cancellation-free rearrangement.
    """
    mu = _as_mu(d)
    _check_alpha(alpha)
    _check_tol(tol)
    if mu == 0.0:
        value = 1.0 / math.expm1(alpha)
        return CorrelationResult(value, 4.0 * DBL_EPS * value, CLOSED_FORM)
    value, err = _closed_sum(mu, alpha, 1, tol)
    return CorrelationResult(value, err, CLOSED_FORM)


def r_moment(d: DeformationMu | float, alpha: float, r: int,
             tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Normalised r-th moment <(a+)^r a^r>.

    Uses the partial-fraction/Lerch closed form whenever it is both
    defined (mu < 1/(r-1)) and well conditioned at the requested
    tolerance; otherwise the direct series takes over and the result is
    tagged ``oracle``.  mu = 0 is exactly r! / (e^alpha - 1)^r.
    """
    mu = _as_mu(d)
    _check_alpha(alpha)
    _check_order(r)
    _check_tol(tol)
    if mu == 0.0:
        base = 1.0 / math.expm1(alpha)
        value = math.factorial(r) * base**r
        return CorrelationResult(value, 4.0 * (r + 1) * DBL_EPS * value, CLOSED_FORM)
    if not closed_form_admissible(mu, r):
        raise DomainError(
            f"closed form requires mu < 1/(r-1) = {1.0 / (r - 1)} for r={r}, "
            f"got mu={mu}; use oracle_moment instead"
        )
    if _closed_is_reliable(mu, r, tol):
        value, err = _closed_sum(mu, alpha, r, tol)
        return CorrelationResult(value, err, CLOSED_FORM)
    value, err = _oracle_sum(mu, alpha, r, tol)
    return CorrelationResult(value, err, ORACLE)


def oracle_moment(d: DeformationMu | float, alpha: float, r: int,
                  tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Brute-force r-th moment (1-z) sum_n z^n prod_{l<r} phi(n-l)."""
    mu = _as_mu(d)
    _check_alpha(alpha)
    _check_order(r)
    _check_tol(tol)
    if _series_pole(mu, r):
        raise PoleError(
            f"1/mu = {1.0 / mu:.6g} is an integer <= r-1 = {r - 1}; "
            "the defining series has a pole"
        )
    value, err = _oracle_sum(mu, alpha, r, tol)
    return CorrelationResult(value, err, ORACLE)


def intercept_asymptotic(d: DeformationMu | float, r: int) -> float:
    """Large-alpha limit (1+mu)^r [r]_mu! - 1 of the intercept."""
    mu = _as_mu(d)
    _check_order(r)
    return (1.0 + mu) ** r * mu_factorial(r, mu) - 1.0


def intercept(d: DeformationMu | float, alpha: float, r: int,
              tol: float = DEFAULT_TOL, method: str = "auto") -> CorrelationResult:
    """r-particle correlation intercept lambda^(r) = moment/mean^r - 1.

    Parameters
    ----------
    method : {"auto", "closed", "oracle"}
        ``auto`` prefers the closed form and falls back to the series
        oracle when the closed form is undefined or too ill-conditioned
        for ``tol``; ``closed`` and ``oracle`` force one route (the
        forced closed route still requires mu < 1/(r-1)).

    Notes
    -----
    mu = 0 returns exactly r! - 1.  When the occupation has decayed so
    far that moment and mean^r would both underflow (mean^r below
    ``UNDERFLOW_FLOOR``) the asymptotic value is returned with method
    tag ``asymptotic``.
    """
    mu = _as_mu(d)
    _check_alpha(alpha)
    _check_order(r, minimum=2)
    _check_tol(tol)
    if method not in ("auto", "closed", "oracle"):
        raise DomainError(f"unknown method {method!r}")
    if mu == 0.0:
        value = float(math.factorial(r) - 1)
        return CorrelationResult(value, 0.0, CLOSED_FORM)

    admissible = closed_form_admissible(mu, r)
    if method == "closed" and not admissible:
        raise DomainError(
            f"closed form requires mu < 1/(r-1) = {1.0 / (r - 1)} for r={r}, "
            f"got mu={mu}"
        )

    use_closed = method == "closed" or (
        method == "auto" and admissible and _closed_is_reliable(mu, r, tol)
    )
    if not use_closed and _series_pole(mu, r):
        raise PoleError(
            f"1/mu = {1.0 / mu:.6g} is an integer <= r-1 = {r - 1}; "
            "the defining series has a pole and no evaluation route exists"
        )

    part_tol = tol / (2.0 * (r + 1))
    summer = _closed_sum if use_closed else _oracle_sum
    mean_val, mean_err = summer(mu, alpha, 1, part_tol)

    if mean_val <= 0.0 or r * math.log(mean_val) < math.log(UNDERFLOW_FLOOR):
        value = intercept_asymptotic(mu, r)
        err = (value + 1.0) * (r * r + r) * max(mean_val, 0.0) + 8.0 * DBL_EPS * (abs(value) + 1.0)
        log.info(
            "intercept(mu=%g, alpha=%g, r=%d): occupation underflow, returning asymptotic value",
            mu, alpha, r,
        )
        return CorrelationResult(value, err, ASYMPTOTIC)

    mom_val, mom_err = summer(mu, alpha, r, part_tol)
    ratio = mom_val / mean_val**r
    value = ratio - 1.0
    err = ratio * (mom_err / mom_val + r * mean_err / mean_val) + 8.0 * DBL_EPS * ratio
    return CorrelationResult(value, err, CLOSED_FORM if use_closed else ORACLE)


def _merge_method(*methods: str) -> str:
    if ASYMPTOTIC in methods:
        return ASYMPTOTIC
    if ORACLE in methods:
        return ORACLE
    return CLOSED_FORM


def _r3_combine(l2: float, l3: float) -> float:
    return (l3 - 3.0 * l2) / (2.0 * l2**1.5)


def r3_function(d: DeformationMu | float, alpha: float,
                tol: float = DEFAULT_TOL, method: str = "auto") -> CorrelationResult:
    """Normalised three-particle combination (lambda3 - 3 lambda2) / (2 lambda2^(3/2))."""
    sub_tol = tol / 16.0
    lam2 = intercept(d, alpha, 2, sub_tol, method)
    lam3 = intercept(d, alpha, 3, sub_tol, method)
    if lam2.value <= 0.0:
        raise DomainError(f"lambda2 = {lam2.value} is not positive; r3 undefined")
    value = _r3_combine(lam2.value, lam3.value)
    d3 = 1.0 / (2.0 * lam2.value**1.5)
    d2 = -3.0 / (2.0 * lam2.value**1.5) - 3.0 * (lam3.value - 3.0 * lam2.value) / (
        4.0 * lam2.value**2.5
    )
    err = abs(d3) * lam3.error_bound + abs(d2) * lam2.error_bound + 8.0 * DBL_EPS * (
        abs(value) + 1.0
    )
    return CorrelationResult(value, err, _merge_method(lam2.method, lam3.method))


def r3_asymptotic(d: DeformationMu | float) -> float:
    """Large-alpha limit of :func:`r3_function` (asymptotic intercepts substituted)."""
    l2 = intercept_asymptotic(d, 2)
    l3 = intercept_asymptotic(d, 3)
    return _r3_combine(l2, l3)
