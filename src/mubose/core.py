"""Thermal averages and correlation intercepts of the mu-Bose gas.

Modes are independent deformed oscillators with structure function
phi(N) = N / (1 + mu N) and energy sqrt(m^2 + k^2), so every observable
of one mode depends on the single combination alpha = sqrt(m^2+k^2)/T
(natural units, MeV).  The r-particle intercept is

    lambda^(r) = <(a+)^r a^r> / <a+ a>^r - 1,

with the moments evaluated either through the partial-fraction/Lerch
closed form or through direct series summation (the oracle); both
routes live in the kernel module and are kept deliberately independent
so they can validate each other.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

from ._backend import kernels
from .errors import (
    DBL_EPS,
    MAX_TERMS,
    ConvergenceError,
    DomainError,
    _check_alpha,
    _check_mu,
    _check_order,
    _check_tol,
    _converged,
)

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-12

#: method tags carried by CorrelationResult
CLOSED_FORM = "closed_form"
ORACLE = "oracle"
ASYMPTOTIC = "asymptotic"

#: below mean^r = UNDERFLOW_FLOOR the intercept ratio is 0/0 in doubles
#: and the asymptotic value is returned instead
UNDERFLOW_FLOOR = 1e-280

#: smallest positive double, the absolute error of a rounding that underflows
_TINY = math.ulp(0.0)

#: safety margin applied to the closed-form roundoff estimate
_CONDITION_SAFETY = 2.0

#: largest bound-to-size ratio of lambda2, and of lambda3 - lambda2, at which
#: the r3 bound is propagated linearly (see _check_linear)
_R3_LINEAR = 2.0**-10


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


def _route(kind: str, mu: float, r: int, tol: float, method: str) -> bool | None:
    """Route of a whole curve: True closed form, False oracle, None exact (mu = 0).

    Both routes hold for every mu > 0.  The kernel bounds the closed
    form's roundoff by EPS (2r+6) times its sum of absolute terms, and
    the first term's ratio of that sum to the value,
    ``kernels.closed_condition``, estimates the ratio of the whole sum.
    ``auto`` takes the closed form wherever that estimate puts the
    roundoff within half of ``tol``, and the oracle elsewhere;
    :func:`oracle_moment` always takes the oracle.  A forced closed form
    whose estimate is infinite cannot be formed and raises.  The route
    depends only on (kind, mu, r, tol, method), so a curve decides it
    once, and the DomainError raised here concerns every point.
    """
    if kind == "mean":
        _check_tol(tol)
        return None if mu == 0.0 else True
    _check_order(r, minimum=2 if kind == "intercept" else 1)
    _check_tol(tol)
    if kind == "series":
        return False
    if kind == "intercept" and method not in ("auto", "closed", "oracle"):
        raise DomainError(f"unknown method {method!r}")
    if mu == 0.0:
        return None
    if method == "oracle":
        return False
    kappa = kernels.closed_condition(mu, r)
    if method == "closed":
        if kappa == math.inf:
            raise DomainError(f"the closed form at mu={mu}, r={r} cancels beyond the "
                              "double range; use the oracle")
        return True
    return kappa * kernels.EPS * (2 * r + 6) * _CONDITION_SAFETY <= tol


def _sums(mu: float, alphas: list[float], r: int, rtol: float,
          closed: bool) -> list[tuple[float, float] | ConvergenceError]:
    """(value, error) of the r-th moment at each alpha in one kernel call.

    A sum also stops once its tail is below ``_TINY``, which no double
    result can resolve: a moment below the long-double range sums to 0,
    so no relative test could stop it.  Each bound adds ``_TINY``, the
    absolute error of a value that underflows as it is rounded to a
    double.  A point whose sum used the whole term budget gets its
    ConvergenceError.
    """
    if closed:
        summed = kernels.closed_moment_sums(mu, alphas, r, rtol, _TINY, MAX_TERMS)
        what = "closed-form moment"
    else:
        summed = kernels.oracle_moment_sums(mu, alphas, r, rtol, _TINY, MAX_TERMS)
        what = "oracle moment"
    out: list[tuple[float, float] | ConvergenceError] = []
    for alpha, point in zip(alphas, summed):
        try:
            value, err = _converged(point, MAX_TERMS, what, mu=mu, alpha=alpha, r=r)
            out.append((value, err + _TINY))
        except ConvergenceError as exc:
            out.append(exc)
    return out


def _exact(kind: str, alpha: float, r: int) -> CorrelationResult:
    """The mu = 0 (Bose-Einstein) value of a mean, moment or intercept.

    Where e^alpha - 1 overflows, 1/(e^alpha - 1) is e^-alpha to double
    precision.  Results in or below the subnormal range are rounded to a
    grid of spacing ``_TINY``, so each bound adds that absolute error,
    times (r+1)! for the r! / (e^alpha - 1)^r of a moment.
    """
    if kind == "intercept":
        return CorrelationResult(float(math.factorial(r) - 1), 0.0, CLOSED_FORM)
    try:
        base = 1.0 / math.expm1(alpha)
    except OverflowError:
        base = math.exp(-alpha)
    if kind == "mean":
        return CorrelationResult(base, 4.0 * DBL_EPS * base + _TINY, CLOSED_FORM)
    value = math.factorial(r) * base**r
    err = 4.0 * (r + 1) * DBL_EPS * value + math.factorial(r + 1) * _TINY
    return CorrelationResult(value, err, CLOSED_FORM)


_Outcome = CorrelationResult | DomainError | ConvergenceError


def _curve(kind: str, d: DeformationMu | float, alphas: Sequence[float], r: int,
           tol: float, method: str = "auto") -> list[_Outcome]:
    """One result per alpha of a curve at fixed (mu, r, tol, method).

    ``kind`` is ``"mean"`` (<a+ a>; ``r`` is not used), ``"moment"``
    (:func:`r_moment`), ``"series"`` (:func:`oracle_moment`) or
    ``"intercept"`` (:func:`intercept`).  Each series is summed for all
    points in one kernel call.  An invalid mu raises.  Every other
    failure is returned in the slot of its point, in the precedence of a
    one-point call: an invalid alpha, then the route's DomainError (an
    invalid order, tolerance or method), then the point's
    ConvergenceError.  Every mu > 0 has a value on both routes.
    """
    mu = _as_mu(d)
    out: list = [None] * len(alphas)
    todo = []
    for i, alpha in enumerate(alphas):
        try:
            _check_alpha(alpha)
        except DomainError as exc:
            out[i] = exc
        else:
            todo.append(i)
    try:
        closed = _route(kind, mu, r, tol, method)
    except DomainError as exc:
        for i in todo:
            out[i] = exc
        return out
    if closed is None:
        for i in todo:
            out[i] = _exact(kind, alphas[i], r)
        return out
    tag = CLOSED_FORM if closed else ORACLE
    if kind != "intercept":
        order = 1 if kind == "mean" else r
        summed = _sums(mu, [alphas[i] for i in todo], order, tol, closed)
        for i, point in zip(todo, summed):
            if not isinstance(point, ConvergenceError):
                point = CorrelationResult(*point, tag)
            out[i] = point
        return out

    part_tol = tol / (2.0 * (r + 1))
    means = []
    for i, point in zip(todo, _sums(mu, [alphas[i] for i in todo], 1, part_tol, closed)):
        if isinstance(point, ConvergenceError):
            out[i] = point
            continue
        mean_val, mean_err = point
        if mean_val <= 0.0 or r * math.log(mean_val) < math.log(UNDERFLOW_FLOOR):
            value = intercept_asymptotic(mu, r)
            err = ((value + 1.0) * (r * r + r) * max(mean_val, 0.0)
                   + 8.0 * DBL_EPS * (abs(value) + 1.0))
            log.info("intercept(mu=%g, alpha=%g, r=%d): occupation underflow, "
                     "returning asymptotic value", mu, alphas[i], r)
            out[i] = CorrelationResult(value, err, ASYMPTOTIC)
        else:
            means.append((i, mean_val, mean_err))
    moments = _sums(mu, [alphas[i] for i, _, _ in means], r, part_tol, closed)
    for (i, mean_val, mean_err), point in zip(means, moments):
        if isinstance(point, ConvergenceError):
            out[i] = point
            continue
        mom_val, mom_err = point
        ratio = mom_val / mean_val**r
        value = ratio - 1.0
        err = ratio * (mom_err / mom_val + r * mean_err / mean_val) + 8.0 * DBL_EPS * ratio
        out[i] = CorrelationResult(value, err, tag)
    return out


def _point(outcomes: list[_Outcome]) -> CorrelationResult:
    """The result of a one-point curve, raising its failure."""
    res = outcomes[0]
    if not isinstance(res, CorrelationResult):
        raise res
    return res


def mean_occupation(d: DeformationMu | float, alpha: float,
                    tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Average occupation <a+ a> of one mode.

    mu = 0 reduces to the Bose-Einstein value 1/(e^alpha - 1); mu > 0 is
    the Lerch closed form mu^-1 - mu^-2 (1 - e^-alpha) Phi(e^-alpha, 1, 1/mu),
    evaluated through its cancellation-free rearrangement.
    """
    return _point(_curve("mean", d, (alpha,), 1, tol))


def r_moment(d: DeformationMu | float, alpha: float, r: int,
             tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Normalised r-th moment <(a+)^r a^r>.

    Uses the partial-fraction/Lerch closed form, which holds for every
    mu > 0, wherever it is well conditioned at the requested tolerance;
    otherwise the direct series takes over and the result is tagged
    ``oracle``.  mu = 0 is exactly r! / (e^alpha - 1)^r.
    """
    return _point(_curve("moment", d, (alpha,), r, tol))


def oracle_moment(d: DeformationMu | float, alpha: float, r: int,
                  tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Brute-force r-th moment (1-z) sum_n z^n prod_{l<r} phi(n-l)."""
    return _point(_curve("series", d, (alpha,), r, tol))


def intercept_asymptotic(d: DeformationMu | float, r: int) -> float:
    """Large-alpha limit (1+mu)^r [r]_mu! - 1 of the intercept.

    For mu >= 1 the limit falls like r(r-1)/(4 mu), so the printed form
    cancels toward rounding noise as mu grows (and (1+mu)^r overflows at
    huge mu).  There it is evaluated as prod_{j<=r} j(1+mu)/(1+mu j) - 1, written as
    expm1(sum_j log1p((j-1)/(1+mu j))) so that it neither overflows nor
    cancels.
    """
    mu = _as_mu(d)
    _check_order(r)
    if mu >= 1.0:
        return math.expm1(math.fsum(math.log1p((j - 1) / (1.0 + mu * j))
                                    for j in range(2, r + 1)))
    return (1.0 + mu) ** r * mu_factorial(r, mu) - 1.0


def intercept(d: DeformationMu | float, alpha: float, r: int,
              tol: float = DEFAULT_TOL, method: str = "auto") -> CorrelationResult:
    """r-particle correlation intercept lambda^(r) = moment/mean^r - 1.

    Parameters
    ----------
    method : {"auto", "closed", "oracle"}
        ``auto`` takes the closed form, which holds for every mu > 0,
        wherever it is well conditioned for ``tol`` and the series oracle
        elsewhere; ``closed`` and ``oracle`` force one route, for
        cross-checks.

    Notes
    -----
    mu = 0 returns exactly r! - 1.  When the occupation has decayed so
    far that moment and mean^r would both underflow (mean^r below
    ``UNDERFLOW_FLOOR``) the asymptotic value is returned with method
    tag ``asymptotic``.
    """
    return _point(_curve("intercept", d, (alpha,), r, tol, method))


def _merge_method(*methods: str) -> str:
    if ASYMPTOTIC in methods:
        return ASYMPTOTIC
    if ORACLE in methods:
        return ORACLE
    return CLOSED_FORM


def _r3_combine(l2: float, l3: float) -> float:
    return (l3 - 3.0 * l2) / (2.0 * l2**1.5)


def _check_lambda2(l2: float, power: float, what: str) -> None:
    """r3 divides by lambda2^power, which must be a positive double."""
    if not l2 > 0.0:
        raise DomainError(f"{what} = {l2} is not positive; r3 undefined")
    if not l2**power > 0.0:
        raise DomainError(f"{what} = {l2} underflows lambda2^{power}; r3 undefined")


def _check_linear(lam2: CorrelationResult, lam3: CorrelationResult) -> None:
    """The r3 bound is linear in the lambda bounds, which must be small.

    r3 = lambda3 / (2 lambda2^(3/2)) - (3/2) lambda2^(-1/2) has the partial
    derivatives 1 / (2 lambda2^(3/2)) and (3/4)(lambda2 - lambda3) / lambda2^(5/2).
    By the mean value theorem the change of r3 to any point of the box
    |d lambda2| <= e2, |d lambda3| <= e3 is the linear form with the
    derivatives taken somewhere in the box, so it is at most the linear
    bound times the largest ratio of a derivative there to its value at
    the centre.  Where e2 <= t lambda2 and e2 + e3 <= t |lambda3 - lambda2|
    that ratio is at most (1 - t)^(-5/2) (1 + t), below 1.0035 at
    t = 2^-10: the linear bound holds to within 0.35%.  Beyond that it can
    fail by any factor: at mu = 1e100 the oracle's lambda2 is rounding
    noise, its bound 68 times its value.
    """
    e2, e3 = lam2.error_bound, lam3.error_bound
    if not (e2 <= _R3_LINEAR * lam2.value
            and e2 + e3 <= _R3_LINEAR * abs(lam3.value - lam2.value)):
        raise DomainError(
            f"lambda2 = {lam2.value} +- {e2} and lambda3 = {lam3.value} +- {e3} are "
            "too uncertain for a linear error bound; r3 undefined")


def _r3_curve(d: DeformationMu | float, alphas: Sequence[float], tol: float,
              method: str = "auto") -> list[_Outcome]:
    """:func:`r3_function` at every alpha, failures in their slots as in :func:`_curve`."""
    sub_tol = tol / 16.0
    out = _curve("intercept", d, alphas, 2, sub_tol, method)
    todo = [i for i, lam2 in enumerate(out) if isinstance(lam2, CorrelationResult)]
    lam3s = _curve("intercept", d, [alphas[i] for i in todo], 3, sub_tol, method)
    for i, lam3 in zip(todo, lam3s):
        lam2 = out[i]
        if not isinstance(lam3, CorrelationResult):
            out[i] = lam3
            continue
        try:
            _check_lambda2(lam2.value, 2.5, "lambda2")
            _check_linear(lam2, lam3)
        except DomainError as exc:
            out[i] = exc
            continue
        value = _r3_combine(lam2.value, lam3.value)
        d3 = 1.0 / (2.0 * lam2.value**1.5)
        d2 = -3.0 / (2.0 * lam2.value**1.5) - 3.0 * (lam3.value - 3.0 * lam2.value) / (
            4.0 * lam2.value**2.5
        )
        err = abs(d3) * lam3.error_bound + abs(d2) * lam2.error_bound + 8.0 * DBL_EPS * (
            abs(value) + 1.0
        )
        out[i] = CorrelationResult(value, err, _merge_method(lam2.method, lam3.method))
    return out


def r3_function(d: DeformationMu | float, alpha: float,
                tol: float = DEFAULT_TOL, method: str = "auto") -> CorrelationResult:
    """Normalised three-particle combination (lambda3 - 3 lambda2) / (2 lambda2^(3/2))."""
    return _point(_r3_curve(d, (alpha,), tol, method))


def r3_asymptotic(d: DeformationMu | float) -> float:
    """Large-alpha limit of :func:`r3_function` (asymptotic intercepts substituted)."""
    l2 = intercept_asymptotic(d, 2)
    l3 = intercept_asymptotic(d, 3)
    _check_lambda2(l2, 1.5, "lambda2 asymptote")
    return _r3_combine(l2, l3)
