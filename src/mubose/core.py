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

import functools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from ._types import (
    ASYMPTOTIC,
    CLOSED_FORM,
    DEFAULT_TOL,
    ORACLE,
    CorrelationResult,
    DeformationMu,
    ThermoPoint,  # noqa: F401  (core.ThermoPoint stays a public name)
    _as_mu,
)
from .errors import (
    DBL_EPS,
    EXPANSION_REACH,
    MAX_TERMS,
    ConvergenceError,
    DomainError,
    _beyond_range,
    _check_alpha,
    _check_mu,
    _check_order,
    _check_tol,
    _convergence_error,
)

log = logging.getLogger(__name__)

#: a curve's method codes index this tuple.  The order ranks the tags: a
#: value formed from two results takes the larger of their two codes.
_METHODS = (CLOSED_FORM, ORACLE, ASYMPTOTIC, "failed")
_FAILED = _METHODS.index("failed")

#: below mean^r = UNDERFLOW_FLOOR the intercept ratio is 0/0 in doubles
#: and the asymptotic value is returned instead
UNDERFLOW_FLOOR = 1e-280

#: smallest positive double, the absolute error of a rounding that underflows
_TINY = math.ulp(0.0)

#: safety margin applied to the closed-form roundoff estimate
_CONDITION_SAFETY = 2.0

#: largest bound-to-size ratio of lambda2, and of lambda3 - lambda2, at which
#: the r3 bound is propagated linearly (see _r3_usable)
_R3_LINEAR = 2.0**-10


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


def _route(kind: str, mu: float, r: int, tol: float, method: str) -> str | None:
    """Route of a whole curve of any kind: ``auto``, ``closed``, ``oracle``, or None for exact.

    Validates the order (an intercept's is at least 2), the tolerance and
    the method, and raises the DomainError that concerns every point.
    mu = 0 is exact unless the method is ``oracle``, which never takes a closed form.
    """
    _check_order(r, minimum=2 if kind == "intercept" else 1)
    _check_tol(tol)
    if method not in ("auto", "closed", "oracle"):
        raise DomainError(f"unknown method {method!r}")
    return None if mu == 0.0 and method != "oracle" else method


def _series_closed(mu: float, r: int, tol: float, route: str) -> bool:
    """Whether a curve's points that need a series take the closed series.

    Both series hold for every mu > 0.  The kernel bounds the closed
    series' roundoff by EPS (2r+6) times its sum of absolute terms, and
    the first term's ratio of that sum to the value,
    ``kernels.closed_condition``, estimates the ratio of the whole sum.
    ``auto`` takes the closed series wherever that estimate puts the
    roundoff within half of ``tol``, and the oracle elsewhere.  A forced
    closed series whose estimate is infinite cannot be formed and raises.
    """
    if route == "oracle":
        return False
    kappa = kernels.closed_condition(mu, r)
    if route == "closed":
        if kappa == math.inf:
            raise DomainError(f"the closed form at mu={mu}, r={r} cancels beyond the "
                              "double range; use the oracle")
        return True
    return kappa * kernels.EPS * (2 * r + 6) * _CONDITION_SAFETY <= tol


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` at every element of ``x``, evaluated by Python's math as a one-point call is.

    numpy vectorises log, expm1 and power apart from the C library, and
    their results can differ from it in the last bit, which can change a
    printed digit.  +, -, *, / and comparisons round alike in both.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


@dataclass(frozen=True)
class _Curve:
    """The results of a curve as arrays, one slot per alpha.

    ``method`` holds each point's index into ``_METHODS``.  A failed point
    keeps its slot with a nan value and bound and the method ``failed``;
    its DomainError or ConvergenceError is in ``failures`` under its index.
    """

    value: np.ndarray
    error_bound: np.ndarray
    method: np.ndarray
    failures: dict[int, DomainError | ConvergenceError]

    @classmethod
    def empty(cls, size: int) -> _Curve:
        """A curve whose every slot awaits a result or a failure."""
        return cls(np.full(size, np.nan), np.full(size, np.nan),
                   np.full(size, _FAILED, dtype=np.int8), {})

    def put(self, idx: np.ndarray, value, error_bound, method: int) -> None:
        self.value[idx] = value
        self.error_bound[idx] = error_bound
        self.method[idx] = method

    def fail(self, idx, exc: DomainError | ConvergenceError) -> None:
        """Fail the slot ``idx``, or every slot of an index array, with ``exc``."""
        self.put(idx, np.nan, np.nan, _FAILED)
        self.failures.update(dict.fromkeys(np.atleast_1d(idx).tolist(), exc))


def _beyond_budget(mu: float, a: Sequence[float], r: int, rtol: float,
                   closed: bool) -> np.ndarray:
    """Where a series sum at ``a`` cannot pass its stopping test within ``MAX_TERMS`` - 1 terms.

    Such a sum would run to its budget and then fail, so it is failed
    without summing.  Let n = MAX_TERMS - 1 and z = e^-alpha.  Both kernels
    stop after t terms once g tail_t <= max(atol, rtol |partial value|),
    and tail_t falls with t, so no t <= n passes where a lower bound of
    tail_n exceeds twice an upper bound of the right side (the factor 2
    absorbs rounding):

    - oracle: the tail after term r+n-1 is
      (r+n)^r z^(r+n) / (1 - rho) >= (r+n)^r z^(r+n), times g = 1 - z; each
      product of r structure functions is below mu^-r and g sum_n z^n <= 1,
      so the partial value is below mu^-r (no bound at mu = 0); each product
      at term m is also at most m^r, so the partial value is also at most
      g (r+n)^(r+1).  The smaller bound is taken.
    - closed form: the tail is K mu^(2-2r) z^(r+n) / ((1+mu(n+1))(1+mu n) g)
      with K = sum_l |Atilde_l|, and g = 1.  The partial value is at most
      mu^(2-2r) sum_m z^m sum_l |Atilde_l| / ((1+mu(m-l))(1+mu(m-l-1))),
      below K mu^(2-2r) min(1/g, 1 + 1/mu), since each denominator is at
      least (1+mu j)^2 for j = m - r and sum_j (1+mu j)^-2 <= 1 + 1/mu.
      ``closed_condition`` kappa divides mu^(2-2r) times those r
      quotients at m = r by [r]_mu!, and their denominators lie in
      [1, (1+mu r)(1+mu(r-1))], so
      kappa [r]_mu! <= K mu^(2-2r) <= kappa [r]_mu! (1+mu r)(1+mu(r-1)).

    Where every alpha (r + n) >= 2000 no sum is failed, and nothing is
    computed: there ln tail_n < -800, below ln(2 TINY) = -743.7, because
    kappa < 2^1024, [r]_mu! <= 64!, -ln g < 12 and r ln(r + n) < 1180.
    """
    a, n = np.asarray(a, dtype=float), MAX_TERMS - 1
    if not a.size or a.min() >= 2000.0 / (r + n):
        return np.zeros(a.size, dtype=bool)
    log_g = np.log(-np.expm1(-a))
    if closed:
        kappa = kernels.closed_condition(mu, r)
        if kappa == math.inf:
            return np.zeros(a.size, dtype=bool)
        low = math.log(kappa) + math.fsum(math.log(j) - math.log1p(mu * j)
                                          for j in range(1, r + 1))
        high = low + math.log1p(mu * r) + math.log1p(mu * (r - 1))
        log_tail = low - a * (r + n) - math.log1p(mu * (n + 1)) - math.log1p(mu * n) - log_g
        log_size = high + np.minimum(-log_g, math.log1p(1.0 / mu))
    else:
        log_tail = log_g + r * math.log(r + n) - a * (r + n)
        log_size = log_g + (r + 1) * math.log(r + n)
        if mu > 0.0:
            log_size = np.minimum(log_size, -r * math.log(mu))
    return log_tail > math.log(2.0) + np.maximum(math.log(_TINY), math.log(rtol) + log_size)


def _sums(mu: float, alphas: np.ndarray, todo: np.ndarray, r: int, rtol: float, route: str,
          series, curve: _Curve) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(value, error, method code, converged) of the r-th moment at ``alphas[todo]``.

    Unless the route is ``oracle``, each point with
    alpha (1/mu + r) <= EXPANSION_REACH is first taken from the z -> 1
    expansion (``kernels.closed_moment_expansion``), whose cost does not
    grow as alpha falls; a point whose bound meets rtol |value| plus the
    final rounding to double keeps it, tagged closed form.  The points
    left are summed in one call of the series that ``series()`` names
    (:func:`_series_closed`, rated once the expansion has taken its
    points); where it raises, they fail with its DomainError.

    A series sum also stops once its tail is below ``_TINY``, which no
    double result can resolve: a moment below the long-double range sums
    to 0, so no relative test could stop it.  Each bound adds ``_TINY``,
    the absolute error of a value that underflows as it is rounded to a
    double.  A point whose sum would use, or used, the whole term budget
    has not converged (see :func:`_beyond_budget`), and its slot of
    ``curve`` fails with a ConvergenceError.
    """
    a = alphas[todo]
    value, err = np.empty(a.size), np.empty(a.size)
    code = np.full(a.size, _METHODS.index(CLOSED_FORM), dtype=np.int8)
    converged = np.ones(a.size, dtype=bool)
    rest = np.arange(a.size)
    if route != "oracle":
        # at a huge alpha and a tiny mu the product overflows to inf, out of reach
        with np.errstate(over="ignore"):
            near = np.flatnonzero(a * (1.0 / mu + r) <= EXPANSION_REACH)
        if near.size:
            v, e, _ = kernels.closed_moment_expansion(mu, a[near], r)
            ok = e <= np.maximum(_TINY, (rtol + DBL_EPS) * np.abs(v))
            value[near[ok]], err[near[ok]] = v[ok], e[ok]
            rest = np.setdiff1d(rest, near[ok], assume_unique=True)
    if not rest.size:
        return value, err + _TINY, code, converged
    try:
        closed = series()
    except DomainError as exc:
        curve.fail(todo[rest], exc)
        converged[rest] = False
        return value, err + _TINY, code, converged
    if closed:
        sums, what = kernels.closed_moment_sums, "closed-form moment"
    else:
        sums, what = kernels.oracle_moment_sums, "oracle moment"
        code[rest] = _METHODS.index(ORACLE)
    hopeless = _beyond_budget(mu, a[rest], r, rtol, closed)
    run = rest[~hopeless]
    converged[rest[hopeless]] = False
    if run.size:
        value[run], err[run], terms = sums(mu, a[run], r, rtol, _TINY, MAX_TERMS)
        converged[run[terms >= MAX_TERMS]] = False
    for i in np.flatnonzero(~converged).tolist():
        curve.fail(int(todo[i]), _convergence_error(MAX_TERMS, what, mu=mu, alpha=float(a[i]), r=r))
    return value, err + _TINY, code, converged


def _bose(alpha: float) -> float:
    """1 / (e^alpha - 1); where e^alpha - 1 overflows, e^-alpha to double precision."""
    try:
        return 1.0 / math.expm1(alpha)
    except OverflowError:
        return math.exp(-alpha)


def _pow(b: float, r: int) -> float:
    """b**r, inf where it overflows the double range."""
    try:
        return b**r
    except OverflowError:
        return math.inf


def _exact(kind: str, alphas: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The mu = 0 (Bose-Einstein) value and bound of a moment or intercept.

    The mean (r = 1) is 1/(e^alpha - 1) to 4 EPS.  Results in or below
    the subnormal range are rounded to a grid of spacing ``_TINY``, so
    each bound adds that absolute error, times (r+1)! for the
    r! / (e^alpha - 1)^r of a higher moment.  A value beyond the double
    range is inf, which :func:`_curve` fails with a DomainError.
    """
    if kind == "intercept":
        return np.full(alphas.size, float(math.factorial(r) - 1)), np.zeros(alphas.size)
    base = _libm(_bose, alphas)
    if r == 1:
        return base, 4.0 * DBL_EPS * base + _TINY
    with np.errstate(over="ignore"):
        value = float(math.factorial(r)) * _libm(functools.partial(_pow, r=r), base)
    err = 4.0 * (r + 1) * DBL_EPS * value + math.factorial(r + 1) * _TINY
    return value, err


def _curve(kind: str, d: DeformationMu | float, alphas: Sequence[float], r: int,
           tol: float, method: str = "auto") -> _Curve:
    """The results at every alpha of a curve at fixed (mu, r, tol, method), routed by _route.

    ``kind`` is ``"moment"`` (:func:`r_moment`; the mean at r = 1),
    ``"intercept"`` or ``"r3"`` (:func:`r3_function`, through :func:`_r3_curve`;
    ``r`` is not used).  Each kernel sums all of its points in one call.
    An intercept's mean and moment take the series route rated at order r,
    and its method tag is the larger of theirs.  An invalid mu raises.
    Every other failure is kept in the slot of its point, in the precedence
    of a one-point call: an invalid alpha, the route's DomainError (order,
    tolerance or method), the point's DomainError (a forced closed series
    that cannot be formed) or ConvergenceError, and last a DomainError
    where a moment, or an intercept's mean^r, lies beyond the double range.
    """
    if kind == "r3":
        return _r3_curve(d, alphas, tol, method)
    mu = _as_mu(d)
    a = np.asarray(alphas, dtype=float)
    curve = _Curve.empty(a.size)
    valid = (a > 0.0) & np.isfinite(a)
    for i in np.flatnonzero(~valid).tolist():
        try:
            _check_alpha(alphas[i])
        except DomainError as exc:
            curve.fail(i, exc)
    todo = np.flatnonzero(valid)
    try:
        route = _route(kind, mu, r, tol, method)
    except DomainError as exc:
        curve.fail(todo, exc)
        return curve
    series = functools.partial(_series_closed, mu, r, tol, route)
    if route is None:
        value, err = _exact(kind, a[todo], r)
        tag, finite = np.full(todo.size, _METHODS.index(CLOSED_FORM), np.int8), np.isfinite(value)
    elif kind == "moment":
        value, err, tag, ok = _sums(mu, a, todo, r, tol, route, series, curve)
        todo, value, err, tag = todo[ok], value[ok], err[ok], tag[ok]
        finite = np.isfinite(value)
    else:
        part_tol = tol / (2.0 * (r + 1))
        mean, mean_err, tag, ok = _sums(mu, a, todo, 1, part_tol, route, series, curve)
        todo, mean, mean_err, tag = todo[ok], mean[ok], mean_err[ok], tag[ok]
        under = mean < UNDERFLOW_FLOOR ** (1.0 / r)
        if under.any():
            value = intercept_asymptotic(mu, r)
            err = ((value + 1.0) * (r * r + r) * np.maximum(mean[under], 0.0)
                   + 8.0 * DBL_EPS * (abs(value) + 1.0))
            curve.put(todo[under], value, err, _METHODS.index(ASYMPTOTIC))
            log.info("intercept(mu=%g, r=%d): occupation underflow at %d of %d alphas, "
                     "returning the asymptotic value", mu, r, under.sum(), a.size)
            todo, mean, mean_err, tag = todo[~under], mean[~under], mean_err[~under], tag[~under]
        mom, mom_err, mom_tag, ok = _sums(mu, a, todo, r, part_tol, route, series, curve)
        todo, mean, mean_err, mom, mom_err = todo[ok], mean[ok], mean_err[ok], mom[ok], mom_err[ok]
        tag = np.maximum(tag[ok], mom_tag[ok])
        mean_r = _libm(functools.partial(_pow, r=r), mean)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = mom / mean_r
            err = ratio * (mom_err / mom + r * mean_err / mean) + 8.0 * DBL_EPS * ratio
        # a moment that cancels to 0 (a forced closed form at tiny mu) has no relative bound
        err[mom == 0.0] = np.inf
        value, finite = ratio - 1.0, np.isfinite(mom) & np.isfinite(mean_r)
    curve.put(todo[finite], value[finite], err[finite], tag[finite])
    for i in todo[~finite].tolist():
        curve.fail(i, _beyond_range(f"the {kind}", mu=mu, alpha=alphas[i], r=r))
    return curve


def _point(curve: _Curve) -> CorrelationResult:
    """The result of a one-point curve, raising its failure."""
    if curve.failures:
        raise curve.failures[0]
    return CorrelationResult(float(curve.value[0]), float(curve.error_bound[0]),
                             _METHODS[curve.method[0]])


def mean_occupation(d: DeformationMu | float, alpha: float,
                    tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Average occupation <a+ a> of one mode, the r = 1 moment of :func:`r_moment`.

    mu = 0 reduces to the Bose-Einstein value 1/(e^alpha - 1); mu > 0 is
    the Lerch closed form mu^-1 - mu^-2 (1 - e^-alpha) Phi(e^-alpha, 1, 1/mu),
    evaluated through its cancellation-free rearrangement, whose series
    ``auto`` takes for every tol above about 1.7e-18.
    """
    return _point(_curve("moment", d, (alpha,), 1, tol))


def r_moment(d: DeformationMu | float, alpha: float, r: int,
             tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Normalised r-th moment <(a+)^r a^r>.

    Uses the partial-fraction/Lerch closed form, which holds for every
    mu > 0: where alpha (1/mu + r) <= EXPANSION_REACH through its z -> 1
    expansion, whenever that meets the tolerance, and otherwise through
    its series wherever that is well conditioned at the tolerance;
    elsewhere the direct series takes over and the result is tagged
    ``oracle``.  mu = 0 is exactly r! / (e^alpha - 1)^r.
    """
    return _point(_curve("moment", d, (alpha,), r, tol))


def oracle_moment(d: DeformationMu | float, alpha: float, r: int,
                  tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Brute-force r-th moment (1-z) sum_n z^n prod_{l<r} phi(n-l), mu = 0 included."""
    return _point(_curve("moment", d, (alpha,), r, tol, "oracle"))


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
        ``auto`` takes the closed form, which holds for every mu > 0:
        through its z -> 1 expansion where alpha (1/mu + r) <=
        EXPANSION_REACH and the expansion meets its share of ``tol``,
        else through its series wherever that is well conditioned for
        ``tol``, and the series oracle elsewhere.  ``closed`` never takes
        the oracle and ``oracle`` never takes the closed form, for
        cross-checks.

    Notes
    -----
    mu = 0 returns exactly r! - 1 unless ``method="oracle"``, which sums
    the series there too.  When the occupation has decayed so
    far that moment and mean^r would both underflow (mean^r below
    ``UNDERFLOW_FLOOR``) the asymptotic value is returned with method
    tag ``asymptotic``.
    """
    return _point(_curve("intercept", d, (alpha,), r, tol, method))


def _r3_combine(l2, l3, l2_pow15):
    """r3 from lambda2, lambda3 and lambda2^(3/2), as numbers or arrays."""
    return (l3 - 3.0 * l2) / (2.0 * l2_pow15)


def _check_lambda2(l2: float, power: float, what: str) -> None:
    """r3 divides by lambda2^power, which must be a positive double."""
    if not l2 > 0.0:
        raise DomainError(f"{what} = {l2} is not positive; r3 undefined")
    if not l2**power > 0.0:
        raise DomainError(f"{what} = {l2} underflows lambda2^{power}; r3 undefined")


def _r3_usable(l2, e2, l3, e3, l2_pow25) -> np.ndarray:
    """Where r3 has a value and a linear bound in the lambda bounds.

    r3 divides by lambda2^(5/2), which must be a positive double.  Its
    bound is linear in the lambda bounds, which must be small:
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
    return ((l2 > 0.0) & (l2_pow25 > 0.0) & (e2 <= _R3_LINEAR * l2)
            & (e2 + e3 <= _R3_LINEAR * np.abs(l3 - l2)))


def _r3_error(l2: float, e2: float, l3: float, e3: float) -> DomainError:
    """Why r3 has no value or no bound at a point that :func:`_r3_usable` rejects."""
    try:
        _check_lambda2(l2, 2.5, "lambda2")
    except DomainError as exc:
        return exc
    return DomainError(f"lambda2 = {l2} +- {e2} and lambda3 = {l3} +- {e3} are "
                       "too uncertain for a linear error bound; r3 undefined")


def _r3_curve(d: DeformationMu | float, alphas: Sequence[float], tol: float,
              method: str = "auto") -> _Curve:
    """:func:`r3_function` at every alpha, failures in their slots as in :func:`_curve`
    (where lambda2 and lambda3 both fail, lambda2's)."""
    sub_tol = tol / 16.0
    out = _curve("intercept", d, alphas, 2, sub_tol, method)
    lam3 = _curve("intercept", d, alphas, 3, sub_tol, method)
    for j in lam3.failures.keys() - out.failures.keys():
        out.fail(j, lam3.failures[j])
    idx = np.flatnonzero(out.method != _FAILED)
    l2, e2 = out.value[idx], out.error_bound[idx]
    l3, e3 = lam3.value[idx], lam3.error_bound[idx]
    merged = np.maximum(out.method[idx], lam3.method[idx])
    pow15, pow25 = np.full(l2.size, np.nan), np.full(l2.size, np.nan)
    positive = l2 > 0.0
    pow15[positive] = _libm(lambda x: x**1.5, l2[positive])
    pow25[positive] = _libm(lambda x: x**2.5, l2[positive])
    usable = _r3_usable(l2, e2, l3, e3, pow25)
    for j in np.flatnonzero(~usable).tolist():
        out.fail(int(idx[j]), _r3_error(float(l2[j]), float(e2[j]), float(l3[j]), float(e3[j])))
    idx, l2, e2, l3, e3, merged, pow15, pow25 = (
        x[usable] for x in (idx, l2, e2, l3, e3, merged, pow15, pow25))
    value = _r3_combine(l2, l3, pow15)
    d3 = 1.0 / (2.0 * pow15)
    d2 = -3.0 / (2.0 * pow15) - 3.0 * (l3 - 3.0 * l2) / (4.0 * pow25)
    err = np.abs(d3) * e3 + np.abs(d2) * e2 + 8.0 * DBL_EPS * (np.abs(value) + 1.0)
    out.put(idx, value, err, merged)
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
    return _r3_combine(l2, l3, l2**1.5)
