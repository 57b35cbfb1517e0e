"""p,q-Bose gas comparison formulas: moments, intercepts, asymptotics.

The two-parameter deformation replaces the mu-oscillator structure
function by the p,q-bracket [n] = (p^n - q^n)/(p - q).  Its moments have
a fully factored closed form, so the model serves as a structural
comparison point: both gases deform the Bose intercepts, but the
large-momentum limits differ by the factor (1+mu)^r, which this module
exposes as a computable quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CLOSED_FORM,
    DBL_EPS,
    DEFAULT_TOL,
    MAX_TERMS,
    ORACLE,
    CorrelationResult,
    DeformationMu,
    DomainError,
    _as_mu,
    _beyond_range,
    _check_int,
    _check_order,
    _check_positive,
    _convergence_error,
)

#: tolerance of the internal (1+mu)^r identity check
_GAP_TOL = 1e-12


@dataclass(frozen=True)
class PQParams:
    """Deformation pair 0 < q <= p <= 1, canonicalized so p >= q.

    All formulas are symmetric under p <-> q; the ordering makes equal
    inputs produce bit-equal outputs regardless of argument order.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        for name, val in (("p", self.p), ("q", self.q)):
            if not 0.0 < val <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1], got {val}")
        if self.q > self.p:
            p, q = self.q, self.p
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)


def pq_bracket(n: int, pq: PQParams) -> float:
    """Basic p,q-number [n] = (p^n - q^n)/(p - q), with [n] = n p^(n-1) at p = q.

    Evaluated as the equivalent homogeneous sum sum_{j=0}^{n-1} p^j q^(n-1-j),
    which has no p - q cancellation and covers both cases at once, by
    Horner's rule in q, which never divides by q, in n <= ``MAX_TERMS`` steps.
    """
    _check_int(n, "bracket index", 0, MAX_TERMS)
    acc = 0.0
    for j in range(n):
        acc = acc * pq.q + pq.p**j
    return acc


def pq_factorial(r: int, pq: PQParams) -> float:
    """Deformed factorial [r]! = [r][r-1]...[1]."""
    _check_order(r, minimum=0)
    out = 1.0
    for n in range(1, r + 1):
        out *= pq_bracket(n, pq)
    return out


def _one_minus(log_c: float, alpha: float) -> float:
    """1 - c e^(-alpha), formed as -expm1(ln c - alpha).

    This keeps the factor to a few units of roundoff even where c e^(-alpha)
    is close to 1 (small alpha), where 1 - c z by subtraction would lose
    digits.
    """
    return -math.expm1(log_c - alpha)


def pq_moment(pq: PQParams, alpha: float, r: int) -> float:
    """Closed-form moment [r]!(e^alpha - 1) / prod_{j=0}^{r} (e^alpha - p^j q^(r-j)).

    Computed in the equivalent z = e^(-alpha) form
    [r]! (1-z) z^r / prod_j (1 - p^j q^(r-j) z), which underflows
    gracefully at large alpha instead of overflowing e^alpha.  Every
    factor 1 - c z, 1 - z included, is formed by :func:`_one_minus`.
    The quotient (1-z) / (1 - p^r z) is formed first and multiplied last,
    so at p = 1 it is exactly 1 even where 1 - z is subnormal.
    A moment beyond the double range (alpha -> 0 at p = q = 1) raises DomainError.
    """
    _check_positive(alpha, "alpha")
    _check_order(r)
    log_p, log_q = math.log(pq.p), math.log(pq.q)
    z = math.exp(-alpha)
    value = pq_factorial(r, pq)
    for n in range(r):
        value *= z
    for j in range(r):
        value /= _one_minus(j * log_p + (r - j) * log_q, alpha)
    value *= _one_minus(0.0, alpha) / _one_minus(r * log_p, alpha)
    if not math.isfinite(value):
        raise _beyond_range(f"the p,q moment of order {r}", p=pq.p, q=pq.q, alpha=alpha)
    return value


def pq_oracle_moment(pq: PQParams, alpha: float, r: int,
                     tol: float = DEFAULT_TOL) -> CorrelationResult:
    """Brute-force moment (1-z) sum_n z^n prod_{l<r} [n-l], tail bound n^r p^(r(n-r)) z^n.

    At p < 1 the terms decay and 1 - z is -expm1(-alpha).  A tail below the smallest
    double (the error of an underflowing value) stops the sum and joins the bound.
    A sum that cannot stop within ``MAX_TERMS`` terms raises ConvergenceError.
    """
    from ._backend import kernels
    from .core import _TINY

    _check_positive(alpha, "alpha")
    _check_order(r)
    _check_positive(tol, "tolerance")
    value, err, used = kernels.pq_oracle_sum(pq.p, pq.q, alpha, r, tol, _TINY, MAX_TERMS)
    if used >= MAX_TERMS:
        raise _convergence_error(MAX_TERMS, "p,q oracle", p=pq.p, q=pq.q, alpha=alpha, r=r)
    return CorrelationResult(value, err + _TINY, ORACLE)


def pq_intercept_result(pq: PQParams, alpha: float, r: int) -> CorrelationResult:
    """Intercept lambda^(r) = moment / mean^r - 1 of the p,q-gas, with its error bound.

    Uses the cancelled closed form
    [r]! (1-pz)^r (1-qz)^r / ((1-z)^(r-1) prod_{j=0}^{r} (1 - p^j q^(r-j) z)) - 1,
    algebraically identical to the moment ratio but free of the z^r
    underflow at large alpha.  Every factor 1 - c z is formed by
    :func:`_one_minus`.  The ratio is [r]! times 2r quotients of one
    numerator factor by one denominator factor, so no intermediate
    underflows at small alpha, where the factors with c = 1 fall like
    alpha: the r quotients by 1 - p^r z and 1 - p^j q^(r-j) z (j < r) are
    at most 1 and come first; the r - 1 quotients (1-pz)/(1-z), at least 1,
    come last.  At p = q = 1 every quotient is exactly 1.

    With u the double unit roundoff, each factor carries a relative
    error of at most 7u (log, product and difference 5u, expm1 2u), and
    1 - z, whose exponent -alpha is exact, 2u; the factorial carries
    2r(r+1)u, and the 2r quotients and 2r products one u each.  The bound
    sums them to first order, K = 2r^2 + 29r + 5, as |ratio| K u / (1 - K u),
    plus the rounding of the final subtraction.

    Raises
    ------
    DomainError
        Where the ratio, which grows like alpha^-(r-1) as alpha -> 0, or
        one quotient (1-pz)/(1-z) at a subnormal alpha, exceeds the double
        range.
    """
    _check_positive(alpha, "alpha")
    _check_order(r, minimum=2)
    log_p, log_q = math.log(pq.p), math.log(pq.q)
    pz = _one_minus(log_p, alpha)
    qz = _one_minus(log_q, alpha)
    ratio = pq_factorial(r, pq) * (pz / _one_minus(r * log_p, alpha))
    for j in range(r):
        ratio *= qz / _one_minus(j * log_p + (r - j) * log_q, alpha)
    gap = _one_minus(0.0, alpha)
    for _ in range(r - 1):
        ratio *= pz / gap
    if not math.isfinite(ratio):
        raise _beyond_range(f"lambda^({r}) of the p,q gas", p=pq.p, q=pq.q, alpha=alpha)
    value = ratio - 1.0
    unit = DBL_EPS / 2.0
    k = (2 * r * r + 29 * r + 5) * unit
    return CorrelationResult(value, abs(ratio) * k / (1.0 - k) + unit * abs(value),
                             CLOSED_FORM)


def pq_intercept_asymptotic(pq: PQParams, r: int) -> float:
    """Large-alpha limit [r]_{p,q}! - 1 of the p,q intercept."""
    _check_order(r, minimum=2)
    return pq_factorial(r, pq) - 1.0


def mu_vs_pq_asymptotic_gap(d: DeformationMu | float, r: int) -> float:
    """Structural factor (lambda_mu_asympt + 1) / [r]_mu! separating the two gases.

    The mu-gas asymptote carries an extra (1+mu)^r relative to the
    p,q-gas pattern [r]! - 1; the returned ratio is checked against
    (1+mu)^r before being handed back.  Where (1+mu)^r exceeds the double
    range, and only there, [r]_mu! can underflow to 0; that raises
    DomainError.
    """
    from .core import intercept_asymptotic, mu_factorial

    mu = _as_mu(d)
    _check_order(r, minimum=2)
    try:
        expected = (1.0 + mu) ** r
    except OverflowError:
        raise _beyond_range("(1+mu)^r", mu=mu, r=r) from None
    ratio = (intercept_asymptotic(mu, r) + 1.0) / mu_factorial(r, mu)
    if abs(ratio - expected) > _GAP_TOL * expected:
        raise RuntimeError(
            f"asymptotic gap {ratio!r} deviates from (1+mu)^r = {expected!r}"
        )
    return ratio
