"""Taylor-in-mu coefficients of the moment series and divergence diagnostics.

The generic building block is the power series in mu of the shifted sum

    sum_{n>=0} e^{-alpha n} / (1 + mu (n - l)) = sum_{s>=0} c_s(l) mu^s,

whose coefficients c_s(l) have an exact closed form over Stirling numbers
of the second kind.  Combining them with the partial-fraction weights
A^(r)_l yields truncated expansions of the (unnormalized) moment sums.
Those expansions diverge for every mu > 0: the Stirling sums grow
factorially and eventually beat mu^s, which is what the diagnostic in
this module makes visible term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    MAX_ORDER,
    MAX_TERMS,
    DeformationMu,
    DomainError,
    _as_mu,
    _beyond_range,
    _check_int,
    _check_order,
    _check_positive,
    _convergence_error,
)
from .partfrac import a_coeffs
from .special import _MAX_ROW, _g_row

#: absolute tail budget of the brute-force coefficient oracle
ORACLE_TAIL_TOL = 1e-12

DEFAULT_ORACLE_TERMS = 20000


@dataclass(frozen=True)
class CCoefficient:
    """One Taylor coefficient c_s(l) with its exact integer representation.

    ``recip_coeffs[j-1]`` is the signed integer multiplying
    (e^alpha - 1)^(-j) for j = 1..s+1; ``exp_weights[j-1]`` is the
    integer j^s multiplying e^(alpha (j - l)) for j = 1..l.  For s = 0 a
    bare e^(-alpha l) term completes the value.
    """

    s: int
    l: int
    alpha: float
    value: float
    recip_coeffs: tuple[int, ...]
    exp_weights: tuple[int, ...]

    def reconstruct(self) -> float:
        """Re-evaluate the value from the stored integers (Horner order)."""
        x = math.expm1(self.alpha)
        acc = 0.0
        for coeff in reversed(self.recip_coeffs):
            acc = (acc + coeff) / x
        acc *= math.exp(-self.alpha * self.l)
        for j, weight in enumerate(self.exp_weights, start=1):
            acc += weight * math.exp(self.alpha * (j - self.l))
        if self.s == 0:
            acc += math.exp(-self.alpha * self.l)
        return acc


def c_coeff(s: int, l: int, alpha: float) -> CCoefficient:
    """Closed-form Taylor coefficient c_s(l).

    c_s(l) = delta_{s0} e^(-alpha l) + e^(-alpha l) sum_{j=1}^{l} j^s e^(alpha j)
             + e^(-alpha l) (-1)^s sum_{j=0}^{s} j! S(s+1, j+1) (e^alpha - 1)^(-(j+1)),

    with S the Stirling numbers of the second kind.  The integer
    coefficient sets are exposed on the result for exact-arithmetic
    checks; ``recip_coeffs`` are +-g_s^(j-1) / j, from the rows of :func:`special.g_coeff`.
    Beyond s = ``special._MAX_ROW`` the last of them, +-s!, is no double, and
    none is built: there, and where a term or the value is no finite double,
    DomainError is raised, as for l beyond ``MAX_ORDER``, above any shift a moment uses.
    """
    _check_int(s, "power index s", 0)
    _check_int(l, "shift l", 0, MAX_ORDER)
    _check_positive(alpha, "alpha")
    value = math.nan
    if s <= _MAX_ROW:
        sign = -1 if s % 2 else 1
        recip = tuple(sign * (g // j) for j, g in enumerate(_g_row(s), start=1))
        weights = tuple(j**s for j in range(1, l + 1))
        try:
            x = math.expm1(alpha)
            recip_part = 0.0
            xp = 1.0
            for coeff in recip:
                xp /= x
                recip_part += coeff * xp
            value = recip_part * math.exp(-alpha * l)
            for j, weight in enumerate(weights, start=1):
                value += weight * math.exp(alpha * (j - l))
        except OverflowError:
            value = math.nan
    if s == 0:
        value += math.exp(-alpha * l)
    if not math.isfinite(value):
        raise _beyond_range(f"c_{s}({l})", alpha=alpha)
    return CCoefficient(s, l, alpha, value, recip, weights)


def series_coeff_oracle(s: int, l: int, alpha: float,
                        n_max: int = DEFAULT_ORACLE_TERMS) -> float:
    """Brute-force c_s(l) as the signed power sum (-1)^s sum_n (n-l)^s e^(-alpha n).

    The sum stops at the first term n >= l whose geometric tail bound is
    below ``ORACLE_TAIL_TOL``; ``n_max`` < ``MAX_TERMS``, the term budget, caps n.

    Raises
    ------
    DomainError
        Where the sum, which grows like s! alpha^-(s+1), exceeds the double range.
    ConvergenceError
        If the geometric tail bound at ``n_max`` is not below 1e-12.
    """
    from ._backend import kernels

    _check_int(s, "power index s", 0)
    _check_int(l, "shift l", 0)
    _check_positive(alpha, "alpha")
    _check_int(n_max, "n_max", l + 1, MAX_TERMS - 1)
    acc, tail = kernels.power_sum(s, l, alpha, n_max, ORACLE_TAIL_TOL)
    if not (tail < ORACLE_TAIL_TOL):
        raise _convergence_error(n_max + 1, f"the power sum of c_{s}({l})", alpha=alpha)
    if not math.isfinite(acc):
        raise _beyond_range(f"the power sum of c_{s}({l})", alpha=alpha)
    sign = -1.0 if s % 2 else 1.0
    return sign * acc


@dataclass(frozen=True)
class DivergenceEntry:
    """One row of the term-growth diagnostic at expansion order s."""

    s: int
    partial_sum: float
    term_magnitude: float


def divergence_diagnostic(d: DeformationMu | float, alpha: float, r: int,
                          s_max: int) -> list[DivergenceEntry]:
    """Partial sums and term magnitudes of sum_s [sum_l A^(r)_l c_s(l)] mu^s.

    The coefficient sums grow factorially in s, so for any mu > 0 the
    term magnitudes eventually increase without bound; the returned rows
    exhibit that turnaround.  Float overflow inside a term, including a
    coefficient c_s(l) beyond the double range, is reported as a terminal
    row with infinite magnitude rather than an exception.
    """
    mu = _as_mu(d)
    _check_positive(mu, "deformation parameter")
    _check_positive(alpha, "alpha")
    _check_order(r)
    _check_int(s_max, "s_max", 0)
    weights = a_coeffs(r, mu).values
    entries: list[DivergenceEntry] = []
    partial = 0.0
    for s in range(s_max + 1):
        try:
            inner = 0.0
            for l, weight in enumerate(weights):
                inner += weight * c_coeff(s, l, alpha).value
            term = mu**s * inner
        except (OverflowError, DomainError):
            term = math.inf
        if not math.isfinite(term):
            entries.append(DivergenceEntry(s, partial, math.inf))
            break
        partial += term
        entries.append(DivergenceEntry(s, partial, abs(term)))
    return entries


def taylor_moment(d: DeformationMu | float, alpha: float, r: int,
                  order: int) -> float:
    """Order-``order`` truncation of the unnormalized moment sum.

    Evaluates mu^(-r) [(1 - e^(-alpha))^(-1)
    + sum_{s=0}^{order} sum_{l<r} A^(r)_l(mu) c_s(l) mu^s],
    the Taylor expansion of sum_n e^(-alpha n) prod_{l<r} phi(n-l), whose
    sum over s is the ``partial_sum`` of row ``order`` of
    :func:`divergence_diagnostic`.  The (1 - e^(-alpha)) thermal
    normalization is deliberately not applied here; the exact moments live
    in :mod:`mubose.core`.  A truncation with a term or a sum beyond the
    double range raises DomainError.
    """
    _check_int(order, "truncation order", 0)
    last = divergence_diagnostic(d, alpha, r, order)[-1]
    mu = _as_mu(d)
    try:
        total = mu ** (-r) * (1.0 / -math.expm1(-alpha) + last.partial_sum)
    except OverflowError:
        total = math.nan
    if last.term_magnitude == math.inf or not math.isfinite(total):
        raise _beyond_range(f"the order-{order} truncation", mu=mu, alpha=alpha, r=r)
    return total


def turning_point(entries: list[DivergenceEntry]) -> int:
    """Order s at which the term magnitudes are smallest (divergence onset)."""
    if not entries:
        raise DomainError("empty diagnostic sequence")
    best = min(entries, key=lambda e: e.term_magnitude)
    return best.s
