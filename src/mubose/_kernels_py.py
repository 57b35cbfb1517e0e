"""Series-summation kernels.

Every kernel accumulates in numpy extended precision (``long double``,
80-bit on x86-64).  The extra mantissa bits matter: the
partial-fraction coefficients of high orders are large and nearly
cancelling, and double precision alone cannot hold the closed-form
moment to the tolerances the rest of the package promises.

Kernels perform no argument validation and raise nothing on
non-convergence; they return ``(value, error_bound, terms_used)``
(``power_sum`` ``(value, tail_bound)``) with a rigorous truncation bound
and leave policy to the calling module.  Every series is summed by one
driver, :func:`_sum_rows`, and every tail of the form sum_{m>n} m^s z^m
is bounded by one geometric tail, :func:`_geometric_tail`.
``closed_moment_sums`` and ``oracle_moment_sums`` sum a whole curve and
return the triple as arrays over alpha (float64, float64, int64); the
other kernels are one-point sums and return Python numbers.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DBL_EPS

# the partial-fraction coefficients A_l(mu) as doubles: partfrac forms them
# exactly and rounds each once, and this name binds that same function
from .partfrac import _coeff_values as a_coeff_values  # noqa: F401

_LD = np.longdouble
_ONE = _LD(1)
_ZERO = _LD(0)

#: unit roundoff of the accumulation type
EPS = float(np.finfo(np.longdouble).eps)
_EPS_LD = _LD(np.finfo(np.longdouble).eps)
_DBL_EPS = _LD(DBL_EPS)


def _a_tilde(mu: _LD, r: int) -> list:
    """Rescaled partial-fraction coefficients mu**(r-1) * A_l for order r.

    Built by the order-raising recurrence.  The rescaling keeps every
    coefficient O(1) for small mu, so the recurrence does not overflow;
    its sums cancel, though, and a coefficient far below the largest one
    keeps few correct digits (at mu = 0.1, r = 20 one is off by 4e11
    times its size).  ``partfrac`` has the exact values.
    """
    coeffs = [_LD(-1)]
    for order in range(1, r):
        nxt = []
        for l in range(order):
            nxt.append(coeffs[l] * (mu + _ONE / _LD(order - l)))
        acc = _ZERO
        for l in range(order):
            acc += coeffs[l] / _LD(order - l)
        powm = _ONE
        for _ in range(order):
            powm *= mu
        nxt.append(-powm - acc)
        coeffs = nxt
    return coeffs


def _a_tilde_product(mu: _LD, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of :func:`_a_tilde` as residue products, with absolute error bounds.

    The residue of P(n) at 1 + mu(n-l) = 0 gives
    A_l = -prod_{j != l} (1 - 1/(mu(l-j))), so
    Atilde_l = -prod_{j != l} f_lj with f_lj = mu + 1/(j-l).  Each factor
    is rounded with an absolute error below d_lj = EPS (mu + 1/|j-l|),
    also where mu + 1/(j-l) cancels on the lattice mu = 1/k, and the
    r - 1 products round by at most r EPS relative, so
    |error| <= prod (|f_lj| + d_lj) (1 + r EPS) - prod |f_lj|, formed here
    with 2r EPS to cover the rounding of that difference.  The recurrence
    sums terms that cancel (the relative error of its last coefficient
    reaches 1e21 EPS at r = 8), so it offers no such bound.
    """
    lag = np.arange(r)[None, :] - np.arange(r)[:, None]  # j - l
    off = lag != 0
    inv = np.where(off, _ONE / np.where(off, lag, 1).astype(_LD), _ZERO)
    factors = np.where(off, mu + inv, _ONE)
    slack = np.where(off, _EPS_LD * (mu + abs(inv)), _ZERO)
    size = np.prod(abs(factors), axis=1)
    err = np.prod(abs(factors) + slack, axis=1) * (_ONE + 2 * r * _EPS_LD) - size
    return -np.prod(factors, axis=1), err


def closed_condition(mu: float, r: int) -> float:
    """Cancellation factor of the first term of :func:`closed_moment_sums`.

    The first term is known exactly: -mu^(2-2r) S_r = [r]_mu! =
    prod_{j<=r} j / (1 + mu j), because the moment starts as z^r [r]_mu!.
    The factor is mu^(2-2r) sum_l |Atilde_l| / ((1+mu(r-l))(1+mu(r-l-1)))
    over [r]_mu!, the first term's ratio of ``abs_acc`` to the value.  It
    is infinite where mu^(2-2r) or a coefficient leaves the long-double
    range, since the kernel cannot form the sum there, and where the
    factor itself leaves the double range.
    """
    mu_ld = _LD(mu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = _a_tilde(mu_ld, r)
        s_abs = _ZERO
        for l in range(r):
            s_abs += abs(coeffs[l]) / ((_ONE + mu_ld * (r - l)) * (_ONE + mu_ld * (r - l - 1)))
        scale = _ONE
        for _ in range(2 * r - 2):
            scale /= mu_ld
        factorial = _ONE
        for j in range(1, r + 1):
            factorial *= _LD(j) / (_ONE + mu_ld * j)
        kappa = float(scale * s_abs / factorial)
    return kappa if scale > _ZERO and np.isfinite(kappa) else np.inf


#: first block width in terms; each further block is twice as wide
_FIRST_WIDTH = 16
#: most rows x terms one block may hold, which bounds a call's memory: 64 KiB
#: per long-double array.  Blocks of 2**15 cells were no faster and raised the
#: peak resident memory of a long one-point sum by about 5 MB.
_BLOCK_CELLS = 2**12


def _sum_rows(rows: int, max_terms: int, block, state: list) -> np.ndarray:
    """Drive the series sum of every row (alpha point) block by block.

    ``block(active, first, width)`` sums terms ``first .. first+width-1``
    of the rows ``active`` and returns ``(stop, cols)``: ``stop[i, j]``
    says whether row ``active[i]`` passes its stopping test after term
    ``first + j``, and ``cols[k][i, j]`` is the running value of
    ``state[k]`` there.  Accumulations go through sequential
    ``np.cumsum``/``np.cumprod`` along the term axis, so every row
    repeats the rounding of a term-by-term loop exactly; ``np.sum``
    would sum pairwise and round differently.

    A row retires at its first passing term, or at exactly ``max_terms``
    terms; ``state`` then holds its values at that term.  The rows still
    running all have the same number of terms, so the alpha-independent
    factors of a block are computed once for all of them.  Blocks arrive
    in order of their terms, so a block may carry a recurrence on from
    the one before.  Returns the terms used per row.
    """
    terms = np.zeros(rows, dtype=np.int64)
    active = np.arange(rows)
    first, width = 0, _FIRST_WIDTH
    while active.size:
        w = max(1, min(width, _BLOCK_CELLS // active.size, max_terms - first))
        stop, cols = block(active, first, w)
        if first + w >= max_terms:
            stop[:, -1] = True
        hit = stop.any(axis=1)
        at = np.where(hit, stop.argmax(axis=1), w - 1)
        pick = np.arange(active.size)
        for values, col in zip(state, cols):
            values[active] = col[pick, at]
        terms[active] = first + at + 1
        active = active[~hit]
        first += w
        width *= 2
    return terms


def _running_sum(carry: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """carry + steps[:, 0] + ... + steps[:, j] per row for every j, summed in order."""
    return np.cumsum(np.concatenate([carry[:, None], steps], axis=1), axis=1)[:, 1:]


def _powers(carry: np.ndarray, z: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """carry * z^j per row for j = 0..width-1 and for j = 1..width, by sequential products."""
    steps = np.broadcast_to(z, (carry.size, width))
    out = np.cumprod(np.concatenate([carry[:, None], steps], axis=1), axis=1)
    return out[:, :-1], out[:, 1:]


def _geometric_tail(n: np.ndarray, s: int, z, zn: np.ndarray) -> np.ndarray:
    """Bound (n+1)^s z^(n+1) / (1 - rho) on sum_{m>n} m^s z^m, given zn = z^(n+1).

    rho = ((n+2)/(n+1))^s z bounds the ratio of consecutive terms beyond
    n, so the tail is geometric.  Where rho >= 1 the bound does not apply
    and the tail is infinite.
    """
    ratio = np.ones_like(n)
    bound = np.ones_like(n)
    for _ in range(s):
        ratio *= (n + 2) / (n + 1)
        bound *= n + 1
    rho = ratio * z
    # the discarded quotient where rho >= 1 may divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(rho < _ONE, bound * zn / (_ONE - rho), _LD(np.inf))


def _curve_sums(value, err, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The long-double sums of a curve rounded to doubles, with their term counts."""
    return value.astype(np.float64), err.astype(np.float64), terms


def _first(sums) -> tuple[float, float, int]:
    """The first point of a curve's ``(value, error_bound, terms_used)`` as Python numbers."""
    value, err, terms = sums
    return float(value[0]), float(err[0]), int(terms[0])


def lerch_sum(z: float, a: float, atol: float, max_terms: int):
    """Direct summation of Phi(z, 1, a) = sum_n z^n / (a + n).

    Stops once the geometric tail bound z^(N+1)/((a+N+1)(1-z)) falls
    below ``atol``; if ``max_terms`` is exhausted first the returned
    error bound simply stays above ``atol``.
    """
    z_ld = _LD(z)
    a_ld = _LD(a)
    inv_gap = _ONE / (_ONE - z_ld)
    atol_ld = _LD(atol)
    zn = np.ones(1, dtype=_LD)
    acc = np.zeros(1, dtype=_LD)
    tail = np.zeros(1, dtype=_LD)

    def block(active, first, width):
        den = a_ld + np.arange(first, first + width).astype(_LD)
        zn_before, zns = _powers(zn[active], z_ld, width)
        accs = _running_sum(acc[active], zn_before / den)
        tails = zns / (den + _ONE) * inv_gap
        return tails <= atol_ld, (zns, accs, tails)

    n = int(_sum_rows(1, max_terms, block, [zn, acc, tail])[0])
    err = tail[0] + (_EPS_LD * (n + 4) + _DBL_EPS) * abs(acc[0])
    return float(acc[0]), float(err), n


def power_sum(s: int, l: int, alpha: float, n_max: int, atol: float):
    """sum_{n=0}^{N} (n-l)^s z^n with its geometric tail bound: ``(value, tail)``.

    N is the first n >= l whose tail bound is below ``atol``, or ``n_max``
    if no n up to it qualifies.  For m > n >= l, 0 < m - l <= m, so the
    geometric tail of m^s z^m bounds the tail; below l it need not.  That
    bound is infinite while rho >= 1 and falls with n once it is finite,
    so a block of terms whose last bound misses ``atol`` holds no passing
    term, and only the last bound of such a block is formed.
    """
    z = np.exp(-_LD(alpha))
    atol_ld = _LD(atol)
    zn = np.ones(1, dtype=_LD)
    acc = np.zeros(1, dtype=_LD)
    tail = np.zeros(1, dtype=_LD)

    def block(active, first, width):
        n = np.arange(first, first + width).astype(_LD)
        x = n - l
        p = np.ones(width, dtype=_LD)
        for _ in range(s):
            p *= x
        zn_before, zns = _powers(zn[active], z, width)
        accs = _running_sum(acc[active], p * zn_before)
        tails = _geometric_tail(n[-1:], s, z, zns[:, -1:])
        if tails[0, 0] < atol_ld:
            tails = _geometric_tail(n, s, z, zns)
        return (tails < atol_ld) & (n >= l), (zns, accs, np.broadcast_to(tails, zns.shape))

    _sum_rows(1, n_max + 1, block, [zn, acc, tail])
    return float(acc[0]), float(tail[0])


def closed_moment_sums(mu: float, alphas, r: int, rtol: float, atol: float,
                       max_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised r-th factorial-structure moment via the Lerch route, per alpha.

    Evaluates (1-z) * sum_n z^n * prod_{l<r} phi(n-l) through the
    partial-fraction/Lerch representation, algebraically rearranged so
    that the exactly-vanishing orders z^0..z^(r-1) never enter the
    floating-point sum:

        M_r = -mu^(2-2r) * sum_{m>=r} z^m S_m,
        S_m = sum_{l<r} Atilde_l / ((1+mu(m-l)) (1+mu(m-l-1))),

    with Atilde_l = mu^(r-1) A_l the rescaled coefficients.  Without the
    rearrangement the assembly loses all significance once z^r is below
    roundoff.  S_m and the tail denominators do not depend on alpha and
    are computed once per block of terms.  Returns the arrays
    ``(value, error_bound, terms_used)`` over alpha.

    The sum equals the defining series for every mu > 0.  The product
    P(n) = prod_{l<r} phi(n-l) is a rational function of n whose
    denominator has the simple roots n = l - 1/mu, distinct for distinct
    l, so P(n) = mu^-r (1 + sum_l A_l / (1 + mu(n-l))) with every A_l
    finite.  Differencing that expansion gives
    P(m) - P(m-1) = -mu^(2-2r) S_m.  At m = r-1 every factor has
    n - l >= 0, so no denominator vanishes and P(r-1) = phi(0) ... = 0.
    Summation by parts of the bounded P then turns the series
    (1-z) sum_{n>=r} z^n P(n), whose terms n < r vanish, into
    sum_{m>=r} z^m (P(m) - P(m-1)).  Every denominator of S_m has
    m - l - 1 >= 0, so none vanishes.  The bound mu < 1/(r-1) belongs only
    to the printed form Phi(z, 1, 1/mu - l), whose shift must be positive.
    """
    mu_ld = _LD(mu)
    z = np.exp(-np.asarray(alphas, dtype=_LD))
    inv_gap = _ONE / (_ONE - z)
    coeffs = _a_tilde(mu_ld, r)
    big_k = _ZERO
    for l in range(r):
        big_k += abs(coeffs[l])
    scale = _ONE
    for _ in range(2 * r - 2):
        scale /= mu_ld
    atol_ld, rtol_ld = _LD(atol), _LD(rtol)

    zm = np.ones_like(z)
    for _ in range(r):
        zm *= z
    acc = np.zeros_like(z)
    abs_acc = np.zeros_like(z)
    tail = np.zeros_like(z)

    def block(active, first, width):
        m = np.arange(r + first, r + first + width).astype(_LD)
        s_val = np.zeros(width, dtype=_LD)
        s_abs = np.zeros(width, dtype=_LD)
        for l in range(r):
            t = coeffs[l] / ((_ONE + mu_ld * (m - l)) * (_ONE + mu_ld * (m - l - 1)))
            s_val += t
            s_abs += abs(t)
        den = (_ONE + mu_ld * (m + 2 - r)) * (_ONE + mu_ld * (m + 1 - r))
        za = z[active, None]
        zm_before, zms = _powers(zm[active], za, width)
        accs = _running_sum(acc[active], zm_before * s_val)
        abs_accs = _running_sum(abs_acc[active], zm_before * s_abs)
        tails = big_k * zms / den * inv_gap[active, None]
        stop = tails * scale <= np.fmax(atol_ld, rtol_ld * abs(accs) * scale)
        return stop, (zms, accs, abs_accs, tails)

    terms = _sum_rows(z.size, max_terms, block, [zm, acc, abs_acc, tail])
    value = -acc * scale
    err = (tail + _EPS_LD * (2 * r + 6) * abs_acc) * scale + _DBL_EPS * abs(value)
    return _curve_sums(value, err, terms)


def closed_moment_sum(mu: float, alpha: float, r: int, rtol: float,
                      atol: float, max_terms: int):
    """:func:`closed_moment_sums` at one alpha: ``(value, error_bound, terms_used)``."""
    return _first(closed_moment_sums(mu, (alpha,), r, rtol, atol, max_terms))


#: most terms of the Bernoulli series in the z -> 1 expansion of Phi
EXPANSION_TERMS = 24
#: rounding of one expanded Phi, in EPS times its sum of magnitudes: the
#: Bernoulli coefficients and powers (2 per term), the sum of the terms (1
#: per term), digamma's shifts and series (below 32) and the exponential
_EXPANSION_ROUNDING = 3 * EXPANSION_TERMS + 40
#: digamma's asymptotic series is summed from this argument up, through B_16
_PSI_FROM = 16
_PSI_TERMS = 8
_EULER = _LD("0.577215664901532860606512090082402431")
_PI = _LD("3.14159265358979323846264338327950288")


def _to_ld(x: Fraction) -> _LD:
    """A rational rounded to long double through a 30-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 30
        return _LD(str(Decimal(x.numerator) / Decimal(x.denominator)))


@functools.cache
def _bernoulli() -> tuple[np.ndarray, np.ndarray]:
    """(B_i / i!, B_i) for i = 0..EXPANSION_TERMS in long double, built on first use.

    Exact rationals from sum_{j<=m} C(m+1, j) B_j = 0, so B_1 = -1/2, each
    rounded once.
    """
    b = [Fraction(1)]
    for m in range(1, EXPANSION_TERMS + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    over_fact = np.array([_to_ld(x / math.factorial(i)) for i, x in enumerate(b)])
    return over_fact, np.array([_to_ld(x) for x in b])


def _digamma(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi(b) for b > 0: ``(value, magnitude, truncation)`` per element.

    An argument below ``_PSI_FROM`` is shifted up by n steps with
    psi(b) = psi(b + n) - sum_{j<n} 1/(b + j).  At x = b + n,
    psi(x) = ln x - 1/(2x) - sum_{k=1}^{8} B_2k / (2k x^2k), and for real
    x > 0 the remainder is at most the first omitted term,
    |B_18| / (18 x^18) (DLMF 5.11.ii), below 7e-22.  ``magnitude`` sums
    the absolute values of the rounded parts.
    """
    bern = _bernoulli()[1]
    shifts = np.maximum(np.ceil(_PSI_FROM - b), _ZERO)
    j = np.arange(_PSI_FROM).astype(_LD)
    steps = np.where(j < shifts[:, None], _ONE / (b[:, None] + j), _ZERO)
    shift = steps.sum(axis=1)
    x = b + shifts
    inv2 = _ONE / (x * x)
    k = np.arange(1, _PSI_TERMS + 1)
    terms = bern[2 * k] / (2 * k) * np.cumprod(np.broadcast_to(inv2[:, None], (b.size, _PSI_TERMS)),
                                               axis=1)
    value = np.log(x) - _ONE / (2 * x) - terms.sum(axis=1) - shift
    magnitude = abs(np.log(x)) + _ONE / (2 * x) + abs(terms).sum(axis=1) + shift
    trunc = abs(bern[2 * _PSI_TERMS + 2]) / (2 * _PSI_TERMS + 2) * inv2**(_PSI_TERMS + 1)
    return value, magnitude, trunc


def _lerch_expansion(alpha: np.ndarray, b: np.ndarray):
    """Phi(e^-alpha, 1, b) near z = 1, term by term, for every alpha and shift b > 0.

    The expansion (DLMF 25.14; Erdelyi et al., Higher Transcendental
    Functions I, 1.11) is

        Phi(e^-alpha, 1, b) = e^(b alpha) [-ln alpha - gamma - psi(b)
                               + sum_{k>=1} (-1)^(k+1) beta_k alpha^k / k],

    with beta_k = B_k(b) / k! the Taylor coefficients of
    g(t) = t e^(bt) / (e^t - 1), which is analytic for |t| < 2 pi.
    Returns arrays over (alpha, b): ``head`` = e^(b alpha)
    (-ln alpha - gamma - psi(b)); ``steps[..., k-1]``, the k-th series
    term times e^(b alpha); ``tails[..., k-1]``, a bound on the error of
    head plus the first k steps; and ``magnitude``, the sum of the
    magnitudes of every rounded part, times e^(b alpha).

    Truncation.  On |t| = rho <= pi,
    |e^t - 1|^2 = (e^x - 1)^2 + 4 e^x sin^2(y/2) with t = x + iy, and
    sin u >= 2u/pi gives |e^t - 1| >= (2 rho / pi) min(1, e^x), so
    |g| <= M = (pi/2) e^(rho s) with s = max(b, 1 - b).  Cauchy's estimate
    |beta_k| <= M / rho^k bounds the series after k terms by
    M q^(k+1) / ((k+1)(1 - q)), q = alpha / rho, and rho = min(pi, (k+1)/s)
    minimises it.  digamma's truncation is added.

    Scaling.  beta_k alpha^k = sum_{i+j=k} (B_i / (i! c^i))
    ((b/c)^j / j!) (c alpha)^k with c = max(b, 1), so no power of a
    large b overflows.
    """
    over_fact, _ = _bernoulli()
    n = EXPANSION_TERMS
    c = np.maximum(b, _ONE)
    k = np.arange(1, n + 1).astype(_LD)
    # u[l, i] = B_i / (i! c^i), v[l, j] = (b/c)^j / j!, both for 0..n
    u = over_fact * np.concatenate([np.ones((b.size, 1), _LD),
                                    np.cumprod(np.broadcast_to(_ONE / c[:, None], (b.size, n)),
                                               axis=1)], axis=1)
    v = np.concatenate([np.ones((b.size, 1), _LD),
                        np.cumprod((b / c)[:, None] / k, axis=1)], axis=1)
    lag = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]  # k - i
    toeplitz = np.where(lag >= 0, v[:, np.clip(lag, 0, n)], _ZERO)  # [l, i, k] = v[l, k-i]
    beta = np.einsum("li,lik->lk", u, toeplitz)[:, 1:]
    beta_abs = np.einsum("li,lik->lk", abs(u), toeplitz)[:, 1:]
    sign = np.where(np.arange(1, n + 1) % 2 == 1, _ONE, -_ONE)
    coef = sign * beta / k
    coef_abs = beta_abs / k

    powers = np.cumprod(np.broadcast_to((alpha[:, None] * c)[:, :, None], (alpha.size, b.size, n)),
                        axis=2)
    grow = np.exp(b * alpha[:, None])
    psi, psi_mag, psi_trunc = _digamma(b)
    log_alpha = np.log(alpha)
    head = grow * (-(log_alpha + _EULER)[:, None] - psi)
    steps = grow[:, :, None] * coef * powers
    magnitude = grow * ((abs(log_alpha) + _EULER)[:, None] + psi_mag
                        + (coef_abs * powers).sum(axis=2))

    s = np.maximum(b, _ONE - b)[:, None]
    rho = np.minimum(_PI, (k + 1) / s)
    cauchy = _PI / 2 * np.exp(rho * s)
    q = alpha[:, None, None] / rho
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        series_tail = np.where(q < _ONE, cauchy * q**(k + 1) / ((k + 1) * (_ONE - q)),
                               _LD(np.inf))
    tails = grow[:, :, None] * (series_tail + psi_trunc[:, None])
    return head, steps, tails, magnitude


def _first_stop(stop: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis of each row, or the last index."""
    return np.where(stop.any(axis=-1), stop.argmax(axis=-1), stop.shape[-1] - 1)


def closed_moment_expansion(mu: float, alphas,
                            r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moment of :func:`closed_moment_sums` through the z -> 1 expansion of Phi, per alpha.

    Partial fractions of the rearranged sum,
    1/((1+mu x)(1+mu(x-1))) = mu^-1 [1/(1+mu(x-1)) - 1/(1+mu x)], give

        M_r = -mu^(-2r) z^r sum_l Atilde_l [Phi(z,1,b_l) - Phi(z,1,b_l+1)],
        b_l = 1/mu + r - l - 1 >= 1/mu,

    with every shift positive, so no mu needs pole handling.  Two exact
    identities remove the large, nearly equal Phi values:
    Phi(z,1,b) - Phi(z,1,b+1) = (1 - 1/z) Phi(z,1,b) + 1/(b z), and
    sum_l Atilde_l / b_l = -mu^r (the sum telescopes to
    lim P(n) - P(r-1) = mu^-r).  Hence

        M_r = mu^-r z^(r-1) [1 + (1-z) mu^-r sum_l Atilde_l Phi(z,1,b_l)],

    each Phi from :func:`_lerch_expansion`.  Every term is formed at a
    cost that does not depend on alpha, so no tolerance is taken: a point
    stops at the first k whose truncation bound is below EPS |value|,
    where further terms no longer move the long-double value, or uses all
    ``EXPANSION_TERMS``; the caller compares the bound with its tolerance.

    The error bound adds the truncation, the rounding of every Phi
    (``_EXPANSION_ROUNDING`` EPS times its magnitudes, plus 2 EPS (1 + 1/b)
    for the rounding of b through |dPhi/db| <= 1/b^2 + 1/b), the
    coefficient errors of :func:`_a_tilde_product` times |Phi|, the
    rounding of the combination, and the final rounding to double.  The
    bound is finite wherever the series converges, alpha < pi; it is small
    only where alpha (1/mu + r) is well below 1, where e^(b alpha) stays
    near 1.  The sum over l still cancels by about mu^-r, so at small mu
    and large r the bound can miss a tight tolerance.  Returns the arrays
    ``(value, error_bound, terms_used)`` over alpha, terms counting
    Bernoulli terms.
    """
    mu_ld = _LD(mu)
    alpha = np.asarray(alphas, dtype=_LD)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs, coeff_errs = _a_tilde_product(mu_ld, r)
        b = _ONE / mu_ld + np.arange(r - 1, -1, -1).astype(_LD)
        head, steps, tails, magnitude = _lerch_expansion(alpha, b)
        inv_mu_r = _ONE
        for _ in range(r):
            inv_mu_r /= mu_ld
        front = inv_mu_r * np.exp(-alpha * (r - 1))
        pre = -np.expm1(-alpha) * inv_mu_r
        phis = head[:, :, None] + np.cumsum(steps, axis=2)
        sums = np.einsum("l,nlk->nk", coeffs, phis)
        values = front[:, None] * (_ONE + pre[:, None] * sums)
        truncs = (front * pre)[:, None] * np.einsum("l,nlk->nk", abs(coeffs), tails)
        at = _first_stop(truncs <= _EPS_LD * abs(values))
        pick = np.arange(alpha.size)
        value, trunc, s_val = values[pick, at], truncs[pick, at], sums[pick, at]
        phi_err = _EPS_LD * (_EXPANSION_ROUNDING * magnitude + 2 * (_ONE + _ONE / b))
        s_err = ((abs(coeffs) * phi_err).sum(axis=1) + (coeff_errs * magnitude).sum(axis=1)
                 + _EPS_LD * (r + 2) * (abs(coeffs) * magnitude).sum(axis=1))
        inner_err = pre * s_err + _EPS_LD * (r + 6) * (_ONE + abs(pre * s_val))
        err = front * inner_err + trunc + _DBL_EPS * abs(value)
    return _curve_sums(value, err, (at + 1).astype(np.int64))


def lerch_expansion(z: float, a: float):
    """Phi(z, 1, a) by :func:`_lerch_expansion`: ``(value, error_bound, terms_used)``.

    alpha = -ln z is formed as -log1p(z - 1), with z - 1 exact for
    z >= 1/2 and a relative error below 2 EPS; |dPhi/dalpha| <= z/(1-z),
    so that error moves Phi by at most 2 EPS alpha / (e^alpha - 1) <= 2 EPS.
    The sum stops at the first k whose truncation bound is below
    EPS |value|, or uses all ``EXPANSION_TERMS``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha = -np.log1p(np.array([z], dtype=_LD) - _ONE)
        b = np.array([a], dtype=_LD)
        head, steps, tails, magnitude = _lerch_expansion(alpha, b)
        phis = head[0, 0] + np.cumsum(steps[0, 0])
        at = int(_first_stop(tails[0, 0] <= _EPS_LD * abs(phis)))
        value = phis[at]
        err = (tails[0, 0, at] + _EPS_LD * (_EXPANSION_ROUNDING * magnitude[0, 0]
                                           + 2 * (_ONE + _ONE / b[0]) + 2)
               + _DBL_EPS * abs(value))
    return float(value), float(err), at + 1


def _oracle_sums(alphas, r: int, rtol: float, atol: float, max_terms: int,
                 products) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force moment (1-z) * sum_{n>=r} z^n * P(n), per alpha.

    ``products(n)`` gives the alpha-independent product P(n) of r
    structure functions for a block of consecutive ``n``; it must lie in
    [0, n^r], so the tail after term n is bounded by the geometric tail
    of n^r z^n.  Terms with n < r vanish identically (one factor is
    the structure function at 0) and are skipped.  Returns the arrays
    ``(value, error_bound, terms_used)`` over alpha.
    """
    z = np.exp(-np.asarray(alphas, dtype=_LD))
    gap = _ONE - z
    atol_ld, rtol_ld = _LD(atol), _LD(rtol)

    zn = np.ones_like(z)
    for _ in range(r):
        zn *= z
    acc = np.zeros_like(z)
    tail = np.zeros_like(z)

    def block(active, first, width):
        n = np.arange(r + first, r + first + width).astype(_LD)
        za = z[active, None]
        zn_before, zns = _powers(zn[active], za, width)
        accs = _running_sum(acc[active], products(n) * zn_before)
        tails = _geometric_tail(n, r, za, zns)
        g = gap[active, None]
        stop = g * tails <= np.fmax(atol_ld, rtol_ld * g * accs)
        return stop, (zns, accs, tails)

    terms = _sum_rows(z.size, max_terms, block, [zn, acc, tail])
    value = gap * acc
    err = gap * tail + _EPS_LD * (2 * r + 8) * abs(value) + _DBL_EPS * abs(value)
    return _curve_sums(value, err, terms)


def oracle_moment_sums(mu: float, alphas, r: int, rtol: float, atol: float,
                       max_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force moment (1-z) * sum_{n>=r} z^n * prod_{l<r} phi(n-l), per alpha.

    Independent of the partial-fraction machinery: each term is a direct
    product of structure functions phi(x) = x / (1 + mu x) <= x, summed
    by :func:`_oracle_sums`.  Returns the arrays
    ``(value, error_bound, terms_used)`` over alpha.
    """
    mu_ld = _LD(mu)

    def products(n):
        prod = np.ones(n.size, dtype=_LD)
        for l in range(r):
            x = n - l
            prod *= x / (_ONE + mu_ld * x)
        return prod

    return _oracle_sums(alphas, r, rtol, atol, max_terms, products)


def oracle_moment_sum(mu: float, alpha: float, r: int, rtol: float,
                      atol: float, max_terms: int):
    """:func:`oracle_moment_sums` at one alpha: ``(value, error_bound, terms_used)``."""
    return _first(oracle_moment_sums(mu, (alpha,), r, rtol, atol, max_terms))


def pq_oracle_sum(p: float, q: float, alpha: float, r: int, rtol: float,
                  atol: float, max_terms: int):
    """(1-z) * sum_{n>=r} z^n * prod_{l<r} [n-l]_{p,q} by direct summation.

    Basic numbers are generated with the exact three-term recurrence
    [n+1] = (p+q)[n] - pq[n-1], which is stable for p, q <= 1 and avoids
    the cancellation of (p^n - q^n)/(p - q) at p close to q; it carries
    on from one block of terms to the next.  Each product is taken in
    window order, [n-r+1] up to [n].
    """
    p_ld = _LD(p)
    q_ld = _LD(q)
    s_pq = p_ld + q_ld
    prod_pq = p_ld * q_ld
    prev, cur = _ZERO, _ONE  # [k-1] and [k], the next basic number to use
    window = np.empty(0, dtype=_LD)  # basic numbers made and still needed

    def products(n):
        nonlocal prev, cur, window
        basic = np.empty(n.size + r - 1, dtype=_LD)  # [n[0]-r+1] .. [n[-1]]
        basic[:window.size] = window
        for i in range(window.size, basic.size):
            basic[i] = cur
            prev, cur = cur, s_pq * cur - prod_pq * prev
        window = basic[n.size:]
        prod = np.ones(n.size, dtype=_LD)
        for i in range(r):
            prod *= basic[i:i + n.size]
        return prod

    return _first(_oracle_sums((alpha,), r, rtol, atol, max_terms, products))
