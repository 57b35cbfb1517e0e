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
``closed_moment_sums``, ``oracle_moment_sums`` and
``closed_moment_expansion`` evaluate a whole curve and return the triple
as arrays over alpha (float64, float64, int64); the other kernels are
one-point sums and return Python numbers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DBL_EPS, MAX_ORDER
from .partfrac import _coeff_ratios

# the partial-fraction coefficients A_l(mu) as doubles: partfrac forms them
# exactly and rounds each once, and this name binds that same function
from .partfrac import _coeff_values as a_coeff_values  # noqa: F401

_LD = np.longdouble
_ONE = _LD(1)
_ZERO = _LD(0)

#: machine epsilon of the accumulation type, one unit in the last place at 1
EPS = float(np.finfo(np.longdouble).eps)
_EPS_LD = _LD(np.finfo(np.longdouble).eps)
#: smallest normal long double
_LD_TINY = _LD(np.finfo(np.longdouble).tiny)
#: unit roundoff: the largest relative error of one +, -, * or /
_U = _EPS_LD / 2
_DBL_EPS = _LD(DBL_EPS)
#: bits in the long-double significand
_DIGITS = np.finfo(np.longdouble).nmant + 1


def _ld_ratios(nums, dens) -> np.ndarray:
    """Each rational num/den (den > 0) correctly rounded to long double, ties to even.

    A quotient beyond the long-double range becomes an infinity (or a
    zero) under numpy's overflow (underflow) warning.
    """
    tops, shifts = [], []
    for num, den in zip(nums, dens):
        mag = abs(num)
        lead = mag.bit_length() - den.bit_length()  # 2^(lead-1) < mag/den < 2^(lead+1)
        if (mag << max(-lead, 0)) >= (den << max(lead, 0)):
            lead += 1
        shift = _DIGITS - lead  # the quotient times 2^shift lies in [2^(DIGITS-1), 2^DIGITS)
        top, rest = divmod(mag << shift, den) if shift >= 0 else divmod(mag, den << -shift)
        half = 2 * rest - (den << max(-shift, 0))
        if half > 0 or (half == 0 and top & 1):
            top += 1
        tops.append(top if num >= 0 else -top)
        shifts.append(-shift)
    return np.ldexp(np.array(tops, dtype=_LD), np.array(shifts, dtype=np.int64))


def _scaled_coeffs(mu: float, r: int) -> np.ndarray:
    """Atilde_l = mu^(r-1) A_l, l = 0..r-1, each exact rational rounded once to long double.

    The exact A_l come from ``partfrac``; with mu = p/q, Atilde_l is
    A_l p^(r-1) / q^(r-1).  The rescaling keeps every coefficient O(1)
    for small mu.  A coefficient beyond the long-double range is
    infinite.
    """
    frac = Fraction(mu)
    p, q = frac.numerator ** (r - 1), frac.denominator ** (r - 1)
    nums, dens = zip(*_coeff_ratios(r, frac))
    with np.errstate(over="ignore", under="ignore"):
        return _ld_ratios([num * p for num in nums], [den * q for den in dens])


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
        coeffs = _scaled_coeffs(mu, r)
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


def _block_tails(n: np.ndarray, s: int, z, zns: np.ndarray, passes) -> np.ndarray:
    """:func:`_geometric_tail` over a block of terms, in full only if some row can stop in it.

    The tail bound is infinite while rho >= 1 and falls with n once it is
    finite, and the right side of each caller's stopping test does not
    fall with n (a tolerance, or one times a sum of non-negative terms).
    So ``passes(tails)``, that test at the block's last term, is true for
    some row if any row passes anywhere in the block.  Where no row
    passes, the last term's tails stand for the whole block, broadcast:
    no row stops on them, and a row that runs out of terms keeps the last
    one, which equals the one the full block would give.
    """
    last = _geometric_tail(n[-1:], s, z, zns[:, -1:])
    if passes(last).any():
        return _geometric_tail(n, s, z, zns)
    return np.broadcast_to(last, zns.shape)


def _curve_sums(value, err, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The long-double sums of a curve rounded to doubles, with their term counts."""
    with np.errstate(over="ignore"):  # a sum past the double range rounds to inf
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
    bound is formed by :func:`_block_tails`.
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
        tails = _block_tails(n, s, z, zns, lambda last: last < atol_ld)
        return (tails < atol_ld) & (n >= l), (zns, accs, tails)

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

    The rounding bound is EPS (2r+6) times the sum of absolute terms.
    Each Atilde_l is its exact rational rounded once (:func:`_scaled_coeffs`),
    so a quotient of S_m takes at most 7 roundings of EPS/2 (the
    coefficient, two in each factor 1 + mu x, their product and the
    division) and S_m r - 1 more: (r + 6) EPS/2 of its sum of magnitudes,
    within the budget, which leaves the rest for z^m and the running sum.
    """
    mu_ld = _LD(mu)
    z = np.exp(-np.asarray(alphas, dtype=_LD))
    inv_gap = _ONE / (_ONE - z)
    coeffs = _scaled_coeffs(mu, r)
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
#: digamma's asymptotic series is summed from this argument up, through B_16
_PSI_FROM = 16
_PSI_TERMS = 8
_EULER = _LD("0.577215664901532860606512090082402431")
_PI = _LD("3.14159265358979323846264338327950288")
#: k = 1..EXPANSION_TERMS and the signs (-1)^(k+1) of the Bernoulli series
_K = np.arange(1, EXPANSION_TERMS + 1).astype(_LD)
_SIGNS = np.where(np.arange(1, EXPANSION_TERMS + 1) % 2 == 1, _ONE, -_ONE)


@functools.cache
def _bernoulli() -> tuple[np.ndarray, np.ndarray]:
    """(B_i / i!, B_i) for i = 0..EXPANSION_TERMS in long double, built on first use.

    Exact rationals from sum_{j<=m} C(m+1, j) B_j = 0, so B_1 = -1/2, each
    rounded once.
    """
    b = [Fraction(1)]
    for m in range(1, EXPANSION_TERMS + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    over_fact = _ld_ratios([x.numerator for x in b],
                           [x.denominator * math.factorial(i) for i, x in enumerate(b)])
    return over_fact, _ld_ratios([x.numerator for x in b], [x.denominator for x in b])


def _digamma_gap(b: _LD) -> tuple[_LD, _LD]:
    """psi(b) - ln b for b > 0: ``(value, error_bound)``.

    An argument below ``_PSI_FROM`` is shifted up by n steps with
    psi(b) = psi(b + n) - sum_{j<n} 1/(b + j).  At x = b + n,
    psi(x) - ln x = -1/(2x) - sum_{k=1}^{8} B_2k / (2k x^2k), and for real
    x > 0 the remainder is at most the first omitted term,
    |B_18| / (18 x^18) (DLMF 5.11.ii), below 7e-22.  So
    psi(b) - ln b = ln(x/b) - 1/(2x) - sum_k ... - sum_j 1/(b + j), which
    keeps ln b, large for large or small b, out of the sum.  Each of the
    n + 12 roundings is at most EPS/2 of the sum of magnitudes.
    """
    bern = _bernoulli()[1]
    shifts = int(np.ceil(_PSI_FROM - b)) if b < _PSI_FROM else 0
    x = b + shifts
    inv2 = _ONE / (x * x)
    k = np.arange(1, _PSI_TERMS + 1)
    terms = bern[2 * k] / (2 * k) * np.cumprod(np.full(_PSI_TERMS, inv2))
    steps = _ONE / (b + np.arange(shifts).astype(_LD))
    log_ratio = np.log(x / b)
    value = log_ratio - _ONE / (2 * x) - terms.sum() - steps.sum()
    magnitude = abs(log_ratio) + _ONE / (2 * x) + abs(terms).sum() + steps.sum()
    trunc = abs(bern[2 * _PSI_TERMS + 2]) / (2 * _PSI_TERMS + 2) * inv2**(_PSI_TERMS + 1)
    return value, _EPS_LD * (shifts + 8) * magnitude + trunc


def _first_stop(stop: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis of each row, or the last index."""
    return np.where(stop.any(axis=-1), stop.argmax(axis=-1), stop.shape[-1] - 1)


def _lerch_expansion(alpha: np.ndarray, b: _LD) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi(e^-alpha, 1, b) near z = 1 for every alpha and one shift b > 0.

    The expansion (DLMF 25.14; Erdelyi et al., Higher Transcendental
    Functions I, 1.11) is

        Phi(e^-alpha, 1, b) = e^(b alpha) [-ln(alpha b) - gamma - (psi(b) - ln b)
                               + sum_{k>=1} (-1)^(k+1) beta_k alpha^k / k],

    with beta_k = B_k(b) / k! the Taylor coefficients of
    g(t) = t e^(bt) / (e^t - 1), which is analytic for |t| < 2 pi.  Returns
    the arrays ``(value, error_bound, terms_used)`` over alpha.  A point
    stops at the first k whose truncation bound is below EPS times its
    bracket, where further terms no longer move the long-double value, or
    uses all ``EXPANSION_TERMS``.

    Truncation.  On |t| = rho <= pi,
    |e^t - 1|^2 = (e^x - 1)^2 + 4 e^x sin^2(y/2) with t = x + iy, and
    sin u >= 2u/pi gives |e^t - 1| >= (2 rho / pi) min(1, e^x), so
    |g| <= M = (pi/2) e^(rho s) with s = max(b, 1 - b).  Cauchy's estimate
    |beta_k| <= M / rho^k bounds the series after k terms by
    M q^(k+1) / ((k+1)(1 - q)), q = alpha / rho, and rho = min(pi, (k+1)/s)
    minimises it.

    Rounding.  beta_k alpha^k = sum_{i+j=k} (B_i / (i! c^i)) ((b/c)^j / j!)
    (c alpha)^k with c = max(b, 1), so no power of a large b overflows.
    Each +, -, * or / errs by at most U = EPS/2 relative, a library log
    or exp by EPS.  Term k takes at most 6k + 3 roundings on its sum of
    magnitudes: 2i + 1 for B_i / (i! c^i), 3j for (b/c)^j / j!, one for
    their product, k for the convolution, one for / k, 2k - 1 for
    (c alpha)^k and one for the product.  Adding a term t to a partial sum
    s errs by at most min(U |s + t|, |t|), since s itself is a candidate
    result.  The bracket's head, -ln(alpha b) - gamma - (psi(b) - ln b),
    keeps -ln alpha and psi(b) from cancelling: its error is a few U of
    |ln(alpha b)| plus that of :func:`_digamma_gap`.  The growth
    e^(b alpha) takes EPS + U b alpha, and a rounded b moves Phi by at most
    U (1 + 1/b), since |dPhi/db| <= 1/b^2 + 1/b.
    """
    over_fact, _ = _bernoulli()
    n = EXPANSION_TERMS
    c = max(b, _ONE)
    k = _K
    u = over_fact * np.concatenate([[_ONE], np.cumprod(np.full(n, _ONE / c))])
    v = np.concatenate([[_ONE], np.cumprod((b / c) / k)])
    coef = np.convolve(u, v)[1:n + 1] / k
    coef_abs = np.convolve(abs(u), v)[1:n + 1] / k
    powers = np.cumprod(np.broadcast_to((alpha * c)[:, None], (alpha.size, n)), axis=1)
    steps = _SIGNS * coef * powers
    partial = np.cumsum(steps, axis=1)

    s = max(b, _ONE - b)
    k1 = k + 1
    rho = np.minimum(_PI, k1 / s)
    cauchy = _PI / 2 * np.exp(rho * s) / k1
    q = alpha[:, None] / rho
    tails = np.where(q < _ONE, cauchy * q**k1 / (_ONE - q), _LD(np.inf))

    log_ab = np.log(alpha * b)
    gap, gap_err = _digamma_gap(b)
    head = -(log_ab + _EULER) - gap
    brackets = head[:, None] + partial
    at = _first_stop(tails <= _EPS_LD * abs(brackets))
    pick = np.arange(alpha.size)
    rounding = np.cumsum(_U * (6 * k + 3) * coef_abs * powers
                         + np.minimum(_U * abs(partial), abs(steps)), axis=1)[pick, at]
    head_err = _U * (3 + 3 * abs(log_ab) + abs(head)) + gap_err
    bracket = brackets[pick, at]
    grow = np.exp(b * alpha)
    value = grow * bracket
    err = (grow * (head_err + rounding + _U * abs(bracket) + tails[pick, at])
           + (_EPS_LD + _U * (1 + b * alpha)) * abs(value) + _U * (_ONE + _ONE / b))
    return value, err, at + 1


def closed_moment_expansion(mu: float, alphas,
                            r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moment of :func:`closed_moment_sums` through the z -> 1 expansion, per alpha.

    With c = 1/mu, w_j = A_(r-1-j) / mu and the shifts c + j (j < r),
    partial fractions of the rearranged sum and sum_l Atilde_l / b_l =
    -mu^r give

        M_r = mu^-r z^(r-1) (1 + G_r),  G_r = (1 - z) sum_j w_j Phi(z, 1, c + j),

    with every shift positive, so no mu needs pole handling.  The w_j are
    of size mu^-r and the sum cancels to about G_r = O(1).  The shift
    identity Phi(z,1,c+j) = e^(j alpha) [Phi(z,1,c) - sum_{i<j} z^i/(c+i)]
    moves that cancellation into two entire functions of alpha,

        G_r = (1 - z) [Phi(z, 1, c) W(alpha) - V(alpha)],
        W = sum_j w_j e^(j alpha),  V = sum_{d=1}^{r-1} kappa_d e^(d alpha),
        kappa_d = sum_{i<=r-1-d} w_(i+d) / (c + i),

    whose Taylor coefficients omega_n = sum_j w_j j^n / n! and
    nu_n = sum_d kappa_d d^n / n! are exact rationals: a double mu = p/q is
    a dyadic rational, and ``partfrac._coeff_ratios`` gives every A_l in
    integers, so omega_n and nu_n are formed over one common denominator
    and each is rounded once.  This is the series
    G_r = sum_n alpha^n [P_n (-ln alpha - gamma - psi(c)) + Q_n], with
    sum P_n alpha^n = (1 - z) e^(c alpha) W and
    sum Q_n alpha^n = (1 - z) (e^(c alpha) S W - V), S the Bernoulli series
    of Phi(z, 1, c), evaluated as its factors; the one Phi comes from
    :func:`_lerch_expansion`.  The coefficients are built once per call,
    for every alpha.

    Truncation.  With x = (r-1) alpha, |omega_m alpha^m| <= sum_j |w_j|
    x^m / m!, so the tail of W after term n is at most
    sum_j |w_j| x^(n+1) / (n+1)! / (1 - x/(n+2)), and likewise for V with
    sum_d |kappa_d|.  The coefficients are built up to the first n at
    which the largest alpha has both tails below U = EPS/2 of |omega_0|
    and |nu_0|, or up to ``MAX_ORDER``; each point then stops at the first
    n where its tails are below U of its partial W and V, where their
    share of G_r is below one rounding of it.

    Rounding, formed at run time.  Term t_n of W or V takes n + 1
    roundings (the coefficient, alpha^n and the product), each at most
    U = EPS/2 of |t_n|, and adding it to the partial sum s errs by at most
    min(U |s|, |t_n|).  Phi's error, the factor 1 - z = -expm1(-alpha),
    mu^-r = (q/p)^r rounded once and e^(-alpha (r-1)) add their shares, and
    the final rounding to double adds DBL_EPS |value|.  The bound is
    finite wherever the expansion of Phi converges, alpha c < 2 pi; it is
    small where alpha (1/mu + r) is well below 1.  ``terms_used`` counts
    the Taylor terms of W and V.
    """
    alpha = np.asarray(alphas, dtype=_LD)
    frac = Fraction(mu)
    p, q = frac.numerator, frac.denominator
    # w_j = weights[j] / w_den and kappa_d = p kernel[d-1] / k_den, in integers
    w_den = p**r * math.factorial(r - 1)
    weights = [num * q * (w_den // (den * p)) for num, den in reversed(_coeff_ratios(r, frac))]
    shifts = [q + i * p for i in range(r - 1)]
    prod_shifts = math.prod(shifts)
    kernel = [sum(weights[i + d] * (prod_shifts // shifts[i]) for i in range(r - d))
              for d in range(1, r)]
    k_den = w_den * prod_shifts

    # sum_j |w_j| and sum_d |kappa_d|, which bound |omega_n| and |nu_n| n! / (r-1)^n
    sizes = (sum(map(abs, weights)), p * sum(map(abs, kernel)))
    # the coefficients up to the first n at which the largest alpha has both
    # tails below U |omega_0| and U |nu_0|, tested in logarithms of the integers
    spread = float((r - 1) * alpha.max(initial=_ZERO))
    firsts = (sum(weights), p * sum(kernel))
    log_ratio = max((math.log(size) - math.log(abs(first)) if first else math.inf
                     for size, first in zip(sizes, firsts) if size),
                    default=-math.inf) - math.log(_U)
    log_rest = 0.0
    for size in range(1, MAX_ORDER + 2):
        if spread == 0.0:
            break
        log_rest += math.log(spread / size)
        if spread < size + 1 and log_ratio + log_rest - math.log1p(-spread / (size + 1)) <= 0.0:
            break
    nums_w, nums_v, dens_w, dens_v = [], [], [], []
    j_pow, d_pow, fact = [1] * r, [1] * (r - 1), 1
    for n in range(size):
        nums_w.append(sum(w * x for w, x in zip(weights, j_pow)))
        nums_v.append(p * sum(k * x for k, x in zip(kernel, d_pow)))
        dens_w.append(w_den * fact)
        dens_v.append(k_den * fact)
        j_pow = [x * j for j, x in enumerate(j_pow)]
        d_pow = [x * (d + 1) for d, x in enumerate(d_pow)]
        fact *= n + 1

    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        coeffs = _ld_ratios(nums_w + nums_v + [sizes[0], sizes[1], q, q**r],
                            dens_w + dens_v + [w_den, k_den, p, p**r])
        coeffs, (size_w, size_v, c, inv_mu_r) = coeffs[:-4], coeffs[-4:]

        # every alpha against those coefficients: arrays over (alpha, W or V, n)
        order = np.arange(size)
        spread = ((r - 1) * alpha)[:, None]
        powers = np.cumprod(np.concatenate([np.ones((alpha.size, 1), _LD),
                                            np.repeat(alpha[:, None], order.size - 1, axis=1)],
                                           axis=1), axis=1)
        steps = powers[:, None, :] * coeffs.reshape(2, order.size)
        partial = np.cumsum(steps, axis=2)
        rounding = np.cumsum(_U * (order + 1) * abs(steps)
                             + np.minimum(_U * abs(partial), abs(steps)), axis=2)
        beyond = np.where(spread < order + 2,
                          np.cumprod(spread / (order + 1), axis=1) / (_ONE - spread / (order + 2)),
                          _LD(np.inf))
        tails = beyond[:, None, :] * np.array([size_w, size_v])[:, None]
        at = _first_stop((tails <= _U * abs(partial)).all(axis=1))
        pick = np.arange(alpha.size)
        (w_sum, v_sum), (w_err, v_err) = partial[pick, :, at].T, (rounding + tails)[pick, :, at].T

        phi, phi_err, _ = _lerch_expansion(alpha, c)
        gap = -np.expm1(-alpha)
        prod = phi * w_sum
        diff = prod - v_sum
        g = gap * diff
        g_err = (gap * (abs(w_sum) * phi_err + abs(phi) * w_err + v_err
                        + _U * (abs(prod) + abs(diff))) + (_EPS_LD + _U) * abs(g))
        one = _ONE + g
        front = inv_mu_r * np.exp(-alpha * (r - 1))
        value = front * one
        err = (front * (g_err + _U * abs(one)) + _U * (5 + alpha * (r - 1)) * abs(value)
               + _DBL_EPS * abs(value))
    return _curve_sums(value, err, (at + 1).astype(np.int64))


def lerch_expansion(z: float, a: float):
    """Phi(z, 1, a) by :func:`_lerch_expansion`: ``(value, error_bound, terms_used)``.

    alpha = -ln z is formed as -log1p(z - 1), with z - 1 exact for
    z >= 1/2 and a relative error below 2 EPS; |dPhi/dalpha| <= z/(1-z),
    so that error moves Phi by at most 2 EPS alpha / (e^alpha - 1) <= 2 EPS.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha = -np.log1p(np.array([z], dtype=_LD) - _ONE)
        value, err, terms = _lerch_expansion(alpha, _LD(a))
        err = err + 2 * _EPS_LD + _DBL_EPS * abs(value)
    return float(value[0]), float(err[0]), int(terms[0])


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
        g = gap[active, None]
        bound = np.fmax(atol_ld, rtol_ld * g * accs)
        tails = _block_tails(n, r, za, zns, lambda last: g * last <= bound[:, -1:])
        return g * tails <= bound, (zns, accs, tails)

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
        if cur < _LD_TINY and prev < _LD_TINY:
            # the recurrence can stall on the smallest subnormal, each step slow; a
            # product of such numbers lies far below the double range of the sum
            prev = cur = _ZERO
        window = basic[n.size:]
        prod = np.ones(n.size, dtype=_LD)
        for i in range(r):
            prod *= basic[i:i + n.size]
        return prod

    return _first(_oracle_sums((alpha,), r, rtol, atol, max_terms, products))
