"""Independent 50-digit mpmath references for the quantities the benchmark checks.

Nothing here calls mubose.  Moments of the mu-gas are summed from the
defining series (1-z) sum_n z^n prod_{l<r} phi(n-l) when alpha is large
enough for direct summation; at small alpha they use the partial-fraction
form with exact rational coefficients and ``mpmath.lerchphi``.  Float
inputs are converted exactly, so the reference answers the question the
package was asked.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

DPS = 50
#: below this alpha the direct series needs too many terms; use Lerch
DIRECT_MIN_ALPHA = 0.05


def _tiny():
    return mp.mpf(10) ** (-DPS - 5)


def _phi(x, mu):
    return x / (1 + mu * x)


def _direct_moment(mu, z, r):
    acc = mp.mpf(0)
    n = r
    zn = z**r
    while True:
        term = zn
        for l in range(r):
            term *= _phi(mp.mpf(n - l), mu)
        acc += term
        if term < _tiny() * acc and n > 2 * r:
            break
        zn *= z
        n += 1
    return (1 - z) * acc


def _a_exact(r, mu):
    """Partial-fraction coefficients A^(r)_l by the exact rational recurrence."""
    coeffs = [Fraction(-1)]
    for order in range(1, r):
        nxt = [c * (1 + 1 / (mu * (order - l))) for l, c in enumerate(coeffs)]
        nxt.append(-1 - sum(c / (mu * (order - l)) for l, c in enumerate(coeffs)))
        coeffs = nxt
    return coeffs


def _lerch_moment(mu_f, z, r):
    mu = mp.mpf(mu_f)
    total = 1 / (1 - z)
    for l, a_l in enumerate(_a_exact(r, Fraction(mu_f))):
        total += mp.mpf(a_l.numerator) / a_l.denominator / mu * mp.lerchphi(z, 1, 1 / mu - l)
    return (1 - z) * total / mu**r


def moment(mu, alpha, r):
    """Normalised moment <(a+)^r a^r> of the mu-gas at (mu, alpha)."""
    with mp.workdps(DPS):
        z = mp.exp(-mp.mpf(alpha))
        if mu == 0:
            return math.factorial(r) / mp.expm1(mp.mpf(alpha)) ** r
        if alpha >= DIRECT_MIN_ALPHA:
            return _direct_moment(mp.mpf(mu), z, r)
        return _lerch_moment(mu, z, r)


def intercept(mu, alpha, r):
    with mp.workdps(DPS):
        return moment(mu, alpha, r) / moment(mu, alpha, 1) ** r - 1


def r3(mu, alpha):
    with mp.workdps(DPS):
        l2 = intercept(mu, alpha, 2)
        l3 = intercept(mu, alpha, 3)
        return (l3 - 3 * l2) / (2 * l2**1.5)


def intercept_asymptotic(mu, r):
    with mp.workdps(DPS):
        mu = mp.mpf(mu)
        out = (1 + mu) ** r
        for j in range(1, r + 1):
            out *= j / (1 + mu * j)
        return out - 1


def r3_asymptotic(mu):
    with mp.workdps(DPS):
        l2 = intercept_asymptotic(mu, 2)
        l3 = intercept_asymptotic(mu, 3)
        return (l3 - 3 * l2) / (2 * l2**1.5)


def _pq_bracket(n, p, q):
    return sum(p**j * q ** (n - 1 - j) for j in range(n))


def pq_moment(p, q, alpha, r):
    """(1-z) sum_n z^n prod_{l<r} [n-l]_{p,q}, direct or by the factored closed form."""
    with mp.workdps(DPS):
        p, q = mp.mpf(p), mp.mpf(q)
        z = mp.exp(-mp.mpf(alpha))
        if alpha >= DIRECT_MIN_ALPHA:
            acc = mp.mpf(0)
            n = r
            while True:
                term = z**n
                for l in range(r):
                    term *= _pq_bracket(n - l, p, q)
                acc += term
                if term < _tiny() * acc and n > 2 * r:
                    break
                n += 1
            return (1 - z) * acc
        out = (1 - z) * z**r
        for n in range(1, r + 1):
            out *= _pq_bracket(n, p, q)
        for j in range(r + 1):
            out /= 1 - p**j * q ** (r - j) * z
        return out


def pq_intercept(p, q, alpha, r):
    with mp.workdps(DPS):
        return pq_moment(p, q, alpha, r) / pq_moment(p, q, alpha, 1) ** r - 1


def pq_intercept_asymptotic(p, q, r):
    with mp.workdps(DPS):
        out = mp.mpf(1)
        for n in range(1, r + 1):
            out *= _pq_bracket(n, mp.mpf(p), mp.mpf(q))
        return out - 1


def lerch(z, a):
    with mp.workdps(DPS):
        return mp.lerchphi(mp.mpf(z), 1, mp.mpf(a))


def power_coeff(s, alpha):
    """c_s(0) = (-1)^s sum_{n>=0} n^s e^(-alpha n)."""
    with mp.workdps(DPS):
        z = mp.exp(-mp.mpf(alpha))
        total = mp.polylog(-s, z) + (1 if s == 0 else 0)
        return (-1) ** s * total


def a_coeffs(r, mu):
    return [float(c) for c in _a_exact(r, Fraction(mu))]


def print_slack(value):
    """Half a unit in the 12th significant digit: the rounding of a printed cell."""
    if value == 0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def violation(value, bound, ref):
    """None when value is finite and |value - ref| <= bound, else a description."""
    if not (math.isfinite(value) and math.isfinite(bound)):
        return f"value {value!r} or bound {bound!r} is not finite"
    err = abs(mp.mpf(value) - ref)
    if err <= bound:
        return None
    return f"|value - ref| = {float(err):.3e} > bound {bound:.3e} (value {value!r}, ref {mp.nstr(ref, 20)})"
