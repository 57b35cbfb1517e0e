"""Partial-fraction coefficients of the deformed occupation product.

The product prod_{l<r} (n-l)/(1+mu(n-l)) expands as

    mu^-r * (1 + sum_{l<r} A_l(mu) / (1 + mu(n-l))),

and the residue at 1 + mu(n-l) = 0 gives each coefficient as a product:

    A_l = -prod_{j != l} (1 - 1/(mu(l-j))).

With mu = n/d an exact rational (every double is one), the factors with
j < l are (nk - d)/(nk) and those with j > l are (nk + d)/(nk), k = |l-j|,
so the prefix products P_m = prod_{k<=m} (nk - d) and
Q_m = prod_{k<=m} (nk + d) give every coefficient in exact integers,

    A_l = -P_l Q_{r-1-l} / (n^(r-1) l! (r-1-l)!).

Coefficients are produced numerically at a concrete mu; symbolic forms
are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PoleError, _beyond_range, _check_mu_positive, _check_order

#: relative vanishing threshold for denominators 1 + mu(n-l)
POLE_TOL = 1e-12


@dataclass(frozen=True)
class ACoefficients:
    """Coefficient set A_l(mu), l = 0..order-1, for one (order, mu)."""

    order: int
    mu: float
    values: tuple[float, ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return self.order


def _coeff_ratios(r: int, mu: Fraction) -> list[tuple[int, int]]:
    """A_l(mu), l = 0..r-1, each as an exact (numerator, positive denominator) pair."""
    n, d = mu.numerator, mu.denominator
    falling, rising, factorials = [1], [1], [1]
    for k in range(1, r):
        falling.append(falling[-1] * (n * k - d))
        rising.append(rising[-1] * (n * k + d))
        factorials.append(factorials[-1] * k)
    scale = n ** (r - 1)
    return [(-falling[l] * rising[r - 1 - l], scale * factorials[l] * factorials[r - 1 - l])
            for l in range(r)]


def _exact_coeffs(r: int, mu: Fraction) -> list[Fraction]:
    """A_l(mu), l = 0..r-1, as exact rationals."""
    return [Fraction(num, den) for num, den in _coeff_ratios(r, mu)]


def _coeff_values(r: int, mu: float) -> list[float]:
    """A_l(mu), l = 0..r-1, each its exact rational rounded once to a double.

    Integer true division rounds correctly and gives an exact zero (mu =
    1/k, l >= k) as +0.0.  A coefficient beyond the double range raises
    OverflowError.
    """
    return [num / den for num, den in _coeff_ratios(r, Fraction(mu))]


def a_coeffs(r: int, mu: float) -> ACoefficients:
    """Evaluate the partial-fraction coefficients at a concrete mu > 0.

    Each value is the exact A_l correctly rounded.  A coefficient that
    is not a finite double (A_l grows like mu^(1-r) as mu -> 0) raises
    DomainError.
    """
    _check_order(r)
    _check_mu_positive(mu)
    try:
        values = _coeff_values(r, mu)
    except OverflowError:
        raise _beyond_range(f"A^({r})_l", mu=mu) from None
    return ACoefficients(order=r, mu=mu, values=tuple(values))


def expansion_residual(r: int, mu: float, n: float) -> float:
    """Difference between the occupation product and its expansion at n.

    Both sides are rational in (mu, n), so the residual is evaluated in
    exact rational arithmetic (binary floats are exact rationals) and
    only converted to float at the end.  A float-mode evaluation would
    be swamped by cancellation noise of order mu^(1-2r) for small mu,
    which is exactly the regime a residual probe has to survive.
    """
    _check_order(r)
    _check_mu_positive(mu)
    if not math.isfinite(n):
        raise DomainError(f"evaluation point must be finite, got {n}")
    for l in range(r):
        den = 1.0 + mu * (n - l)
        if abs(den) < POLE_TOL * max(1.0, abs(mu * (n - l))):
            raise PoleError(
                f"denominator 1 + mu(n-l) vanishes at l={l} (mu={mu}, n={n})"
            )

    mu_f = Fraction(mu)
    n_f = Fraction(n)
    lhs = Fraction(1)
    for l in range(r):
        lhs *= (n_f - l) / (1 + mu_f * (n_f - l))
    coeffs = _exact_coeffs(r, mu_f)
    inner = Fraction(1)
    for l in range(r):
        inner += coeffs[l] / (1 + mu_f * (n_f - l))
    rhs = inner / mu_f**r
    return float(lhs - rhs)
