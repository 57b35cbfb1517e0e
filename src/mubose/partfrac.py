"""Partial-fraction coefficients of the deformed occupation product.

The product prod_{l<r} (n-l)/(1+mu(n-l)) expands as

    mu^-r * (1 + sum_{l<r} A_l(mu) / (1 + mu(n-l))),

and the coefficients A_l obey an order-raising recurrence:

    A^(r+1)_l = A^(r)_l (1 + 1/(mu(r-l)))            l < r,
    A^(r+1)_r = -1 - sum_{l<r} A^(r)_l / (mu(r-l)),  seeded by A^(1)_0 = -1.

Coefficients are produced numerically at a concrete mu; symbolic forms
are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._backend import kernels
from .errors import MAX_ORDER, DomainError, PoleError, _check_mu_positive, _check_order

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


def a_coeffs(r: int, mu: float) -> ACoefficients:
    """Evaluate the partial-fraction coefficients at a concrete mu > 0.

    A coefficient that is not a finite double (A_l grows like mu^(1-r)
    as mu -> 0, and its recurrence overflows at huge mu) raises
    DomainError.
    """
    _check_order(r)
    _check_mu_positive(mu)
    values = kernels.a_coeff_values(r, mu)
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"A^({r})_l at mu={mu} lie beyond the double range")
    return ACoefficients(order=r, mu=mu, values=tuple(values))


def _exact_coeffs(r: int, mu: Fraction) -> list[Fraction]:
    coeffs = [Fraction(-1)]
    for order in range(1, r):
        nxt = [coeffs[l] * (1 + Fraction(1, 1) / (mu * (order - l))) for l in range(order)]
        nxt.append(-1 - sum(coeffs[l] / (mu * (order - l)) for l in range(order)))
        coeffs = nxt
    return coeffs


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
