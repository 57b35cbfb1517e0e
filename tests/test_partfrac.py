"""Partial-fraction coefficients A^(r)_l and the expansion identity."""

import functools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubose import DomainError, PoleError, a_coeffs, expansion_residual


def closed_form_a2(mu):
    return (-1.0 - 1.0 / mu, -1.0 + 1.0 / mu)


def closed_form_a3(mu):
    return (
        -1.0 - 1.5 / mu - 0.5 / mu**2,
        -1.0 + 1.0 / mu**2,
        -1.0 + 1.5 / mu - 0.5 / mu**2,
    )


class TestACoefficients:
    def test_order_one_seed(self):
        assert tuple(a_coeffs(1, 0.3).values) == (-1.0,)

    def test_listed_values_at_half(self):
        got = a_coeffs(2, 0.5).values
        assert got == pytest.approx((-3.0, 1.0), rel=1e-12)
        got = a_coeffs(3, 0.5).values
        assert got == pytest.approx((-6.0, 3.0, 0.0), rel=1e-12, abs=1e-12)

    def test_closed_forms_sampled(self):
        # recurrence vs hand closed forms for r = 2, 3 over mu in (0, 0.5]
        for i in range(20):
            mu = 0.5 * (i + 1) / 20.0
            got2 = a_coeffs(2, mu).values
            want2 = closed_form_a2(mu)
            assert got2 == pytest.approx(want2, rel=1e-12)
            got3 = a_coeffs(3, mu).values
            want3 = closed_form_a3(mu)
            assert got3 == pytest.approx(want3, rel=1e-12, abs=1e-12)

    def test_sum_limit_large_mu(self):
        # each coefficient tends to -1, so the sum tends to -r
        for r in (2, 3, 5, 8):
            total = sum(a_coeffs(r, 1e6).values)
            assert total == pytest.approx(-r, abs=1e-4)

    def test_container_protocol(self):
        coeffs = a_coeffs(3, 0.25)
        assert len(coeffs) == 3
        assert list(coeffs) == list(coeffs.values)
        assert coeffs.order == 3 and coeffs.mu == 0.25

    @pytest.mark.parametrize("r,mu", [(0, 0.1), (-2, 0.1), (2, 0.0), (2, -0.5)])
    def test_domain(self, r, mu):
        with pytest.raises(DomainError):
            a_coeffs(r, mu)

    @pytest.mark.parametrize("r,mu", [(3, 1e-200), (64, 1e-300)])
    def test_beyond_double_range(self, r, mu):
        # A_l ~ mu^(1-r) overflows a double at tiny mu, without leaking a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the double range"):
                a_coeffs(r, mu)

    def test_huge_mu_rounds_exactly(self):
        # A_l = -1 + O(1/mu), so at mu = 1e300 every exact A^(64)_l rounds to -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert a_coeffs(64, 1e300).values == (-1.0,) * 64


@functools.cache
def recurrence_coeffs(mu: float) -> tuple[tuple[Fraction, ...], ...]:
    """A^(r)_l(mu) for r = 1..64 in exact rationals, by the order-raising recurrence

        A^(r+1)_l = A^(r)_l (1 + 1/(mu(r-l)))            l < r,
        A^(r+1)_r = -1 - sum_{l<r} A^(r)_l / (mu(r-l)),  A^(1)_0 = -1,

    an independent route to the residue products the package evaluates.
    Entry r - 1 holds order r.
    """
    m = Fraction(mu)
    orders = [(Fraction(-1),)]
    for order in range(1, 64):
        prev = orders[-1]
        nxt = [c * (1 + 1 / (m * (order - l))) for l, c in enumerate(prev)]
        nxt.append(-1 - sum(c / (m * (order - l)) for l, c in enumerate(prev)))
        orders.append(tuple(nxt))
    return tuple(orders)


class TestExactRounding:
    """Each A_l is its exact rational value rounded once to a double."""

    @pytest.mark.parametrize("mu", [*(1.0 / j for j in range(1, 13)),
                                    0.5, 0.25, 0.2, 1e-5, 1e6])
    @pytest.mark.parametrize("r", [*range(1, 17), 32, 64])
    def test_matches_exact_recurrence(self, r, mu):
        exact = recurrence_coeffs(mu)[r - 1]
        try:
            want = tuple(map(float, exact))
        except OverflowError:
            with pytest.raises(DomainError, match="beyond the double range"):
                a_coeffs(r, mu)
            return
        got = a_coeffs(r, mu).values
        assert got == want
        # an exact zero is +0.0, so it prints as 0, never -0
        assert all(math.copysign(1.0, v) > 0 for v, x in zip(got, exact) if x == 0)


class TestExpansionResidual:
    def test_trivial_zero_point(self):
        assert expansion_residual(1, 0.2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_interior_point(self):
        assert abs(expansion_residual(3, 0.1, 7.5)) <= 1e-12

    def test_root_of_product(self):
        # n = 2 zeroes the l = 2 factor; the fraction sum must cancel exactly
        assert abs(expansion_residual(5, 0.05, 2.0)) <= 1e-12

    def test_randomized_grid(self):
        rng = random.Random(20240817)
        for r in range(1, 9):
            hi = 1.0 / (r - 1) if r > 1 else 1.0
            checked = 0
            while checked < 100:
                mu = rng.uniform(1e-3, hi * 0.999)
                n = rng.uniform(-3.0, 25.0)
                if any(abs(1.0 + mu * (n - l)) < 1e-3 for l in range(r)):
                    continue
                product = 1.0
                for l in range(r):
                    product *= (n - l) / (1.0 + mu * (n - l))
                res = expansion_residual(r, mu, n)
                scale = max(abs(product), 1.0)
                if abs(product) < 1e-9:
                    assert abs(res) <= 1e-12
                else:
                    assert abs(res) <= 1e-10 * scale
                checked += 1

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(min_value=1, max_value=6),
        mu=st.floats(min_value=0.01, max_value=0.45),
        n=st.floats(min_value=-5.0, max_value=40.0),
    )
    def test_identity_property(self, r, mu, n):
        if any(abs(1.0 + mu * (n - l)) < 1e-2 for l in range(r)):
            return
        assert abs(expansion_residual(r, mu, n)) <= 1e-10 * max(
            1.0, abs(n) ** r
        )

    def test_pole_detection(self):
        # 1 + 0.5 (n - 0) = 0 at n = -2
        with pytest.raises(PoleError):
            expansion_residual(3, 0.5, -2.0)
        with pytest.raises(PoleError):
            expansion_residual(3, 0.5, -1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            expansion_residual(0, 0.1, 1.0)
        with pytest.raises(DomainError):
            expansion_residual(2, -0.1, 1.0)
