"""Thermal moments, intercepts, and asymptotics of the mu-Bose gas."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubose import core
from mubose._backend import kernels
from mubose.core import DEFAULT_TOL
from mubose.partfrac import _exact_coeffs
from test_pq import TestInterceptBound as _PQBound
from mubose import (
    ASYMPTOTIC,
    CLOSED_FORM,
    ORACLE,
    ConvergenceError,
    CorrelationResult,
    DeformationMu,
    DomainError,
    LerchQuery,
    PQParams,
    ThermoPoint,
    a_coeffs,
    c_coeff,
    divergence_diagnostic,
    g_coeff,
    intercept,
    intercept_asymptotic,
    lerch_phi_s1,
    mean_occupation,
    mu_bracket,
    mu_factorial,
    oracle_moment,
    pq_bracket,
    pq_intercept_result,
    pq_moment,
    pq_oracle_moment,
    r3_asymptotic,
    r3_function,
    r_moment,
    series_coeff_oracle,
    stirling2,
    taylor_moment,
)

LN2 = math.log(2.0)
PION = 139.57


class TestTypes:
    def test_deformation_validation(self):
        assert DeformationMu(0.0).mu == 0.0
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                DeformationMu(bad)

    def test_thermo_point_alpha(self):
        pt = ThermoPoint(120.0, 0.0, PION)
        assert pt.alpha == pytest.approx(PION / 120.0, rel=1e-15)
        pt = ThermoPoint(180.0, 300.0, PION)
        assert pt.alpha == pytest.approx(math.hypot(PION, 300.0) / 180.0, rel=1e-15)

    @pytest.mark.parametrize("T,k,m", [
        (0.0, 0.0, PION), (-5.0, 0.0, PION), (120.0, -1.0, PION), (120.0, 0.0, 0.0),
        *((bad, 0.0, PION) for bad in (math.nan, math.inf, -math.inf)),
        *((120.0, bad, PION) for bad in (math.nan, math.inf, -math.inf)),
        *((120.0, 0.0, bad) for bad in (math.nan, math.inf, -math.inf))])
    def test_thermo_point_validation(self, T, k, m):
        # each case spoils one argument of the valid point (120, 0, PION)
        what = "temperature" if T != 120.0 else "momentum" if k != 0.0 else "mass"
        with pytest.raises(DomainError, match=f"^{what} must be"):
            ThermoPoint(T, k, m)


class TestBracket:
    def test_values(self):
        assert mu_bracket(1.0, 0.1) == pytest.approx(1.0 / 1.1, rel=1e-15)
        assert mu_bracket(5.0, 0.0) == 5.0
        assert mu_bracket(3.0, 0.2) == pytest.approx(1.875, rel=1e-15)

    def test_saturation_bound(self):
        # phi(n) < 1/mu for every n when mu > 0
        assert all(mu_bracket(float(n), 0.25) < 4.0 for n in range(1, 200))

    def test_domain(self):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="^occupation argument must be"):
                mu_bracket(bad, 0.1)
        with pytest.raises(DomainError, match="^deformation parameter must be"):
            mu_bracket(1.0, -0.1)

    def test_factorial(self):
        assert mu_factorial(3, 0.0) == pytest.approx(6.0, rel=1e-15)
        want = (1 / 1.1) * (2 / 1.2) * (3 / 1.3)
        assert mu_factorial(3, 0.1) == pytest.approx(want, rel=1e-14)

    def test_factorial_domain(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                mu_factorial(2, bad)


class TestIntegerArguments:
    """One integer rule: a bool is no integer, and a numpy integer is refused by its repr."""

    @pytest.mark.parametrize("call", [
        lambda: r_moment(0.1, 1.0, True),
        lambda: mu_factorial(True, 0.1),
        lambda: c_coeff(True, 0, 1.0),
        lambda: c_coeff(0, True, 1.0),
        lambda: a_coeffs(True, 0.5),
        lambda: stirling2(True, 1),
        lambda: stirling2(1, True),
        lambda: g_coeff(True, 0),
        lambda: g_coeff(1, True),
        lambda: pq_bracket(True, PQParams(0.9, 0.7)),
        lambda: series_coeff_oracle(0, 0, 1.0, True),
        lambda: taylor_moment(0.1, 1.0, 2, True),
        lambda: divergence_diagnostic(0.1, 1.0, 2, True),
    ])
    def test_bool_is_refused(self, call):
        with pytest.raises(DomainError, match="must be an integer >= .*, got True"):
            call()

    def test_numpy_integer_shows_its_repr(self):
        with pytest.raises(DomainError) as info:
            r_moment(0.1, 1.0, np.int64(2))
        assert str(info.value).endswith(f"got {np.int64(2)!r}")


class TestMeanOccupation:
    def test_bose_limit(self):
        res = mean_occupation(0.0, LN2)
        assert res.value == pytest.approx(1.0, rel=1e-15)
        assert res.method == CLOSED_FORM

    def test_frozen_oracle_value(self):
        # (1-e^-1) sum phi_0.1(n) e^-n, summed in high precision
        res = mean_occupation(0.1, 1.0)
        assert res.value == pytest.approx(0.48368116243507456, rel=1e-12)
        assert res.error_bound <= 1e-12

    def test_continuity_at_zero(self):
        tiny = mean_occupation(1e-8, 1.0).value
        zero = mean_occupation(0.0, 1.0).value
        assert tiny == pytest.approx(zero, abs=1e-5)

    def test_accepts_wrapper_type(self):
        a = mean_occupation(DeformationMu(0.1), 1.0).value
        b = mean_occupation(0.1, 1.0).value
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            mean_occupation(0.1, 0.0)
        with pytest.raises(DomainError):
            mean_occupation(0.1, 1.0, tol=0.0)

    @pytest.mark.parametrize("alpha", [1e4, 1.4e308])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_underflowed_moment_is_plus_zero(self, alpha, r):
        # the closed series sums to -0.0 where z^r underflows; no moment is negative
        res = r_moment(0.1, alpha, r)
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0


def _bose_moment(alpha, r):
    """r! / (e^alpha - 1)^r at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return mpmath.factorial(r) / mpmath.expm1(alpha) ** r


@pytest.mark.parametrize("alpha", [400.0, 709.0, 710.0, 1e4])
class TestBoseBeyondDoubleRange:
    """mu = 0 where e^alpha - 1 overflows or the value underflows."""

    def test_mean(self, alpha):
        res = mean_occupation(0.0, alpha)
        assert res.value >= 0.0
        assert abs(res.value - _bose_moment(alpha, 1)) <= res.error_bound

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_moment(self, alpha, r):
        res = r_moment(0.0, alpha, r)
        assert res.method == CLOSED_FORM and res.value >= 0.0
        assert abs(res.value - _bose_moment(alpha, r)) <= res.error_bound


class TestBoseBeyondDoubleRangeSmallAlpha:
    """mu = 0 where the value itself exceeds the double range: one DomainError rule."""

    def test_mean(self):
        with pytest.raises(DomainError, match="beyond the double range"):
            mean_occupation(0.0, 5e-324)

    @pytest.mark.parametrize("alpha, r", [(1e-200, 2), (1e-154, 2), (1e-110, 3)])
    def test_moment(self, alpha, r):
        with pytest.raises(DomainError, match="beyond the double range"):
            r_moment(0.0, alpha, r)

    def test_largest_values_stay(self):
        # 2 / alpha^2 at alpha = 1e-150 and 1 / alpha at 1e-300 are still doubles
        _assert_within_bound(r_moment(0.0, 1e-150, 2), _bose_moment(1e-150, 2))
        _assert_within_bound(mean_occupation(0.0, 1e-300), _bose_moment(1e-300, 1))

    def test_failures_keep_their_slots(self):
        curve = core.curve("moment", 0.0, [1.0, 1e-200, math.nan], 2, 1e-12)
        assert sorted(curve.failures) == [1, 2]
        assert "beyond the double range" in str(curve.failures[1])
        assert curve.values[0] == r_moment(0.0, 1.0, 2).value


def _direct_moment(mu, alpha, r):
    """(1-z) sum_{n>=r} z^n prod_{l<r} phi(n-l), the defining series, at 60 digits.

    Every factor phi(x) < 1/mu, so the tail after term n is below
    mu^-r z^(n+1) / (1-z); the sum stops once that is 1e-60 of the total.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        m, z = mpmath.mpf(mu), mpmath.exp(-mpmath.mpf(alpha))

        def phi(x):
            return x / (1 + m * x)

        prod = mpmath.fprod(phi(r - l) for l in range(r))
        zn, total, n = z**r, mpmath.mpf(0), r
        cap = m**-r / (1 - z) * mpmath.mpf(10) ** 60
        while True:
            total += zn * prod
            zn *= z
            if cap * zn <= total:
                return (1 - z) * total
            n += 1
            prod *= phi(n) / phi(n - r)


def _direct_intercept(mu, alpha, r):
    """moment / mean^r - 1 from the 60-digit defining series."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        return _direct_moment(mu, alpha, r) / _direct_moment(mu, alpha, 1) ** r - 1


def _assert_within_bound(res, want):
    assert math.isfinite(res.value)
    assert abs(res.value - want) <= res.error_bound, (res, float(want))


class TestRMoment:
    def test_bose_closed_form(self):
        res = r_moment(0.0, LN2, 3)
        assert res.value == pytest.approx(6.0, rel=1e-14)

    def test_frozen_oracle_value(self):
        res = r_moment(0.1, 1.0, 2)
        assert res.value == pytest.approx(0.40271173395477298, rel=1e-12)
        assert res.method == CLOSED_FORM

    def test_r1_matches_mean(self):
        assert r_moment(0.2, 5.0, 1).value == mean_occupation(0.2, 5.0).value

    def test_domain_boundary(self):
        # mu >= 1/(r-1), outside the printed Lerch form, and the lattice point
        # mu = 1/(r-1) itself have values on the rearranged closed form
        for mu in (0.6, 0.5):
            res = r_moment(mu, 1.0, 3)
            assert res.method == CLOSED_FORM
            _assert_within_bound(res, _direct_moment(mu, 1.0, 3))

    def test_small_mu_routes_to_oracle(self):
        res = r_moment(1e-6, 1.0, 4)
        assert res.method == ORACLE
        bose = math.factorial(4) / math.expm1(1.0) ** 4
        assert res.value == pytest.approx(bose, rel=1e-4)


class TestOracleMoment:
    def test_bose_agreement(self):
        got = oracle_moment(0.0, LN2, 2)
        assert got.value == pytest.approx(2.0, abs=1e-10)
        assert got.method == ORACLE

    def test_matches_closed_form(self):
        a = r_moment(0.1, 1.0, 3)
        b = oracle_moment(0.1, 1.0, 3)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_near_domain_edge(self):
        res = oracle_moment(0.45, 2.0, 2)
        assert math.isfinite(res.value) and res.value > 0.0

    def test_pole_rejection(self):
        # 1/mu an integer <= r-1: the series sums n >= r, where no phi(n-l)
        # has a pole, so these have values like every other mu
        for mu, r in ((0.5, 3), (1.0, 2), (1.0, 3), (0.5, 2)):
            res = oracle_moment(mu, 1.0, r)
            assert res.method == ORACLE
            _assert_within_bound(res, _direct_moment(mu, 1.0, r))


class TestIntercept:
    def test_undeformed_exact(self):
        for r in range(2, 7):
            res = intercept(0.0, 1.234, r)
            assert res.value == float(math.factorial(r) - 1)
            assert res.error_bound == 0.0

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.163, 8.4])
    def test_undeformed_through_the_oracle(self, alpha, r):
        # method="oracle" never takes the exact mu = 0 form: it sums the series
        res = intercept(0.0, alpha, r, method="oracle")
        assert res.method == ORACLE and res.error_bound > 0.0
        assert abs(res.value - (math.factorial(r) - 1)) <= res.error_bound

    def test_tiny_mu_near_undeformed(self):
        alpha = ThermoPoint(120.0, 0.0, PION).alpha
        for r in range(2, 7):
            res = intercept(1e-6, alpha, r)
            want = math.factorial(r) - 1
            assert res.value == pytest.approx(want, rel=1e-4)

    def test_vanishing_mu_falls_to_oracle(self):
        # mu^(2-2r) overflows a double; the conditioning estimate is infinite
        for r in (2, 3, 6):
            res = intercept(1e-300, 1.0, r)
            assert res.method == ORACLE
            assert abs(res.value - (math.factorial(r) - 1)) <= res.error_bound

    @pytest.mark.parametrize("mu, r", [(5e-324, 2), (1e-300, 3), (5e-324, 64)])
    def test_forced_closed_beyond_double_range(self, mu, r):
        # mu^(2-2r) cancellation beyond the double range: no digit survives
        with pytest.raises(DomainError, match="use the oracle"):
            intercept(mu, 1.0, r, method="closed")

    def test_large_alpha_near_asymptote(self):
        res = intercept(0.1, 25.0, 2)
        assert res.value == pytest.approx(intercept_asymptotic(0.1, 2), abs=1e-4)

    def test_closed_vs_oracle(self):
        a = intercept(0.2, 1.5, 3, method="closed")
        b = intercept(0.2, 1.5, 3, method="oracle")
        assert a.value == pytest.approx(b.value, rel=1e-9)
        assert a.value == pytest.approx(2.4226690276648218, rel=1e-10)
        assert a.method == CLOSED_FORM and b.method == ORACLE

    def test_error_bounds_honest(self):
        for mu, alpha, r in [(0.05, 0.8, 2), (0.1, 1.2, 3), (0.2, 2.0, 4),
                             (0.3, 1.0, 3), (0.15, 5.0, 5)]:
            a = intercept(mu, alpha, r, method="closed")
            b = intercept(mu, alpha, r, method="oracle")
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_auto_falls_back_when_ill_conditioned(self):
        assert intercept(1e-6, 1.0, 3).method == ORACLE
        assert intercept(0.1, 1.0, 3).method == CLOSED_FORM

    def test_forced_closed_requires_admissible_mu(self):
        # the forced closed route holds beyond mu < 1/(r-1) too
        for mu in (0.6, 2.0):
            res = intercept(mu, 1.0, 3, method="closed")
            assert res.method == CLOSED_FORM
            _assert_within_bound(res, _direct_intercept(mu, 1.0, 3))

    def test_inadmissible_mu_uses_oracle_in_auto(self):
        # mu >= 1/(r-1) is well conditioned, so auto takes the closed form
        res = intercept(0.6, 1.0, 3)
        assert res.method == CLOSED_FORM
        _assert_within_bound(res, _direct_intercept(0.6, 1.0, 3))

    def test_pole_with_no_route(self):
        # mu = 1/(r-1) has a value on every route
        want = _direct_intercept(0.5, 1.0, 3)
        for method in ("auto", "closed", "oracle"):
            _assert_within_bound(intercept(0.5, 1.0, 3, method=method), want)

    def test_underflow_returns_asymptote(self):
        res = intercept(0.1, 800.0, 2)
        assert res.method == ASYMPTOTIC
        assert res.value == intercept_asymptotic(0.1, 2)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            intercept(0.1, 1.0, 1)
        with pytest.raises(DomainError):
            intercept(0.1, 1.0, 2, method="magic")
        with pytest.raises(DomainError):
            intercept(0.1, -1.0, 2)


class TestAsymptotics:
    def test_printed_values(self):
        assert intercept_asymptotic(0.1, 2) == pytest.approx(1.0 / 1.2, rel=5e-15)
        want3 = 5.7 / (1.2 * 1.3)
        assert intercept_asymptotic(0.1, 3) == pytest.approx(want3, rel=5e-15)
        assert intercept_asymptotic(0.0, 4) == pytest.approx(23.0, rel=1e-15)

    def test_general_formula(self):
        mu, r = 0.17, 5
        want = (1 + mu) ** r * mu_factorial(r, mu) - 1.0
        assert intercept_asymptotic(mu, r) == want

    def test_huge_mu_keeps_the_finite_limit(self):
        # for mu >= 1 the limit prod_j (1 + (j-1)/(1+mu j)) - 1 ~ r(r-1)/(4mu)
        # is small; the reference keeps 40 digits beyond the 1/mu scale
        mpmath = pytest.importorskip("mpmath")
        cases = [(1e300, 3), (1e300, 64), (1e200, 2)] + [
            (mu, r) for mu in (1e3, 1e8, 1e16, 1e100, 1e150) for r in (2, 3, 8)]
        for mu, r in cases:
            with mpmath.workdps(40 + int(math.log10(mu))):
                want = mpmath.mpf(1)
                for j in range(2, r + 1):
                    want *= 1 + (j - 1) / (1 + mpmath.mpf(mu) * j)
                want = float(want - 1)
            assert intercept_asymptotic(mu, r) == pytest.approx(want, rel=1e-14, abs=0), (mu, r)
        assert intercept_asymptotic(1e308, 2) >= 0.0

    def test_huge_mu_intercept_takes_the_limit(self):
        res = intercept(1e300, 1.163, 2, method="oracle")
        assert res.method == ASYMPTOTIC
        assert res.value == intercept_asymptotic(1e300, 2)

    def test_convergence_at_high_momentum(self):
        alpha = ThermoPoint(120.0, 3000.0, PION).alpha
        for r in (2, 3):
            res = intercept(0.1, alpha, r)
            assert res.value == pytest.approx(intercept_asymptotic(0.1, r), abs=1e-6)


class TestR3:
    def test_undeformed(self):
        res = r3_function(0.0, 2.0)
        assert res.value == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.163, 8.4])
    def test_undeformed_through_the_oracle(self, alpha):
        res = r3_function(0.0, alpha, method="oracle")
        assert res.method == ORACLE and abs(res.value - 1.0) <= res.error_bound

    def test_asymptotic_value(self):
        assert r3_asymptotic(0.1) == pytest.approx(0.7583850796225377, rel=1e-13)
        assert r3_asymptotic(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_lambda2_beyond_double_range_is_a_domain_error(self):
        # lambda2 -> 1/(1+2mu): its 3/2 and 5/2 powers underflow at mu = 1e300
        with pytest.raises(DomainError, match="r3 undefined"):
            r3_asymptotic(1e300)
        with pytest.raises(DomainError, match="r3 undefined"):
            r3_function(1e300, 1.163, method="oracle")

    def test_uncertain_lambda2_is_a_domain_error(self):
        # at mu = 1e100 the oracle's lambda2 is rounding noise with a bound 68
        # times itself; linear propagation printed -1.0e8 +- 3.7e9 against a
        # true r3 of -5.32e49
        with pytest.raises(DomainError, match="too uncertain.*r3 undefined"):
            r3_function(1e100, 1.0, method="oracle")

    def test_asymptote_at_large_mu(self):
        # lambda2 = 1/(1+2mu) and lambda3 = (5+7mu)/((1+2mu)(1+3mu)) stay
        # positive doubles at mu = 1e100, where r3 ~ -(2^1.5/6) sqrt(mu)
        mpmath = pytest.importorskip("mpmath")
        mu = 1e100
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            l2 = 1 / (1 + 2 * m)
            l3 = (5 + 7 * m) / ((1 + 2 * m) * (1 + 3 * m))
            want = float((l3 - 3 * l2) / (2 * l2**1.5))
        assert r3_asymptotic(mu) == pytest.approx(want, rel=1e-13)

    def test_large_alpha_matches_asymptote(self):
        res = r3_function(0.1, 28.0)
        assert res.value == pytest.approx(r3_asymptotic(0.1), abs=1e-6)

    def test_oracle_assembly(self):
        closed = r3_function(0.2, 2.0)
        lam2 = intercept(0.2, 2.0, 2, method="oracle").value
        lam3 = intercept(0.2, 2.0, 3, method="oracle").value
        want = (lam3 - 3.0 * lam2) / (2.0 * lam2**1.5)
        assert closed.value == pytest.approx(want, abs=1e-8)

    def test_method_merge(self):
        assert r3_function(1e-6, 1.0).method == ORACLE
        assert r3_function(0.1, 1.0).method == CLOSED_FORM


class TestAdmissibility:
    def test_edges(self):
        # either side of the printed Lerch form's edge mu = 1/(r-1) and on
        # it, on every intercept route
        assert intercept(0.0, 1.0, 5).value == 119.0
        assert r_moment(0.3, 1.0, 1).value == mean_occupation(0.3, 1.0).value
        for mu, r in ((0.49, 3), (0.5, 3), (0.51, 3), (1.0 / 3.0, 4), (0.34, 4)):
            want = _direct_intercept(mu, 1.0, r)
            for method in ("auto", "closed", "oracle"):
                _assert_within_bound(intercept(mu, 1.0, r, method=method), want)

    def test_result_type_immutable(self):
        res = CorrelationResult(1.0, 0.0, CLOSED_FORM)
        with pytest.raises(AttributeError):
            res.value = 2.0


class TestWholeDomain:
    """The closed form and the oracle hold for every mu > 0."""

    @settings(max_examples=80)
    @given(
        mu=st.one_of(st.sampled_from([1.0 / j for j in range(1, 7)]),
                     st.floats(min_value=math.log(1e-3), max_value=math.log(4.0)).map(math.exp)),
        r=st.integers(min_value=2, max_value=6),
        alpha=st.floats(min_value=math.log(1e-3), max_value=math.log(50.0)).map(math.exp),
        p=st.floats(min_value=0.05, max_value=1.0),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    # the closed-form intercept's error is 0.99 of its bound here
    @example(mu=0.9, r=2, alpha=28.5, p=1.0, q=1.0)
    def test_bounds_hold(self, mu, r, alpha, p, q):
        # the lattice mu = 1/j and mu >= 1/(r-1), outside the printed Lerch form
        mpmath = pytest.importorskip("mpmath")
        orders = (1, 2, 3, r)
        if alpha < 0.05:
            moments = dict(zip(orders, _shift_form(mu, alpha, *orders[1:])))
        else:
            moments = {k: _direct_moment(mu, alpha, k) for k in orders}
        with mpmath.workdps(60):
            lam = {k: moments[k] / moments[1] ** k - 1 for k in (2, 3, r)}
            r3 = (lam[3] - 3 * lam[2]) / (2 * lam[2] ** 1.5)
        for method in ("auto", "closed", "oracle"):
            _assert_within_bound(intercept(mu, alpha, r, method=method), lam[r])
        for method in ("auto", "oracle"):
            _assert_within_bound(r3_function(mu, alpha, method=method), r3)
        _assert_within_bound(r_moment(mu, alpha, r), moments[r])
        _assert_within_bound(oracle_moment(mu, alpha, r), moments[r])
        _assert_within_bound(pq_intercept_result(PQParams(p, q), alpha, r),
                             _PQBound._reference(p, q, alpha, r))

    @pytest.mark.parametrize("mu", [5e-324, 1e-310])
    def test_subnormal_mu(self, mu):
        # the mu = 0 limit: the moment moves by O(mu), far below the bounds
        res = intercept(mu, 1.0, 2)
        assert abs(res.value - 1.0) <= res.error_bound
        res = oracle_moment(mu, 1.0, 2)
        assert abs(res.value - _bose_moment(1.0, 2)) <= res.error_bound

    @pytest.mark.parametrize("kind, mu, alpha, r", [
        ("mean", 0.1, 1396.0, 1), ("moment", 1e100, 20.0, 3), ("moment", 1e50, 1.0, 8),
        ("series", 1e100, 20.0, 3)])
    def test_underflowed_value_keeps_a_bound(self, kind, mu, alpha, r):
        # the value rounds to 0 in doubles; its bound covers that rounding
        if kind == "mean":
            res = mean_occupation(mu, alpha)
        else:
            res = (r_moment if kind == "moment" else oracle_moment)(mu, alpha, r)
        want = _direct_moment(mu, alpha, r)
        assert res.value == 0.0 and 0.0 < want
        assert abs(res.value - want) <= res.error_bound

    def test_preset_routes(self):
        # the figure presets and their sub-tolerances keep the closed form,
        # mu ~ 0.01 at r = 3 keeps the oracle, and mu >= 1/(r-1), where the
        # first term barely cancels, takes the closed form
        for mu in (0.1, 0.2):
            for r in (2, 3):
                for tol in (1e-12, 1e-12 / 16):
                    assert intercept(mu, 1.0, r, tol).method == CLOSED_FORM
        assert intercept(0.01, 1.0, 3).method == ORACLE
        assert intercept(1.5, 1.0, 2).method == CLOSED_FORM
        assert intercept(0.75, 1.0, 3).method == CLOSED_FORM


def _shift_form(mu, alpha, r, *more):
    """60-digit (mean, r-th moment, and the moment of each order in ``more``)
    from the positive-shift Lerch form.

    M_r = -mu^(-2r) z^r sum_l Atilde_l [Phi(z,1,b_l) - Phi(z,1,b_l+1)] with
    b_l = 1/mu + r - l - 1, exact rational Atilde_l = mu^(r-1) A_l, one
    ``mpmath.lerchphi`` at b = 1/mu and Phi(z,1,b+1) = (Phi(z,1,b) - 1/b)/z
    for the other shifts.  One more digit per decade of mu^(-2r) covers
    the cancellation of the sum.
    """
    mpmath = pytest.importorskip("mpmath")
    top = max((r, *more))
    dps = 60 + math.ceil(2 * top * max(0.0, -math.log10(mu)))
    with mpmath.workdps(dps):
        m = mpmath.mpf(mu)
        z = mpmath.exp(-mpmath.mpf(alpha))
        phis = [mpmath.lerchphi(z, 1, 1 / m)]
        for j in range(top):
            phis.append((phis[-1] - 1 / (1 / m + j)) / z)

        def moment(order):
            total = mpmath.mpf(0)
            for l, a_l in enumerate(_exact_coeffs(order, Fraction(mu))):
                a_tilde = mpmath.mpf(a_l.numerator) / a_l.denominator * m ** (order - 1)
                j = order - l - 1
                total += a_tilde * (phis[j] - phis[j + 1])
            return -(m ** (-2 * order)) * z**order * total

        return tuple(moment(order) for order in (1, r, *more))


class TestSmallAlpha:
    """alpha (1/mu + r) <= 0.5, alpha down to 1e-13: the closed form's z -> 1 expansion."""

    @settings(max_examples=30)
    @given(
        mu=st.one_of(st.sampled_from([1.0 / j for j in (1, 2, 3, 5, 10, 30, 100, 1000)]),
                     st.floats(min_value=math.log(1e-3), max_value=math.log(4.0)).map(math.exp)),
        r=st.integers(min_value=1, max_value=16),
        reach=st.floats(min_value=math.log(1e-10), max_value=math.log(0.499)).map(math.exp),
    )
    def test_bounds_hold(self, mu, r, reach):
        # the expansion takes every point, whatever the closed series' condition
        mpmath = pytest.importorskip("mpmath")
        alpha = reach / (1.0 / mu + r)
        mean, moment = _shift_form(mu, alpha, r)
        _assert_within_bound(mean_occupation(mu, alpha), mean)
        query = LerchQuery(math.exp(-alpha), 1.0 / mu)
        with mpmath.workdps(60):
            phi = mpmath.lerchphi(mpmath.mpf(query.z), 1, mpmath.mpf(query.a))
        assert abs(lerch_phi_s1(query) - phi) <= query.tol
        res = r_moment(mu, alpha, r)
        _assert_within_bound(res, moment)
        assert res.method == CLOSED_FORM and res.error_bound <= DEFAULT_TOL * res.value
        if r >= 2:
            want = moment / mean**r - 1
            for method in ("auto", "closed"):
                res = intercept(mu, alpha, r, method=method)
                _assert_within_bound(res, want)
                assert res.method == CLOSED_FORM

    @pytest.mark.parametrize("mu, alpha, r", [(0.5, 1e-3, 3), (0.1, 0.02, 1), (0.1, 0.02, 3),
                                              (0.05, 0.3, 8), (2.7, 0.05, 2), (1.0 / 3.0, 0.4, 6)])
    def test_reference_matches_the_series(self, mu, alpha, r):
        moment = _shift_form(mu, alpha, r)[1]
        assert abs(moment / _direct_moment(mu, alpha, r) - 1) < 1e-45

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0 / 3.0, 2.0])
    @pytest.mark.parametrize("r", [2, 3, 8])
    def test_high_temperature_limit(self, mu, r):
        # phi < 1/mu, so mu^r times each moment tends to 1 and lambda^(r) to 0+
        lams = [intercept(mu, alpha, r).value for alpha in (1e-6, 1e-9, 1e-12)]
        assert 0.0 < lams[2] < lams[1] < lams[0] < 1e-4
        assert abs(r_moment(mu, 1e-12, r).value * mu**r - 1.0) < 1e-9

    @pytest.mark.parametrize("call", [
        lambda: intercept(0.1, 1e-12, 3), lambda: r3_function(0.1, 1e-9),
        lambda: mean_occupation(0.2, 1e-10),
        lambda: lerch_phi_s1(LerchQuery(math.exp(-1e-8), 10.0))])
    def test_bounded_cost(self, call):
        call()
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("call, relative", [
        # before the coefficients were exact these took 41 s and failed, 7.4 s,
        # failed, and 0.22 s on the series with a bound above tol
        (lambda: r_moment(0.11, 1e-6, 5), True), (lambda: r_moment(0.05, 1e-5, 8), True),
        (lambda: r_moment(0.05, 1e-6, 8), True),
        (lambda: intercept(0.05, 1e-4, 8, method="closed"), False)])
    def test_small_mu_large_order(self, call, relative):
        # a moment's tolerance is relative, an intercept's absolute
        res = call()
        scale = abs(res.value) if relative else 1.0
        assert res.method == CLOSED_FORM and res.error_bound <= DEFAULT_TOL * scale
        times = []
        for _ in range(3):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        assert min(times) < 0.005

    def test_conditioning_leaves_the_expansion_alone(self):
        # the small_alpha benchmark slot at mu ~ 0.012, r = 3, where the closed
        # series' condition is 1.8e7 and the oracle would sum about 1/alpha terms
        assert intercept(0.01174, 0.0024104937738553735, 3).method == CLOSED_FORM


class TestTermBudget:
    """A sum that cannot stop within MAX_TERMS fails before it is summed."""

    def test_fails_fast(self):
        start = time.perf_counter()
        # auto beyond the z -> 1 expansion's reach, alpha (1/mu + r) = 10, where
        # the series would need about 4e8 terms
        with pytest.raises(ConvergenceError, match="oracle moment"):
            intercept(1e-8, 1e-7, 3)
        with pytest.raises(ConvergenceError, match="oracle moment"):
            intercept(0.1, 1e-9, 3, method="oracle")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("closed, mu, r", [(False, 0.1, 2), (False, 0.7, 3), (True, 0.1, 1),
                                               (True, 0.2, 3), (True, 1.5, 2),
                                               # no mu^-r bound: the (r+n)^(r+1) bound stops these
                                               (False, 0.0, 2), (False, 0.0, 3),
                                               (False, 1e-300, 2)])
    @pytest.mark.parametrize("alpha", [0.06, 0.3, 2.0])
    def test_prediction_never_stops_a_converging_sum(self, closed, mu, r, alpha):
        # the kernel needs `used` terms: with a budget of used + 1 it returns what it
        # returns with 10^8, and with a budget of used // 4 it refuses the sum
        sums = kernels.closed_moment_sums if closed else kernels.oracle_moment_sums
        want = sums(mu, [alpha], r, 1e-13, core._TINY, 10**8)
        used = int(want[2][0])
        got = sums(mu, [alpha], r, 1e-13, core._TINY, used + 1)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        _, err, terms = sums(mu, [alpha], r, 1e-13, core._TINY, used // 4)
        assert (err[0], terms[0]) == (math.inf, used // 4)

    #: calls that summed for seconds, returned inf +- inf, or raised a bare OverflowError
    HOSTILE = [
        (lambda: intercept(0.0, 1e-9, 2, method="oracle"), ConvergenceError),
        (lambda: oracle_moment(0.0, 1e-9, 2), ConvergenceError),
        (lambda: r_moment(5e-324, 5e-324, 2), ConvergenceError),
        (lambda: r3_function(5e-324, 1e-8), ConvergenceError),
        (lambda: lerch_phi_s1(LerchQuery(1 - 1e-12, 5e-324)), ConvergenceError),
        (lambda: r_moment(1e-300, 5e-324, 2), DomainError),
        (lambda: intercept(1e-300, 5e-324, 2), DomainError),
        (lambda: r3_function(1e-300, 5e-324), DomainError),
        (lambda: intercept(1e-200, 1e-250, 3), DomainError),
        # sums that converge only beyond 2^21 terms: 2.5-10.5 s of summing to a value
        # under a 10^8-term budget
        (lambda: oracle_moment(0.0, 1e-6, 2), ConvergenceError),
        (lambda: mean_occupation(5e-324, 1e-6), ConvergenceError),
        (lambda: intercept(1e-6, 5e-6, 3), ConvergenceError),
        (lambda: intercept(0.0, 1e-6, 3, method="oracle"), ConvergenceError),
        (lambda: r3_function(0.0, 1e-6, method="oracle"), ConvergenceError),
        # the p,q oracle at p = 1 under the mu = 0 oracle's budget rule, as [n]_{p,q} <= n;
        # at p < 1 these sums stop within a few dozen terms (test_pq.TestOracleBound)
        (lambda: pq_oracle_moment(PQParams(1.0, 1.0), 1e-9, 2), ConvergenceError),
        (lambda: pq_oracle_moment(PQParams(1.0, 1.0), 5e-324, 2), ConvergenceError),
        # values beyond the double range, which were returned as +-inf
        (lambda: lerch_phi_s1(LerchQuery(0.5, 5e-324)), DomainError),
        (lambda: c_coeff(3, 0, 5e-324), DomainError),
        (lambda: series_coeff_oracle(200, 0, 1.0), DomainError),
        (lambda: pq_moment(PQParams(1.0, 1.0), 5e-324, 2), DomainError),
        # sums whose tail after the whole budget rules them out, which ran it out first
        # for 0.2-4.3 s
        (lambda: oracle_moment(0.0, 1e-5, 64), ConvergenceError),
        (lambda: intercept(1e-5, 1e-5, 5), ConvergenceError),
        (lambda: pq_oracle_moment(PQParams(1.0, 1.0), 1e-5, 2), ConvergenceError),
        # loops of a length the caller sets, which no budget bounded: hours, or memory
        (lambda: pq_bracket(10**11, PQParams(0.5, 0.5)), DomainError),
        (lambda: c_coeff(3, 10**10, 1.0), DomainError),
        (lambda: series_coeff_oracle(3, 0, 1e-6, 10**11), DomainError),
    ]

    @pytest.mark.parametrize("call, error", HOSTILE)
    def test_hostile_calls_fail_fast(self, call, error):
        start = time.perf_counter()
        with pytest.raises(error):
            call()
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("call", [
        lambda: mean_occupation(1e-300, 1e300),
        lambda: r_moment(5e-324, 5e-324, 2),
        lambda: r3_function(1e-300, 5e-324),
        lambda: intercept(1e-300, 1e300, 2, method="closed"),
        # alpha (r + MAX_TERMS) overflows a double
        lambda: intercept(0.1, 1.7e308, 2),
        lambda: mean_occupation(0.1, 1.4e308),
    ])
    def test_no_numpy_warning_leaks(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                res = call()
            except (DomainError, ConvergenceError):
                return
        assert isinstance(res, CorrelationResult)

    #: no alpha lies in (1e-8, 1e-4), where the p,q oracle's sum at p = 1 can run
    #: out its whole 2^21-term budget before it fails, most of a second of work
    FUZZ_ALPHAS = (5e-324, 1e-300, 1e-12, 1e-9, 1e-3, 1.0, 700.0, 1e300, 1.7e308)
    FUZZ_PQ = ((1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (0.9, 1e-300))

    @pytest.mark.parametrize("alpha", FUZZ_ALPHAS)
    def test_fuzz_ends_fast_in_a_value_or_a_typed_error(self, alpha):
        calls = [(c_coeff, s, l, alpha) for s in (0, 3) for l in (0, 2)]
        calls += [(series_coeff_oracle, s, l, alpha) for s in (0, 3) for l in (0, 2)]
        for p, q in self.FUZZ_PQ:
            pq = PQParams(p, q)
            calls.append((lambda a: lerch_phi_s1(LerchQuery(math.exp(-alpha), a)), q))
            calls += [(fn, pq, alpha, r) for r in (2, 3)
                      for fn in (pq_moment, pq_intercept_result, pq_oracle_moment)]
        slow, bad = [], []
        for fn, *args in calls:
            # CPU time of this process, which the load of other processes does not inflate
            start = time.process_time()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    res = fn(*args)
                except (DomainError, ConvergenceError):
                    res = 0.0
            if time.process_time() - start > 0.1:
                slow.append((fn, args))
            if not math.isfinite(getattr(res, "value", res)):
                bad.append((fn, args, res))
        assert not slow and not bad, (slow, bad)

    def test_a_point_just_inside_the_budget_converges(self, monkeypatch):
        used = int(kernels.oracle_moment_sums(0.1, [0.05], 2, 1e-12, core._TINY, 10**8)[2][0])
        monkeypatch.setattr(core, "MAX_TERMS", used + 1)
        assert oracle_moment(0.1, 0.05, 2).method == ORACLE
        monkeypatch.setattr(core, "MAX_TERMS", used)
        with pytest.raises(ConvergenceError):
            oracle_moment(0.1, 0.05, 2)


class TestCurveSlots:
    """Each slot of a batched curve equals the one-point public call at its alpha.

    The alphas mix valid points, invalid ones (nan, 0, -1, inf) and alphas
    of 700 and more, where the intercept takes its asymptotic value.
    """

    ALPHAS = [0.5, math.nan, 1.163, 0.0, 700.0, -1.0, 8.4, math.inf, 1396.0, 2.5]

    ONE_POINT = {
        "moment": lambda mu, alpha, r, tol, method: (
            oracle_moment(mu, alpha, r, tol) if method == "oracle"
            else mean_occupation(mu, alpha, tol) if r == 1 else r_moment(mu, alpha, r, tol)),
        "intercept": lambda mu, alpha, r, tol, method: intercept(mu, alpha, r, tol, method),
    }

    @staticmethod
    def _assert_slots(curve, one_point, alphas):
        assert len(curve.values) == len(curve.error_bounds) == len(curve.methods) == len(alphas)
        for i, alpha in enumerate(alphas):
            try:
                want = one_point(alpha)
            except (DomainError, ConvergenceError) as exc:
                got = curve.failures[i]
                assert type(got) is type(exc) and str(got) == str(exc), alpha
                assert math.isnan(curve.values[i]) and math.isnan(curve.error_bounds[i])
                assert curve.methods[i] == "failed"
                continue
            assert i not in curve.failures, alpha
            assert float(curve.values[i]).hex() == want.value.hex(), alpha
            assert float(curve.error_bounds[i]).hex() == want.error_bound.hex(), alpha
            assert curve.methods[i] == want.method, alpha
        assert set(curve.failures) <= set(range(len(alphas)))

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.45, 1e-6])
    @pytest.mark.parametrize("kind, r, method", [
        pytest.param("moment", 1, "auto", id="mean-1-auto"), ("moment", 3, "auto"),
        pytest.param("moment", 2, "oracle", id="series-2-oracle"), ("intercept", 2, "auto"),
        ("intercept", 3, "auto"), ("intercept", 3, "oracle"), ("intercept", 3, "closed"),
        # a route error fails every valid slot, after the invalid alphas
        ("intercept", 1, "auto"), ("intercept", 2, "magic"), ("moment", 0, "auto")])
    def test_curve(self, kind, r, method, mu):
        curve = core.curve(kind, mu, self.ALPHAS, r, 1e-12, method)
        self._assert_slots(curve, lambda a: self.ONE_POINT[kind](mu, a, r, 1e-12, method),
                           self.ALPHAS)

    @pytest.mark.parametrize("mu, method", [
        (0.0, "auto"), (0.1, "auto"), (0.2, "oracle"), (1e-6, "auto"),
        # lambda2 is rounding noise (1e100) or its powers underflow (1e300)
        (1e100, "oracle"), (1e300, "oracle"),
        # lambda2 has a closed form, lambda3 none: a route error after lambda2
        (1e-100, "closed")])
    def test_r3_curve(self, mu, method):
        curve = core.curve("r3", mu, self.ALPHAS, tol=1e-12, method=method)
        self._assert_slots(curve, lambda a: r3_function(mu, a, 1e-12, method), self.ALPHAS)

    #: the z -> 1 expansion, the series beyond its reach, and an invalid alpha
    SMALL_ALPHAS = [1e-12, 3e-4, 0.02, math.nan, 0.3, 1e-7, 0.049]

    @pytest.mark.parametrize("mu", [0.1, 0.45, 2.0])
    @pytest.mark.parametrize("kind, r, method", [
        pytest.param("moment", 1, "auto", id="mean-1-auto"), ("moment", 3, "auto"),
        ("intercept", 2, "auto"), ("intercept", 3, "closed")])
    def test_small_alpha_curve(self, kind, r, method, mu):
        curve = core.curve(kind, mu, self.SMALL_ALPHAS, r, 1e-12, method)
        self._assert_slots(curve, lambda a: self.ONE_POINT[kind](mu, a, r, 1e-12, method),
                           self.SMALL_ALPHAS)

    #: at mu = 1e-300 the moments at 5e-324 and 1e-250 lie beyond the double range
    TINY_MU_ALPHAS = [5e-324, 1.0, 1e-250, math.nan, 700.0]

    @pytest.mark.parametrize("kind, r, method", [
        ("moment", 1, "auto"), ("moment", 2, "auto"), ("intercept", 2, "auto"),
        ("intercept", 3, "auto")])
    def test_beyond_double_range_fails_in_place(self, kind, r, method):
        curve = core.curve(kind, 1e-300, self.TINY_MU_ALPHAS, r, 1e-12, method)
        if r > 1:
            assert "beyond the double range" in str(curve.failures[0])
        self._assert_slots(curve, lambda a: self.ONE_POINT[kind](1e-300, a, r, 1e-12, method),
                           self.TINY_MU_ALPHAS)

    def test_r3_slot_keeps_the_lambda2_failure(self, monkeypatch):
        # at alpha = 0.8 both intercepts fail within 40 terms, lambda2 on its
        # r = 2 moment and lambda3 on its r = 3 moment
        monkeypatch.setattr(core, "MAX_TERMS", 40)
        alphas = [0.8, 8.4]
        lam2 = core.curve("intercept", 0.1, alphas, 2, 1e-12 / 16)
        lam3 = core.curve("intercept", 0.1, alphas, 3, 1e-12 / 16)
        assert str(lam2.failures[0]) != str(lam3.failures[0])
        curve = core.curve("r3", 0.1, alphas, tol=1e-12)
        assert str(curve.failures[0]) == str(lam2.failures[0])
        self._assert_slots(curve, lambda a: r3_function(0.1, a, 1e-12), alphas)

    def test_r3_kind(self):
        curve = core.curve("r3", 0.2, self.ALPHAS, 3, 1e-12, "oracle")
        self._assert_slots(curve, lambda a: r3_function(0.2, a, 1e-12, "oracle"), self.ALPHAS)

    def test_convergence_failures_keep_their_slots(self, monkeypatch):
        # with a budget of 40 terms the small alphas fail and the large converge
        monkeypatch.setattr(core, "MAX_TERMS", 40)
        alphas = [0.05, 8.4, math.nan, 0.3, 40.0, 1.0]
        for kind, r, method in (("moment", 1, "auto"), ("moment", 3, "oracle"),
                                ("intercept", 2, "auto")):
            curve = core.curve(kind, 0.1, alphas, r, 1e-12, method)
            assert 0 < len(curve.failures) < len(alphas)
            assert any(isinstance(exc, ConvergenceError) for exc in curve.failures.values())
            self._assert_slots(curve, lambda a: self.ONE_POINT[kind](0.1, a, r, 1e-12, method),
                               alphas)
        curve = core.curve("r3", 0.1, alphas, tol=1e-12)
        self._assert_slots(curve, lambda a: r3_function(0.1, a, 1e-12), alphas)

    def test_moment_cancelling_to_zero(self):
        # the forced closed form at mu = 1e-100 sums the moment to 0: the
        # value has an infinite bound, no warning and no ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = intercept(1e-100, 0.5, 2, method="closed")
        assert res.error_bound == math.inf and res.method == CLOSED_FORM

    def test_series_rated_once_per_curve(self, monkeypatch):
        # the mean and the moment of an intercept share one rating of the series
        rated, kappa = [], kernels.closed_condition

        def closed_condition(mu, r):
            rated.append(r)
            return kappa(mu, r)

        monkeypatch.setattr(kernels, "closed_condition", closed_condition)
        alphas = [0.5, 1.163, 8.4]
        for kind, r, want in (("intercept", 2, [2]), ("intercept", 3, [3]), ("r3", 3, [2, 3])):
            rated.clear()
            core.curve(kind, 0.1, alphas, r)
            assert rated == want, kind
        # a closed form that cannot be formed fails every slot that needs it, rated once
        rated.clear()
        curve = core.curve("intercept", 1e-100, alphas, 3, method="closed")
        assert rated == [3] and sorted(curve.failures) == [0, 1, 2]
        assert all("cancels beyond" in str(exc) for exc in curve.failures.values())

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown curve kind"):
            core.curve("lambda", 0.1, [1.0], 2)

    def test_empty_curve(self):
        curve = core.curve("intercept", 0.1, [], 2, 1e-12)
        assert curve.values.size == 0 and not curve.failures
        assert core.curve("r3", 0.1, [], tol=1e-12).values.size == 0
