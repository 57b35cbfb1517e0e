"""p,q-Bose gas moments, intercepts, and the mu-gas comparison factor."""

import math
import sys

import pytest

from mubose import (
    DomainError,
    PQParams,
    mu_vs_pq_asymptotic_gap,
    pq_bracket,
    pq_factorial,
    pq_intercept_asymptotic,
    pq_intercept_result,
    pq_moment,
    pq_oracle_moment,
)

LN2 = math.log(2.0)


class TestPQParams:
    def test_canonical_ordering(self):
        params = PQParams(0.6, 0.9)
        assert params.p == 0.9 and params.q == 0.6

    def test_swap_symmetry_is_exact(self):
        a = PQParams(0.85, 0.55)
        b = PQParams(0.55, 0.85)
        assert a == b
        assert pq_intercept_result(a, 1.3, 3).value == pq_intercept_result(b, 1.3, 3).value

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.2, 0.5), (0.5, -0.1), (0.5, 1.01)])
    def test_domain(self, p, q):
        with pytest.raises(DomainError):
            PQParams(p, q)


class TestBracket:
    def test_undeformed(self):
        assert pq_bracket(3, PQParams(1.0, 1.0)) == pytest.approx(3.0, rel=1e-15)

    def test_two_is_p_plus_q(self):
        assert pq_bracket(2, PQParams(0.9, 0.8)) == pytest.approx(1.7, rel=1e-15)

    def test_homogeneous_polynomial(self):
        p, q = 0.95, 0.9
        want = sum(p**j * q ** (3 - j) for j in range(4))
        assert pq_bracket(4, PQParams(p, q)) == pytest.approx(want, rel=1e-14)

    def test_equal_parameters_limit(self):
        # [n] -> n p^(n-1) at p = q
        got = pq_bracket(5, PQParams(0.7, 0.7))
        assert got == pytest.approx(5 * 0.7**4, rel=1e-13)

    def test_edge_values(self):
        params = PQParams(0.9, 0.7)
        assert pq_bracket(0, params) == 0.0
        assert pq_bracket(1, params) == 1.0
        with pytest.raises(DomainError):
            pq_bracket(-1, params)

    def test_subnormal_q(self):
        # Horner's rule in q never forms 1/q, which overflows below q ~ 5.6e-309
        assert pq_bracket(3, PQParams(1e-310, 1e-310)) == 0.0
        assert pq_bracket(3, PQParams(0.5, 1e-310)) == 0.25
        near = pq_moment(PQParams(0.5, 1e-300), 1.0, 2)
        assert pq_moment(PQParams(0.5, 1e-310), 1.0, 2) == pytest.approx(near, rel=1e-15)

    def test_factorial(self):
        params = PQParams(0.9, 0.7)
        want = pq_bracket(1, params) * pq_bracket(2, params) * pq_bracket(3, params)
        assert pq_factorial(3, params) == pytest.approx(want, rel=1e-14)
        assert pq_factorial(0, params) == 1.0


class TestMoment:
    def test_bose_point(self):
        assert pq_moment(PQParams(1.0, 1.0), LN2, 2) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_bose_reduction(self, alpha, r):
        got = pq_moment(PQParams(1.0, 1.0), alpha, r)
        want = math.factorial(r) / math.expm1(alpha) ** r
        assert got == pytest.approx(want, rel=1e-10)

    def test_oracle_agreement(self):
        params = PQParams(0.9, 0.7)
        closed = pq_moment(params, 1.0, 3)
        oracle = pq_oracle_moment(params, 1.0, 3)
        assert closed == pytest.approx(oracle.value, rel=1e-9)
        assert abs(closed - oracle.value) <= oracle.error_bound + 1e-13 * closed

    def test_oracle_grid(self):
        for p, q in [(0.95, 0.95), (0.9, 0.6), (1.0, 0.8)]:
            for alpha in (0.8, 1.5, 3.0):
                for r in (1, 2, 4):
                    params = PQParams(p, q)
                    closed = pq_moment(params, alpha, r)
                    oracle = pq_oracle_moment(params, alpha, r).value
                    assert closed == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-10, 1e-13])
    def test_small_alpha_precision(self, alpha):
        # 1 - z and 1 - c z by subtraction lost digits as 1/alpha: a relative
        # error of 8.3e-8 at alpha = 1e-10 and 3.1e-4 at 1e-13
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            p, q, z = mp.mpf(0.9), mp.mpf(0.7), mp.exp(-mp.mpf(alpha))
            want = (p + q) * (1 - z) * z**2  # [2]! = p + q
            for j in range(3):
                want /= 1 - p**j * q ** (2 - j) * z
            got = pq_moment(PQParams(0.9, 0.7), alpha, 2)
            # a few dozen roundoffs
            assert abs(got - want) <= 1e-14 * want

    def test_domain(self):
        with pytest.raises(DomainError):
            pq_moment(PQParams(0.9, 0.7), 0.0, 2)
        with pytest.raises(DomainError):
            pq_moment(PQParams(0.9, 0.7), 1.0, 0)


class TestIntercept:
    def test_bose_limit(self):
        assert pq_intercept_result(PQParams(1.0, 1.0), 2.0, 3).value == pytest.approx(5.0, rel=1e-10)

    def test_matches_moment_ratio(self):
        for p, q in [(0.9, 0.9), (0.9, 0.7), (0.8, 0.6)]:
            for alpha in (1.0, 2.0):
                for r in (2, 3):
                    params = PQParams(p, q)
                    direct = pq_intercept_result(params, alpha, r).value
                    ratio = pq_moment(params, alpha, r) / pq_moment(params, alpha, 1) ** r - 1.0
                    assert direct == pytest.approx(ratio, rel=1e-10)

    def test_oracle_assembly(self):
        params = PQParams(0.9, 0.9)
        direct = pq_intercept_result(params, 2.0, 2).value
        mom = pq_oracle_moment(params, 2.0, 2).value
        mean = pq_oracle_moment(params, 2.0, 1).value
        assert direct == pytest.approx(mom / mean**2 - 1.0, rel=1e-9)

    def test_frozen_value(self):
        got = pq_intercept_result(PQParams(0.9, 0.7), 2.0, 3).value
        assert got == pytest.approx(1.7812523998717314, rel=1e-12)

    def test_asymptote_convergence(self):
        for p, q in [(0.9, 0.9), (0.8, 0.6)]:
            params = PQParams(p, q)
            for r in (2, 3):
                got = pq_intercept_result(params, 30.0, r).value
                assert got == pytest.approx(pq_intercept_asymptotic(params, r), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            pq_intercept_result(PQParams(0.9, 0.7), 1.0, 1)


class TestInterceptBound:
    """The derived bound of pq_intercept_result against a 40-digit reference."""

    @staticmethod
    def _reference(p, q, alpha, r):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            p, q, alpha = mp.mpf(p), mp.mpf(q), mp.mpf(alpha)

            def one_minus(c):
                # 1 - c z as -expm1(ln c - alpha): below alpha ~ 1e-40, z rounds to 1
                return -mp.expm1(mp.log(c) - alpha)

            def bracket(n):
                return sum(p**j * q ** (n - 1 - j) for j in range(n))

            num = mp.mpf(1)
            for n in range(1, r + 1):
                num *= bracket(n)
            num *= one_minus(p) ** r * one_minus(q) ** r
            den = one_minus(1) ** (r - 1)
            for j in range(r + 1):
                den *= one_minus(p**j * q ** (r - j))
            return num / den - 1

    @pytest.mark.parametrize("p, q", [(0.9, 0.7), (0.95, 0.5), (1.0, 0.8), (1.0, 1.0),
                                      (1.0, 0.5)])
    def test_bound_holds(self, p, q):
        for alpha in (1e-300, 1e-150, 1e-78, 1e-6, 1e-4, 1e-2, 1.0):
            for r in (2, 3, 5):
                want = self._reference(p, q, alpha, r)
                if abs(want) > sys.float_info.max:
                    # lambda grows like alpha^-(r-1) and leaves the double range
                    with pytest.raises(DomainError, match="double range"):
                        pq_intercept_result(PQParams(p, q), alpha, r)
                    continue
                res = pq_intercept_result(PQParams(p, q), alpha, r)
                assert res.value == pq_intercept_result(PQParams(p, q), alpha, r).value
                err = abs(res.value - float(want))
                assert err <= res.error_bound, (p, q, alpha, r, err, res.error_bound)
                # a few hundred roundoffs, not a blanket allowance
                assert res.error_bound <= 1e-12 * (abs(res.value) + 1.0)

    def test_bose_gas_is_exact_at_small_alpha(self):
        # p = q = 1 is the Bose gas, lambda^(r) = r! - 1 at every alpha
        for alpha in (5e-324, 1e-300, 1.3957e-80, 1.0):
            for r in (2, 3, 5):
                assert pq_intercept_result(PQParams(1.0, 1.0), alpha, r).value == math.factorial(r) - 1


class TestAsymptotic:
    def test_values(self):
        assert pq_intercept_asymptotic(PQParams(1.0, 1.0), 4) == pytest.approx(23.0, rel=1e-14)
        assert pq_intercept_asymptotic(PQParams(0.8, 0.6), 2) == pytest.approx(0.4, rel=1e-13)
        want = 1.93 * 1.6 - 1.0
        assert pq_intercept_asymptotic(PQParams(0.9, 0.7), 3) == pytest.approx(want, rel=1e-12)


class TestGapFactor:
    def test_undeformed(self):
        assert mu_vs_pq_asymptotic_gap(0.0, 3) == pytest.approx(1.0, rel=1e-14)

    def test_printed_values(self):
        assert mu_vs_pq_asymptotic_gap(0.1, 2) == pytest.approx(1.21, rel=1e-12)
        assert mu_vs_pq_asymptotic_gap(0.2, 3) == pytest.approx(1.728, rel=1e-12)

    def test_identity_over_grid(self):
        for mu in (0.01, 0.05, 0.1, 0.25, 0.4, 0.7):
            for r in range(2, 9):
                got = mu_vs_pq_asymptotic_gap(mu, r)
                assert got == pytest.approx((1.0 + mu) ** r, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_vs_pq_asymptotic_gap(-0.1, 2)
        # (1+mu)^3 overflows and [3]_mu! underflows to 0
        with pytest.raises(DomainError, match="beyond the double range"):
            mu_vs_pq_asymptotic_gap(1e300, 3)
        with pytest.raises(DomainError):
            mu_vs_pq_asymptotic_gap(0.1, 1)
