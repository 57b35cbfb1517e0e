"""Taylor-in-mu coefficients c_s(l), truncated expansions, divergence."""

import math

import pytest

from mubose import (
    ConvergenceError,
    DomainError,
    c_coeff,
    divergence_diagnostic,
    oracle_moment,
    series_coeff_oracle,
    taylor_moment,
    turning_point,
)
from mubose import expansion
from mubose.expansion import ORACLE_TAIL_TOL
from mubose.special import stirling2

LN2 = math.log(2.0)

# signed integer coefficients of (e^alpha - 1)^(-j), j = 1..s+1, for l = 0;
# the s = 6 row ends in 720 = 6! {7,7} (the recurrence and the power-sum
# oracle both force it)
C_VECTORS = {
    0: (1,),
    1: (-1, -1),
    2: (1, 3, 2),
    3: (-1, -7, -12, -6),
    4: (1, 15, 50, 60, 24),
    5: (-1, -31, -180, -390, -360, -120),
    6: (1, 63, 602, 2100, 3360, 2520, 720),
}


class TestCCoefficient:
    def test_c0_at_ln2(self):
        res = c_coeff(0, 0, LN2)
        assert res.value == pytest.approx(2.0, rel=1e-14)

    def test_c2_at_ln2(self):
        # coefficients (1, 3, 2) over powers of (e^alpha - 1) = 1
        assert c_coeff(2, 0, LN2).value == pytest.approx(6.0, rel=1e-14)

    def test_c6_at_ln2(self):
        assert c_coeff(6, 0, LN2).value == pytest.approx(float(sum(C_VECTORS[6])), rel=1e-13)
        assert sum(C_VECTORS[6]) == 9366

    @pytest.mark.parametrize("alpha", [0.37, 0.8, 1.0, 1.9, 3.2])
    def test_c1_closed_form(self, alpha):
        x = math.expm1(alpha)
        want = -1.0 / x - 1.0 / x**2
        assert c_coeff(1, 0, alpha).value == pytest.approx(want, rel=1e-13)

    def test_integer_vectors_exact(self):
        for s, vec in C_VECTORS.items():
            assert c_coeff(s, 0, 1.0).recip_coeffs == vec

    def test_sign_alternation(self):
        for s in range(13):
            coeffs = c_coeff(s, 0, 1.0).recip_coeffs
            sign = -1 if s % 2 else 1
            assert all(sign * c > 0 for c in coeffs)

    def test_exp_weights(self):
        res = c_coeff(3, 4, 1.0)
        assert res.exp_weights == (1, 8, 27, 64)
        assert c_coeff(2, 0, 1.0).exp_weights == ()

    def test_reconstruct(self):
        for s in range(9):
            for l in range(5):
                for alpha in (0.5, 1.0, 2.0):
                    res = c_coeff(s, l, alpha)
                    assert res.reconstruct() == pytest.approx(
                        res.value, rel=1e-12, abs=1e-12
                    )

    def test_shift_reduction(self):
        for s in range(9):
            for l in range(5):
                for alpha in (0.5, 1.0, 2.0):
                    lhs = c_coeff(s, l, alpha).value
                    shift = sum(j**s * math.exp(alpha * j) for j in range(1, l + 1))
                    rhs = math.exp(-alpha * l) * (shift + c_coeff(s, 0, alpha).value)
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_large_s_uses_extended_table(self):
        res = c_coeff(70, 0, 2.0)
        assert len(res.recip_coeffs) == 71
        assert math.isfinite(res.value)

    def test_beyond_double_range(self):
        # 200! S(201, j) does not fit a double
        with pytest.raises(DomainError, match="double range"):
            c_coeff(200, 3, 1.0)

    def test_beyond_double_range_builds_no_row(self, monkeypatch):
        # from s = 171 the last integer, s!, is no double: raise before any row
        requested = []
        rows = expansion._g_row
        monkeypatch.setattr(expansion, "_g_row", lambda s: requested.append(s) or rows(s))
        for s in (171, 5000):
            with pytest.raises(DomainError, match="beyond the double range"):
                c_coeff(s, 0, 1.0)
        assert max(requested, default=-1) <= 171
        # the recorder does see the rows an order below 171 reads
        c_coeff(20, 0, 1.0)
        assert requested == [20]

    def test_integers_match_the_stirling_table(self):
        # the g-row integers against the independent Stirling recurrence
        for s in range(160):
            sign = -1 if s % 2 else 1
            want = tuple(sign * math.factorial(j - 1) * stirling2(s + 1, j)
                         for j in range(1, s + 2))
            assert c_coeff(s, 1, 1.0).recip_coeffs == want, s

    def test_domain(self):
        with pytest.raises(DomainError):
            c_coeff(-1, 0, 1.0)
        with pytest.raises(DomainError):
            c_coeff(0, -1, 1.0)
        with pytest.raises(DomainError):
            c_coeff(0, 0, 0.0)


class TestSeriesCoeffOracle:
    def test_geometric_sum(self):
        assert series_coeff_oracle(0, 0, LN2) == pytest.approx(2.0, abs=1e-10)

    def test_matches_closed_form(self):
        assert series_coeff_oracle(3, 0, 1.0) == pytest.approx(
            c_coeff(3, 0, 1.0).value, abs=1e-10
        )
        assert series_coeff_oracle(2, 2, 1.0) == pytest.approx(
            c_coeff(2, 2, 1.0).value, abs=1e-10
        )

    def test_grid_agreement(self):
        for s in range(9):
            for l in range(5):
                for alpha in (0.5, 1.0, 2.0):
                    closed = c_coeff(s, l, alpha).value
                    oracle = series_coeff_oracle(s, l, alpha)
                    assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_insufficient_terms(self):
        with pytest.raises(ConvergenceError):
            series_coeff_oracle(8, 0, 0.5, n_max=20)

    def test_stops_at_the_tail_tolerance(self):
        # the default cap of 20,000 terms is not summed out: the sum stops
        # within 60 terms at alpha = 1, where the tail bound is below 1e-12
        full = series_coeff_oracle(3, 0, 1.0)
        assert abs(full - series_coeff_oracle(3, 0, 1.0, n_max=60)) <= ORACLE_TAIL_TOL
        assert full == series_coeff_oracle(3, 0, 1.0, n_max=60)
        with pytest.raises(ConvergenceError):
            series_coeff_oracle(3, 0, 1.0, n_max=20)

    def test_domain(self):
        with pytest.raises(DomainError):
            series_coeff_oracle(0, 3, 1.0, n_max=3)
        with pytest.raises(DomainError):
            series_coeff_oracle(0, 0, -1.0)


class TestTaylorMoment:
    def test_r1_error_shrinks_with_order(self):
        mu, alpha = 0.01, 2.0
        exact = oracle_moment(mu, alpha, 1).value / (-math.expm1(-alpha))
        errs = [abs(taylor_moment(mu, alpha, 1, S) - exact) for S in range(4)]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[3] <= 1e-5 * abs(exact)

    def test_r2_leading_behavior(self):
        # at S = 0 the double sum collapses to -mu^-2/(1 - e^-alpha)
        mu, alpha = 0.01, 2.0
        want = -(mu**-2) / (-math.expm1(-alpha))
        assert taylor_moment(mu, alpha, 2, 0) == pytest.approx(want, rel=1e-9)

    def test_r2_approaches_oracle(self):
        mu, alpha = 0.01, 2.0
        exact = oracle_moment(mu, alpha, 2).value / (-math.expm1(-alpha))
        err3 = abs(taylor_moment(mu, alpha, 2, 3) - exact)
        err5 = abs(taylor_moment(mu, alpha, 2, 5) - exact)
        assert err5 < err3
        assert err5 <= 1e-3 * abs(exact)

    def test_domain(self):
        with pytest.raises(DomainError):
            taylor_moment(0.1, 1.0, 1, -1)
        with pytest.raises(DomainError):
            taylor_moment(0.0, 1.0, 1, 3)
        with pytest.raises(DomainError):
            taylor_moment(0.1, 1.0, 0, 3)
        # mu^-r overflows; the order-3 terms at alpha = 1e-300 do
        for mu, alpha, order in ((1e-200, 1.0, 0), (0.5, 1e-300, 3)):
            with pytest.raises(DomainError, match="beyond the double range"):
                taylor_moment(mu, alpha, 2, order)


class TestDivergence:
    def test_terms_eventually_increase(self):
        entries = divergence_diagnostic(0.1, 1.0, 1, 40)
        assert [e.s for e in entries] == list(range(41))
        mags = [e.term_magnitude for e in entries]
        assert all(a < b for a, b in zip(mags[-10:], mags[-9:]))

    def test_smaller_mu_delays_divergence(self):
        fast = turning_point(divergence_diagnostic(0.1, 1.0, 1, 40))
        slow = turning_point(divergence_diagnostic(0.01, 1.0, 1, 60))
        assert slow > fast

    def test_higher_order_runs(self):
        entries = divergence_diagnostic(0.2, 1.0, 3, 30)
        assert len(entries) == 31
        assert all(math.isfinite(e.partial_sum) for e in entries)

    def test_overflow_terminates_sequence(self):
        entries = divergence_diagnostic(1.0, 0.5, 1, 400)
        assert entries[-1].term_magnitude == math.inf
        assert len(entries) < 401

    def test_coefficient_overflow_terminates_sequence(self):
        # mu^s keeps the terms small; c_160(0) itself leaves the double range
        entries = divergence_diagnostic(0.01, 5.0, 1, 200)
        assert entries[-2].term_magnitude < 1e-100
        assert entries[-1].term_magnitude == math.inf
        assert entries[-1].s == 160
        with pytest.raises(DomainError):
            c_coeff(160, 0, 5.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            divergence_diagnostic(0.0, 1.0, 1, 10)
        with pytest.raises(DomainError):
            divergence_diagnostic(0.1, 1.0, 1, -1)
        with pytest.raises(DomainError):
            turning_point([])
