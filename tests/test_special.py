"""Lerch transcendent evaluation and integer combinatorics."""

import math
import sys
import threading

import pytest

from mubose import (
    ConvergenceError,
    DomainError,
    LerchQuery,
    g_coeff,
    lerch_phi_s1,
    stirling2,
)
from mubose import special
from mubose._backend import kernels

TOL = 1e-12


class TestLerchQuery:
    def test_valid(self):
        q = LerchQuery(0.5, 1.0)
        assert q.z == 0.5 and q.a == 1.0 and q.tol == TOL

    @pytest.mark.parametrize(
        "z,a,tol",
        [(-0.1, 1.0, TOL), (1.0, 1.0, TOL), (1.5, 1.0, TOL),
         (0.5, 0.0, TOL), (0.5, -2.0, TOL), (0.5, 1.0, 0.0), (0.5, 1.0, -1e-9),
         (0.5, math.nan, TOL), (0.5, math.inf, TOL), (0.5, -math.inf, TOL)],
    )
    def test_invalid(self, z, a, tol):
        # each case spoils one argument of the valid query (0.5, 1.0, TOL)
        what = "lerch argument z" if z != 0.5 else "lerch shift a" if a != 1.0 else "tolerance"
        with pytest.raises(DomainError, match=f"^{what} must"):
            LerchQuery(z, a, tol)


class TestLerchValue:
    def test_z_zero_single_term(self):
        assert lerch_phi_s1(LerchQuery(0.0, 2.5)) == pytest.approx(0.4, abs=TOL)

    def test_log_identity_at_a_one(self):
        # Phi(z,1,1) = -ln(1-z)/z
        got = lerch_phi_s1(LerchQuery(0.5, 1.0))
        assert got == pytest.approx(1.3862943611198906, abs=TOL)

    def test_frozen_value(self):
        # direct high-precision summation of sum z^n/(n+10) at z = e^-1
        got = lerch_phi_s1(LerchQuery(math.exp(-1.0), 10.0))
        assert got == pytest.approx(0.15054594736169497, abs=TOL)

    @pytest.mark.parametrize("z", [0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("a", [0.25, 1.0, 3.5, 10.0])
    def test_tighter_tol_self_consistency(self, z, a):
        coarse = lerch_phi_s1(LerchQuery(z, a, TOL))
        fine = lerch_phi_s1(LerchQuery(z, a, TOL / 10.0))
        assert abs(coarse - fine) <= TOL

    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
    def test_shift_identity(self, z, a):
        # Phi(z,1,a) - z Phi(z,1,a+1) = 1/a
        lhs = lerch_phi_s1(LerchQuery(z, a)) - z * lerch_phi_s1(LerchQuery(z, a + 1.0))
        assert abs(lhs - 1.0 / a) <= 2.0 * TOL

    def test_monotone_decreasing_in_a(self):
        values = [lerch_phi_s1(LerchQuery(0.4, a)) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_monotone_increasing_in_z(self):
        values = [lerch_phi_s1(LerchQuery(z, 1.5)) for z in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(x < y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha, a", [(1e-8, 10.0), (1e-3, 5.0), (0.4, 1.0), (0.3, 0.01),
                                          (1e-12, 1e-3)])
    def test_near_one(self, alpha, a):
        # z -> 1, where Phi comes from its expansion at a cost that does not grow
        mpmath = pytest.importorskip("mpmath")
        query = LerchQuery(math.exp(-alpha), a)
        with mpmath.workdps(60):
            want = mpmath.lerchphi(mpmath.mpf(query.z), 1, mpmath.mpf(a))
        assert abs(lerch_phi_s1(query) - want) <= query.tol

    def test_tolerance_below_the_expansion_bound_sums_directly(self):
        query = LerchQuery(math.exp(-1e-3), 5.0, 1e-18)
        assert kernels.lerch_expansion(query.z, query.a)[1] > query.tol
        want = kernels.lerch_sum(query.z, query.a, query.tol, 10**8)[0]
        assert lerch_phi_s1(query) == want

    def test_term_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(special, "MAX_TERMS", 10)
        with pytest.raises(ConvergenceError, match="within 10 terms"):
            lerch_phi_s1(LerchQuery(0.999999, 1.0, 1e-300))

    @pytest.mark.parametrize("z, a", [(0.5, 1.0), (0.9, 5.0), (0.3, 0.25), (0.95, 12.0)])
    def test_budget_prediction_never_stops_a_converging_sum(self, z, a, monkeypatch):
        # the direct sum needs `used` terms: with a budget of used + 1 it returns what
        # it returns with 10^8, and a budget of used // 4 the kernel refuses
        query = LerchQuery(z, a)
        want = kernels.lerch_sum(z, a, query.tol, 10**8)
        used = want[2]
        assert used >= 8
        assert kernels.lerch_sum(z, a, query.tol, used + 1) == want
        assert kernels.lerch_sum(z, a, query.tol, used // 4)[1:] == (math.inf, used // 4)
        monkeypatch.setattr(special, "MAX_TERMS", used + 1)
        assert lerch_phi_s1(query) == want[0]
        monkeypatch.setattr(special, "MAX_TERMS", used // 4)
        with pytest.raises(ConvergenceError):
            lerch_phi_s1(query)


class TestStirling:
    def test_small_table(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1

    def test_edges(self):
        assert stirling2(2, 5) == 0
        assert stirling2(3, 0) == 0
        assert stirling2(5, 5) == 1
        assert stirling2(5, 1) == 1

    def test_recurrence(self):
        for n in range(2, 21):
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    def test_deep_row_from_a_cold_cache(self, monkeypatch):
        # the rows are built in a loop up to the bound, and none beyond it
        monkeypatch.setattr(special, "_S2_ROWS", [(1,)])
        assert stirling2(160, 2) == 2**159 - 1
        assert stirling2(special._MAX_ROW, special._MAX_ROW) == 1
        with pytest.raises(DomainError, match=f"exceeds the supported bound {special._MAX_ROW}"):
            stirling2(special._MAX_ROW + 1, 700)
        assert len(special._S2_ROWS) == special._MAX_ROW + 1

    def test_threads_grow_one_cold_cache(self, monkeypatch):
        # threads extend both triangles at once: a lost or doubled row would shift the rows
        monkeypatch.setattr(special, "_S2_ROWS", [(1,)])
        monkeypatch.setattr(special, "_G_ROWS", [(1,)])
        threads = [threading.Thread(target=lambda n=n: (stirling2(n, 2), g_coeff(n, 1)))
                   for n in (50, 100, 150, 170) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for rows in (special._S2_ROWS, special._G_ROWS):
            assert [len(row) for row in rows] == list(range(1, 172))
        assert stirling2(170, 2) == 2**169 - 1 and g_coeff(170, 1) == 2 * (2**170 - 1)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            stirling2(2.5, 1)
        with pytest.raises(DomainError):
            stirling2(-1, 0)
        with pytest.raises(DomainError):
            stirling2(3, -2)


class TestGCoefficients:
    def test_seed_and_first_steps(self):
        assert g_coeff(0, 0) == 1
        assert g_coeff(1, 0) == 1
        assert g_coeff(1, 1) == 2
        assert g_coeff(2, 2) == 6

    def test_stirling_closed_form(self):
        # g_s^j = (j+1)! {s+1, j+1}, exact integers
        for s in range(21):
            for j in range(s + 1):
                assert g_coeff(s, j) == math.factorial(j + 1) * stirling2(s + 1, j + 1)

    def test_deep_row_from_a_cold_cache(self, monkeypatch):
        # the rows are built in a loop: no recursion depth limits s
        monkeypatch.setattr(special, "_G_ROWS", [(1,)], raising=False)
        assert g_coeff(160, 1) == 2 * (2**160 - 1)
        assert g_coeff(special._MAX_ROW, special._MAX_ROW) == math.factorial(special._MAX_ROW + 1)
        with pytest.raises(DomainError, match=f"exceeds the supported bound {special._MAX_ROW}"):
            g_coeff(special._MAX_ROW + 1, 0)
        assert len(special._G_ROWS) == special._MAX_ROW + 1

    def test_range_check(self):
        with pytest.raises(DomainError):
            g_coeff(2.5, 1)
        with pytest.raises(DomainError):
            g_coeff(2, 3)
        with pytest.raises(DomainError):
            g_coeff(-1, 0)
        with pytest.raises(DomainError):
            g_coeff(2, -1)
