"""Acceptance gate: one test per headline guarantee, each printing PASS/FAIL.

Every test here pins the library against an independent reference (brute-force
oracle, hand closed form, or exact combinatorial identity) at an explicit
tolerance. Run with ``pytest -v -s tests/test_acceptance.py`` to see one
status line per guarantee.
"""

import math
import random
import subprocess
import sys

from mubose import (
    DeformationMu,
    PQParams,
    ThermoPoint,
    a_coeffs,
    c_coeff,
    divergence_diagnostic,
    expansion_residual,
    g_coeff,
    intercept,
    intercept_asymptotic,
    lerch_phi_s1,
    LerchQuery,
    mean_occupation,
    mu_vs_pq_asymptotic_gap,
    pq_factorial,
    pq_intercept_result,
    pq_moment,
    r_moment,
    r3_asymptotic,
    r3_function,
    series_coeff_oracle,
    stirling2,
)
from mubose.cli import GridSpec, figure_records

MASS = 139.57


def report(label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {label}")
    assert not failures, f"{label}: {failures[:5]}"


def alpha_of(temperature, momentum):
    return ThermoPoint(temperature=temperature, momentum=momentum,
                       mass=MASS).alpha


def test_01_closed_form_intercepts_match_oracle_grid():
    failures = []
    points = 0
    for mu in (0.05, 0.1, 0.2, 0.3):
        d = DeformationMu(mu)
        for r in (2, 3, 4, 5):
            if mu >= 1.0 / (r - 1):
                continue
            for T in (120.0, 180.0):
                for k in (0.0, 250.0, 500.0, 1000.0):
                    alpha = alpha_of(T, k)
                    closed = intercept(d, alpha, r, method="closed").value
                    oracle = intercept(d, alpha, r, method="oracle").value
                    points += 1
                    rel = abs(closed - oracle) / abs(oracle)
                    if rel > 1e-9:
                        failures.append((mu, T, k, r, rel))
    assert points == 120
    report("closed-form intercepts match series oracle on the 120-point "
           "(mu, T, k, r) grid to 1e-9 relative", failures)


def test_02_undeformed_limit_is_exact_factorial():
    failures = []
    alpha = alpha_of(120.0, 0.0)
    for r in range(2, 7):
        exact = float(math.factorial(r) - 1)
        res = intercept(DeformationMu(0.0), alpha, r)
        if res.value != exact or res.error_bound != 0.0:
            failures.append(("mu=0", r, res.value))
        # the leading deformation correction is proportional to the value
        # itself, so a vanishing mu is judged on the relative scale
        near = intercept(DeformationMu(1e-6), alpha, r).value
        if abs(near - exact) > 1e-4 * exact:
            failures.append(("mu=1e-6", r, abs(near - exact) / exact))
    report("intercept(mu=0) equals r!-1 exactly for r <= 6 and "
           "intercept(mu=1e-6) is within 1e-4 of it", failures)


def test_03_asymptotic_values_and_large_momentum_limit():
    failures = []
    d = DeformationMu(0.1)
    want2 = 1.0 / (1.0 + 2.0 * 0.1)
    want3 = (5.0 + 7.0 * 0.1) / ((1.0 + 2.0 * 0.1) * (1.0 + 3.0 * 0.1))
    got2 = intercept_asymptotic(d, 2)
    got3 = intercept_asymptotic(d, 3)
    # the reduced rational forms are algebraically identical, so only
    # floating-point rounding of the two evaluation orders separates them
    if abs(got2 - want2) > 5e-15 * want2:
        failures.append(("r=2 formula", got2, want2))
    if abs(got3 - want3) > 5e-15 * want3:
        failures.append(("r=3 formula", got3, want3))
    if abs(got2 - 0.8333333) > 1e-6:
        failures.append(("r=2 printed", got2))
    if abs(got3 - 3.6538461) > 1e-6:
        failures.append(("r=3 printed", got3))
    alpha = alpha_of(120.0, 3000.0)
    for r, want in ((2, got2), (3, got3)):
        val = intercept(d, alpha, r).value
        if abs(val - want) > 1e-6:
            failures.append(("k=3000", r, val, want))
    report("asymptotic intercepts equal 1/(1+2mu) and "
           "(5+7mu)/((1+2mu)(1+3mu)) and are reached at k=3000 MeV "
           "within 1e-6", failures)


def test_04_coefficient_tables_match_closed_forms_and_oracle():
    failures = []
    for i in range(20):
        mu = 0.5 * (i + 1) / 20.0
        got1 = a_coeffs(1, mu).values
        if got1 != (-1.0,):
            failures.append(("A1", mu))
        want2 = (-1.0 - 1.0 / mu, -1.0 + 1.0 / mu)
        for g, w in zip(a_coeffs(2, mu).values, want2):
            if abs(g - w) > 1e-12 * max(abs(w), 1.0):
                failures.append(("A2", mu, g, w))
        want3 = (-1.0 - 1.5 / mu - 0.5 / mu**2,
                 -1.0 + 1.0 / mu**2,
                 -1.0 + 1.5 / mu - 0.5 / mu**2)
        for g, w in zip(a_coeffs(3, mu).values, want3):
            if abs(g - w) > 1e-12 * max(abs(w), 1.0):
                failures.append(("A3", mu, g, w))
    # s = 6 row: the recurrence and the derivative oracle both force the
    # final entry to 6! = 720 (it multiplies 1/(e^a - 1)^7)
    vectors = {
        0: (1,),
        1: (-1, -1),
        2: (1, 3, 2),
        3: (-1, -7, -12, -6),
        4: (1, 15, 50, 60, 24),
        5: (-1, -31, -180, -390, -360, -120),
        6: (1, 63, 602, 2100, 3360, 2520, 720),
    }
    for s, want in vectors.items():
        got = c_coeff(s, 0, 1.0).recip_coeffs
        if tuple(float(v) for v in want) != got:
            failures.append(("c-vector", s, got))
    for s in range(9):
        for el in range(5):
            for alpha in (0.5, 1.0, 2.0):
                closed = c_coeff(s, el, alpha).value
                oracle = series_coeff_oracle(s, el, alpha)
                if abs(closed - oracle) > 1e-10 * max(abs(oracle), 1.0):
                    failures.append(("c-oracle", s, el, alpha))
    report("A^(r) closed forms hold to 1e-12 over 20 mu samples, the seven "
           "c_s(0) integer vectors are exact, and c_s(l) matches the "
           "derivative oracle to 1e-10 for s <= 8, l <= 4", failures)


def test_05_structural_identities():
    failures = []
    rng = random.Random(20260815)
    for _ in range(100):
        r = rng.randint(1, 8)
        mu = rng.uniform(0.01, 0.45)
        while True:
            n = rng.randint(-5, 40)
            if all(abs(1.0 + mu * (n - el)) >= 1e-2 for el in range(r)):
                break
        res = expansion_residual(r, mu, float(n))
        if res > 1e-10:
            failures.append(("residual", r, mu, n, res))
    tol = 1e-12
    for z in (0.1, 0.5, 0.9, 0.99):
        for a in (0.3, 1.0, 2.5, 7.0):
            lhs = (lerch_phi_s1(LerchQuery(z=z, a=a, tol=tol))
                   - z * lerch_phi_s1(LerchQuery(z=z, a=a + 1.0, tol=tol)))
            if abs(lhs - 1.0 / a) > 2.0 * tol:
                failures.append(("lerch-shift", z, a, lhs))
    for s in range(21):
        for j in range(s + 1):
            if g_coeff(s, j) != math.factorial(j + 1) * stirling2(s + 1, j + 1):
                failures.append(("g-identity", s, j))
    report("partial-fraction residual <= 1e-10 on 100 random points, Lerch "
           "shift identity holds within 2*tol, and g_s^j equals "
           "(j+1)!*S(s+1,j+1) exactly for s <= 20", failures)


def test_06_pq_limits_and_gap_ratio():
    failures = []
    for alpha in (0.8, 1.5, 3.0):
        z = math.exp(-alpha)
        bose = DeformationMu(0.0)
        ones = PQParams(1.0, 1.0)
        for r in (2, 3, 4):
            m_ref = r_moment(bose, alpha, r).value
            m_got = pq_moment(ones, alpha, r)
            if abs(m_got - m_ref) > 1e-10 * abs(m_ref):
                failures.append(("moment p=q=1", alpha, r))
            l_ref = float(math.factorial(r) - 1)
            l_got = pq_intercept_result(ones, alpha, r).value
            if abs(l_got - l_ref) > 1e-10 * abs(l_ref):
                failures.append(("intercept p=q=1", alpha, r))
        assert z < 1.0
    for p, q in ((0.9, 0.9), (0.8, 0.6), (1.0, 0.7)):
        pq = PQParams(p, q)
        for r in (2, 3):
            lam = pq_intercept_result(pq, 30.0, r).value
            asym = pq_factorial(r, pq) - 1.0
            if abs(lam - asym) > 1e-6:
                failures.append(("alpha=30", p, q, r, lam - asym))
    for mu in (0.05, 0.1, 0.2, 0.3):
        d = DeformationMu(mu)
        for r in (2, 3, 4):
            ratio = mu_vs_pq_asymptotic_gap(d, r)
            want = (1.0 + mu) ** r
            if abs(ratio - want) > 1e-12 * want:
                failures.append(("gap", mu, r, ratio, want))
    report("p,q quantities reduce to Bose values at p=q=1 within 1e-10, "
           "reach [r]_pq!-1 at alpha=30 within 1e-6, and the mu-vs-pq gap "
           "ratio equals (1+mu)^r within 1e-12", failures)


def test_07_figure_curves_order_and_approach_asymptotes():
    failures = []
    grid = GridSpec(k_steps=21, mus=(0.0, 0.1, 0.2))
    records, failed = figure_records("fig1", grid)
    if failed:
        failures.append(("fig1 failed rows", failed))
    by_key = {(r.T_mev, r.mu, r.k_mev): r.value for r in records}
    for T in (120.0, 180.0):
        for k in grid.momenta():
            if not (by_key[(T, 0.0, k)] > by_key[(T, 0.1, k)]
                    > by_key[(T, 0.2, k)]):
                failures.append(("fig1 mu order", T, k))
    for mu in (0.0, 0.1, 0.2):
        for k in grid.momenta():
            if not by_key[(120.0, mu, k)] < by_key[(180.0, mu, k)]:
                failures.append(("fig1 T order", mu, k))
    ks = (0.0, 250.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    for r in (2, 3):
        for T in (120.0, 180.0):
            for mu in (0.1, 0.2):
                d = DeformationMu(mu)
                asym = intercept_asymptotic(d, r)
                gaps = [abs(intercept(d, alpha_of(T, k), r).value - asym)
                        for k in ks]
                if not all(a > b for a, b in zip(gaps, gaps[1:])):
                    failures.append(("gap not shrinking", r, T, mu, gaps))
                if gaps[-1] > 1e-3:
                    failures.append(("gap at k=3000", r, T, mu, gaps[-1]))
    for T in (120.0, 180.0):
        for mu in (0.1, 0.2):
            d = DeformationMu(mu)
            asym = r3_asymptotic(d)
            vals = [r3_function(d, alpha_of(T, k)).value for k in ks]
            if not all(math.isfinite(v) for v in vals):
                failures.append(("r3 finite", T, mu))
            gaps = [abs(v - asym) for v in vals]
            if not all(a > b for a, b in zip(gaps, gaps[1:])):
                failures.append(("r3 gap not shrinking", T, mu, gaps))
            if gaps[-1] > 1e-3:
                failures.append(("r3 gap at k=3000", T, mu, gaps[-1]))
    report("distribution curves order by mu and T pointwise; lambda^(2), "
           "lambda^(3) and r^(3) curves close on their asymptotes "
           "monotonically and sit within 1e-3 by k=3000 MeV", failures)


def test_08_taylor_series_growth_marks_divergence():
    entries = divergence_diagnostic(DeformationMu(0.1), 1.0, 1, 40)
    mags = [e.term_magnitude for e in entries]
    failures = []
    if len(mags) != 41:
        failures.append(("length", len(mags)))
    tail = mags[-10:]
    if not all(a < b for a, b in zip(tail, tail[1:])):
        failures.append(("tail not increasing", tail))
    report("term magnitudes at mu=0.1, alpha=1, r=1 grow strictly over the "
           "final 10 of 41 entries", failures)


def test_09_figure_output_is_deterministic():
    cmd = [sys.executable, "-m", "mubose.cli", "figure", "fig2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    failures = []
    if first.returncode != 0 or second.returncode != 0:
        failures.append(("returncode", first.returncode, second.returncode))
    if first.stdout != second.stdout:
        failures.append(("stdout differs",))
    report("two figure runs produce byte-identical output", failures)
