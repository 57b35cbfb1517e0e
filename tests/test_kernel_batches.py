"""Batched moment kernels against the term-by-term loops they replace.

``_closed_loop`` and ``_oracle_loop`` are the one-alpha-at-a-time loops
of the pure-Python backend before it summed whole curves.  The batched
kernels must reproduce them bit for bit, value, bound and term count.
"""

import math
import warnings

import numpy as np
import pytest

from mubose import _kernels_py as kp

_LD = np.longdouble
_ONE = _LD(1)
_ZERO = _LD(0)
_EPS_LD = _LD(np.finfo(np.longdouble).eps)
_DBL_EPS = _LD(2.220446049250313e-16)


def _closed_loop(mu, alpha, r, rtol, atol, max_terms):
    mu_ld = _LD(mu)
    z = np.exp(-_LD(alpha))
    inv_gap = _ONE / (_ONE - z)
    coeffs = kp._a_tilde(mu_ld, r)
    big_k = _ZERO
    for l in range(r):
        big_k += abs(coeffs[l])
    scale = _ONE
    for _ in range(2 * r - 2):
        scale /= mu_ld

    acc = _ZERO
    abs_acc = _ZERO
    zm = _ONE
    for _ in range(r):
        zm *= z
    m = r
    terms = 0
    while True:
        s_val = _ZERO
        s_abs = _ZERO
        for l in range(r):
            t = coeffs[l] / ((_ONE + mu_ld * (m - l)) * (_ONE + mu_ld * (m - l - 1)))
            s_val += t
            s_abs += abs(t)
        acc += zm * s_val
        abs_acc += zm * s_abs
        zm *= z
        tail = big_k * zm / ((_ONE + mu_ld * (m + 2 - r)) * (_ONE + mu_ld * (m + 1 - r))) * inv_gap
        m += 1
        terms += 1
        if tail * scale <= max(_LD(atol), _LD(rtol) * abs(acc) * scale) or terms >= max_terms:
            break
    value = -acc * scale
    err = (tail + _EPS_LD * (2 * r + 6) * abs_acc) * scale + _DBL_EPS * abs(value)
    return float(value), float(err), terms


def _oracle_loop(mu, alpha, r, rtol, atol, max_terms):
    mu_ld = _LD(mu)
    z = np.exp(-_LD(alpha))
    gap = _ONE - z
    acc = _ZERO
    zn = _ONE
    for _ in range(r):
        zn *= z
    n = r
    terms = 0
    while True:
        prod = _ONE
        for l in range(r):
            x = _LD(n - l)
            prod *= x / (_ONE + mu_ld * x)
        acc += prod * zn
        zn *= z
        rho = _ONE
        for _ in range(r):
            rho *= _LD(n + 2) / _LD(n + 1)
        rho *= z
        if rho < _ONE:
            bound = _ONE
            for _ in range(r):
                bound *= _LD(n + 1)
            tail = bound * zn / (_ONE - rho)
        else:
            tail = _LD(np.inf)
        n += 1
        terms += 1
        if gap * tail <= max(_LD(atol), _LD(rtol) * gap * acc) or terms >= max_terms:
            break
    value = gap * acc
    err = gap * tail + _EPS_LD * (2 * r + 8) * value + _DBL_EPS * value
    return float(value), float(err), terms


ALPHAS = (1e-3, 0.05, 0.3, 0.8, 1.163, 2.5, 8.4, 40.0)

#: alpha grids of the figure presets: 1001 momenta at T = 120 and 180 MeV
FIGURE_ALPHAS = [math.hypot(139.57, 1000.0 * i / 1000) / T
                 for T in (120.0, 180.0) for i in range(1001)]


def _admissible(mu, r):
    return r < 2 or mu < 1.0 / (r - 1)


def _check(batch, scalar, loop, mu, alphas, r, rtol, atol=0.0, max_terms=10**8):
    want = [loop(mu, a, r, rtol, atol, max_terms) for a in alphas]
    assert batch(mu, alphas, r, rtol, atol, max_terms) == want
    assert [scalar(mu, a, r, rtol, atol, max_terms) for a in alphas] == want
    return want


class TestClosedMomentSums:
    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.2, 0.45])
    def test_matches_loop(self, mu):
        for r in range(1, 9):
            if not _admissible(mu, r):
                continue
            # the alpha = 1e-3 loops sum ~10^4 terms each; one order keeps the test short
            alphas = ALPHAS if r == 3 else ALPHAS[1:]
            _check(kp.closed_moment_sums, kp.closed_moment_sum, _closed_loop,
                   mu, list(alphas), r, 1e-13)

    @pytest.mark.parametrize("mu, r, rtol", [(0.1, 1, 1e-12), (0.2, 2, 1e-12 / 6),
                                             (0.1, 3, 1e-12 / 128)])
    def test_figure_grid(self, mu, r, rtol):
        want = [_closed_loop(mu, a, r, rtol, 0.0, 10**8) for a in FIGURE_ALPHAS]
        assert kp.closed_moment_sums(mu, FIGURE_ALPHAS, r, rtol, 0.0, 10**8) == want

    @pytest.mark.parametrize("max_terms", [1, 5, 16, 37])
    def test_exhausted_budget(self, max_terms):
        want = _check(kp.closed_moment_sums, kp.closed_moment_sum, _closed_loop,
                      0.1, [0.01, 0.02], 3, 1e-13, max_terms=max_terms)
        assert [terms for _, _, terms in want] == [max_terms, max_terms]

    def test_absolute_tolerance(self):
        _check(kp.closed_moment_sums, kp.closed_moment_sum, _closed_loop,
               0.2, [0.5, 3.0, 9.0], 2, 1e-15, atol=1e-6)

    def test_empty_curve(self):
        assert kp.closed_moment_sums(0.1, [], 2, 1e-13, 0.0, 10**8) == []


class TestOracleMomentSums:
    @pytest.mark.parametrize("mu", [0.0, 0.01, 0.1, 0.2, 0.45])
    def test_matches_loop(self, mu):
        for r in range(1, 9):
            alphas = ALPHAS if (mu, r) == (0.0, 2) else ALPHAS[1:]
            _check(kp.oracle_moment_sums, kp.oracle_moment_sum, _oracle_loop,
                   mu, list(alphas), r, 1e-13)

    @pytest.mark.parametrize("mu, r, rtol", [(0.0, 1, 1e-12), (0.2, 3, 1e-12 / 128)])
    def test_figure_grid(self, mu, r, rtol):
        want = [_oracle_loop(mu, a, r, rtol, 0.0, 10**8) for a in FIGURE_ALPHAS]
        assert kp.oracle_moment_sums(mu, FIGURE_ALPHAS, r, rtol, 0.0, 10**8) == want

    @pytest.mark.parametrize("max_terms", [1, 5, 16, 37])
    def test_exhausted_budget(self, max_terms):
        want = _check(kp.oracle_moment_sums, kp.oracle_moment_sum, _oracle_loop,
                      0.1, [0.01, 0.02], 3, 1e-13, max_terms=max_terms)
        assert [terms for _, _, terms in want] == [max_terms, max_terms]

    def test_divergent_ratio_is_silent(self):
        # at small alpha and high order the first term ratios reach rho >= 1,
        # where the tail is infinite; no numpy warning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _check(kp.oracle_moment_sums, kp.oracle_moment_sum, _oracle_loop,
                          0.1, [0.05, 0.2], 8, 1e-13, max_terms=3)
        assert all(err == math.inf for _, err, _ in want)


def test_rows_beyond_the_block_cap():
    # more rows than a block may hold cells: blocks shrink to one term
    alphas = list(np.linspace(0.5, 5.0, 2**15 + 7))
    for batch in (kp.closed_moment_sums, kp.oracle_moment_sums):
        whole = batch(0.1, alphas, 2, 1e-13, 0.0, 10**8)
        parts = batch(0.1, alphas[:1000], 2, 1e-13, 0.0, 10**8) + batch(
            0.1, alphas[1000:], 2, 1e-13, 0.0, 10**8)
        assert whole == parts
