"""Block-summed kernels against the term-by-term loops they replace.

``_closed_loop`` and ``_oracle_loop`` are the one-alpha-at-a-time loops
of the pure-Python backend before it summed whole curves; ``_lerch_loop``,
``_power_loop`` and ``_pq_oracle_loop`` are the loops of ``lerch_sum``,
``power_sum`` and ``pq_oracle_sum`` before they moved onto the block
driver, ``_power_loop`` with the stop at the tail tolerance that
``power_sum`` gained later.  The kernels must reproduce them bit for bit,
value, bound and term count; the curve kernels return them as arrays.
``TestTableCaches`` checks that the cached tables of the z -> 1 expansion
give the same bytes cold, warm and extended.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mubose import _kernels_py as kp
from mubose.partfrac import _exact_coeffs

_LD = np.longdouble
_ONE = _LD(1)
_ZERO = _LD(0)
_EPS_LD = _LD(np.finfo(np.longdouble).eps)
_DBL_EPS = _LD(2.220446049250313e-16)


def _closed_loop(mu, alpha, r, rtol, atol, max_terms):
    mu_ld = _LD(mu)
    z = np.exp(-_LD(alpha))
    inv_gap = _ONE / (_ONE - z)
    coeffs = kp._scaled_coeffs(mu, r)
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



def _lerch_loop(z, a, atol, max_terms):
    z_ld = _LD(z)
    a_ld = _LD(a)
    inv_gap = _ONE / (_ONE - z_ld)
    acc = _ZERO
    zn = _ONE
    n = 0
    while True:
        acc += zn / (a_ld + n)
        zn *= z_ld
        tail = zn / (a_ld + n + 1) * inv_gap
        n += 1
        if tail <= _LD(atol) or n >= max_terms:
            break
    err = tail + (_EPS_LD * (n + 4) + _DBL_EPS) * abs(acc)
    return float(acc), float(err), n


def _power_loop(s, l, alpha, n_max, atol):
    z = np.exp(-_LD(alpha))
    acc = _ZERO
    zn = _ONE
    for n in range(n_max + 1):
        x = _LD(n - l)
        p = _ONE
        for _ in range(s):
            p *= x
        acc += p * zn
        zn *= z
        rho = _ONE
        for _ in range(s):
            rho *= _LD(n + 2) / _LD(n + 1)
        rho *= z
        if rho < _ONE:
            bound = _ONE
            for _ in range(s):
                bound *= _LD(n + 1)
            tail = bound * zn / (_ONE - rho)
        else:
            tail = _LD(np.inf)
        if n >= l and tail < _LD(atol):
            break
    return float(acc), float(tail)


def _pq_oracle_loop(p, q, alpha, r, rtol, atol, max_terms):
    p_ld = _LD(p)
    q_ld = _LD(q)
    z = np.exp(-_LD(alpha))
    decay = p_ld**r  # the product of r basic numbers is at most n^r decay^(n-r)
    gap = -np.expm1(-_LD(alpha)) if decay < _ONE else _ONE - z
    s_pq = p_ld + q_ld
    prod_pq = p_ld * q_ld

    window = [_ZERO] * r  # last r basic numbers, window[i] = [n - (r-1) + i]
    window[0] = _ONE
    b_prev = _ZERO  # [k-1]
    b_cur = _ONE    # [k]
    for i in range(1, r):
        b_prev, b_cur = b_cur, s_pq * b_cur - prod_pq * b_prev
        window[i] = b_cur

    acc = _ZERO
    zn = _ONE
    for _ in range(r):
        zn *= z
    n = r
    terms = 0
    while True:
        prod = _ONE
        for i in range(r):
            prod *= window[i]
        acc += prod * zn
        zn *= z
        rho = _ONE
        for _ in range(r):
            rho *= _LD(n + 2) / _LD(n + 1)
        rho *= z * decay
        if rho < _ONE:
            bound = _ONE
            for _ in range(r):
                bound *= _LD(n + 1)
            tail = bound * (zn * decay ** _LD(n + 1 - r)) / (_ONE - rho)
        else:
            tail = _LD(np.inf)
        n += 1
        terms += 1
        if gap * tail <= max(_LD(atol), _LD(rtol) * gap * acc) or terms >= max_terms:
            break
        b_prev, b_cur = b_cur, s_pq * b_cur - prod_pq * b_prev
        for i in range(r - 1):
            window[i] = window[i + 1]
        window[r - 1] = b_cur
    value = gap * acc
    err = gap * tail + _EPS_LD * (2 * r + 8) * abs(value) + _DBL_EPS * abs(value)
    return float(value), float(err), terms

ALPHAS = (1e-3, 0.05, 0.3, 0.8, 1.163, 2.5, 8.4, 40.0)

#: alpha grids of the figure presets: 1001 momenta at T = 120 and 180 MeV
FIGURE_ALPHAS = [math.hypot(139.57, 1000.0 * i / 1000) / T
                 for T in (120.0, 180.0) for i in range(1001)]


def _columns(points):
    """Loop results [(value, error_bound, terms_used), ...] as a curve kernel's arrays."""
    value, err, terms = zip(*points) if points else ((), (), ())
    return (np.array(value, dtype=np.float64), np.array(err, dtype=np.float64),
            np.array(terms, dtype=np.int64))


def _assert_same(got, want):
    """Curve sums equal bit for bit: the dtype and every bit of each array."""
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _check(batch, scalar, loop, mu, alphas, r, rtol, atol=0.0, max_terms=10**8):
    want = [loop(mu, a, r, rtol, atol, max_terms) for a in alphas]
    _assert_same(batch(mu, alphas, r, rtol, atol, max_terms), _columns(want))
    assert [scalar(mu, a, r, rtol, atol, max_terms) for a in alphas] == want
    return want


def _check_budget(batch, scalar, loop, mu, alphas, r, rtol, max_terms):
    """Sums at a budget that some rows cannot meet: the curve equals its one-point
    calls, a row the kernel refuses reports the budget with an infinite bound, and
    every other row equals its loop.  Returns which rows were refused."""
    got = batch(mu, alphas, r, rtol, 0.0, max_terms)
    points = [scalar(mu, a, r, rtol, 0.0, max_terms) for a in alphas]
    _assert_same(got, _columns(points))
    refused = (got[1] == math.inf).tolist()
    for a, point, was_refused in zip(alphas, points, refused):
        if was_refused:
            assert point[2] == max_terms
        else:
            assert point == loop(mu, a, r, rtol, 0.0, max_terms)
    return refused


def _check_short_budgets(batch, scalar, loop, short):
    """Two sums at budgets ``short`` terms below each one's length, and of ``short`` terms.

    Short of the longer sum neither row is refused and the longer exhausts its
    budget; short of the shorter sum the longer row is refused; at ``short``
    terms both are.
    """
    alphas = [0.01, 0.02]
    slow, fast = batch(0.1, alphas, 3, 1e-13, 0.0, 10**8)[2].tolist()
    for budget, refused in ((slow - short, [False, False]), (fast - short, [True, False]),
                            (short, [True, True])):
        assert _check_budget(batch, scalar, loop, 0.1, alphas, 3, 1e-13, budget) == refused


class TestClosedMomentSums:
    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.2, 0.45, 0.5, 1.0, 3.0])
    def test_matches_loop(self, mu):
        # every mu > 0, the lattice mu = 1/j and mu >= 1/(r-1) included
        for r in range(1, 9):
            # the alpha = 1e-3 loops sum ~10^4 terms each; one order keeps the test short
            alphas = ALPHAS if r == 3 else ALPHAS[1:]
            _check(kp.closed_moment_sums, kp.closed_moment_sum, _closed_loop,
                   mu, list(alphas), r, 1e-13)

    @pytest.mark.parametrize("mu, r, rtol", [(0.1, 1, 1e-12), (0.2, 2, 1e-12 / 6),
                                             (0.1, 3, 1e-12 / 128)])
    def test_figure_grid(self, mu, r, rtol):
        want = [_closed_loop(mu, a, r, rtol, 0.0, 10**8) for a in FIGURE_ALPHAS]
        _assert_same(kp.closed_moment_sums(mu, FIGURE_ALPHAS, r, rtol, 0.0, 10**8),
                     _columns(want))

    @pytest.mark.parametrize("short", [1, 5, 16, 37])
    def test_exhausted_budget(self, short):
        _check_short_budgets(kp.closed_moment_sums, kp.closed_moment_sum, _closed_loop, short)

    def test_absolute_tolerance(self):
        _check(kp.closed_moment_sums, kp.closed_moment_sum, _closed_loop,
               0.2, [0.5, 3.0, 9.0], 2, 1e-15, atol=1e-6)

    def test_empty_curve(self):
        _assert_same(kp.closed_moment_sums(0.1, [], 2, 1e-13, 0.0, 10**8), _columns([]))


class TestClosedCondition:
    @pytest.mark.parametrize("mu, r", [(0.1, 2), (0.1, 3), (0.5, 3), (1.0, 4), (3.0, 6),
                                       (1e-3, 5)])
    def test_matches_exact_first_term(self, mu, r):
        # mu^(2-2r) sum_l |Atilde_l| / ((1+mu(r-l))(1+mu(r-l-1))) / [r]_mu!
        # with the exact rational A_l = mu^(1-r) Atilde_l
        m = Fraction(mu)
        coeffs = _exact_coeffs(r, m)
        s_abs = sum(abs(c) / ((1 + m * (r - l)) * (1 + m * (r - l - 1)))
                    for l, c in enumerate(coeffs))
        factorial = math.prod(Fraction(j) / (1 + m * j) for j in range(1, r + 1))
        want = float(s_abs / m ** (r - 1) / factorial)
        assert kp.closed_condition(mu, r) == pytest.approx(want, rel=1e-15)

    def test_order_one_has_no_cancellation(self):
        assert kp.closed_condition(0.3, 1) == pytest.approx(1.0, rel=1e-18)

    @pytest.mark.parametrize("mu, r", [(1e-300, 3), (5e-324, 2), (1e40, 64), (1e300, 64)])
    def test_out_of_range(self, mu, r):
        # mu^(2-2r) or a coefficient leaves the long-double range, or the
        # factor itself the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kp.closed_condition(mu, r) == math.inf


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
        _assert_same(kp.oracle_moment_sums(mu, FIGURE_ALPHAS, r, rtol, 0.0, 10**8),
                     _columns(want))

    @pytest.mark.parametrize("short", [1, 5, 16, 37])
    def test_exhausted_budget(self, short):
        _check_short_budgets(kp.oracle_moment_sums, kp.oracle_moment_sum, _oracle_loop, short)

    def test_divergent_ratio_is_silent(self):
        # at small alpha and high order the first term ratios reach rho >= 1, where
        # the tail is infinite: a sum runs through those terms, and a budget that
        # ends among them is refused with an infinite bound; no numpy warning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check(kp.oracle_moment_sums, kp.oracle_moment_sum, _oracle_loop,
                   0.1, [0.05, 0.2], 8, 1e-13)
            refused = _check_budget(kp.oracle_moment_sums, kp.oracle_moment_sum, _oracle_loop,
                                    0.1, [0.05, 0.2], 8, 1e-13, 3)
        assert refused == [True, True]


def test_rows_beyond_the_block_cap():
    # more rows than a block may hold cells: blocks shrink to one term
    alphas = list(np.linspace(0.5, 5.0, 2**15 + 7))
    for batch in (kp.closed_moment_sums, kp.oracle_moment_sums):
        whole = batch(0.1, alphas, 2, 1e-13, 0.0, 10**8)
        head = batch(0.1, alphas[:1000], 2, 1e-13, 0.0, 10**8)
        rest = batch(0.1, alphas[1000:], 2, 1e-13, 0.0, 10**8)
        _assert_same(whole, [np.concatenate(pair) for pair in zip(head, rest)])


#: z -> 1 (alpha = 1e-3): sums of 24,000 to 31,000 terms, over many blocks
Z_NEAR_ONE = math.exp(-1e-3)


class TestLerchSum:
    @pytest.mark.parametrize("z", [0.0, 0.3, 0.9, Z_NEAR_ONE])
    def test_matches_loop(self, z):
        for a in (0.5, 1.0, 8.0, 1e3):
            for atol in (1e-12, 1e-15):
                assert kp.lerch_sum(z, a, atol, 10**8) == _lerch_loop(z, a, atol, 10**8)

    def test_absolute_tolerance(self):
        for z in (0.5, 0.99, Z_NEAR_ONE):
            assert kp.lerch_sum(z, 2.0, 1e-3, 10**8) == _lerch_loop(z, 2.0, 1e-3, 10**8)

    @pytest.mark.parametrize("short", [1, 5, 16, 37])
    def test_exhausted_budget(self, short):
        # `short` terms short of the sum the kernel does not refuse it, and it exhausts
        # its budget as the loop does; a budget of `short` terms it refuses
        used = kp.lerch_sum(0.99, 1.5, 1e-15, 10**8)[2]
        want = _lerch_loop(0.99, 1.5, 1e-15, used - short)
        assert kp.lerch_sum(0.99, 1.5, 1e-15, used - short) == want
        assert want[2] == used - short
        assert kp.lerch_sum(0.99, 1.5, 1e-15, short)[1:] == (math.inf, short)


class TestPowerSum:
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 5])
    def test_matches_loop(self, s):
        # atol = 0 sums every term up to n_max; the others stop where the tail allows
        for atol in (0.0, 1e-12, 1e-3):
            for l in (0, 1, 3):
                for alpha in (0.05, 1.0, 3.0):
                    for n_max in (l + 1, 60, 700):
                        want = _power_loop(s, l, alpha, n_max, atol)
                        assert kp.power_sum(s, l, alpha, n_max, atol) == want

    @pytest.mark.parametrize("terms", [1, 5, 16, 37])
    def test_term_budgets(self, terms):
        for s, l in ((0, 0), (3, 2)):
            want = _power_loop(s, l, 0.1, terms - 1, 0.0)
            assert kp.power_sum(s, l, 0.1, terms - 1, 0.0) == want

    def test_longer_than_a_block(self):
        assert kp.power_sum(3, 1, 1e-3, 25000, 1e-12) == _power_loop(3, 1, 1e-3, 25000, 1e-12)

    def test_stop_in_a_later_block(self):
        # the tail bound falls below atol after about 20,000 terms, many
        # blocks in, and well before the cap
        want = _power_loop(3, 1, 3.2e-3, 40000, 1e-12)
        assert want[1] < 1e-12 and want != _power_loop(3, 1, 3.2e-3, 40000, 0.0)
        assert kp.power_sum(3, 1, 3.2e-3, 40000, 1e-12) == want

    def test_divergent_ratio(self):
        # rho >= 1 at the last term: the tail is infinite and no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, tail = kp.power_sum(8, 0, 0.5, 3, 1e-12)
        assert (acc, tail) == _power_loop(8, 0, 0.5, 3, 1e-12) and tail == math.inf


#: (p, q): the undeformed p = q = 1, p = q < 1 and p > q
PQ_PAIRS = [(1.0, 1.0), (0.8, 0.8), (0.9, 0.7), (0.95, 0.5)]


class TestPQOracleSum:
    @pytest.mark.parametrize("p, q", PQ_PAIRS)
    def test_matches_loop(self, p, q):
        for r in (1, 2, 3, 5):
            # at alpha = 1e5 the long-double z is exactly 0
            for alpha in (0.05, 0.5, 3.0, 40.0, 1e5):
                want = _pq_oracle_loop(p, q, alpha, r, 1e-13, 0.0, 10**8)
                assert kp.pq_oracle_sum(p, q, alpha, r, 1e-13, 0.0, 10**8) == want

    @pytest.mark.parametrize("p, q", PQ_PAIRS[1:])
    def test_matches_loop_as_alpha_vanishes(self, p, q):
        # p < 1: the products decay like p^(r n), so the sum stops in a few dozen
        # terms however small alpha is, and 1 - z is formed as -expm1(-alpha)
        for r in (1, 3):
            for alpha in (1e-5, 1e-9, 1e-300, 5e-324):
                want = _pq_oracle_loop(p, q, alpha, r, 1e-13, 0.0, 10**8)
                assert want[2] < 1000 and want[0] > 0.0
                assert kp.pq_oracle_sum(p, q, alpha, r, 1e-13, 0.0, 10**8) == want

    @pytest.mark.parametrize("short", [1, 5, 16, 37])
    def test_exhausted_budget(self, short):
        # as for the Lerch sum: `short` terms short of the sum the kernel matches the
        # loop, and a budget of `short` terms it refuses
        for r in (1, 3):
            used = kp.pq_oracle_sum(0.9, 0.7, 0.01, r, 1e-13, 0.0, 10**8)[2]
            want = _pq_oracle_loop(0.9, 0.7, 0.01, r, 1e-13, 0.0, used - short)
            assert kp.pq_oracle_sum(0.9, 0.7, 0.01, r, 1e-13, 0.0, used - short) == want
            assert want[2] == used - short
            assert kp.pq_oracle_sum(0.9, 0.7, 0.01, r, 1e-13, 0.0, short)[1:] == (math.inf, short)

    def test_absolute_tolerance(self):
        want = _pq_oracle_loop(0.9, 0.7, 0.2, 2, 1e-15, 1e-6, 10**8)
        assert kp.pq_oracle_sum(0.9, 0.7, 0.2, 2, 1e-15, 1e-6, 10**8) == want

    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (1.0, 0.7)])
    def test_longer_than_a_block(self, p, q):
        # thousands of terms at p = 1, where the products do not decay: the
        # recurrence carries across blocks
        want = _pq_oracle_loop(p, q, 7.5e-3, 3, 1e-13, 0.0, 10**8)
        assert want[2] > kp._BLOCK_CELLS
        assert kp.pq_oracle_sum(p, q, 7.5e-3, 3, 1e-13, 0.0, 10**8) == want


class TestTableCaches:
    """The alpha-independent tables of the z -> 1 expansion, built once per (mu, r) or shift.

    One table serves every alpha of the closed-form route, and a larger
    alpha keys a longer one; cold, warm, or after a longer table, every
    result is the same to the byte.
    """

    @staticmethod
    def _results(mu, r, alphas):
        expansion = kp.closed_moment_expansion(mu, alphas, r)
        lerch = [kp.lerch_expansion(math.exp(-alpha), 1.0 / mu) for alpha in alphas]
        return b"".join(x.tobytes() for x in expansion) + repr(lerch).encode()

    @staticmethod
    def _clear():
        kp._expansion_table.cache_clear()
        kp._lerch_table.cache_clear()

    @pytest.mark.parametrize("mu", [1e-3, 0.012, 0.1, 0.2, 0.8, 1.7])
    def test_cold_warm_and_extended_tables_agree(self, mu):
        for r in (1, 2, 3, 5, 8, 16):
            reach = 0.5 / (1.0 / mu + r)
            # the largest alpha sets how many rows a call needs; the last set lies
            # beyond the route's reach, where a longer table is built
            sets = ([reach * 1e-4, reach * 1e-2], [reach * 0.3], [reach, reach * 1e-6],
                    [reach * 4.0])
            cold = []
            for alphas in sets:
                self._clear()
                cold.append(self._results(mu, r, alphas))
            self._clear()
            for _ in range(2):  # filled in order, then warm
                assert [self._results(mu, r, alphas) for alphas in sets] == cold, r
            self._clear()
            for _ in range(2):  # the longer table first, then warm
                assert [self._results(mu, r, alphas) for alphas in sets[::-1]] == cold[::-1], r
            # a longer table has the same leading rows (compared as values: tobytes()
            # of a long double also holds its padding bytes)
            short = kp._expansion_table(mu, r, (r - 1) * reach)[2]
            long = kp._expansion_table(mu, r, (r - 1) * reach * 4.0)[2]
            assert np.array_equal(long[:, :short.shape[1]], short)
            assert r == 1 or long.shape[1] > short.shape[1]

    def test_cached_arrays_are_read_only(self):
        kp.closed_moment_expansion(0.1, [3.0], 3)  # beyond the reach: (r-1) alpha = 6
        _, scalars, rows = kp._expansion_table(0.1, 3, 6.0)
        assert kp._expansion_table.cache_info().hits > 0
        for values in (scalars, rows, *kp._lerch_table(scalars[2])[1:5]):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_caches_are_bounded(self):
        for j in range(kp.TABLE_CACHE + 9):
            kp.closed_moment_expansion(0.1 + j / 64.0, [1e-4], 2)
        assert kp._expansion_table.cache_info().currsize <= kp.TABLE_CACHE
        assert kp._lerch_table.cache_info().currsize <= kp.TABLE_CACHE

    def test_r3_function_builds_the_mean_table_once(self):
        from mubose import r3_function

        self._clear()
        r3_function(0.1, 1.3e-3)
        # the mean (r = 1) of lambda2 and of lambda3, then r = 2 and r = 3: one shift 1/mu
        info = kp._expansion_table.cache_info()
        assert (info.misses, info.hits) == (3, 1)
        info = kp._lerch_table.cache_info()
        assert (info.misses, info.hits) == (1, 3)
