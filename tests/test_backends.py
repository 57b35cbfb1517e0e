"""Backend selection and cross-backend agreement of the kernels."""

import os
import subprocess
import sys

import pytest

from mubose import _kernels_py
from mubose._backend import kernels, with_batched_kernels

try:
    from mubose import _kernels as _compiled
except ImportError:
    _compiled = None
else:
    _compiled = with_batched_kernels(_compiled)

needs_compiled = pytest.mark.skipif(
    _compiled is None, reason="compiled kernel extension not built"
)


def test_active_backend_is_labelled():
    assert kernels.BACKEND in ("cython", "python")
    assert _kernels_py.BACKEND == "python"


def test_long_double_eps_exposed():
    assert 0.0 < kernels.EPS <= 2.3e-16


@needs_compiled
class TestBitParity:
    """Both backends run the same operation order, so results must be
    bit-identical, not merely close."""

    def test_lerch_sum(self):
        for z in (0.0, 0.2, 0.5, 0.9):
            for a in (0.5, 1.0, 3.7, 10.0):
                assert _compiled.lerch_sum(z, a, 1e-13, 10**7) == _kernels_py.lerch_sum(
                    z, a, 1e-13, 10**7
                )

    def test_a_coeff_values(self):
        for r in (1, 2, 3, 5, 8):
            for mu in (0.05, 0.1, 0.3, 0.49):
                assert _compiled.a_coeff_values(r, mu) == _kernels_py.a_coeff_values(r, mu)

    def test_closed_moment_sum(self):
        for mu in (0.05, 0.1, 0.2, 0.3):
            for alpha in (0.8, 1.16, 2.5, 8.4):
                for r in (1, 2, 3, 5):
                    got = _compiled.closed_moment_sum(mu, alpha, r, 1e-13, 0.0, 10**7)
                    want = _kernels_py.closed_moment_sum(mu, alpha, r, 1e-13, 0.0, 10**7)
                    assert got == want

    def test_oracle_moment_sum(self):
        for mu in (0.0, 0.1, 0.45, 1e-6):
            for alpha in (0.8, 2.0):
                for r in (1, 2, 4):
                    got = _compiled.oracle_moment_sum(mu, alpha, r, 1e-13, 0.0, 10**7)
                    want = _kernels_py.oracle_moment_sum(mu, alpha, r, 1e-13, 0.0, 10**7)
                    assert got == want

    def test_closed_moment_sums(self):
        alphas = [0.05 + 0.37 * i for i in range(40)]
        for mu in (0.05, 0.1, 0.2, 0.3):
            for r in (1, 2, 3, 5):
                got = _compiled.closed_moment_sums(mu, alphas, r, 1e-13, 0.0, 10**7)
                want = _kernels_py.closed_moment_sums(mu, alphas, r, 1e-13, 0.0, 10**7)
                assert got == want

    def test_oracle_moment_sums(self):
        alphas = [0.05 + 0.37 * i for i in range(40)]
        for mu in (0.0, 0.1, 0.45, 1e-6):
            for r in (1, 2, 4):
                got = _compiled.oracle_moment_sums(mu, alphas, r, 1e-13, 0.0, 10**7)
                want = _kernels_py.oracle_moment_sums(mu, alphas, r, 1e-13, 0.0, 10**7)
                assert got == want

    def test_power_sum(self):
        for s in (0, 1, 4, 8):
            for l in (0, 2, 4):
                got = _compiled.power_sum(s, l, 1.0, 4000)
                want = _kernels_py.power_sum(s, l, 1.0, 4000)
                assert got == want

    def test_pq_oracle_sum(self):
        for p, q in [(1.0, 1.0), (0.9, 0.7), (0.95, 0.95)]:
            for r in (1, 2, 3):
                got = _compiled.pq_oracle_sum(p, q, 1.2, r, 1e-13, 0.0, 10**7)
                want = _kernels_py.pq_oracle_sum(p, q, 1.2, r, 1e-13, 0.0, 10**7)
                assert got == want


class TestEnvOverride:
    def test_pure_python_forced_in_subprocess(self):
        env = dict(os.environ, MUBOSE_PURE_PYTHON="1")
        out = subprocess.run(
            [sys.executable, "-c",
             "import mubose; print(mubose.backend_name())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "python"

    def test_results_identical_across_backends(self):
        env = dict(os.environ, MUBOSE_PURE_PYTHON="1")
        code = (
            "from mubose import intercept, mean_occupation\n"
            "print(repr(intercept(0.1, 1.163, 3).value))\n"
            "print(repr(mean_occupation(0.2, 0.9).value))\n"
        )
        forced = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        from mubose import intercept, mean_occupation

        native = [repr(intercept(0.1, 1.163, 3).value),
                  repr(mean_occupation(0.2, 0.9).value)]
        assert forced.stdout.split() == native
