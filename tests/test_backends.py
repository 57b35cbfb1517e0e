"""The one kernel module and the names the package and the benchmark call on it."""

import importlib.util
from pathlib import Path

import mubose
from mubose import _kernels_py
from mubose._backend import kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _benchmark_kernel_names():
    """The kernel names the benchmark's tracer wraps, read from ``perfbench/tracing.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.KERNELS


def test_active_backend_is_labelled():
    assert mubose.backend_name() == "python"
    assert mubose._backend.kernels is _kernels_py
    names = _benchmark_kernel_names()
    assert "closed_moment_sum" in names and "oracle_moment_sum" in names
    for name in names:
        assert callable(getattr(kernels, name)), name


def test_long_double_eps_exposed():
    assert 0.0 < kernels.EPS <= 2.3e-16
