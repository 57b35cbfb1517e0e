"""The one kernel module and the names the package and the benchmark call on it."""

import importlib.util
from pathlib import Path

import mubose
from mubose import _kernels_py, cli
from mubose._backend import kernels
from mubose.errors import MAX_TERMS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """The benchmark's tracer module, loaded from ``perfbench/tracing.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_kernel_names():
    """The kernel names the benchmark's tracer wraps."""
    return _tracing().KERNELS


def test_tracer_sees_each_figure_curve(capsys):
    # the tracer wraps every public core function and reads a core result's
    # ``method`` as one route tag, so a curve carries its tags as ``methods``
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["figure", "fig4", "--k-steps", "11"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracer.spans
    # one r3 curve per (T, mu), each over its two intercept curves
    called_by_cli = [name for name, _, _, parent, *_ in spans
                     if name == "core.curve" and spans[parent][0].startswith("cli.")]
    assert len(called_by_cli) == 4
    assert [span[0] for span in spans].count("core.curve") == 12
    metrics, _ = tracing.summarize(spans)
    assert metrics["cli.rows"] == 48


def test_active_backend_is_labelled():
    assert mubose.backend_name() == "python"
    assert mubose._backend.kernels is _kernels_py
    names = _benchmark_kernel_names()
    assert "closed_moment_sum" in names and "oracle_moment_sum" in names
    for name in names:
        assert callable(getattr(kernels, name)), name


def test_long_double_eps_exposed():
    assert 0.0 < kernels.EPS <= 2.3e-16


#: one call of each kernel that returns a term count, its budget last
COUNTED_CALLS = {
    "lerch_sum": (0.5, 1.5, 1e-12),
    "closed_moment_sum": (0.1, 1.0, 2, 1e-13, 0.0),
    "oracle_moment_sum": (0.1, 1.0, 2, 1e-13, 0.0),
    "pq_oracle_sum": (0.9, 0.7, 1.0, 2, 1e-13, 0.0),
}


def test_kernel_return_shapes():
    # the benchmark reads the term count as out[2], and for power_sum its
    # cap n_max + 1
    out = kernels.power_sum(2, 1, 0.5, 40, 1e-12)
    assert type(out) is tuple and len(out) == 2
    assert all(type(x) is float for x in out)
    assert set(COUNTED_CALLS) | {"power_sum", "a_coeff_values"} == set(_benchmark_kernel_names())
    for name, args in COUNTED_CALLS.items():
        out = getattr(kernels, name)(*args, MAX_TERMS)
        assert type(out) is tuple and len(out) == 3, name
        value, err, terms = out
        assert type(value) is float and type(err) is float and type(terms) is int, name
        assert 7 < terms < MAX_TERMS, name
        # stopped on its budget, a sum reports exactly that many terms
        assert getattr(kernels, name)(*args, 7)[2] == 7, name
