"""Kernel backend selection.

The compiled extension is preferred when present; the pure-Python
module is a drop-in replacement with identical arithmetic.  Setting
``MUBOSE_PURE_PYTHON=1`` forces the fallback, which is mainly useful
for the backend-parity tests and the benchmark script.
"""

import os


def _per_alpha(scalar):
    """A batched moment kernel as a loop over the scalar one, for the compiled module.

    Batched kernels in the extension itself would need Cython to
    regenerate the committed ``_kernels.c``.  Its scalar kernels cost
    about a microsecond per call, so the loop adds little.
    """
    def sums(mu, alphas, r, rtol, atol, max_terms):
        return [scalar(mu, alpha, r, rtol, atol, max_terms) for alpha in alphas]

    sums.__name__ = scalar.__name__ + "s"
    return sums


def with_batched_kernels(module):
    """Give a compiled kernel module the ``*_sums`` names of the pure-Python one."""
    for name in ("closed_moment_sum", "oracle_moment_sum"):
        if not hasattr(module, name + "s"):
            setattr(module, name + "s", _per_alpha(getattr(module, name)))
    return module


if os.environ.get("MUBOSE_PURE_PYTHON"):
    from . import _kernels_py as kernels
else:
    try:
        from . import _kernels as kernels  # type: ignore[no-redef]
    except ImportError:
        from . import _kernels_py as kernels  # type: ignore[no-redef]
    else:
        with_batched_kernels(kernels)


def backend_name() -> str:
    """Name of the active kernel backend, ``cython`` or ``python``."""
    return kernels.BACKEND
