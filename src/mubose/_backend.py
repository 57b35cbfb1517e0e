"""The kernel module every layer calls: the long-double numpy kernels."""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel implementation, ``python`` (numpy long double)."""
    return "python"
