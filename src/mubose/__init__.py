"""Exact correlation-function machinery of the mu-Bose gas.

Thermal r-particle moments and intercepts of the deformed gas with
structure function phi(N) = N/(1+mu N), their large-momentum
asymptotics, Taylor-in-mu coefficient tables, and the p,q-Bose gas
comparison formulas.  Every closed form is backed by an independent
brute-force series oracle.

The numerical kernels are one numpy module that sums in long double;
``backend_name()`` names it.  The public names below resolve on first
use, so only the calls that sum a series import numpy and the kernels.
"""

import importlib

__version__ = "0.1.0"

#: the module that defines each public name, imported on the name's first use
_EXPORTS = {
    "backend_name": "_backend",
    "ASYMPTOTIC": "_types",
    "CLOSED_FORM": "_types",
    "ORACLE": "_types",
    "CorrelationResult": "_types",
    "DeformationMu": "_types",
    "ThermoPoint": "_types",
    "intercept": "core",
    "intercept_asymptotic": "core",
    "mean_occupation": "core",
    "mu_bracket": "core",
    "mu_factorial": "core",
    "oracle_moment": "core",
    "r3_asymptotic": "core",
    "r3_function": "core",
    "r_moment": "core",
    "ConvergenceError": "errors",
    "DomainError": "errors",
    "PoleError": "errors",
    "CCoefficient": "expansion",
    "DivergenceEntry": "expansion",
    "c_coeff": "expansion",
    "divergence_diagnostic": "expansion",
    "series_coeff_oracle": "expansion",
    "taylor_moment": "expansion",
    "turning_point": "expansion",
    "ACoefficients": "partfrac",
    "a_coeffs": "partfrac",
    "expansion_residual": "partfrac",
    "PQParams": "pq",
    "mu_vs_pq_asymptotic_gap": "pq",
    "pq_bracket": "pq",
    "pq_factorial": "pq",
    "pq_intercept_asymptotic": "pq",
    "pq_intercept_result": "pq",
    "pq_moment": "pq",
    "pq_oracle_moment": "pq",
    "LerchQuery": "special",
    "StirlingTable": "special",
    "g_coeff": "special",
    "lerch_phi_s1": "special",
    "stirling2": "special",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
