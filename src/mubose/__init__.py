"""Exact correlation-function machinery of the mu-Bose gas.

Thermal r-particle moments and intercepts of the deformed gas with
structure function phi(N) = N/(1+mu N), their large-momentum
asymptotics, Taylor-in-mu coefficient tables, and the p,q-Bose gas
comparison formulas.  Every closed form is backed by an independent
brute-force series oracle.

The numerical kernels are one numpy module that sums in long double;
``backend_name()`` names it.
"""

from ._backend import backend_name
from .core import (
    ASYMPTOTIC,
    CLOSED_FORM,
    ORACLE,
    CorrelationResult,
    DeformationMu,
    ThermoPoint,
    intercept,
    intercept_asymptotic,
    mean_occupation,
    mu_bracket,
    mu_factorial,
    oracle_moment,
    r3_asymptotic,
    r3_function,
    r_moment,
)
from .errors import ConvergenceError, DomainError, PoleError
from .expansion import (
    CCoefficient,
    DivergenceEntry,
    c_coeff,
    divergence_diagnostic,
    series_coeff_oracle,
    taylor_moment,
    turning_point,
)
from .partfrac import ACoefficients, a_coeffs, expansion_residual
from .pq import (
    PQParams,
    mu_vs_pq_asymptotic_gap,
    pq_bracket,
    pq_factorial,
    pq_intercept,
    pq_intercept_asymptotic,
    pq_intercept_result,
    pq_moment,
    pq_oracle_moment,
)
from .special import LerchQuery, StirlingTable, g_coeff, lerch_phi_s1, stirling2

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC",
    "CLOSED_FORM",
    "ORACLE",
    "ACoefficients",
    "CCoefficient",
    "ConvergenceError",
    "CorrelationResult",
    "DeformationMu",
    "DivergenceEntry",
    "DomainError",
    "LerchQuery",
    "PQParams",
    "PoleError",
    "StirlingTable",
    "ThermoPoint",
    "__version__",
    "a_coeffs",
    "backend_name",
    "c_coeff",
    "divergence_diagnostic",
    "expansion_residual",
    "g_coeff",
    "intercept",
    "intercept_asymptotic",
    "lerch_phi_s1",
    "mean_occupation",
    "mu_bracket",
    "mu_factorial",
    "mu_vs_pq_asymptotic_gap",
    "oracle_moment",
    "pq_bracket",
    "pq_factorial",
    "pq_intercept",
    "pq_intercept_asymptotic",
    "pq_intercept_result",
    "pq_moment",
    "pq_oracle_moment",
    "r3_asymptotic",
    "r3_function",
    "r_moment",
    "series_coeff_oracle",
    "stirling2",
    "taylor_moment",
    "turning_point",
]
