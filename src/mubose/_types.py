"""Value types and constants shared by every layer.

This module imports neither numpy nor the kernels, so the subcommands
and library calls that sum no series load only it, ``errors`` and their
own module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _check_nonnegative, _check_positive

DEFAULT_TOL = 1e-12

#: method tags carried by CorrelationResult
CLOSED_FORM = "closed_form"
ORACLE = "oracle"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class DeformationMu:
    """Deformation strength mu >= 0 of the structure function."""

    mu: float

    def __post_init__(self) -> None:
        _check_nonnegative(self.mu, "deformation parameter")


@dataclass(frozen=True)
class ThermoPoint:
    """Temperature and mode kinematics fixing alpha = sqrt(m^2+k^2)/T."""

    temperature: float
    momentum: float
    mass: float

    def __post_init__(self) -> None:
        _check_positive(self.temperature, "temperature")
        _check_nonnegative(self.momentum, "momentum")
        _check_positive(self.mass, "mass")

    @property
    def alpha(self) -> float:
        """Dimensionless mode energy sqrt(m^2 + k^2) / T."""
        return math.hypot(self.mass, self.momentum) / self.temperature


@dataclass(frozen=True)
class CorrelationResult:
    """A computed value, a propagated error bound, and how it was obtained."""

    value: float
    error_bound: float
    method: str


def _as_mu(d: DeformationMu | float) -> float:
    if isinstance(d, DeformationMu):
        return d.mu
    return DeformationMu(float(d)).mu
