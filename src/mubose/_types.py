"""Value types and constants shared by every layer.

This module imports neither numpy nor the kernels, so the subcommands
and library calls that sum no series load only it, ``errors`` and their
own module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _check_mu

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
        _check_mu(self.mu)


@dataclass(frozen=True)
class ThermoPoint:
    """Temperature and mode kinematics fixing alpha = sqrt(m^2+k^2)/T."""

    temperature: float
    momentum: float
    mass: float

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0) or not math.isfinite(self.temperature):
            raise DomainError(f"temperature must be positive, got {self.temperature}")
        if not (self.momentum >= 0.0) or not math.isfinite(self.momentum):
            raise DomainError(f"momentum must be >= 0, got {self.momentum}")
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise DomainError(f"mass must be positive, got {self.mass}")

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
