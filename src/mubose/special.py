"""Special-function building blocks: Lerch sums and Stirling machinery.

Only the slice actually needed downstream is implemented: the Lerch
transcendent at second argument 1, Stirling numbers of the second kind,
and the derived integer coefficients g that drive the expansion module.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .errors import (
    DEFAULT_TOL,
    EXPANSION_REACH,
    MAX_TERMS,
    DomainError,
    _beyond_range,
    _check_int,
    _check_positive,
    _convergence_error,
)


@dataclass(frozen=True)
class LerchQuery:
    """Evaluation request for Phi(z, 1, a).

    Parameters
    ----------
    z : float
        Series argument, 0 <= z < 1.
    a : float
        Shift parameter, a > 0.
    tol : float
        Absolute truncation tolerance for the summed value.
    """

    z: float
    a: float
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not 0.0 <= self.z < 1.0:
            raise DomainError(f"lerch argument z must satisfy 0 <= z < 1, got {self.z}")
        _check_positive(self.a, "lerch shift a")
        _check_positive(self.tol, "tolerance")


def lerch_phi_s1(query: LerchQuery) -> float:
    """Lerch transcendent Phi(z, 1, a) = sum_{n>=0} z^n / (a + n).

    Where alpha = -ln z has alpha max(a, 1) <= EXPANSION_REACH, Phi is
    taken from its z -> 1 expansion (``kernels.lerch_expansion``), whose
    cost does not grow as z -> 1, if that expansion's error bound is
    within ``query.tol``.  Otherwise it is summed directly: the tail after
    N terms is bounded by z^N / ((a + N)(1 - z)), and summation stops once
    that bound drops below ``query.tol``.

    Raises
    ------
    DomainError
        Where Phi >= 1/a exceeds the double range (a subnormal a).
    ConvergenceError
        If the direct sum's bound cannot reach the tolerance within ``MAX_TERMS`` terms.
    """
    from ._backend import kernels

    z, a, tol = query.z, query.a, query.tol
    value, err = math.nan, math.inf
    if z > 0.0 and -math.log(z) * max(a, 1.0) <= EXPANSION_REACH:
        value, err, _ = kernels.lerch_expansion(z, a)
    if not err <= tol:
        value, _err, used = kernels.lerch_sum(z, a, tol, MAX_TERMS)
        if used >= MAX_TERMS:
            raise _convergence_error(MAX_TERMS, "lerch sum", z=z, a=a, tol=tol)
    if not math.isfinite(value):
        raise _beyond_range("Phi(z, 1, a)", z=z, a=a)
    return value


#: highest row of the {n, k} and g triangles: 170 is the largest s at which
#: s! = g_s^s / (s+1), the last integer of c_s, is a double, so
#: :func:`mubose.expansion.c_coeff` reads no deeper row.  The rows up to n
#: hold O(n^3) bits, so a deeper row is refused rather than built.
_MAX_ROW = 170
_ROW_LOCK = threading.Lock()

#: rows 0, 1, ... of {n, k} and of g, each extended by :func:`_row` under ``_ROW_LOCK``
_S2_ROWS: list[tuple[int, ...]] = [(1,)]
_G_ROWS: list[tuple[int, ...]] = [(1,)]


def _row(rows: list[tuple[int, ...]], n: int, step) -> tuple[int, ...]:
    """Row n of the triangle ``rows``, with the rows below it built in a loop and kept.

    Entry k of a new row is ``step(k, above, diag)`` of entries k and k - 1
    of the row below it (0 outside that row).  Beyond ``_MAX_ROW``
    DomainError is raised and no row is built.
    """
    _check_int(n, "row", 0, _MAX_ROW)
    if n >= len(rows):
        with _ROW_LOCK:
            while len(rows) <= n:
                prev = rows[-1]
                rows.append(tuple(step(k, above, diag) for k, (above, diag)
                                  in enumerate(zip(prev + (0,), (0,) + prev))))
    return rows[n]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n, k}, exact integer.

    Conventions: {0, 0} = 1, {n, 0} = 0 for n > 0, and {n, k} = 0 for
    k > n.  The rows come from {n, k} = k {n-1, k} + {n-1, k-1}; any
    n <= 170 is reachable from a cold cache, and a larger n raises a
    domain error.
    """
    _check_int(n, "stirling2 n", 0)
    _check_int(k, "stirling2 k", 0)
    row = _row(_S2_ROWS, n, lambda i, above, diag: i * above + diag)
    return row[k] if k <= n else 0


def _g_row(s: int) -> tuple[int, ...]:
    """Row s of g, from g_{s+1}^j = (j+1)(g_s^j + g_s^{j-1})."""
    return _row(_G_ROWS, s, lambda j, above, diag: (j + 1) * (above + diag))


def g_coeff(s: int, j: int) -> int:
    """Weight g_s^j from g_{s+1}^j = (j+1)(g_s^j + g_s^{j-1}), g_0^0 = 1.

    Satisfies g_s^j = (j+1)! {s+1, j+1}; g keeps its own recurrence,
    apart from :func:`stirling2`'s, so the identity stays a real
    cross-check.  Both triangles share one row cache, so any s <= 170 is
    reachable from a cold cache and a larger s raises a domain error;
    :func:`mubose.expansion.c_coeff` reads its integers
    (j-1)! {s+1, j} = g_s^(j-1) / j from the same rows.
    """
    _check_int(j, "g_coeff j", 0)
    _check_int(s, "g_coeff s", j)
    return _g_row(s)[j]
