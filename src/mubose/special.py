"""Special-function building blocks: Lerch sums and Stirling machinery.

Only the slice actually needed downstream is implemented: the Lerch
transcendent at second argument 1, Stirling numbers of the second kind,
and the derived integer coefficients g that drive the expansion module.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from .errors import (
    EXPANSION_REACH,
    MAX_TERMS,
    DomainError,
    _beyond_range,
    _check_int,
    _check_tol,
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
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 <= self.z < 1.0) or not math.isfinite(self.z):
            raise DomainError(f"lerch argument z must satisfy 0 <= z < 1, got {self.z}")
        if not (self.a > 0.0) or not math.isfinite(self.a):
            raise DomainError(f"lerch shift a must be positive, got {self.a}")
        _check_tol(self.tol)


def lerch_phi_s1(query: LerchQuery, max_terms: int = MAX_TERMS) -> float:
    """Lerch transcendent Phi(z, 1, a) = sum_{n>=0} z^n / (a + n).

    Where alpha = -ln z has alpha max(a, 1) <= EXPANSION_REACH, Phi is
    taken from its z -> 1 expansion (``kernels.lerch_expansion``), whose
    cost does not grow as z -> 1, if that expansion's error bound is
    within ``query.tol``.  Otherwise it is summed directly: the tail after
    N terms is bounded by z^N / ((a + N)(1 - z)), and summation stops once
    that bound drops below ``query.tol``.  The bound falls with N, so where
    it exceeds twice ``query.tol`` at N = ``max_terms`` (the factor 2
    absorbs rounding) no sum within the budget can stop, and none is summed.

    Raises
    ------
    DomainError
        If ``max_terms`` is not an integer >= 1, or where Phi >= 1/a
        exceeds the double range (a subnormal a).
    ConvergenceError
        If the direct sum's bound cannot reach the tolerance within ``max_terms``.
    """
    from ._backend import kernels

    _check_int(max_terms, "max_terms", 1)
    z, a, tol = query.z, query.a, query.tol
    value, err = math.nan, math.inf
    if z > 0.0 and -math.log(z) * max(a, 1.0) <= EXPANSION_REACH:
        value, err, _ = kernels.lerch_expansion(z, a)
    if not err <= tol:
        used = max_terms
        if z == 0.0 or (max_terms * math.log(z) - math.log(a + max_terms) - math.log1p(-z)
                        <= math.log(2.0 * tol)):
            value, _err, used = kernels.lerch_sum(z, a, tol, max_terms)
        if used >= max_terms:
            raise _convergence_error(max_terms, "lerch sum", z=z, a=a, tol=tol)
    if not math.isfinite(value):
        raise _beyond_range("Phi(z, 1, a)", z=z, a=a)
    return value


def _build_rows(max_n: int) -> tuple[tuple[int, ...], ...]:
    rows = [(1,)]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            above = prev[k] if k < n else 0
            row[k] = k * above + prev[k - 1]
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class StirlingTable:
    """Triangular table of Stirling numbers of the second kind.

    ``rows[n][k]`` holds {n, k} for 0 <= k <= n <= max_n, built once from
    the recurrence {n, k} = k {n-1, k} + {n-1, k-1}.  Instances are
    immutable and safe to share between threads.
    """

    max_n: int = 64
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_int(self.max_n, "table bound", 1)
        object.__setattr__(self, "rows", _build_rows(self.max_n))


_DEFAULT_TABLE = StirlingTable()


def stirling2(n: int, k: int, table: StirlingTable | None = None) -> int:
    """Stirling number of the second kind {n, k}, exact integer.

    Conventions: {0, 0} = 1, {n, 0} = 0 for n > 0, and {n, k} = 0 for
    k > n.  Arguments beyond the table bound raise a domain error; build
    a larger ``StirlingTable`` for those.
    """
    if table is None:
        table = _DEFAULT_TABLE
    _check_int(n, "stirling2 n", 0)
    _check_int(k, "stirling2 k", 0)
    if n > table.max_n:
        raise DomainError(
            f"n={n} exceeds the table bound {table.max_n}; "
            "construct a StirlingTable with a larger max_n"
        )
    if k > n:
        return 0
    return table.rows[n][k]


#: rows 0, 1, ... of g, extended by :func:`_g_row` under ``_G_LOCK``
_G_ROWS: list[tuple[int, ...]] = [(1,)]
_G_LOCK = threading.Lock()


def _g_row(s: int) -> tuple[int, ...]:
    """Row s of g, with the rows below it built in a loop and kept."""
    if s >= len(_G_ROWS):
        with _G_LOCK:
            while len(_G_ROWS) <= s:
                prev = _G_ROWS[-1]
                _G_ROWS.append(tuple((j + 1) * (left + diag) for j, (left, diag)
                                     in enumerate(zip(prev + (0,), (0,) + prev))))
    return _G_ROWS[s]


def g_coeff(s: int, j: int) -> int:
    """Weight g_s^j from g_{s+1}^j = (j+1)(g_s^j + g_s^{j-1}), g_0^0 = 1.

    Satisfies g_s^j = (j+1)! {s+1, j+1}; the table recurrence here is
    kept independent of :func:`stirling2` so the identity stays a real
    cross-check.  The rows are built in a loop and kept, so any s is
    reachable from a cold cache; :func:`mubose.expansion.c_coeff` reads
    its integers (j-1)! {s+1, j} = g_s^(j-1) / j from the same rows.
    """
    _check_int(j, "g_coeff j", 0)
    _check_int(s, "g_coeff s", j)
    return _g_row(s)[j]
