"""Command-line front end: grid sweeps, figure data, coefficient tables.

Every subcommand renders deterministic CSV or JSON: fixed column order,
12 significant digits, grid rows ordered by (T, mu, r, k) with the
k -> infinity asymptote rows (k field ``inf``) closing each curve.
Identical invocations therefore produce byte-identical output, which the
test suite relies on.

Exit codes: 0 success, 1 domain error or unwritable ``--output``, 2 convergence
failure, 3 some grid records failed (failed rows keep their slot, method ``failed``).

Each subcommand imports what it uses when it runs, so ``coeffs``,
``taylor-diagnose`` and ``pq-compare``, which sum no series, start
without numpy and the kernels.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .errors import (
    ASYMPTOTIC,
    CLOSED_FORM,
    DEFAULT_TOL,
    ORACLE,
    ConvergenceError,
    DomainError,
    ThermoPoint,
    _check_finite,
    _check_int,
    _check_nonnegative,
    _check_positive,
)

DEFAULT_MASS = 139.57

#: most momenta of a figure grid; a figure holds about 2.2 KB per row as it is built
MAX_K_STEPS = 10**5

GRID_HEADER = ("quantity", "k_mev", "T_mev", "mu", "r", "value", "error_bound", "method")
PQ_HEADER = ("quantity", "k_mev", "T_mev", "p", "q", "r", "value", "error_bound", "method")
COEFF_HEADER = ("l", "a_l")
TAYLOR_HEADER = ("s", "partial_sum", "term_magnitude")


#: preset -> (quantity, core.curve kind, r, mus): the rows of one figure
_PRESETS = {
    "fig1": ("distribution", "moment", 1, (0.0, 0.1, 0.2)),
    "fig2": ("lambda2", "intercept", 2, (0.1, 0.2)),
    "fig3": ("lambda3", "intercept", 3, (0.1, 0.2)),
    "fig4": ("r3", "r3", 3, (0.1, 0.2)),
}
FIGURE_MUS = {name: preset[3] for name, preset in _PRESETS.items()}
FIGURE_TEMPS = (120.0, 180.0)

#: point subcommand -> (core.curve kind, quantity, r), None where --order sets it
_POINTS = {
    "intercept": ("intercept", None, None),
    "distribution": ("moment", "distribution", 1),
    "r3": ("r3", "r3", 3),
}


@dataclass(frozen=True)
class GridSpec:
    """Momentum grid plus the physical parameters shared by all rows."""

    k_min: float = 0.0
    k_max: float = 1000.0
    k_steps: int = 101
    temperatures: tuple[float, ...] = FIGURE_TEMPS
    mus: tuple[float, ...] = (0.1, 0.2)
    mass: float = DEFAULT_MASS
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        for name in ("k_min", "k_max", "mass"):
            _check_finite(getattr(self, name), name)
        for t in self.temperatures:
            _check_finite(t, "temperatures")
        if not (0.0 <= self.k_min < self.k_max):
            raise DomainError(
                f"need 0 <= k_min < k_max, got [{self.k_min}, {self.k_max}]"
            )
        _check_int(self.k_steps, "k_steps", 2, MAX_K_STEPS)
        if not self.temperatures:
            raise DomainError("need at least one temperature")
        for t in self.temperatures:
            _check_positive(t, "temperatures")
        for mu in self.mus:
            _check_nonnegative(mu, "deformation parameter")
        _check_positive(self.mass, "mass")
        _check_positive(self.tol, "tolerance")

    def momenta(self) -> list[float]:
        step = (self.k_max - self.k_min) / (self.k_steps - 1)
        return [self.k_min + i * step for i in range(self.k_steps)]


class OutputRecord(NamedTuple):
    """One rendered grid point, a row of GRID_HEADER."""

    quantity: str
    k_mev: float
    T_mev: float
    mu: float
    r: int
    value: float
    error_bound: float
    method: str


def _curve_records(quantity: str, curve, momenta: list[float], T: float, mu: float, r: int,
                   tol: float) -> list[OutputRecord]:
    """The rows of a ``core.curve`` whose points lie at ``momenta``, one row per point.

    A closed-form or oracle value whose bound exceeds ``tol`` gets the
    method suffix ``+overtol``.  A failed point keeps its row, with nan
    cells and the method ``failed``.
    """
    methods = curve.methods
    held = (methods == CLOSED_FORM) | (methods == ORACLE)
    methods[held & (curve.error_bounds > tol)] += "+overtol"
    size = len(momenta)
    return list(map(OutputRecord, repeat(quantity, size), momenta, repeat(T, size),
                    repeat(mu, size), repeat(r, size), curve.values.tolist(),
                    curve.error_bounds.tolist(), methods.tolist()))


def _asymptote(T: float, mu: float, r: int, value: float) -> OutputRecord:
    return OutputRecord("asymptote", math.inf, T, mu, r, value, 0.0, ASYMPTOTIC)


def figure_records(preset: str, grid: GridSpec,
                   allow_oracle: bool = False) -> tuple[list[OutputRecord], int]:
    """Rows behind one figure preset; returns (records, number_of_failures).

    Each (T, mu) curve is evaluated in one call over all its momenta, and
    its rows are built from the curve's arrays by :func:`_curve_records`,
    failed points included.
    """
    import numpy as np

    from . import core

    if preset not in _PRESETS:
        raise DomainError(f"unknown figure preset {preset!r}")
    quantity, kind, r, _ = _PRESETS[preset]
    records: list[OutputRecord] = []
    failed = 0
    method = "oracle" if allow_oracle else "auto"
    momenta = grid.momenta()
    energies = np.array([math.hypot(grid.mass, k) for k in momenta])
    for T in grid.temperatures:
        # at a subnormal T every alpha overflows to inf, which each point rejects
        with np.errstate(over="ignore"):
            alphas = energies / T
        for mu in grid.mus:
            curve = core.curve(kind, mu, alphas, r, grid.tol, method)
            for i, exc in sorted(curve.failures.items()):
                print(f"record (T={T:g}, mu={mu:g}, k={momenta[i]:g}) failed: {exc}",
                      file=sys.stderr)
            failed += len(curve.failures)
            records += _curve_records(quantity, curve, momenta, T, mu, r, grid.tol)
            if kind != "moment":
                asym = core.r3_asymptotic(mu) if kind == "r3" else core.intercept_asymptotic(mu, r)
                records.append(_asymptote(T, mu, r, asym))
    return records, failed


def point_records(command: str, mu: float, T: float, k: float, mass: float, tol: float,
                  order: int = 2, with_oracle: bool = False,
                  force_oracle: bool = False) -> list[OutputRecord]:
    """The rows of the point subcommand ``command``, a key of ``_POINTS``.

    One row per method: ``oracle`` if ``force_oracle``, else ``auto``; then,
    with ``with_oracle``, the oracle row and the difference of the two.  r3
    adds its asymptote row.  ``order`` is an intercept's r.  A point that
    fails raises its DomainError or ConvergenceError.
    """
    from . import core

    kind, quantity, r = _POINTS[command]
    if r is None:
        r, quantity = order, {2: "lambda2", 3: "lambda3"}.get(order, "lambda_r")
    alpha = ThermoPoint(T, k, mass).alpha
    records: list[OutputRecord] = []
    for method in ("oracle" if force_oracle else "auto",) + ("oracle",) * with_oracle:
        curve = core.curve(kind, mu, (alpha,), r, tol, method)
        if curve.failures:
            raise curve.failures[0]
        records += _curve_records(quantity, curve, [k], T, mu, r, tol)
    if with_oracle:
        res, other = records
        records.append(res._replace(value=res.value - other.value, method="difference",
                                    error_bound=res.error_bound + other.error_bound))
    if kind == "r3":
        records.append(_asymptote(T, mu, r, core.r3_asymptotic(mu)))
    return records


def pq_records(p: float, q: float, T: float, k: float, mass: float,
               r: int) -> list[tuple]:
    """p,q intercept at one point plus its asymptote, as PQ_HEADER rows."""
    from . import pq

    params = pq.PQParams(p, q)
    alpha = ThermoPoint(T, k, mass).alpha
    res = pq.pq_intercept_result(params, alpha, r)
    asym = pq.pq_intercept_asymptotic(params, r)
    return [
        ("lambda_pq", k, T, params.p, params.q, r, res.value, res.error_bound, res.method),
        ("asymptote", math.inf, T, params.p, params.q, r, asym, 0.0, ASYMPTOTIC),
    ]


def coeff_rows(r: int, mu: float) -> list[tuple]:
    """Partial-fraction coefficient table rows (l, A^(r)_l)."""
    from .partfrac import a_coeffs

    return [(l, v) for l, v in enumerate(a_coeffs(r, mu).values)]


def taylor_rows(mu: float, T: float, k: float, mass: float, r: int,
                s_max: int) -> list[tuple]:
    """Divergence-diagnostic table rows (s, partial_sum, term_magnitude)."""
    from . import expansion

    alpha = ThermoPoint(T, k, mass).alpha
    entries = expansion.divergence_diagnostic(mu, alpha, r, s_max)
    return [(e.s, e.partial_sum, e.term_magnitude) for e in entries]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    # nan, inf and -inf print as those words, nan without its sign
    return "%.12g" % x


def _json_cell(x):
    if isinstance(x, (str, int)):
        return x
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(_fmt(x))


def _cell_format(column: tuple) -> str | None:
    """The %-format that prints every cell of a column as :func:`_fmt` does.

    ``%.12g`` for a column of floats, ``%s`` for one of str and int, and
    None for any other column.
    """
    types = set(map(type, column))
    if types == {float}:
        return "%.12g"
    if types <= {str, int}:
        return "%s"
    return None


#: the JSON text of the %.12g words that are not JSON numbers, as _json_cell maps them
_JSON_WORDS = {"nan": "null", "inf": '"inf"', "-inf": '"-inf"'}


def _json_column(column: tuple) -> list[str]:
    """The JSON text of each cell of a column, as ``json.dumps`` writes its :func:`_json_cell`.

    json writes a float by ``float.__repr__``; a column of str and int
    cells repeats few values, so each distinct cell is encoded once.
    """
    types = set(map(type, column))
    if types == {float}:
        return [_JSON_WORDS.get(text) or repr(float(text))
                for text in map("%.12g".__mod__, column)]
    if types <= {str, int}:
        seen: dict = {}
        return [seen[x] if x in seen else seen.setdefault(x, json.dumps(x)) for x in column]
    return [json.dumps(_json_cell(x)) for x in column]


def render(rows: list, header: tuple[str, ...], fmt: str) -> str:
    """Rows -> CSV text or a JSON array of flat objects (both newline-terminated).

    Where every column has a %-format, each CSV row is printed by one
    %-format of the whole row rather than cell by cell.  JSON is the text
    of ``json.dumps(objects, indent=2)``, written by one %-format per row
    from the cells' JSON text, without the pure-Python encoder that
    ``indent`` selects.
    """
    if fmt == "csv":
        cells = [_cell_format(column) for column in zip(*rows)]
        if None in cells:
            lines = [",".join(map(_fmt, row)) for row in rows]
        else:
            lines = map(",".join(cells).__mod__, rows)
        return "\n".join([",".join(header), *lines]) + "\n"
    if not rows:
        return "[]\n"
    fields = ",\n".join("    " + json.dumps(name).replace("%", "%%") + ": %s" for name in header)
    row_format = "  {\n" + fields + "\n  }"
    columns = [_json_column(column) for column in zip(*rows)]
    return "[\n" + ",\n".join(map(row_format.__mod__, zip(*columns))) + "\n]\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubose",
        description="mu-Bose gas correlation intercepts, moments, and comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, point: bool = True) -> None:
        p.add_argument("--mass", type=float, default=DEFAULT_MASS,
                       help="particle mass in MeV (default pion)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="target evaluation tolerance")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        if point:
            p.add_argument("--mu", type=float, default=0.1,
                           help="deformation parameter")
            p.add_argument("--temperature", type=float, default=120.0,
                           help="temperature in MeV")
            p.add_argument("-k", "--momentum", type=float, default=0.0,
                           help="momentum in MeV")

    p_fig = sub.add_parser("figure", help="grid data behind one figure preset")
    p_fig.add_argument("preset", choices=sorted(_PRESETS))
    p_fig.add_argument("--mu", type=float, action="append", default=None,
                       help="override preset deformation values (repeatable)")
    p_fig.add_argument("--temperature", type=float, action="append", default=None,
                       help="override preset temperatures in MeV (repeatable)")
    p_fig.add_argument("--k-min", type=float, default=0.0)
    p_fig.add_argument("--k-max", type=float, default=1000.0)
    p_fig.add_argument("--k-steps", type=int, default=101)
    p_fig.add_argument("--oracle", action="store_true",
                       help="evaluate every point, mu = 0 included, through the series oracle")
    common(p_fig, point=False)

    p_int = sub.add_parser("intercept", help="r-particle intercept at one point")
    common(p_int)
    p_int.add_argument("--order", type=int, default=2, help="intercept order r")
    p_int.add_argument("--with-oracle", action="store_true",
                       help="also print the oracle value and the difference")
    p_int.add_argument("--oracle", action="store_true",
                       help="force the series-oracle route, at mu = 0 too")

    p_dist = sub.add_parser("distribution", help="mean occupation at one point")
    common(p_dist)
    p_dist.add_argument("--with-oracle", action="store_true",
                        help="also print the oracle value and the difference")

    p_r3 = sub.add_parser("r3", help="(lambda3 - 3 lambda2)/(2 lambda2^(3/2))")
    common(p_r3)
    p_r3.add_argument("--oracle", action="store_true",
                      help="force the series-oracle route, at mu = 0 too")
    # every point subcommand passes point_records the same fields
    p_dist.set_defaults(order=None, oracle=False)
    p_r3.set_defaults(order=None, with_oracle=False)

    p_co = sub.add_parser("coeffs", help="partial-fraction coefficients A^(r)_l")
    p_co.add_argument("--order", type=int, required=True, help="product order r")
    p_co.add_argument("--mu", type=float, required=True)
    p_co.add_argument("--format", choices=("csv", "json"), default="csv")
    p_co.add_argument("--output", default=None)

    p_td = sub.add_parser("taylor-diagnose",
                          help="term growth of the mu-expansion (divergence)")
    common(p_td)
    p_td.add_argument("--order", type=int, default=1, help="moment order r")
    p_td.add_argument("--s-max", type=int, default=40,
                      help="highest expansion order to tabulate")

    p_pq = sub.add_parser("pq-compare", help="p,q-Bose intercept and asymptote")
    p_pq.add_argument("--p", type=float, required=True)
    p_pq.add_argument("--q", type=float, required=True)
    p_pq.add_argument("--temperature", type=float, default=120.0)
    p_pq.add_argument("-k", "--momentum", type=float, default=0.0)
    p_pq.add_argument("--mass", type=float, default=DEFAULT_MASS)
    p_pq.add_argument("--order", type=int, default=2)
    p_pq.add_argument("--format", choices=("csv", "json"), default="csv")
    p_pq.add_argument("--output", default=None)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on first use and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        header, failed = GRID_HEADER, 0
        if args.command == "figure":
            grid = GridSpec(
                k_min=args.k_min, k_max=args.k_max, k_steps=args.k_steps,
                temperatures=tuple(args.temperature) if args.temperature
                else FIGURE_TEMPS,
                mus=tuple(args.mu) if args.mu else FIGURE_MUS[args.preset],
                mass=args.mass, tol=args.tol,
            )
            rows, failed = figure_records(args.preset, grid, args.oracle)
        elif args.command in _POINTS:
            rows = point_records(args.command, args.mu, args.temperature, args.momentum,
                                 args.mass, args.tol, args.order, args.with_oracle, args.oracle)
        elif args.command == "coeffs":
            header, rows = COEFF_HEADER, coeff_rows(args.order, args.mu)
        elif args.command == "taylor-diagnose":
            header, rows = TAYLOR_HEADER, taylor_rows(
                args.mu, args.temperature, args.momentum, args.mass, args.order,
                args.s_max)
        else:
            header, rows = PQ_HEADER, pq_records(
                args.p, args.q, args.temperature, args.momentum, args.mass,
                args.order)
        text = render(rows, header, args.format)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, args.output)
    except OSError as exc:
        where = "stdout" if args.output is None else args.output
        print(f"cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
