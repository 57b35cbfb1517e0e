"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload holds a fixed list of operations built from ``--seed``.
A pass runs the list once, closed loop: one caller, one operation at a
time.  ``run(i)`` executes operation ``i`` and returns
``(ok, output, rows)``; ``check(outputs, rng)`` compares a seed-drawn
sample of the first pass's outputs (None where the operation failed)
with the mpmath references and returns ``[(op_index, message), ...]``.

- ``curves``: the fig1-fig4 presets at 1001 momenta over the preset T
  and mu values, through ``mubose.cli.main`` with CSV rendered in memory.
- ``small_alpha``: seed-drawn high-T, k = 0 points (alpha ~ 1e-3..1e-2)
  through the public library functions, chosen so that ``auto`` takes
  every route, plus the Lerch sum, the p,q oracle and the power-sum
  oracle at the same alphas so that every kernel runs a long sum.
- ``points``: cold ``python -m mubose.cli`` subprocesses across all seven
  subcommands.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np

import mubose
import mubose.cli
import mubose.expansion
import reference as ref

MASS = 139.57
LD_EPS = float(np.finfo(np.longdouble).eps)
DBL_EPS = 2.0**-52


def _sig(x, digits=6):
    """Round to a few significant digits so CLI cells print the exact input."""
    return float(f"{x:.{digits}g}")


# --------------------------------------------------------------- row checks

def _parse(text, fmt):
    """CLI output text -> list of dicts of strings/numbers keyed by header."""
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell):
    """A CSV or JSON cell as a float; JSON writes nan as null."""
    return math.nan if cell is None else float(cell)


def _row_reference(row, prev_quantity):
    """mpmath reference for one row; an asymptote row belongs to the curve before it."""
    q = row["quantity"]
    if row.get("method") == "difference":
        return 0
    if "p" in row:
        p, qq, r = _num(row["p"]), _num(row["q"]), int(row["r"])
        if q == "asymptote":
            return ref.pq_intercept_asymptotic(p, qq, r)
        alpha = math.hypot(MASS, _num(row["k_mev"])) / _num(row["T_mev"])
        return ref.pq_intercept(p, qq, alpha, r)
    mu, r = _num(row["mu"]), int(row["r"])
    if q == "asymptote":
        return ref.r3_asymptotic(mu) if prev_quantity == "r3" else ref.intercept_asymptotic(mu, r)
    alpha = math.hypot(MASS, _num(row["k_mev"])) / _num(row["T_mev"])
    if q == "distribution":
        return ref.moment(mu, alpha, 1)
    if q == "r3":
        return ref.r3(mu, alpha)
    return ref.intercept(mu, alpha, r)


def check_rows(rows, picks):
    """Check the picked rows of one table (value, error_bound columns) against references.

    The printed value and bound are rounded to 12 significant digits, so
    the allowed error is the printed bound plus that rounding of each cell.
    """
    out = []
    prev = {}
    last = None
    for j, row in enumerate(rows):
        prev[j] = last
        if row["quantity"] != "asymptote":
            last = row["quantity"]
    for j in picks:
        row = rows[j]
        value, bound = _num(row["value"]), _num(row["error_bound"])
        target = _row_reference(row, prev[j])
        msg = ref.violation(value, bound + ref.print_slack(value) + ref.print_slack(bound), target)
        if msg:
            out.append(f"row {j} {dict(row)}: {msg}")
    return out


class InProcess:
    """A workload whose operations run in the benchmark process itself."""

    traces_in_process = True

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --------------------------------------------------------------- curves

class Curves(InProcess):
    K_STEPS = 1001

    def __init__(self, rng):
        ops = []
        for preset, mus in sorted(mubose.cli.FIGURE_MUS.items()):
            for T in mubose.cli.FIGURE_TEMPS:
                for mu in mus:
                    ops.append(["figure", preset, "--k-steps", str(self.K_STEPS),
                                "--temperature", repr(T), "--mu", repr(mu)])
        rng.shuffle(ops)
        self.ops = ops

    def run(self, i, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mubose.cli.main(self.ops[i])
        if code != 0:
            return False, err.getvalue(), 0
        text = out.getvalue()
        return True, text, text.count("\n") - 1

    def check(self, outputs, rng, per_run=40):
        tables = [[] if text is None else _parse(text, "csv") for text in outputs]
        population = [(i, j) for i, rows in enumerate(tables) for j in range(len(rows))]
        picks = rng.choice(len(population), size=min(per_run, len(population)), replace=False)
        by_op = {}
        for p in sorted(picks):
            i, j = population[p]
            by_op.setdefault(i, []).append(j)
        return [(i, m) for i, js in by_op.items() for m in check_rows(tables[i], js)]


# --------------------------------------------------------------- small_alpha

#: (kind, order, mu range or None, alpha centre).  ``auto`` routes:
#: mu = 0.1, 0.2 closed form; mu >= 1/(r-1) oracle (inadmissible);
#: mu ~ 0.01 at r = 3 oracle (conditioning).  Alpha centres are fixed
#: per slot so a pass costs the same for every seed; the seed draws
#: alpha within +-5% of the centre and mu within the slot's range.
SMALL_ALPHA_SLOTS = (
    ("intercept", 2, (0.1, 0.1), 1.0e-3),
    ("intercept", 2, (0.2, 0.2), 3.2e-3),
    ("intercept", 3, (0.1, 0.1), 1.8e-3),
    ("intercept", 3, (0.2, 0.2), 5.6e-3),
    ("intercept", 2, (1.2, 1.8), 4.2e-3),
    ("intercept", 3, (0.6, 0.9), 7.5e-3),
    ("intercept", 3, (0.008, 0.012), 2.4e-3),
    ("r3_function", 3, (0.1, 0.1), 1.3e-3),
    ("r3_function", 3, (0.2, 0.2), 1.0e-2),
    ("mean_occupation", 1, (0.1, 0.2), 1.0e-3),
    ("pq_oracle_moment", 3, None, 7.5e-3),
    ("lerch_phi_s1", 1, (0.1, 0.2), 1.0e-3),
    ("series_coeff_oracle", 3, None, 3.2e-3),
)


class SmallAlpha(InProcess):

    def __init__(self, rng):
        self.ops = []
        for kind, r, mus, centre in SMALL_ALPHA_SLOTS:
            T = _sig(MASS / (centre * math.exp(rng.uniform(-0.05, 0.05))))
            alpha = mubose.ThermoPoint(T, 0.0, MASS).alpha
            op = {"kind": kind, "r": r, "T": T, "alpha": alpha}
            if mus is not None:
                op["mu"] = _sig(rng.uniform(*mus), 4) if mus[0] != mus[1] else mus[0]
            if kind == "pq_oracle_moment":
                p = _sig(rng.uniform(0.6, 1.0), 3)
                op["p"], op["q"] = p, _sig(rng.uniform(0.3, p), 3)
            if kind == "series_coeff_oracle":
                # n^3 e^(-alpha n) / alpha < 1e-12 needs alpha n ~ 60 at alpha = 1e-3
                op["n_max"] = math.ceil(80.0 / alpha)
            self.ops.append(op)
        rng.shuffle(self.ops)

    def run(self, i, tracer=None):
        op = self.ops[i]
        kind, alpha = op["kind"], op["alpha"]
        if kind == "intercept":
            res = mubose.intercept(op["mu"], alpha, op["r"])
        elif kind == "r3_function":
            res = mubose.r3_function(op["mu"], alpha)
        elif kind == "mean_occupation":
            res = mubose.mean_occupation(op["mu"], alpha)
        elif kind == "pq_oracle_moment":
            res = mubose.pq_oracle_moment(mubose.PQParams(op["p"], op["q"]), alpha, op["r"])
        elif kind == "lerch_phi_s1":
            res = mubose.lerch_phi_s1(mubose.LerchQuery(math.exp(-alpha), 1.0 / op["mu"]))
        else:
            res = mubose.series_coeff_oracle(op["r"], 0, alpha, op["n_max"])
        return True, res, 1

    def _reference(self, op, res):
        """(reference, allowed error) for one result."""
        kind, alpha = op["kind"], op["alpha"]
        if kind == "intercept":
            return ref.intercept(op["mu"], alpha, op["r"]), res.error_bound
        if kind == "r3_function":
            return ref.r3(op["mu"], alpha), res.error_bound
        if kind == "mean_occupation":
            return ref.moment(op["mu"], alpha, 1), res.error_bound
        if kind == "pq_oracle_moment":
            pq = mubose.PQParams(op["p"], op["q"])
            return ref.pq_moment(pq.p, pq.q, alpha, op["r"]), res.error_bound
        if kind == "lerch_phi_s1":
            # the query's absolute truncation tolerance, plus long-double
            # accumulation over at most n positive terms and the final rounding
            query = mubose.LerchQuery(math.exp(-alpha), 1.0 / op["mu"])
            z, a, tol = query.z, query.a, query.tol
            n = math.ceil(math.log(tol * (1 - z) * max(a, 1.0)) / math.log(z)) + 1
            return ref.lerch(z, a), tol + ((n + 4) * LD_EPS + DBL_EPS) * abs(res)
        # power-sum oracle: its tail contract, plus long-double accumulation
        # over n_max + 1 positive terms and the final rounding
        s, n = op["r"], op["n_max"]
        return (ref.power_coeff(s, alpha),
                mubose.expansion.ORACLE_TAIL_TOL + ((n + s + 2) * LD_EPS + DBL_EPS) * abs(res))

    def check(self, outputs, rng, per_run=4):
        out = []
        for i in sorted(rng.choice(len(self.ops), size=per_run, replace=False)):
            res = outputs[i]
            if res is None:
                continue
            value = getattr(res, "value", res)
            target, bound = self._reference(self.ops[i], res)
            msg = ref.violation(value, bound, target)
            if msg:
                out.append((int(i), f"{self.ops[i]}: {msg}"))
        return out


# --------------------------------------------------------------- points

class Points:
    traces_in_process = False  # each traced child wraps its own layers

    def __init__(self, rng, root, work_dir):
        def T():
            return repr(round(rng.uniform(100.0, 200.0), 1))

        def k():
            return repr(round(rng.uniform(0.0, 1000.0), 1))

        def mu(lo, hi):
            return repr(_sig(rng.uniform(lo, hi), 4))

        def point(lo, hi):
            return ["--mu", mu(lo, hi), "--temperature", T(), "-k", k()]

        p1, p2 = _sig(rng.uniform(0.6, 1.0), 3), _sig(rng.uniform(0.6, 1.0), 3)
        self.ops = [
            ["figure", "fig1", "--temperature", T(), "--format", "json"],
            ["figure", "fig4", "--temperature", T()],
            ["intercept", "--order", "2", "--with-oracle"] + point(0.05, 0.45),
            ["intercept", "--order", "3", "--oracle", "--with-oracle"] + point(0.55, 0.95),
            ["distribution", "--with-oracle"] + point(0.0, 0.5),
            ["distribution", "--with-oracle", "--format", "json"] + point(0.0, 0.5),
            ["r3"] + point(0.05, 0.45),
            ["r3", "--format", "json"] + point(0.05, 0.45),
            ["coeffs", "--order", "3", "--mu", mu(0.05, 0.5)],
            ["coeffs", "--order", "6", "--mu", mu(0.05, 0.5), "--format", "json"],
            ["taylor-diagnose", "--order", "1", "--s-max", "40"] + point(0.05, 0.3),
            ["taylor-diagnose", "--order", "3", "--s-max", "40"] + point(0.05, 0.3),
            ["pq-compare", "--order", "2", "--p", repr(p1),
             "--q", repr(_sig(rng.uniform(0.3, p1), 3)), "--temperature", T(), "-k", k()],
            ["pq-compare", "--order", "5", "--p", repr(p2), "--format", "json",
             "--q", repr(_sig(rng.uniform(0.3, p2), 3)), "--temperature", T(), "-k", k()],
        ]
        rng.shuffle(self.ops)
        self.root = root
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_rss_kb = 0

    def peak_rss_kb(self):
        """Largest resident set of the CLI processes, which do the work."""
        return self.max_rss_kb

    def run(self, i, tracer=None):
        """One cold CLI process; traced runs go through probe.py and merge its spans."""
        spans_file = os.path.join(self.work_dir, "child-spans.json")
        if tracer is None:
            argv = [sys.executable, "-m", "mubose.cli"] + self.ops[i]
        else:
            argv = [sys.executable, os.path.join(self.root, "perfbench", "probe.py"),
                    "cli", spans_file] + self.ops[i]
        err_file = os.path.join(self.work_dir, "child.err")
        with open(err_file, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            text = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(err_file, encoding="utf-8", errors="replace") as err:
                return False, text + err.read(), 0
        if tracer is not None:
            with open(spans_file, encoding="utf-8") as fh:
                base = len(tracer.spans)
                for name, t0, t1, parent, _op, info, raised in json.load(fh):
                    tracer.spans.append((name, t0, t1, parent + base if parent >= 0 else -1,
                                         tracer.op, info, raised))
        return True, text, len(_parse(text, "json" if "json" in self.ops[i] else "csv"))

    def check(self, outputs, rng, per_command=3):
        out = []
        for i, text in enumerate(outputs):
            cmd = self.ops[i]
            if text is None or cmd[0] == "taylor-diagnose":
                continue  # failed already, or prints no error bound to check against
            rows = _parse(text, "json" if "json" in cmd else "csv")
            picks = sorted(rng.choice(len(rows), size=min(per_command, len(rows)), replace=False))
            if cmd[0] == "coeffs":
                r, mu = int(cmd[cmd.index("--order") + 1]), float(cmd[cmd.index("--mu") + 1])
                exact = ref.a_coeffs(r, mu)
                for j in picks:
                    value = _num(rows[j]["a_l"])
                    msg = ref.violation(value, ref.print_slack(value) + DBL_EPS * abs(value),
                                        exact[int(rows[j]["l"])])
                    if msg:
                        out.append((i, f"{' '.join(cmd)} row {j}: {msg}"))
                continue
            out.extend((i, f"{' '.join(cmd)} {m}") for m in check_rows(rows, picks))
        return out


def make(name, seed, root, work_dir):
    rng = np.random.default_rng(seed)
    if name == "curves":
        return Curves(rng)
    if name == "small_alpha":
        return SmallAlpha(rng)
    if name == "points":
        return Points(rng, root, work_dir)
    raise ValueError(f"unknown workload {name!r}")
