"""Command-line interface: output schema, determinism, exit codes."""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from mubose import PQParams, core, pq_intercept_result
from mubose.cli import (
    FIGURE_MUS,
    GRID_HEADER,
    MAX_K_STEPS,
    GridSpec,
    _json_cell,
    figure_records,
    main,
    point_records,
    pq_records,
    render,
)
from mubose.errors import DomainError


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mubose.cli", *args],
                          capture_output=True, text=True)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestGridSpec:
    def test_momenta_endpoints(self):
        grid = GridSpec(k_min=0.0, k_max=1000.0, k_steps=101)
        ks = grid.momenta()
        assert len(ks) == 101
        assert ks[0] == 0.0 and ks[-1] == 1000.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k_min=-1.0), dict(k_min=5.0, k_max=5.0), dict(k_steps=1),
         dict(temperatures=()), dict(temperatures=(0.0,)), dict(mus=(-0.1,)),
         dict(mass=0.0), dict(tol=0.0), dict(k_steps=MAX_K_STEPS + 1)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        ("k_min", dict(k_min=math.nan)), ("k_max", dict(k_max=math.inf)),
        ("k_max", dict(k_max=math.nan)), ("mass", dict(mass=math.inf)),
        ("mass", dict(mass=math.nan)), ("temperatures", dict(temperatures=(120.0, math.inf))),
        ("temperatures", dict(temperatures=(math.nan,)))])
    def test_non_finite_fields_are_named(self, field, kwargs):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("args, field", [
        (("--k-max", "inf"), "k_max"), (("--k-min", "nan"), "k_min"),
        (("--mass", "inf"), "mass"), (("--temperature", "nan"), "temperatures")])
    def test_non_finite_cli_arguments(self, args, field, capsys):
        assert main(["figure", "fig1", *args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"domain error: {field} must be finite")


class TestCoeffs:
    def test_golden_table(self, capsys):
        assert main(["coeffs", "--order", "3", "--mu", "0.5"]) == 0
        assert capsys.readouterr().out == "l,a_l\n0,-6\n1,3\n2,0\n"

    def test_json_table(self, capsys):
        assert main(["coeffs", "--order", "2", "--mu", "0.5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"l": 0, "a_l": -3.0}, {"l": 1, "a_l": 1.0}]

    def test_bad_order(self, capsys):
        assert main(["coeffs", "--order", "0", "--mu", "0.5"]) == 1
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("order, mu", [("3", "1e-200"), ("64", "1e-300")])
    def test_coefficients_beyond_double_range(self, capsys, order, mu):
        assert main(["coeffs", "--order", order, "--mu", mu]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beyond the double range" in captured.err

    def test_coefficients_at_huge_mu(self, capsys):
        # every exact A^(64)_l = -1 + O(1/mu) rounds to -1 at mu = 1e300
        assert main(["coeffs", "--order", "64", "--mu", "1e300"]) == 0
        assert capsys.readouterr().out == "l,a_l\n" + "".join(f"{l},-1\n" for l in range(64))

    def test_order_16_table(self, capsys):
        # the exact A^(16)_l at mu = 0.2, each rounded once; the long-double
        # recurrence printed eleven of these cells wrong, five with the wrong sign
        assert main(["coeffs", "--order", "16", "--mu", "0.2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "l,a_l", "0,-15504", "1,46512", "2,-51408", "3,24752", "4,-4368",
            "5,-1.66699987147e-13", "6,-1.85222207942e-14", "7,-3.40204055403e-15",
            "8,-7.85086281699e-16", "9,-2.03540887848e-16", "10,-5.55111512313e-17",
            "11,-1.51394048813e-17", "12,-3.92503089514e-18", "13,-9.05776360417e-19",
            "14,-1.66367086607e-19", "15,-1.84852318452e-20",
        ]

    def test_exact_zeros_print_unsigned(self, capsys):
        # at mu = 1/2 every A^(64)_l with l >= 2 is exactly zero
        assert main(["coeffs", "--order", "64", "--mu", "0.5"]) == 0
        cells = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert cells[:2] == ["-2080", "2016"] and cells[2:] == ["0"] * 62


class TestIntercept:
    def test_undeformed_point(self, capsys):
        code = main(["intercept", "--mu", "0", "--temperature", "120",
                     "-k", "500", "--order", "4"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["quantity"] == "lambda_r"
        assert rows[0]["value"] == "23"
        assert rows[0]["method"] == "closed_form"

    def test_with_oracle_rows(self, capsys):
        code = main(["intercept", "--mu", "0.1", "--temperature", "180",
                     "-k", "0", "--order", "2", "--with-oracle"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in rows] == ["closed_form", "oracle", "difference"]
        closed, oracle = float(rows[0]["value"]), float(rows[1]["value"])
        assert abs(closed - oracle) <= 1e-9 * abs(oracle)
        # printed values carry 12 significant digits, so the recomputed
        # difference only matches the difference row to that resolution
        assert float(rows[2]["value"]) == pytest.approx(closed - oracle, abs=4e-12)
        assert abs(float(rows[2]["value"])) <= 1e-9 * abs(oracle)

    def test_inadmissible_mu_is_guarded(self, capsys):
        # mu >= 1/(r-1) needs no --oracle: the closed form holds there and
        # agrees with the oracle within the difference row's bound
        code = main(["intercept", "--mu", "0.6", "--temperature", "120",
                     "-k", "0", "--order", "3", "--with-oracle"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in rows] == ["closed_form", "oracle", "difference"]
        assert abs(float(rows[2]["value"])) <= float(rows[2]["error_bound"])

    def test_oracle_flag_unlocks_fallback(self, capsys):
        code = main(["intercept", "--mu", "0.6", "--temperature", "120",
                     "-k", "0", "--order", "3", "--oracle"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["method"] == "oracle"
        assert math.isfinite(float(rows[0]["value"]))

    def test_vanishing_mu_falls_to_oracle(self, capsys):
        assert main(["intercept", "--mu", "1e-300"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["method"] == "oracle"
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("mu", ["5e-324", "1e-310"])
    def test_subnormal_mu(self, capsys, mu):
        assert main(["intercept", "--mu", mu]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert abs(float(row["value"]) - 1.0) <= float(row["error_bound"])

    def test_pole_cannot_be_unlocked(self, capsys):
        # the lattice point mu = 1/(r-1) has a value on the forced oracle route
        args = ["--mu", "0.5", "--temperature", "120", "-k", "0", "--order", "3"]
        assert main(["intercept", *args, "--oracle"]) == 0
        assert parse_csv(capsys.readouterr().out)[0]["method"] == "oracle"
        (row,) = point_records("intercept", 0.5, 120.0, 0.0, 139.57, core.DEFAULT_TOL, 3,
                               force_oracle=True)
        closed = core.intercept(0.5, 139.57 / 120.0, 3, method="closed")
        assert abs(row.value - closed.value) <= row.error_bound + closed.error_bound


class TestDistribution:
    def test_bose_reference_point(self, capsys):
        code = main(["distribution", "--mu", "0", "--temperature", "120", "-k", "0"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["value"]) == pytest.approx(0.45459006996278894, rel=1e-11)

    def test_bose_beyond_double_range(self, capsys):
        # alpha ~ 1396: e^alpha - 1 overflows a double, the occupation underflows
        code = main(["distribution", "--mu", "0", "--temperature", "0.1"])
        assert code == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert float(row["value"]) == 0.0 and float(row["error_bound"]) > 0.0

    def test_huge_alpha_prints_no_warning(self):
        # alpha ~ 1.4e308: the term budget test must not overflow alpha (r + MAX_TERMS),
        # and the underflowed occupation prints 0, not -0
        out = run_cli("distribution", "--mu", "0.1", "--temperature", "1e-306")
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout.splitlines()[1] == (
            "distribution,0,1e-306,0.1,1,0,4.94065645841e-324,closed_form")

    def test_with_oracle(self, capsys):
        code = main(["distribution", "--mu", "0.1", "--temperature", "120",
                     "-k", "250", "--with-oracle"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in rows] == ["closed_form", "oracle", "difference"]
        assert abs(float(rows[2]["value"])) <= 1e-11


class TestR3:
    def test_point_and_asymptote(self, capsys):
        code = main(["r3", "--mu", "0.1", "--temperature", "120", "-k", "500"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["quantity"] for r in rows] == ["r3", "asymptote"]
        assert rows[1]["k_mev"] == "inf"
        assert float(rows[1]["value"]) == pytest.approx(0.7583850796225377, rel=1e-11)


class TestTaylorDiagnose:
    def test_growth_table(self, capsys):
        code = main(["taylor-diagnose", "--mu", "0.1", "--temperature", "120",
                     "-k", "0", "--order", "1", "--s-max", "40"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 41
        mags = [float(r["term_magnitude"]) for r in rows]
        assert all(a < b for a, b in zip(mags[-10:], mags[-9:]))

    def test_mu_zero_rejected(self, capsys):
        assert main(["taylor-diagnose", "--mu", "0", "--temperature", "120",
                     "-k", "500"]) == 1
        assert "domain error" in capsys.readouterr().err


class TestPQCompare:
    def test_bose_limit_record(self, capsys):
        code = main(["pq-compare", "--p", "1", "--q", "1", "--temperature", "120",
                     "-k", "500", "--order", "3"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["quantity"] == "lambda_pq"
        assert float(rows[0]["value"]) == pytest.approx(5.0, rel=1e-10)
        assert rows[1]["quantity"] == "asymptote"
        assert rows[1]["k_mev"] == "inf"

    def test_prints_the_derived_bound(self, capsys):
        assert main(["pq-compare", "--p", "0.9", "--q", "0.7", "--order", "5",
                     "--temperature", "1e6"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        alpha = core.ThermoPoint(1e6, 0.0, 139.57).alpha
        res = pq_intercept_result(PQParams(0.9, 0.7), alpha, 5)
        assert rows[0]["error_bound"] == "%.12g" % res.error_bound
        assert rows[0]["method"] == res.method

    def test_p_q_symmetry_bytes(self, capsys):
        main(["pq-compare", "--p", "0.7", "--q", "0.9", "--order", "2"])
        first = capsys.readouterr().out
        main(["pq-compare", "--p", "0.9", "--q", "0.7", "--order", "2"])
        assert capsys.readouterr().out == first


class TestFigure:
    def test_fig1_ordering(self):
        grid = GridSpec(k_steps=11, mus=(0.0, 0.1, 0.2))
        records, failed = figure_records("fig1", grid)
        assert failed == 0
        by_key = {(r.T_mev, r.mu, r.k_mev): r.value for r in records}
        for T in grid.temperatures:
            for k in grid.momenta():
                assert by_key[(T, 0.0, k)] > by_key[(T, 0.1, k)] > by_key[(T, 0.2, k)]
        # lower temperature lies below at every point
        for mu in grid.mus:
            for k in grid.momenta():
                assert by_key[(120.0, mu, k)] < by_key[(180.0, mu, k)]

    def test_fig2_rows_and_asymptotes(self):
        grid = GridSpec(k_steps=5, mus=(0.1, 0.2))
        records, failed = figure_records("fig2", grid)
        assert failed == 0
        assert len(records) == 2 * 2 * (5 + 1)
        asym = [r for r in records if r.quantity == "asymptote"]
        assert len(asym) == 4
        assert all(math.isinf(r.k_mev) for r in asym)
        # deterministic (T, mu, r, k) ordering with the asymptote closing each curve
        keys = [(r.T_mev, r.mu, r.r, r.k_mev) for r in records]
        assert keys == sorted(keys)

    def test_fig3_pole_failure_keeps_grid(self):
        # the lattice point mu = 1/(r-1) = 0.5 gives every row a value that
        # agrees with the oracle within the two bounds
        grid = GridSpec(k_steps=3, mus=(0.5,))
        records, failed = figure_records("fig3", grid)
        assert failed == 0
        point_rows = [r for r in records if r.quantity == "lambda3"]
        assert len(point_rows) == 6
        for row in point_rows:
            assert row.method == "closed_form"
            alpha = math.hypot(grid.mass, row.k_mev) / row.T_mev
            oracle = core.intercept(0.5, alpha, 3, grid.tol, "oracle")
            assert abs(row.value - oracle.value) <= row.error_bound + oracle.error_bound
        asym = [r for r in records if r.quantity == "asymptote"]
        assert len(asym) == 2 and all(math.isfinite(r.value) for r in asym)

    def test_failure_keeps_grid(self, capsys):
        # at T = 5e-324 every alpha overflows to inf, which no point accepts;
        # each failure keeps its slot and the asymptote rows stay
        grid = GridSpec(k_steps=3, mus=(0.1, 0.2), temperatures=(5e-324,))
        records, failed = figure_records("fig3", grid)
        assert failed == 6
        point_rows = [r for r in records if r.quantity == "lambda3"]
        assert all(math.isnan(r.value) and r.method == "failed" for r in point_rows)
        asym = [r for r in records if r.quantity == "asymptote"]
        assert len(asym) == 2 and all(math.isfinite(r.value) for r in asym)
        assert capsys.readouterr().err.count("failed") == 6

    # preset -> (quantity, r, point evaluation, asymptote or None)
    PRESET_CALLS = {
        "fig1": ("distribution", 1,
                 lambda mu, a, tol, m: (core.oracle_moment(mu, a, 1, tol) if m == "oracle"
                                        else core.mean_occupation(mu, a, tol)), None),
        "fig2": ("lambda2", 2, lambda mu, a, tol, m: core.intercept(mu, a, 2, tol, m),
                 lambda mu: core.intercept_asymptotic(mu, 2)),
        "fig3": ("lambda3", 3, lambda mu, a, tol, m: core.intercept(mu, a, 3, tol, m),
                 lambda mu: core.intercept_asymptotic(mu, 3)),
        "fig4": ("r3", 3, lambda mu, a, tol, m: core.r3_function(mu, a, tol, m),
                 core.r3_asymptotic),
    }

    @pytest.mark.parametrize("tol", [1e-12, 1e-14])
    @pytest.mark.parametrize("preset, allow_oracle", [
        ("fig1", False), ("fig2", False), ("fig3", False), ("fig4", False),
        ("fig1", True), ("fig4", True)])
    def test_rows_match_direct_core_calls(self, preset, allow_oracle, tol):
        quantity, r, evaluate, asymptote = self.PRESET_CALLS[preset]
        grid = GridSpec(k_steps=3, temperatures=(120.0,), mus=FIGURE_MUS[preset], tol=tol)
        method = "oracle" if allow_oracle else "auto"
        want = []
        for mu in grid.mus:
            for k in grid.momenta():
                alpha = core.ThermoPoint(120.0, k, grid.mass).alpha
                res = evaluate(mu, alpha, tol, method)
                tag = res.method
                if tag in (core.CLOSED_FORM, core.ORACLE) and res.error_bound > tol:
                    tag += "+overtol"
                want.append((quantity, k, 120.0, mu, r, res.value, res.error_bound, tag))
            if asymptote is not None:
                want.append(("asymptote", math.inf, 120.0, mu, r, asymptote(mu), 0.0,
                             core.ASYMPTOTIC))
        records, failed = figure_records(preset, grid, allow_oracle)
        assert failed == 0
        assert records == want

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            figure_records("fig9", GridSpec())


class TestFigureGolden:
    """sha256 of the stdout of each figure preset, captured before curves
    were summed in one kernel call per curve (x86-64, 80-bit long double)."""

    DIGESTS = {
        ("fig1", "csv"): "fb5f9f2354191357ce1af2ae7201f8a06bb4d8bdf9325416ef81c6bdb3f68583",
        ("fig2", "csv"): "41eb2077fdb45375c44dddcd34697bc76b1ee8781403d1df9394baec77e7c63c",
        ("fig3", "csv"): "acf11072e4bd9d877d49c663a83033539115ae5cbd1f6f0c150a0bde8a2df0f7",
        ("fig4", "csv"): "92fb8d75a163a8ba8ba062aa4df2ae40de12818048a93366b557bdcbd3be143e",
        ("fig1", "json"): "64bf4dd8ac546fba497afaf3e8789b083490e0ed9e069b7eb7689d177b859edb",
        ("fig2", "json"): "df91a8b211d3cf1ff9e514a96092b5a2a00ad2000315d85091ee5cedcc0e501e",
        ("fig3", "json"): "77815dea1de4b3ab92a8dcd70a043bd9ba8e915a0aeb914eae218723e5df4800",
        ("fig4", "json"): "7950bb233822d165af13efb3439fe225267c768d3ab54ffcfa3895e6b8bbb7b1",
    }

    @pytest.mark.parametrize("preset, fmt", sorted(DIGESTS))
    def test_preset_at_1001_momenta(self, preset, fmt, capsys):
        assert main(["figure", preset, "--k-steps", "1001", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[preset, fmt]
        assert err == ""

    def test_fig4_through_the_oracle(self, capsys):
        assert main(["figure", "fig4", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6c8b2eba3225093b3e35df64a88ac36525423158631015f12f258c3c2bdb1328")

    _FAILED_ROWS = "".join(
        f"record (T=4.94066e-324, mu={mu}, k={k}) failed: "
        "alpha must be positive and finite, got inf\n"
        for mu in ("0.1", "0.2") for k in ("0", "500", "1000"))

    #: grids off the default presets, captured before curves were kept as
    #: arrays: (arguments, format) -> (stdout sha256, exit code, stderr)
    EDGE_GRIDS = {
        # oracle-route and +overtol rows
        (("fig2", "--tol", "1e-16", "--mu", "0.45", "--mu", "0.01"), "csv"): (
            "0dcd3e8875bc6a61a00af5051f41ff2d1b706c05c778a28942b573c4163a4520", 0, ""),
        (("fig2", "--tol", "1e-16", "--mu", "0.45", "--mu", "0.01"), "json"): (
            "3062da42d583e816a65d36fc307c4ecc8488cd34603363eda74024c555f17428", 0, ""),
        # the exact mu = 0 route beside a closed-form curve
        (("fig1", "--mu", "0", "--mu", "0.45", "--tol", "1e-14"), "csv"): (
            "0073d11d9d4e672191fc631ef492c2fdcb351c0e44586814faedaf62063f81a3", 0, ""),
        (("fig1", "--mu", "0", "--mu", "0.45", "--tol", "1e-14"), "json"): (
            "8cacb5b344a1f70689223e73cd3692f8d746e5f5f24cf1b1fe4b7029f3b6258e", 0, ""),
        # every point row fails: nan cells, exit 3, one stderr line per row
        (("fig3", "--temperature", "5e-324", "--k-steps", "3"), "csv"): (
            "6d4f49cf0ee2db8d0d681e864418fcdb6ca407c304ad2d141821c6c1148c6649", 3,
            _FAILED_ROWS),
        (("fig3", "--temperature", "5e-324", "--k-steps", "3"), "json"): (
            "46ca60b22da808f2f09a38720aab6bece2045b2e4b78db5c16466005fedb6871", 3,
            _FAILED_ROWS),
    }

    @pytest.mark.parametrize("args, fmt", sorted(EDGE_GRIDS))
    def test_edge_grid(self, args, fmt, capsys):
        digest, code, err = self.EDGE_GRIDS[args, fmt]
        assert main(["figure", *args, "--format", fmt]) == code
        out, got_err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert got_err == err


class TestRender:
    def test_failed_record_cells(self):
        grid = GridSpec(k_steps=2, mus=(0.1,), temperatures=(5e-324,))
        records, _ = figure_records("fig3", grid)
        text = render(
            [(r.quantity, r.k_mev, r.T_mev, r.mu, r.r, r.value, r.error_bound,
              r.method) for r in records], GRID_HEADER, "csv")
        assert "nan,nan,failed" in text
        data = json.loads(render(
            [(r.quantity, r.k_mev, r.T_mev, r.mu, r.r, r.value, r.error_bound,
              r.method) for r in records], GRID_HEADER, "json"))
        assert data[0]["value"] is None
        assert data[-1]["k_mev"] == "inf"

    def test_json_is_the_indented_encoding(self):
        # every kind of cell the tables hold, against the encoder the text replaces
        rows = [("d\u00e9f", 0.0, 120.0, 0.1, 2, 1.0 / 3.0, 0.0, "closed_form"),
                ("x", math.inf, -0.0, 5e-324, 3, math.nan, -math.inf, "failed"),
                ("x", 1e300, 1e-300, 123456789.123, 4, -2.5, 1e16, "oracle+overtol")]
        for header, table in ((GRID_HEADER, rows), (("l", "a_l"), [(0, -1.0), (1, True)]),
                              (GRID_HEADER, [])):
            want = json.dumps([{name: _json_cell(cell) for name, cell in zip(header, row)}
                               for row in table], indent=2) + "\n"
            assert render(table, header, "json") == want

    def test_twelve_significant_digits(self):
        text = render([("x", 1.0, 1.0, 0.1, 2, 1.0 / 3.0, 0.0, "m")],
                      GRID_HEADER, "csv")
        assert "0.333333333333" in text


class TestEndToEnd:
    def test_byte_identical_reruns(self):
        args = ("figure", "fig2", "--k-steps", "11")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[0] == ",".join(GRID_HEADER)

    def test_fig3_with_pole_exits_three(self):
        # mu = 0.5 = 1/(r-1) exits 0; each printed value agrees with the
        # oracle within both bounds and its 12-digit rounding
        out = run_cli("figure", "fig3", "--mu", "0.5", "--k-steps", "2")
        assert out.returncode == 0 and out.stderr == ""
        rows = [r for r in parse_csv(out.stdout) if r["quantity"] == "lambda3"]
        assert len(rows) == 4
        for row in rows:
            value, bound = float(row["value"]), float(row["error_bound"])
            assert row["method"] == "closed_form"
            alpha = math.hypot(139.57, float(row["k_mev"])) / float(row["T_mev"])
            oracle = core.intercept(0.5, alpha, 3, method="oracle")
            rounding = 5e-12 * abs(value)
            assert abs(value - oracle.value) <= bound + oracle.error_bound + rounding

    def test_failed_rows_exit_three(self):
        out = run_cli("figure", "fig3", "--temperature", "5e-324", "--k-steps", "2")
        assert out.returncode == 3
        assert "nan,nan,failed" in out.stdout
        assert "alpha must be positive and finite" in out.stderr

    def test_json_output_file(self, tmp_path):
        target = tmp_path / "fig.json"
        out = run_cli("figure", "fig4", "--k-steps", "3", "--format", "json",
                      "--output", str(target))
        assert out.returncode == 0
        data = json.loads(target.read_text())
        assert {row["quantity"] for row in data} == {"r3", "asymptote"}

    @pytest.mark.parametrize("args, target", [
        (("figure", "fig1", "--k-steps", "3"), ""),
        (("coeffs", "--order", "3", "--mu", "0.5"), "missing/x.csv")])
    def test_unwritable_output(self, tmp_path, args, target):
        # a directory, or a file in a directory that does not exist
        path = str(tmp_path / target)
        out = run_cli(*args, "--output", path)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.count("\n") == 1 and path in out.stderr
        assert "Traceback" not in out.stderr

    def test_package_runs_as_module(self):
        args = ("intercept", "--mu", "0.1")
        out = subprocess.run([sys.executable, "-m", "mubose", *args],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout == run_cli(*args).stdout

    def test_huge_mu(self):
        # (1+mu)^r is beyond the double range: the asymptotic limit, or a domain error
        out = run_cli("intercept", "--mu", "1e300", "--oracle")
        assert out.returncode == 0
        assert parse_csv(out.stdout)[0]["method"] == "asymptotic"
        out = run_cli("r3", "--mu", "1e300", "--oracle")
        assert out.returncode == 1
        assert out.stderr.startswith("domain error:") and "Traceback" not in out.stderr

    def test_uncertain_lambda2(self):
        # lambda2 is rounding noise at mu = 1e100: no r3 row with a failing bound
        out = run_cli("r3", "--mu", "1e100", "--oracle")
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("domain error:") and "r3 undefined" in out.stderr

    def test_console_script_entry_point(self):
        # The target comes from pyproject.toml, so a checkout run with
        # PYTHONPATH=src checks the declared script without installing it.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        ep = EntryPoint("mubose", scripts["mubose"], "console_scripts")
        assert callable(ep.load())
        # the body of the wrapper that installers generate for this entry point
        wrapper = (f"import sys\nfrom {ep.module} import {ep.attr}\n"
                   f"sys.argv[0] = 'mubose'\nsys.exit({ep.attr}())")
        out = subprocess.run([sys.executable, "-c", wrapper,
                              "intercept", "--mu", "0.1"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("quantity,")

    @pytest.mark.skipif(shutil.which("mubose") is None,
                        reason="mubose console script not installed")
    def test_installed_console_script(self):
        out = subprocess.run(["mubose", "intercept", "--mu", "0.1"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("quantity,")
