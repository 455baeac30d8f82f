"""Command-line interface: schemas, formats, round trips and exit codes."""

import argparse
import csv
import dataclasses
import gc
import io
import json
import os
import stat
import subprocess
import sys
import types
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coulomb_chain import Configuration, Constant, ModelParams, SweepRow, residuals
from coulomb_chain import cli, minimizer, shooting
from coulomb_chain.cli import _render_csv, main
from reference import render_csv_rows, render_json, table_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolveCommand:
    def test_no_force_solve_schema(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--n", "100", "--length", "1", "--force", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["positions"]) == 101
        np.testing.assert_allclose(payload["gaps"], 0.01, rtol=1e-9)
        assert payload["classification"] == "boundary_pinned"
        for key in ("delta1", "max_residual", "iterations", "pressures", "params"):
            assert key in payload

    def test_json_round_trip_reproduces_residual(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--n", "50", "--length", "1", "--force", "120"
        )
        assert code == 0
        payload = json.loads(out)
        params = ModelParams(
            L=payload["params"]["length"],
            n_gaps=payload["params"]["n_gaps"],
            force=Constant(payload["params"]["force"]["value"]),
        )
        config = Configuration(np.array(payload["positions"]))
        res = residuals(config, params)
        recomputed = float(np.max(np.abs(res.interior)))
        assert abs(recomputed - payload["max_residual"]) <= 1e-15

    def test_csv_and_json_numbers_agree(self, capsys):
        args = ("solve", "--n", "7", "--length", "1", "--force", "3.5")
        code, jout = run_cli(capsys, *args)
        assert code == 0
        code, cout = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        payload = json.loads(jout)
        rows = list(csv.DictReader(io.StringIO(cout)))
        assert len(rows) == 8
        for i, row in enumerate(rows):
            assert float(row["position"]) == payload["positions"][i]
            if i > 0:
                assert float(row["gap"]) == payload["gaps"][i - 1]
                assert float(row["pressure"]) == payload["pressures"][i - 1]
        assert float(rows[0]["delta1"]) == payload["delta1"]

    def test_increasing_piecewise_profile_fails_cleanly(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--n", "10", "--length", "1",
            "--force-piecewise=-1:0,0:5",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["kind"] == "MonotonicityViolation"

    def test_too_narrow_piecewise_segment_fails_cleanly(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, "solve", "--n", "3", "--force-piecewise=-1:0,0:0,5.1e-309:1")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "ValueError"
        assert "too narrow" in error["message"]

    def test_non_finite_breakpoint_is_an_error_object(self, capsys):
        code, out = run_cli(capsys, "solve", "--n", "3", "--force-piecewise=-1:nan,0:0")
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "ValueError", "message": "breakpoints must be finite"}

    @pytest.mark.parametrize("argv, skipped", [
        (["solve", "--n", "10", "--force-piecewise=-1:1,0:1"], ["solve", "--n", "10", "--force-piecewise=-1:1,,0:1, "]),
        (["sweep", "--grid", "100,1,2,1"], ["sweep", "--grid", "100,1,2,1;; "]),
    ], ids=["piecewise", "grid"])
    def test_empty_chunks_are_skipped(self, capsys, argv, skipped):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        code, skipped_out = run_cli(capsys, *skipped)
        assert code == 0
        assert skipped_out == out

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--n", "10"])  # no force specification
        assert err.value.code == 2

    def test_output_file_is_written_atomically(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, _ = run_cli(
            capsys, "solve", "--n", "5", "--force", "0", "--output", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert len(payload["positions"]) == 6
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []

    @pytest.mark.parametrize("target", ["missing/out.json", "taken"])
    def test_unwritable_output_is_an_error_object(self, tmp_path, capsys, target):
        (tmp_path / "taken").mkdir()  # a file cannot replace a directory
        code, out = run_cli(
            capsys, "solve", "--n", "5", "--force", "0", "--output", str(tmp_path / target)
        )
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] in ("FileNotFoundError", "IsADirectoryError")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no temp file left

    def test_pressure_overflow_at_tiny_length_is_an_error_object(self, capsys):
        code, out = run_cli(capsys, "solve", "--n", "10", "--length", "1e-160",
                            "--force-piecewise=-1:1,0:1")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "DegenerateConfigurationError"

    @pytest.mark.parametrize("length", ["1e160", "1e200"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "10", "--force-piecewise=-1e200:0,0:0"],
        ["solve", "--n", "10", "--force", "0"],
        ["solve", "--n", "10", "--force", "10"],
        ["oracle", "--n", "10", "--force", "0"],
        ["density", "--n", "10", "--force-scaled", "1,0.5"],
    ], ids=["solve-piecewise", "solve-zero", "solve-ten", "oracle", "density-scaled"])
    def test_pressure_underflow_at_huge_length_is_an_error_object(self, capsys, argv, length):
        # (N/L)**2 is subnormal or zero on every route: no chain, and no traceback
        code = main([*argv, "--length", length])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        error = json.loads(out)["error"]
        assert error["kind"] == "ValueError"
        assert error["message"].startswith("N/L = ")

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["--force-piecewise=-1:1e308,0:1e308"], "N F(0) = inf "),  # N F(0) overflows
            (["--force-piecewise=-1:1e301,0:1e300"], "N F(0) = 1e+301 "),
            (["--length", "1e-152", "--force-piecewise=-1:1,0:1"], "L/N = 1e-153 "),
        ],
    )
    def test_first_gap_bound_below_the_bracket_is_named(self, capsys, argv, bound):
        code, out = run_cli(capsys, "solve", "--n", "10", *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "ValueError"
        assert error["message"].startswith(bound)

    def test_exhausted_shot_budget_is_an_error_object(self, capsys, monkeypatch):
        # constant force takes no search; a piecewise profile takes the
        # Newton search, and this one needs five shots from its continuum seed
        argv = ("solve", "--n", "80", "--force-piecewise=-1:300,-0.5:100,0:0")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        root = json.loads(out)["delta1"]
        monkeypatch.setattr(shooting, "MAX_ITER", 3)
        code, out = run_cli(capsys, *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "NoConvergence"
        assert error["iterations"] == 3
        lo, hi = error["bracket"]
        assert lo < root < hi


class TestCriticalCommand:
    def test_values(self, capsys):
        code, out = run_cli(capsys, "critical", "--n", "100", "--length", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == pytest.approx(345.5733703624297, rel=1e-12)
        assert payload["asymptotic_coefficient"] == 4.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("length", ["inf", "nan", "-inf"])
    def test_non_finite_length_is_an_error_object(self, length, fmt, capsys):
        code, out = run_cli(capsys, "critical", "--n", "5", f"--length={length}", "--format", fmt)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "ValueError", "message": f"segment length must be positive, got {length}"
        }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("length", ["1e-155", "1e-200"])
    def test_too_short_a_length_is_an_error_object(self, length, fmt, capsys):
        code, out = run_cli(capsys, "critical", "--n", "10", "--length", length, "--format", fmt)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "ValueError",
            "message": f"segment length too short for a finite critical force, got {float(length)}",
        }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("length", ["1e160", "1e200"])
    def test_too_long_a_length_is_an_error_object(self, length, fmt, capsys):
        # the critical force would be subnormal (1e160) or 0 (1e200)
        code = main(["critical", "--n", "10", "--length", length, "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert json.loads(out)["error"] == {
            "kind": "ValueError",
            "message": f"segment length too long for a normal critical force, got {float(length)}",
        }

    def test_csv_matches_json(self, capsys):
        code, jout = run_cli(capsys, "critical", "--n", "10")
        code, cout = run_cli(capsys, "critical", "--n", "10", "--format", "csv")
        payload = json.loads(jout)
        row = next(csv.DictReader(io.StringIO(cout)))
        assert float(row["exact"]) == payload["exact"]


class TestDensityCommand:
    def test_scaled_force_has_prediction(self, capsys):
        code, out = run_cli(
            capsys, "density", "--n", "400", "--length", "1",
            "--force-scaled", "16,1", "--bins", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["bin_edges"]) == 11
        assert len(payload["mass"]) == 10
        assert payload["prediction"] is not None
        assert sum(payload["mass"]) == pytest.approx(1.0, abs=1e-12)

    # (--force-scaled, L, rho(0), slope, left edge) of the law rho(0) + slope * x
    @pytest.mark.parametrize("scaled, length, rho0, slope, left", [
        ("3,0.5", 2.0, 0.5, 0.0, -2.0),
        ("2,1", 1.0, 1.5, 1.0, -1.0),
        ("3,1", 0.5, 2.375, 1.5, -0.5),
        ("16,1", 1.0, 4.0, 8.0, -0.5),
    ])
    def test_prediction_is_the_law_at_the_bin_centres(self, capsys, scaled, length, rho0, slope, left):
        code, out = run_cli(
            capsys, "density", "--n", "400", f"--length={length}",
            "--force-scaled", scaled, "--bins", "16",
        )
        assert code == 0
        payload = json.loads(out)
        edges = np.array(payload["bin_edges"])
        centres = 0.5 * (edges[:-1] + edges[1:])
        law = np.where(centres >= left, rho0 + slope * centres, 0.0)
        np.testing.assert_allclose(payload["prediction"], law, rtol=0, atol=4 * np.finfo(float).eps * rho0)

    def test_constant_force_prediction_is_null(self, capsys):
        code, out = run_cli(
            capsys, "density", "--n", "50", "--length", "1", "--force", "10"
        )
        assert code == 0
        assert json.loads(out)["prediction"] is None

    def test_point_mass_prediction_is_null(self, capsys):
        code, out = run_cli(
            capsys, "density", "--n", "100", "--length", "1",
            "--force-scaled", "1,2",
        )
        assert code == 0
        assert json.loads(out)["prediction"] is None

    def test_zero_bins_is_an_error_object(self, capsys):
        code, out = run_cli(capsys, "density", "--n", "10", "--force", "1", "--bins", "0")
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "ValueError", "message": "need at least one bin, got 0"}


class TestTableCommands:
    def test_sweep_json_and_csv(self, capsys):
        args = ("sweep", "--grid", "200,1,2,1;200,1,16,1")
        code, jout = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(jout)
        assert payload["columns"][0] == "n_gaps"
        assert len(payload["rows"]) == 2
        detected = [row[payload["columns"].index("detected")] for row in payload["rows"]]
        assert detected == ["smooth_positive", "detached"]
        code, cout = run_cli(capsys, *args, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(cout)))
        assert [r["detected"] for r in rows] == detected

    def test_sweep_writes_the_bare_phase_value(self, capsys):
        args = ("sweep", "--grid", "200,1,16,1")
        code, jout = run_cli(capsys, *args)
        assert code == 0 and '"detached"' in jout and "Phase" not in jout
        code, cout = run_cli(capsys, *args, "--format", "csv")
        assert code == 0 and ",detached," in cout and "Phase" not in cout

    def test_zero_coupling_is_an_error_row_at_each_n(self, capsys):
        # c = 0 is no scaling, and each N gets an error row
        code, out = run_cli(capsys, "sweep", "--grid", "10,1,0,1;20,1,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == [f.name for f in dataclasses.fields(SweepRow)]
        assert [row[0] for row in payload["rows"]] == [10, 20]
        assert [row[-1] for row in payload["rows"]] == ["ValueError: scaled force needs c > 0 and gamma > 0"] * 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_sweep_over_n_prints_the_rows_of_its_points(self, capsys, fmt):
        # one (L, c, gamma) at increasing N: each row is its point's own sweep row
        code, swept = run_cli(capsys, "sweep", "--grid", "100,2,16,1;1000,2,16,1", "--format", fmt)
        assert code == 0
        code, first = run_cli(capsys, "sweep", "--grid", "100,2,16,1", "--format", fmt)
        assert code == 0
        code, second = run_cli(capsys, "sweep", "--grid", "1000,2,16,1", "--format", fmt)
        assert code == 0
        if fmt == "json":
            rows = [json.loads(out)["rows"] for out in (swept, first, second)]
            assert rows[0] == rows[1] + rows[2] and len(rows[0]) == 2
        else:
            assert swept == first + second.split("\n", 1)[1]

    @pytest.mark.parametrize("length", ["1e160", "1e200"])
    def test_sweep_records_a_pressure_underflow_as_an_error_row(self, capsys, length):
        # (N/L)**2 is subnormal or zero: the row says why and the run exits 0
        code = main(["sweep", "--grid", f"10,{length},1,1"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = json.loads(out)
        (row,) = (dict(zip(payload["columns"], row)) for row in payload["rows"])
        assert row["error"].startswith("ValueError: N/L = ") and row["detected"] is None

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "{n},1,16,1"], ["sweep", "--grid", "10,1,16,1;{n},1,16,1"],
    ], ids=["one-point", "later-point"])
    def test_n_is_read_the_same_way_at_every_grid_point(self, capsys, argv):
        code, out = run_cli(capsys, *(arg.format(n="1e3") for arg in argv))
        assert code == 0
        assert [row[0] for row in json.loads(out)["rows"]][-1:] == [1000]
        code, out = run_cli(capsys, *(arg.format(n="10.5") for arg in argv))
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "ValueError", "message": "grid point N must be an integer, got 10.5"
        }

    @pytest.mark.parametrize("point, error", [
        ("10,1,1,400", "ValueError: scaled force c * N**gamma overflows at N = 10"),
        ("10,1e200,1,1", "ValueError: N/L = 1e-199 leaves no normal pressure scale (N/L)**2"),
    ], ids=["overflowing-force", "no-pressure-scale"])
    def test_sweep_records_an_overflowing_force_and_goes_on(self, capsys, point, error):
        code, out = run_cli(capsys, "sweep", "--grid", f"{point};100,1,1,1")
        assert code == 0
        payload = json.loads(out)
        first, second = (dict(zip(payload["columns"], row)) for row in payload["rows"])
        assert first["error"] == error and first["detected"] is None
        assert second["error"] is None and second["detected"] == "smooth_positive"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_classifies_gamma_one_where_l_squared_overflows(self, capsys, fmt):
        # c_critical(1e156) is not normal; the point still gets a full row,
        # with a density to compare (the prediction is detached, not a point mass)
        code, out = run_cli(capsys, "sweep", "--grid", "1000,1e156,1,1", "--format", fmt)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            row = dict(zip(payload["columns"], payload["rows"][0]))
        else:
            row = next(csv.DictReader(io.StringIO(out)))
        assert row["error"] in (None, "")
        assert float(row["sup_deviation"]) >= 0.0
        assert float(row["x_leftmost"]) == pytest.approx(-2.0, rel=0.05)

    @pytest.mark.parametrize("n", ["inf", "nan", "10.7"])
    def test_sweep_rejects_a_non_integer_n(self, capsys, n):
        code, out = run_cli(capsys, "sweep", "--grid", f"{n},1,1,1")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("command", ["solve", "density", "oracle"])
def test_overflowing_scaled_force_is_an_error_object(command, capsys):
    code, out = run_cli(capsys, command, "--n", "10", "--force-scaled", "1,400")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ValueError"


class TestOracleCommand:
    def test_matches_solver(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--n", "5", "--length", "1", "--force", "40"
        )
        assert code == 0
        payload = json.loads(out)
        code, sout = run_cli(
            capsys, "solve", "--n", "5", "--length", "1", "--force", "40"
        )
        solved = json.loads(sout)
        np.testing.assert_allclose(
            payload["positions"], solved["positions"], atol=1e-6
        )
        assert "energy" in payload

    def test_stall_error_carries_descent_state(self, capsys, monkeypatch):
        stalling = minimizer.MinimizeSettings(grad_tol=1e-30)
        monkeypatch.setattr(minimizer, "default_settings", lambda params, seed=0: stalling)
        code, out = run_cli(capsys, "oracle", "--n", "50", "--force", "800")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "NoConvergence"
        assert 0 < error["iterations"] < 100
        assert error["grad_norm"] > 1e-30


class TestNonuniqueCommand:
    def test_finds_multiple_minima_on_small_chain(self, capsys):
        code, out = run_cli(
            capsys, "nonunique", "--n", "21", "--c-grid", "8", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c_found"] == 8.0
        assert payload["distinct_count"] >= 2
        assert len(payload["minima"]) == payload["distinct_count"]
        assert payload["minima"][0]["energy"] <= payload["minima"][-1]["energy"]

    def test_n_101_at_c_32_converges(self, capsys):
        # A descent stalled here, 298 steps in, under the doubling diagonal shift.
        code, out = run_cli(capsys, "nonunique", "--n", "101", "--c-grid", "32")
        assert code == 0
        payload = json.loads(out)
        assert payload["c_found"] == 32.0
        assert payload["distinct_count"] >= 2


class RecordingNamespace(argparse.Namespace):
    """Parsed arguments that record every name read from them in ``reads``."""

    def __init__(self, **kwargs):
        object.__setattr__(self, "reads", set())
        super().__init__(**kwargs)

    def __getattribute__(self, name):
        if name != "reads" and not name.startswith("__"):
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def registered_flags(command):
    """{option string: dest} of every flag the subcommand registers."""
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    return {opt: a.dest for a in actions for opt in a.option_strings if a.dest != "help"}


def flags_in(argv):
    return {arg.split("=")[0] for arg in argv if arg.startswith("--")}


# Runs that together pass every flag of each command; "{out}" is a file path.
FLAG_RUNS = {
    "solve": [
        ["--n", "20", "--length", "2", "--force", "0", "--format", "csv", "--output", "{out}"],
        ["--n", "20", "--force-scaled", "2,1"],
        ["--n", "20", "--force-piecewise=-1:3,0:1"],
    ],
    "critical": [["--n", "20", "--length", "2", "--format", "csv", "--output", "{out}"]],
    "density": [
        ["--n", "100", "--length", "2", "--bins", "5", "--force", "1",
         "--format", "csv", "--output", "{out}"],
        ["--n", "100", "--force-scaled", "2,1"],
        ["--n", "100", "--force-piecewise=-1:3,0:1"],
    ],
    "sweep": [
        ["--grid", "100,1,2,1", "--format", "csv", "--output", "{out}"],
        ["--grid", "10,2,2,1;20,2,2,1", "--format", "csv", "--output", "{out}"],
    ],
    "oracle": [
        ["--n", "8", "--length", "2", "--force", "40", "--format", "csv", "--output", "{out}"],
        ["--n", "8", "--force-scaled", "2,1"],
        ["--n", "8", "--force-piecewise=-1:3,0:1"],
    ],
    "nonunique": [
        ["--a", "1", "--b", "2", "--n", "21", "--c-grid", "8", "--seed", "1",
         "--format", "csv", "--output", "{out}"],
    ],
}


@pytest.mark.parametrize("command", list(FLAG_RUNS))
def test_every_flag_passed_is_read(command, tmp_path, capsys, monkeypatch):
    registered = registered_flags(command)
    runs = [[arg.replace("{out}", str(tmp_path / "out")) for arg in argv]
            for argv in FLAG_RUNS[command]]
    missing = set(registered) - set().union(*map(flags_in, runs))
    assert not missing, f"no run passes {sorted(missing)}"
    build_parser = cli._build_parser
    for argv in runs:
        args = build_parser().parse_args([command, *argv], namespace=RecordingNamespace())
        args.reads.clear()  # argparse itself reads while parsing
        parsed = types.SimpleNamespace(parse_args=lambda _argv, args=args: args)
        monkeypatch.setattr(cli, "_build_parser", lambda: parsed)
        code, out = run_cli(capsys, command, *argv)
        assert code == 0, out
        unread = sorted(flag for flag in flags_in(argv) if registered[flag] not in args.reads)
        assert not unread, f"{command} ignores {unread}"


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "10", "--force", "0", "--max-iter", "5"],
    ["density", "--n", "10", "--force", "0", "--max-iter", "5"],
    ["sweep", "--grid", "10,1,2,1", "--max-iter", "5"],
    ["sweep", "--grid", "10,1,2,1", "--bins", "5"],
    ["converge", "--c", "2", "--n-list", "10"],  # the command is gone, with its flags
    ["oracle", "--n", "8", "--force", "40", "--max-iter", "5"],
    ["oracle", "--n", "8", "--force", "40", "--grad-tol", "1e-6"],
    ["oracle", "--n", "8", "--force", "40", "--jitter", "0.3"],
    ["oracle", "--n", "8", "--force", "40", "--seed", "3"],
    ["nonunique", "--n", "21", "--c-grid", "8", "--grad-tol", "1e-6"],
    ["nonunique", "--n", "21", "--c-grid", "8", "--n-starts", "4"],
], ids=lambda argv: argv[0] + argv[-2])
def test_removed_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


# Cells that stress csv.writer: signed zero, subnormals, extremes, integral
# floats, float subclasses, ints, None, bools, and strings that need quoting.
cell_values = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e300, 1e-300, 2.0, -7.0, 1e16]),
    st.floats().map(np.float64),
    st.integers(-10 ** 20, 10 ** 20),
    st.none(),
    st.booleans(),
    st.text(alphabet='ab ,"\n\r\t', max_size=6),
)


# Float64 array cells: non-finite ones, and many from [1e-5, 1e-4), which
# orjson and repr lay out differently.
array_values = st.one_of(
    st.floats(),
    st.floats(1e-5, 1e-4),
    st.floats(-1e-4, -1e-5),
    st.sampled_from([1e-5, 1e-4, 9.999999999999999e-05, -1.5e-5, 1e16, 1e-7, -0.0, np.nan]),
)


@st.composite
def column_tables(draw):
    """A header and columns of every kind: scalars (so scalar runs at the
    start, in the middle and at the end), lists, float64 arrays and ranges.
    A sequence may be shorter than the longest and then fills the last rows."""
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(1, 6))
    names = st.text(alphabet='xy ,"\n\r', max_size=4)
    header = draw(st.lists(names, min_size=n_cols, max_size=n_cols))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["scalar", "list", "array", "range"]),
                              min_size=n_cols, max_size=n_cols)):
        size = draw(st.integers(0, n_rows))
        if kind == "scalar":
            columns.append(draw(cell_values))
        elif kind == "list":
            columns.append(draw(st.lists(cell_values, min_size=size, max_size=size)))
        elif kind == "array":
            columns.append(draw(hnp.arrays(np.float64, size, elements=array_values)))
        else:
            start, step = draw(st.integers(-10 ** 12, 10 ** 12)), draw(st.sampled_from([1, 7, -3]))
            columns.append(range(start, start + step * size, step))
    return header, columns


def reference_rows(columns) -> list[list]:
    """The rows ``csv.writer`` is given for a column-wise table: each
    sequence as a list, a shorter one after empty cells."""
    sequences = [col for col in columns if isinstance(col, (list, range, np.ndarray))]
    n_rows = max(map(len, sequences), default=1)
    return table_rows([
        [None] * (n_rows - len(col)) + (col.tolist() if isinstance(col, np.ndarray) else list(col))
        if isinstance(col, (list, range, np.ndarray)) else col
        for col in columns
    ])


class TestRenderCsv:
    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(column_tables())
    def test_matches_the_row_wise_csv_writer(self, table):
        header, columns = table
        assert "".join(_render_csv(header, columns)) == render_csv_rows(header, reference_rows(columns))

    @pytest.mark.parametrize("table", [
        (["a"], [[None, "", 1.5]]),
        (["a", "b"], [[0.1, -0.0], "x,y"]),
        (["a", "b"], [[], 3]),
        (["a", "b"], [True, None]),
        (["a", "b"], [[0.5 * i for i in range(2 * cli._CSV_CHUNK_LINES + 1)], True]),
        (["c_found", "x"], [None, np.linspace(-1e-4, 0.0, cli._CSV_CHUNK_LINES + 3)]),
        (["x", "s", "f", "n"], [np.geomspace(1e-7, 1e17, 2 * cli._CSV_CHUNK_LINES), "q", 2.5e-5, None]),
        (["i", "x", "d"], [
            range(2 * cli._CSV_CHUNK_LINES + 5),
            np.linspace(-1.0, 0.0, 2 * cli._CSV_CHUNK_LINES + 5),
            -np.geomspace(1e-6, 1e-4, cli._CSV_CHUNK_LINES + 5),
        ]),
    ], ids=["lone-empty-cells", "scalar-string", "no-rows", "scalars-only", "several-chunks",
            "leading-scalar-only", "array-and-scalar-tail", "shorter-array-from-a-chunk-edge"])
    def test_edge_tables(self, table):
        header, columns = table
        assert "".join(_render_csv(header, columns)) == render_csv_rows(header, reference_rows(columns))


# The CSV schema of each command, read back from its JSON payload.
def solution_rows(p, extra=()):
    scalars = [p["classification"], p["delta1"], p["max_residual"], p["iterations"],
               p["params"]["n_gaps"], p["params"]["length"]] + [p[k] for k in extra]
    header = ["index", "position", "gap", "pressure", "classification", "delta1",
              "max_residual", "iterations", "n_gaps", "length", *extra]
    columns = zip(p["positions"], [None] + p["gaps"], [None] + p["pressures"])
    return header, [[i, x, d, f, *scalars] for i, (x, d, f) in enumerate(columns)]


def density_rows(p):
    edges, mass = p["bin_edges"], p["mass"]
    predicted = p["prediction"] or [None] * len(mass)
    return (["bin_left", "bin_right", "mass", "prediction"],
            [list(row) for row in zip(edges[:-1], edges[1:], mass, predicted)])


def nonunique_rows(p):
    rows = [[p["c_found"], j, m["energy"], i, x]
            for j, m in enumerate(p["minima"]) for i, x in enumerate(m["positions"])]
    return ["c_found", "minimum", "energy", "particle", "position"], rows


def listed_rows(p):
    return p["columns"], p["rows"]


COMMAND_TABLES = {
    "solve-pinned": (["solve", "--n", "60", "--force", "0"], solution_rows),
    "solve-piecewise": (
        ["solve", "--n", "80", "--force-piecewise=-1:300,-0.5:100,0:0"], solution_rows
    ),
    "critical": (
        ["critical", "--n", "100", "--length", "0.3"], lambda p: (list(p), [list(p.values())])
    ),
    "density-scaled": (
        ["density", "--n", "400", "--force-scaled", "16,1", "--bins", "12"], density_rows
    ),
    "density-constant": (["density", "--n", "50", "--force", "10"], density_rows),
    "sweep": (["sweep", "--grid", "200,1,2,1;200,1,16,1"], listed_rows),
    "sweep-errors": (["sweep", "--grid", "200,1,0,1;50,0,2,1"], listed_rows),
    "sweep-over-n": (["sweep", "--grid", "10,1,16,1;40,1,16,1"], listed_rows),
    "oracle": (
        ["oracle", "--n", "8", "--force", "40"],
        lambda p: solution_rows(p, extra=("energy",)),
    ),
    "nonunique": (
        ["nonunique", "--n", "21", "--c-grid", "1,8"], nonunique_rows
    ),
}


@pytest.mark.parametrize("case", list(COMMAND_TABLES))
def test_csv_is_the_row_wise_rendering_of_the_json_payload(case, capsys):
    argv, rows_of = COMMAND_TABLES[case]
    code, jout = run_cli(capsys, *argv)
    assert code == 0
    code, cout = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = json.loads(jout)
    if case == "sweep-errors":  # c = 0 and L = 0: every grid point fails
        error = payload["columns"].index("error")
        assert all(row[error] for row in payload["rows"])
    assert cout == render_csv_rows(*rows_of(payload))


# Outputs of three chunks exactly and of three chunks and one value or row:
# N + 1 = 3 * 4096 and N + 1 = 3 * 4096 + 1 positions, bins + 1 edges.
BIG = 3 * cli._CSV_CHUNK_LINES
STREAMED = {
    **COMMAND_TABLES,
    "solve-3-chunks": (["solve", "--n", str(BIG - 1), "--force", "0"], solution_rows),
    "solve-3-chunks-and-1": (["solve", "--n", str(BIG), "--force-scaled", "2,1"], solution_rows),
    "density-3-chunks": (
        ["density", "--n", "400", "--force-scaled", "16,1", "--bins", str(BIG)], density_rows
    ),
    "oracle-3-chunks": (
        ["oracle", "--n", str(BIG - 1), "--force", "0"],
        lambda p: solution_rows(p, extra=("energy",)),
    ),
}


def same_text(a, b):
    # A call, so that a failure is not followed by pytest's slow diff of long lines.
    return a == b


@pytest.mark.parametrize("case", list(STREAMED))
def test_streamed_output_is_the_unchunked_rendering(case, capsys, monkeypatch):
    argv, rows_of = STREAMED[case]
    code, jout = run_cli(capsys, *argv)
    assert code == 0
    code, cout = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    monkeypatch.setattr(cli, "_render_json", lambda payload: [render_json(payload)])
    code, reference = run_cli(capsys, *argv)
    assert code == 0
    assert same_text(jout, reference)
    assert same_text(cout, render_csv_rows(*rows_of(json.loads(reference))))


EDGE_PAYLOADS = {
    "empty": {"x": np.array([]), "d": {}, "l": []},
    "chunk-edges": {"a": np.arange(float(cli._CSV_CHUNK_LINES)), "b": -np.arange(4097.0)},
    "nested": {"minima": [{"x": np.linspace(0.0, 1.0, 9000), "e": np.float64(0.1)}, [np.ones(3)]]},
    "scalars": {"i": np.int64(3), "b": np.bool_(True), "s": 'q"\u00e9', "n": None, "f": -0.0},
    "not-1-d": {"m": np.eye(2), "z": np.array(2.5), "t": (1, np.zeros(2))},
}


@pytest.mark.parametrize("case", list(EDGE_PAYLOADS))
def test_json_walk_writes_what_json_dumps_writes(case):
    payload = EDGE_PAYLOADS[case]
    assert same_text("".join(cli._render_json(payload)), render_json(payload))


def test_non_finite_float_fails_before_any_text():
    payload = {"a": [1.0, 2], "x": np.array([1.0, np.inf, np.nan]), "y": np.arange(3.0)}
    with pytest.raises(ValueError) as expected:
        render_json(payload)
    with pytest.raises(ValueError) as raised:
        cli._render_json(payload)  # raises on the call, before the first chunk
    assert str(raised.value) == str(expected.value)


def dumps_text(values) -> str:
    """What ``_format_floats`` must return: ``json.dumps`` of the list, bare commas."""
    return json.dumps(values.tolist())[1:-1].replace(", ", ",")


# Finite floats of every decade, with both zeros and subnormals, and many
# from [1e-5, 1e-4), which orjson and repr lay out differently.
float64s = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-5, 1e-4),
    st.floats(-1e-4, -1e-5),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5, 1e-4]),
)


class TestFormatFloats:
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(hnp.arrays(np.float64, st.integers(0, 5000), elements=float64s))
    def test_writes_what_json_dumps_writes(self, values):
        assert same_text(cli._format_floats(values), dumps_text(values))

    def test_neighbours_of_every_power_of_ten(self):
        decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
        near = [decades]
        for toward in (0.0, np.inf):
            step = decades
            for _ in range(3):
                step = np.nextafter(step, toward)
                near.append(step)
        edges = np.array([1e-5, 1e-4])
        for k in range(1, 50):  # many ulps around the two edges repr writes differently from orjson
            near += [edges + k * np.spacing(edges), edges - k * np.spacing(edges)]
        values = np.concatenate(near)
        values = np.concatenate([values, -values])
        assert same_text(cli._format_floats(values), dumps_text(values))

    def test_non_contiguous_slice(self):
        values = np.linspace(-1e-3, 1e20, 3001)[::7]
        values[::5] = 1.5e-5
        assert not values.flags.c_contiguous
        assert same_text(cli._format_floats(values), dumps_text(values))
        header, column = ["v"], values.tolist()
        assert "".join(_render_csv(header, [values])) == render_csv_rows(header, [[v] for v in column])

    def test_non_finite_csv_cells_are_written_as_repr_writes_them(self):
        values = np.array([np.nan, 1e-6, np.inf, -np.inf, 1.5e-5, -0.0])
        expected = render_csv_rows(["v", "i"], [[v, i] for i, v in enumerate(values.tolist())])
        assert "".join(_render_csv(["v", "i"], [values, range(6)])) == expected
        assert expected.splitlines()[1:5] == ["nan,0", "1e-06,1", "inf,2", "-inf,3"]

    def test_a_layout_already_like_repr_is_left_alone(self, monkeypatch):
        # Exponents that have their sign and two digits are not touched again,
        # so a release of orjson with another layout fails the tests above
        # rather than writing doubled signs.
        values = np.array([1e16, 1e-06, 1.5e+300, 2.5e-100, 1.234e-05, 0.0001, -0.0])
        repr_layout = dumps_text(values).encode()
        fake = types.SimpleNamespace(OPT_SERIALIZE_NUMPY=0, dumps=lambda v, option: b"[" + repr_layout + b"]")
        monkeypatch.setattr(cli, "orjson", fake)
        assert cli._format_floats(values) == repr_layout.decode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_main_never_forks(fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    argv = ["solve", "--n", str(BIG), "--force", "0", "--format", fmt]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.count("\n") == (BIG + 2 if fmt == "csv" else 1)  # CSV: a header and N + 1 rows
    assert run_cli(capsys, *argv, "--output", str(tmp_path / "out")) == (0, "")
    assert (tmp_path / "out").read_text() == out


# (--output target, error kind) of runs whose output is not written in full
FAILED_WRITES = {
    "unwritable-output": ("missing/out", "FileNotFoundError"),
    "failing-formatter": ("out", "OSError"),
    "interrupted": ("out", "KeyboardInterrupt"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("run", list(FAILED_WRITES))
def test_a_failed_write_leaves_no_file(run, fmt, tmp_path, capsys, monkeypatch):
    target, kind = FAILED_WRITES[run]
    if run != "unwritable-output":  # fails on the second chunk, after text was written
        calls = iter(range(10 ** 6))
        format_floats = cli._format_floats

        def failing(values, *sep):
            if next(calls) == 1:
                raise {"OSError": OSError, "KeyboardInterrupt": KeyboardInterrupt}[kind]("stopped")
            return format_floats(values, *sep)

        monkeypatch.setattr(cli, "_format_floats", failing)
    argv = ["solve", "--n", str(BIG), "--force", "0", "--format", fmt, "--output", str(tmp_path / target)]
    if kind == "KeyboardInterrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == kind
    assert list(tmp_path.iterdir()) == []  # no target and no temp file


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_file_takes_the_mode_a_redirect_gives(umask, tmp_path, capsys):
    old = os.umask(umask)
    try:
        code, _ = run_cli(capsys, "solve", "--n", "5", "--force", "0", "--output", str(tmp_path / "out"))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(tmp_path / "out").st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("interrupt", [BrokenPipeError, KeyboardInterrupt])
def test_writing_stops_on_an_interrupt(interrupt, fmt, tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Stdout(io.StringIO):
        def writelines(self, chunks):
            next(iter(chunks))
            raise interrupt

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", Stdout())
    argv = ["solve", "--n", str(BIG), "--force", "0", "--format", fmt]
    try:
        if interrupt is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 1
            assert sys.stdout.getvalue() == ""  # no error object follows
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_reader_that_stops_early_ends_the_run_quietly(fmt, capsys):
    # The reader closes after 100 of 786,306 (JSON) or 1,684,307 (CSV) bytes,
    # many pipe buffers long.  A reader that reads on gets the in-process
    # rendering byte for byte, flushed at exit past the exit hook.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = [sys.executable, "-m", "coulomb_chain.cli", "solve", "--n", "12287", "--force", "0",
            "--format", fmt]
    env = {**os.environ, "PYTHONPATH": src}
    full = subprocess.run(argv, env=env, capture_output=True)
    assert (full.returncode, full.stderr) == (0, b"")
    assert full.stdout == run_cli(capsys, *argv[3:])[1].encode()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    errors = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), errors) == (1, b"")


def dispatch_off_env(env):
    """``env`` with numpy's SIMD dispatch above its baseline off and OpenBLAS on its oldest x86-64 kernel.

    The names come from numpy's runtime report, limited to the features this
    CPU has, which are the only ones numpy lets a process disable.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    off = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(off), "OPENBLAS_CORETYPE": "Prescott"}


@pytest.mark.parametrize("command", [
    "solve --n 100000 --force 1e6",
    "solve --n 20000 --force-piecewise=-1:4e4,-0.5:2e4,0:5e3",
    "oracle --n 2000 --force-scaled 8,1",
    "critical --n 1000000",
])
def test_output_bytes_do_not_depend_on_simd_dispatch(command):
    # Every float that reaches output is formed with + - * / and sqrt, which
    # IEEE 754 rounds correctly at every SIMD width, and the one reduction of
    # the descent is numpy's own sum, not a BLAS dot product.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "coulomb_chain.cli", *command.split()]
    default = subprocess.run(argv, env=env, capture_output=True, check=True)
    baseline = subprocess.run(argv, env=dispatch_off_env(env), capture_output=True, check=True)
    assert (default.stderr, baseline.stderr) == (b"", b"")
    assert default.stdout == baseline.stdout


def run_child(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` on this package in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


def test_import_loads_neither_scipy_nor_mpmath():
    # scipy is a test reference only: importing its LAPACK from the package
    # would double the peak memory of every coulomb-chain process.  Output is
    # formatted in the one process, so no pool from multiprocessing or
    # concurrent.futures is imported either, whose imports every process
    # would pay for.  Nor do solve and critical load the analysis or the
    # descent, which only the other commands call.
    for call in ["pass", "cli.main(['solve', '--n', '100', '--force', '0'])", "cli.main(['critical', '--n', '100'])"]:
        code = (
            f"import sys; from coulomb_chain import cli; {call}; "
            "print(sorted({'scipy', 'mpmath', 'multiprocessing', 'concurrent.futures', "
            "'coulomb_chain.analysis', 'coulomb_chain.minimizer'} & set(sys.modules)), file=sys.stderr)"
        )
        assert run_child(code).stderr.strip() == "[]", call


@pytest.mark.parametrize("code", [
    # every public name by attribute, and the same object by a star import
    "import coulomb_chain as cc; ns = {}; exec('from coulomb_chain import *', ns); "
    "assert all(getattr(cc, name) is ns[name] for name in cc.__all__)",
    # each lazy name is its module's own, and dir lists it before it loads
    "import sys, coulomb_chain as cc; assert set(cc.__all__) <= set(dir(cc)); "
    "assert 'coulomb_chain.minimizer' not in sys.modules and 'coulomb_chain.analysis' not in sys.modules; "
    "assert cc.minimize is cc.minimizer.minimize and cc.sweep is cc.analysis.sweep",
    # the submodules import by name, as the benchmark's workloads import them
    "from coulomb_chain import analysis, minimizer; assert analysis.sweep and minimizer.minimize",
], ids=["star-import", "dir", "submodules"])
def test_public_names_load_on_first_use(code):
    run_child(code)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    import coulomb_chain

    with pytest.raises(AttributeError, match="'no_such_name'"):
        coulomb_chain.no_such_name


def test_main_leaves_the_collector_alone_until_exit(capsys):
    before = (gc.isenabled(), gc.get_freeze_count())
    for _ in range(2):
        assert run_cli(capsys, "critical", "--n", "10")[0] == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_two_mains_freeze_the_collector_once_at_exit():
    # Hooks run last registered first, so the printing one runs after main's.
    code = """
import atexit, gc
freeze, calls = gc.freeze, []
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))
from coulomb_chain import cli
for _ in range(2):
    cli.main(["critical", "--n", "10"])
print(len(calls), gc.get_freeze_count() > 0)
"""
    assert run_child(code).stdout.splitlines()[2:] == ["0 False", "1 True"]
