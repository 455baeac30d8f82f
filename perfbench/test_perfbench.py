"""Tests of the benchmark itself: self-time arithmetic, gates, inputs and names."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gates  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coulomb_chain import cli, shooting  # noqa: E402
from coulomb_chain.closed_form import critical_force_exact  # noqa: E402
from spans import Span  # noqa: E402


def _tree():
    # op 0..100 > cli.main 10..90 > solve 20..60 > (shoot 25..30, shoot 30..45,
    # Configuration 50..55); cli.main > residuals 60..70
    return [
        Span("op", 0, 100, -1, 0),
        Span("cli.main", 10, 90, 0, 0),
        Span("shooting.solve_fixed_point", 20, 60, 1, 0),
        Span("shooting.shoot", 25, 30, 2, 0, ("constant", 11, False)),
        Span("shooting.shoot", 30, 45, 2, 0, ("constant", 11, True)),
        Span("model.Configuration", 50, 55, 2, 0),
        Span("model.residuals", 60, 70, 1, 0),
    ]


class TestSelfTime:
    def test_hand_built_tree(self):
        assert spans.self_times(_tree()) == [20, 30, 15, 5, 15, 5, 10]

    def test_self_times_partition_the_top_level_span(self):
        assert sum(spans.self_times(_tree())) == 100

    def test_overlapping_children_are_counted_once(self):
        tree = [Span("op", 0, 50, -1, 0), Span("a", 10, 30, 0, 0), Span("b", 20, 40, 0, 0)]
        assert spans.self_times(tree)[0] == 20

    def test_layer_values_of_a_pass(self):
        p = metrics.Pass([100e-9], [workloads.Outcome([], 11, residual_rel=1e-12)], _tree())
        v = metrics.layer_values(p)
        assert v["cli.self_s"] == pytest.approx(30e-9)
        assert v["shooting.solve_s"] == pytest.approx(40e-9)
        assert v["shooting.self_s"] == pytest.approx(15e-9)
        assert v["shooting.shots_per_solve"] == 2
        assert v["shooting.collapse_frac"] == 0.5
        assert v["shooting.shot_ns_per_particle.constant"] == pytest.approx(20 / 22)
        assert v["op.self_s"] == pytest.approx(20e-9)
        assert metrics.self_sum(p) == pytest.approx(p.wall)


class TestTracer:
    def test_wrappers_record_nested_spans_and_are_restored(self):
        original = shooting.shoot
        params = shooting.ModelParams(L=1.0, n_gaps=10, force=shooting.Constant(1.0))
        tracer = spans.Tracer()
        with spans.installed(tracer):
            assert shooting.shoot is not original
            shooting.solve_fixed_point(params)  # outside an operation: not recorded
            assert tracer.spans == []
            with tracer.operation(7):
                shooting.solve_fixed_point(params)
        assert shooting.shoot is original
        names = [s.name for s in tracer.spans]
        assert names[0] == "op" and names[1] == "shooting.solve_fixed_point"
        assert {s.op for s in tracer.spans} == {7}
        assert all(s.parent == 1 for s in tracer.spans if s.name == "shooting.shoot")
        assert sum(spans.self_times(tracer.spans)) == tracer.spans[0].end - tracer.spans[0].start


class TestGates:
    def _solve(self, n, L, F):
        params = shooting.ModelParams(L=L, n_gaps=n, force=shooting.Constant(F))
        return shooting.solve_fixed_point(params)

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 2.0])
    def test_correct_constant_force_results_pass(self, ratio):
        n, L = 200, 3.0
        F = ratio * critical_force_exact(n, L)
        sol = self._solve(n, L, F)
        assert gates.constant_force(sol.config.positions, sol.classification.value, F, L, n) == []

    def test_shuffled_positions_fail(self):
        n, L = 200, 3.0
        sol = self._solve(n, L, 0.0)
        x = sol.config.positions.copy()
        np.random.default_rng(0).shuffle(x)
        assert gates.constant_force(x, sol.classification.value, 0.0, L, n)

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_wrong_classification_fails(self, ratio):
        n, L = 200, 3.0
        F = ratio * critical_force_exact(n, L)
        sol = self._solve(n, L, F)
        wrong = gates.INTERIOR if sol.classification.value == gates.PINNED else gates.PINNED
        assert gates.constant_force(sol.config.positions, wrong, F, L, n)

    def test_perturbed_interior_gaps_fail(self):
        n, L = 200, 3.0
        F = 2.0 * critical_force_exact(n, L)
        x = self._solve(n, L, F).config.positions.copy()
        x[5:] -= 1e-3 * L / n
        assert gates.constant_force(x, gates.INTERIOR, F, L, n)

    def test_chain_bounds(self):
        assert gates.chain([0.0, -0.5, -1.0], 1.0, 2) == []
        assert gates.chain([0.1, -0.5, -1.0], 1.0, 2)
        assert gates.chain([0.0, -0.5, -1.5], 1.0, 2)
        assert gates.chain([0.0, -0.5], 1.0, 2)

    def test_piecewise_slack_sign(self):
        x = np.linspace(0.0, -1.0, 11)
        assert gates.piecewise(x, gates.PINNED, 5.0, gates.PINNED, 1.0, 10) == []
        assert gates.piecewise(x, gates.PINNED, -5.0, gates.PINNED, 1.0, 10)
        assert gates.piecewise(x, gates.INTERIOR, 5.0, gates.INTERIOR, 1.0, 10)
        assert gates.piecewise(x, gates.INTERIOR, 0.0, gates.PINNED, 1.0, 10)

    def test_oracle_tolerance(self):
        x = np.linspace(0.0, -1.0, 11)
        y = x.copy()
        y[3] += 0.5 * gates.ORACLE_TOL_GAPS * 0.1
        assert gates.oracle_against_shooting(y, x, 1.0, 10) == []
        y[3] += 4.0 * gates.ORACLE_TOL_GAPS * 0.1
        assert gates.oracle_against_shooting(y, x, 1.0, 10)


class TestCliGate:
    """The cli-solve check applied to real and to corrupted output files."""

    @pytest.fixture
    def workload(self, tmp_path):
        w = workloads.CliSolve(1, str(tmp_path))
        n, L = 100, 0.25
        F = 2.0 * critical_force_exact(n, L)
        w.inputs = [
            {"n": n, "length": L, "ratio": 2.0, "force": F, "format": "json"},
            {"n": n, "length": L, "ratio": 2.0, "force": F, "format": "csv"},
        ]
        return w

    def _write(self, w, i, capsys):
        op = w.inputs[i]
        path, _ = w._paths(i)
        code = cli.main(["solve", "--n", str(op["n"]), "--length", repr(op["length"]),
                         "--force", repr(op["force"]), "--format", op["format"], "--output", path])
        capsys.readouterr()
        return code, path

    @pytest.mark.parametrize("i", [0, 1])
    def test_good_output_passes(self, workload, capsys, i):
        code, _ = self._write(workload, i, capsys)
        outcome = workload.check(i, code)
        assert outcome.problems == []
        assert outcome.particles == 101
        assert outcome.out_bytes > 0

    def test_shuffled_json_positions_fail(self, workload, capsys):
        code, path = self._write(workload, 0, capsys)
        with open(path) as handle:
            payload = json.load(handle)
        np.random.default_rng(0).shuffle(payload["positions"])
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert workload.check(0, code).problems

    def test_wrong_csv_classification_fails(self, workload, capsys):
        code, path = self._write(workload, 1, capsys)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace(gates.INTERIOR, gates.PINNED))
        assert workload.check(1, code).problems

    def test_truncated_csv_fails(self, workload, capsys):
        code, path = self._write(workload, 1, capsys)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-3])
        assert workload.check(1, code).problems

    def test_nonzero_exit_fails(self, workload):
        assert workload.check(0, 1).problems


class TestInputs:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_inputs(self, name):
        gen = workloads.WORKLOADS[name].generate
        assert workloads.digest(gen(3)) == workloads.digest(gen(3))
        assert workloads.digest(gen(3)) != workloads.digest(gen(4))

    def test_cli_solve_mix_is_the_same_for_every_seed(self):
        for seed in range(5):
            ops = workloads.CliSolve.generate(seed)
            assert [op["format"] for op in ops] == ["json", "csv"] * 3
            for fmt in ("json", "csv"):
                assert sorted(op["ratio"] for op in ops if op["format"] == fmt) == [0.0, 0.5, 2.0]
            strata = sorted(int((op["n"] - 50_000) // 25_000) for op in ops)
            assert strata == [0, 1, 2, 3, 4, 5]
            decades = sorted(int(np.floor(np.log10(op["length"]))) for op in ops)
            assert decades == [-3, -2, -1, 0, 1, 2]

    def test_shoot_sweep_covers_the_grid_and_both_branches(self):
        ops = workloads.ShootSweep.generate(5)
        assert [op["kind"] for op in ops] == ["scaled", "piecewise"] * 15 + ["scaled"]
        grid = [(round(op["c"] * op["length"] ** 2, 12), op["gamma"]) for op in ops if op["kind"] == "scaled"]
        assert sorted(grid) == sorted(workloads.SWEEP_GRID * 2)
        expected = [op["expected"] for op in ops if op["kind"] == "piecewise"]
        assert expected.count(gates.PINNED) == 8 and expected.count(gates.INTERIOR) == 7
        for op in ops:
            if op["kind"] == "piecewise":
                values = [v for _, v in op["points"]]
                assert values == sorted(values, reverse=True) and values[-1] >= 0.0


class TestMetricNames:
    """Every metric name the benchmark prints is declared in BENCHMARK.json."""

    @pytest.fixture(scope="class")
    def declared(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        return (
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
        )

    def test_declared_names_and_units(self, declared):
        assert declared[0] == metrics.END_TO_END
        assert declared[1] == metrics.PER_LAYER

    def test_printed_end_to_end_names(self, declared):
        p = metrics.Pass([1.0, 2.0], [workloads.Outcome([], 5), workloads.Outcome([], 5)])
        assert set(metrics.end_to_end([0.3, 0.2], [p, p], 40.0)) == set(declared[0])

    def test_printed_per_layer_names(self, declared):
        untraced = metrics.Pass([100e-9], [workloads.Outcome([], 11)])
        traced = metrics.Pass([100e-9], [workloads.Outcome([], 11)], _tree())
        assert set(metrics.per_layer([traced], [untraced])) == set(declared[1])
