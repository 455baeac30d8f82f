"""The three workloads: seeded inputs, the timed operations and their gates.

Each workload is one closed-loop client: it issues an operation, waits for
it, checks the output (untimed) and issues the next.  A *pass* is the fixed
list of operations drawn from the seed.  Inputs are stratified, so every
seed yields the same mix of sizes, scales, branches and output formats and
the seed moves only where inside each stratum a value falls; that keeps the
work per pass, and so the timings, comparable from seed to seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import gates
import spans
from coulomb_chain import analysis, minimizer, shooting
from coulomb_chain.closed_form import asymptotic_density, critical_force_exact
from coulomb_chain.model import Configuration, Constant, ModelParams, PiecewiseLinear, Scaled

HERE = os.path.dirname(os.path.abspath(__file__))

# cli-solve: six slots, one per N stratum of [5e4, 2e5]; slot k also fixes
# the decade of L in [1e-3, 1e3], the force ratio r (force r * F_cr) and the
# output format.  Each format gets each r once, and F = 0 sits in the two
# largest strata, where the pinned branch loses the most digits.  The seed
# draws N within CLI_N_JITTER of its stratum's centre, L within its decade,
# and the order.  With six operations a pass, a wider N draw would move
# the median operation, and with it op_s_p50, by more than its bound.
CLI_N = (50_000, 200_000)
CLI_N_JITTER = 0.04
CLI_DECADES = (2, 5, 0, 3, 4, 1)  # slot k: L in [10**(d-3), 10**(d-2))
CLI_RATIOS = (0.5, 2.0, 2.0, 0.5, 0.0, 0.0)
CLI_FORMATS = ("json", "csv") * 3
CLI_CHILD = "import sys; from coulomb_chain.cli import main; sys.exit(main())"

# shoot-sweep (b): (c, gamma) at L = 1.  It covers the four phases and the
# cases where classification is known to be wrong at N = 1e5 (1 < gamma < 2,
# and gamma = 1 with small c); those stay in on purpose.
SWEEP_GRID = (
    (1.0, 0.5),
    (2.0, 1.0),
    (16.0, 1.0),
    (0.05, 1.0),
    (1.0, 1.25),
    (1.0, 1.5),
    (1.0, 1.9),
    (1.0, 2.2),
)
SWEEP_SCALED_N = 100_000
# A pass runs the grid twice as (b) with 15 (a) between: b a b ... a b.
# Every (b) is faster than every (a), so the median operation is the slowest
# (b), whose cost does not depend on the seed, rather than the boundary
# between the two kinds.
# shoot-sweep (a): 3- and 4-node non-increasing profiles at N in [1e4, 2e4],
# all values below the critical force (pinned) or all above it (interior).
SWEEP_PIECEWISE_N = (10_000, 20_000)
SWEEP_PINNED_RANGE = (0.2, 0.9)
SWEEP_INTERIOR_RANGE = (1.2, 4.0)

# oracle (a): the tent profile of the non-uniqueness demo.
ORACLE_C_GRID = (4.0, 8.0, 16.0, 32.0)
ORACLE_TENT = (1.0, 2.0)
ORACLE_TENT_N = 31
ORACLE_STARTS = 4
# oracle (b): descent on constant force r * F_cr from a jittered uniform start.
ORACLE_N = 200
ORACLE_RATIOS = (0.0, 0.5, 2.0, 0.5)
ORACLE_JITTER = 0.3  # in mean gaps


def _stratified(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / count
    draws = [lo + (k + rng.uniform()) * width for k in range(count)]
    return [float(draws[k]) for k in rng.permutation(count)]


def digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


@dataclasses.dataclass
class Outcome:
    """What the untimed check learnt about one operation."""

    problems: list[str]
    particles: int
    residual_rel: float | None = None
    phase_agree: bool | None = None
    out_bytes: int = 0
    child_spans: list | None = None


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.inputs = self.generate(seed)

    @staticmethod
    def generate(seed: int) -> list[dict]:
        raise NotImplementedError

    def prepare(self):
        """Untimed: build the arguments and the references for every op."""

    def run(self, i: int, traced: bool):
        raise NotImplementedError

    def check(self, i: int, out) -> Outcome:
        raise NotImplementedError


class CliSolve(Workload):
    """Sequential ``coulomb-chain solve`` processes writing to --output."""

    name = "cli-solve"
    in_process = False

    @staticmethod
    def generate(seed):
        rng = np.random.default_rng([seed, 1])
        width = (CLI_N[1] - CLI_N[0]) / len(CLI_FORMATS)
        slots = {}
        for k, fmt in enumerate(CLI_FORMATS):
            n = int((CLI_N[0] + (k + 0.5) * width) * (1.0 + CLI_N_JITTER * rng.uniform(-1.0, 1.0)))
            L = float(10.0 ** (CLI_DECADES[k] - 3 + rng.uniform()))
            r = CLI_RATIOS[k]
            slots.setdefault(fmt, []).append(
                {"n": n, "length": L, "ratio": r, "force": r * critical_force_exact(n, L), "format": fmt}
            )
        json_ops = [slots["json"][k] for k in rng.permutation(3)]
        csv_ops = [slots["csv"][k] for k in rng.permutation(3)]
        return [op for pair in zip(json_ops, csv_ops) for op in pair]

    def _paths(self, i):
        op = self.inputs[i]
        out = os.path.join(self.workdir, f"op{i}.{op['format']}")
        return out, os.path.join(self.workdir, f"op{i}.spans.json")

    def run(self, i, traced):
        op = self.inputs[i]
        out_path, spans_path = self._paths(i)
        argv = [
            "solve", "--n", str(op["n"]), "--length", repr(op["length"]),
            "--force", repr(op["force"]), "--format", op["format"], "--output", out_path,
        ]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CHILD, *argv]
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE).returncode

    def check(self, i, returncode):
        op = self.inputs[i]
        out_path, spans_path = self._paths(i)
        child_spans = None
        if os.path.exists(spans_path):
            with open(spans_path) as handle:
                child_spans = [spans.span_from_list(row) for row in json.load(handle)]
            os.unlink(spans_path)
        if returncode != 0:
            return Outcome([f"exit code {returncode}"], 0, child_spans=child_spans)
        try:
            size = os.path.getsize(out_path)
            positions, gaps, pressures, classification, max_residual = gates.read_cli_output(
                out_path, op["format"]
            )
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome([f"unparseable output: {exc!r}"], 0, child_spans=child_spans)
        finally:
            if os.path.exists(out_path):
                os.unlink(out_path)
        problems = gates.constant_force(positions, classification, op["force"], op["length"], op["n"])
        return Outcome(
            problems,
            op["n"] + 1,
            residual_rel=max_residual / float(np.max(pressures)),
            out_bytes=size,
            child_spans=child_spans,
        )


class ShootSweep(Workload):
    """In-process solves: piecewise profiles, and Scaled(c, gamma) plus classification."""

    name = "shoot-sweep"

    @staticmethod
    def generate(seed):
        rng = np.random.default_rng([seed, 2])
        grid = [SWEEP_GRID[k] for k in rng.permutation(len(SWEEP_GRID))]
        grid += [SWEEP_GRID[k] for k in rng.permutation(len(SWEEP_GRID))]
        scaled_logL = _stratified(rng, -3.0, 3.0, len(grid))
        count = len(grid) - 1
        # piecewise op k: N stratum strata[k]; even strata pinned, odd interior
        strata = rng.permutation(count)
        nodes = {parity: list(rng.permutation([3, 4] * count)) for parity in (0, 1)}
        pw_logL = _stratified(rng, -3.0, 3.0, count)
        width = (SWEEP_PIECEWISE_N[1] - SWEEP_PIECEWISE_N[0]) / count
        ops = []
        for k, (c, gamma) in enumerate(grid):
            L = float(10.0 ** scaled_logL[k])
            # c / L**2 keeps c L**2, the only scale-free combination, at its
            # grid value: the chain is the L = 1 chain stretched by L.
            ops.append({"kind": "scaled", "n": SWEEP_SCALED_N, "length": L, "c": c / L**2, "gamma": gamma})
            if k == count:
                break
            n = int(SWEEP_PIECEWISE_N[0] + (strata[k] + rng.uniform()) * width)
            L = float(10.0 ** pw_logL[k])
            pinned = strata[k] % 2 == 0
            f_cr = critical_force_exact(n, L)
            lo, hi = SWEEP_PINNED_RANGE if pinned else SWEEP_INTERIOR_RANGE
            inner = nodes[strata[k] % 2].pop() - 2
            xs = [-L, *sorted(float(-L * rng.uniform()) for _ in range(inner)), 0.0]
            vs = sorted((float(f_cr * rng.uniform(lo, hi)) for _ in range(len(xs))), reverse=True)
            ops.append({"kind": "piecewise", "n": n, "length": L, "points": list(zip(xs, vs)),
                        "expected": gates.PINNED if pinned else gates.INTERIOR})
        return ops

    def prepare(self):
        self.params = []
        for op in self.inputs:
            if op["kind"] == "piecewise":
                force = PiecewiseLinear(op["points"])
            else:
                force = Scaled(op["c"], op["gamma"])
            self.params.append(ModelParams(L=op["length"], n_gaps=op["n"], force=force))

    def run(self, i, traced):
        params = self.params[i]
        solved = shooting.solve_fixed_point(params)
        if self.inputs[i]["kind"] == "scaled":
            return solved, analysis.classify_phase(params, solved)
        return solved, None

    def check(self, i, out):
        op = self.inputs[i]
        solved, report = out
        pos = solved.config.positions
        cls = solved.classification.value
        residual_rel = solved.max_residual / float(np.max(solved.config.pressures))
        if report is None:
            problems = gates.piecewise(pos, cls, solved.terminal_slack, op["expected"], op["length"], op["n"])
            return Outcome(problems, op["n"] + 1, residual_rel=residual_rel)
        force = op["c"] * float(op["n"]) ** op["gamma"]
        problems = gates.constant_force(pos, cls, force, op["length"], op["n"])
        predicted = asymptotic_density(op["c"], op["gamma"], op["length"]).phase
        return Outcome(problems, op["n"] + 1, residual_rel=residual_rel,
                       phase_agree=report.detected is predicted)


class Oracle(Workload):
    """In-process descent: multi-start on the tent profile, and single descents."""

    name = "oracle"

    @staticmethod
    def generate(seed):
        rng = np.random.default_rng([seed, 3])
        c_order = [ORACLE_C_GRID[k] for k in rng.permutation(len(ORACLE_C_GRID))]
        r_order = [ORACLE_RATIOS[k] for k in rng.permutation(len(ORACLE_RATIOS))]
        logL = _stratified(rng, -3.0, 3.0, len(ORACLE_RATIOS))
        ops = []
        for c, r, lg in zip(c_order, r_order, logL):
            ops.append({"kind": "multi_start", "c": c, "seed": int(rng.integers(2**31))})
            L = float(10.0 ** lg)
            ops.append({"kind": "minimize", "n": ORACLE_N, "length": L, "ratio": r,
                        "force": r * critical_force_exact(ORACLE_N, L),
                        "seed": int(rng.integers(2**31))})
        return ops

    def prepare(self):
        self.args = []
        self.references = []
        for op in self.inputs:
            if op["kind"] == "multi_start":
                params = minimizer.nonuniqueness_params(*ORACLE_TENT, op["c"], ORACLE_TENT_N)
                self.args.append((params, ORACLE_STARTS, minimizer.default_settings(params, op["seed"])))
                self.references.append(None)
                continue
            n, L = op["n"], op["length"]
            params = ModelParams(L=L, n_gaps=n, force=Constant(op["force"]))
            rng = np.random.default_rng(op["seed"])
            x = np.linspace(0.0, -L, n + 1)
            x[1:-1] += rng.uniform(-1.0, 1.0, n - 1) * ORACLE_JITTER * L / n
            self.args.append((params, Configuration(x), minimizer.default_settings(params, op["seed"])))
            self.references.append(shooting.solve_fixed_point(params).config.positions)

    def run(self, i, traced):
        if self.inputs[i]["kind"] == "multi_start":
            return minimizer.multi_start_fixed_points(*self.args[i])
        return minimizer.minimize(*self.args[i])

    def check(self, i, out):
        op = self.inputs[i]
        params = self.args[i][0]
        if op["kind"] == "multi_start":
            minima = [(r.config.positions, r.classification.value) for r in out]
            problems = gates.local_minima(minima, params.force.breakpoints, params.force.values,
                                          params.L, params.n_gaps)
            worst = max((r.max_residual / float(np.max(r.config.pressures)) for r in out), default=None)
            return Outcome(problems, params.n_gaps + 1, residual_rel=worst)
        pos = out.config.positions
        problems = gates.constant_force(
            pos, out.classification.value, op["force"], op["length"], op["n"]
        ) or gates.oracle_against_shooting(pos, self.references[i], op["length"], op["n"])
        residual_rel = out.max_residual / float(np.max(out.config.pressures))
        return Outcome(problems, op["n"] + 1, residual_rel=residual_rel)


WORKLOADS = {w.name: w for w in (CliSolve, ShootSweep, Oracle)}
