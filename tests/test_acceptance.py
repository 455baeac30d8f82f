"""Acceptance suite: end-to-end checks with pinned tolerances.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with ``pytest -s`` or in captured output on failure).
"""

import math
import time

import numpy as np
import pytest

from coulomb_chain import (
    Classification,
    Configuration,
    Constant,
    MinimizeSettings,
    ModelParams,
    PiecewiseLinear,
    Scaled,
    classify_phase,
    critical_force_exact,
    default_settings,
    energy,
    energy_gradient,
    histogram,
    local_minimality_certificate,
    minimize,
    multi_start_fixed_points,
    nonuniqueness_params,
    solve_fixed_point,
    uniform_configuration,
)
from coulomb_chain.closed_form import Phase
from reference import phase2_scaling_factor, wall_force


class criterion:
    """Prints `ACCEPTANCE nn name: PASS/FAIL` around a block of assertions."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} {self.detail}")
        return False


def random_monotone_profile(rng, L, scale):
    if rng.random() < 0.5:
        return Constant(float(rng.uniform(0.0, 6.0) * scale))
    k = int(rng.integers(2, 7))
    xs = np.unique(np.concatenate(([-L], np.sort(rng.uniform(-L, 0.0, size=k - 2)), [0.0])))
    vals = np.cumsum(rng.uniform(0.0, 1.5 * scale, size=xs.size))[::-1].copy()
    if rng.random() < 0.3:
        vals -= vals[-1]  # let the force vanish at the origin
    return PiecewiseLinear(list(zip(xs.tolist(), vals.tolist())))


def test_criterion_01_fixed_point_consistency():
    with criterion(1, "fixed-point consistency on random monotone profiles") as c:
        rng = np.random.default_rng(20250810)
        n = 10 ** 3
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            L = float(10 ** rng.uniform(-0.3, 0.3))
            scale = (n / L) ** 2
            params = ModelParams(
                L=L, n_gaps=n, force=random_monotone_profile(rng, L, n / L ** 2)
            )
            sol = solve_fixed_point(params)
            worst = max(worst, sol.max_residual / scale)
            assert sol.max_residual <= 1e-9 * scale
            if sol.classification is Classification.BOUNDARY_PINNED:
                assert sol.config.positions[-1] == -L
                assert sol.terminal_slack >= -1e-9 * scale
            else:
                assert sol.config.positions[-1] > -L
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        c.detail = f"(worst scaled residual {worst:.2e}, {elapsed:.2f}s)"


def test_criterion_02_oracle_equivalence():
    with criterion(2, "descent oracle agrees with the shooting solver") as c:
        t0 = time.perf_counter()
        worst = 0.0
        for n in range(2, 9):
            for F in (0.0, 1.0, 10.0, 1.5 * critical_force_exact(n, 1.0)):
                params = ModelParams(L=1.0, n_gaps=n, force=Constant(F))
                sol = solve_fixed_point(params)
                settings = MinimizeSettings(grad_tol=1e-9 * n * n)
                orc = minimize(params, uniform_configuration(params), settings)
                diff = float(np.max(np.abs(sol.config.positions - orc.config.positions)))
                worst = max(worst, diff)
                assert diff <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        c.detail = f"(worst position gap {worst:.2e}, {elapsed:.2f}s)"


def test_criterion_03_critical_force_exact():
    with criterion(3, "numeric wall force matches the exact sum formula") as c:
        params = ModelParams(L=1.0, n_gaps=100, force=Constant(1.0))
        numeric = wall_force(params, tol_rel=1e-9)
        exact = critical_force_exact(100, 1.0)
        assert exact == pytest.approx(345.57, abs=0.01)
        assert numeric == pytest.approx(exact, rel=1e-6)
        c.detail = f"(numeric {numeric:.6f}, exact {exact:.6f})"


def test_criterion_04_critical_coefficient():
    with criterion(4, "critical force per gap approaches 4/L**2") as c:
        ratios = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            ratio = critical_force_exact(n, 1.0) / n
            assert abs(ratio - 4.0) < 2 * 1.4604 * 2 / math.sqrt(n)
            ratios.append(ratio)
        assert ratios[0] < ratios[1] < ratios[2]
        c.detail = f"(ratios {', '.join(f'{r:.4f}' for r in ratios)})"


def test_criterion_05_phase3_detachment():
    with criterion(5, "supercritical chain detaches to -2/sqrt(c)") as c:
        t0 = time.perf_counter()
        params = ModelParams(L=1.0, n_gaps=10 ** 4, force=Scaled(c=16.0, gamma=1.0))
        sol = solve_fixed_point(params)
        assert sol.config.positions[-1] == pytest.approx(-0.5, abs=0.01)
        report = classify_phase(params, sol)
        assert report.detected is Phase.DETACHED
        hist = histogram(sol.config, params, n_bins=100)
        stray = float(hist.mass[hist.bin_edges[1:] <= -0.55].sum())
        assert stray < 0.005
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        c.detail = f"(x_N {sol.config.positions[-1]:.4f}, stray mass {stray:.1e}, {elapsed:.2f}s)"


def test_criterion_06_phase1_uniformity():
    with criterion(6, "sub-linear force keeps spacing uniform to o(1/N)") as c:
        devs = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            params = ModelParams(L=1.0, n_gaps=n, force=Constant(math.sqrt(n)))
            sol = solve_fixed_point(params)
            devs.append(float(n * np.max(np.abs(sol.config.gaps - 1.0 / n))))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.02
        c.detail = f"(N*maxdev {', '.join(f'{d:.4f}' for d in devs)})"


def test_criterion_07_phase2_scaling():
    with criterion(7, "pinned-phase first gap matches the continuum factor") as c:
        b2 = phase2_scaling_factor(2.0, 1.0)
        params = ModelParams(L=1.0, n_gaps=10 ** 4, force=Scaled(c=2.0, gamma=1.0))
        sol = solve_fixed_point(params)
        scaled = sol.delta1 * 10 ** 4
        assert scaled == pytest.approx(b2, rel=0.02)

        b4 = phase2_scaling_factor(4.0, 1.0)
        assert b4 == pytest.approx(0.5, abs=1e-9)
        params4 = ModelParams(L=1.0, n_gaps=10 ** 4, force=Scaled(c=4.0, gamma=1.0))
        sol4 = solve_fixed_point(params4)
        assert sol4.delta1 * 10 ** 4 == pytest.approx(0.5, rel=0.03)
        c.detail = f"(c=2: {scaled:.4f} vs {b2:.4f}; c=4: {sol4.delta1 * 10 ** 4:.4f} vs 0.5)"


def test_criterion_08_phase4_collapse():
    with criterion(8, "super-linear force collapses the chain to the origin") as c:
        extents = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            params = ModelParams(L=1.0, n_gaps=n, force=Scaled(c=1.0, gamma=2.0))
            sol = solve_fixed_point(params)
            extents.append(abs(float(sol.config.positions[-1])))
        assert extents[0] > extents[1] > extents[2]
        assert extents[2] < 0.05
        params = ModelParams(L=1.0, n_gaps=10 ** 4, force=Scaled(c=1.0, gamma=2.0))
        sol = solve_fixed_point(params)
        hist = histogram(sol.config, params, n_bins=100)
        near_origin = float(hist.mass[hist.bin_edges[:-1] >= -0.05].sum())
        assert near_origin > 0.99
        c.detail = f"(|x_N| {', '.join(f'{e:.4f}' for e in extents)}, mass {near_origin:.4f})"


def test_criterion_09_nonuniqueness():
    with criterion(9, "tent profile yields several verified minima") as c:
        n = 51
        found_c = None
        counts = []
        minima = []
        chosen = None
        for cc in (2.0, 4.0, 8.0, 16.0, 32.0):
            params = nonuniqueness_params(1.0, 2.0, cc, n)
            results = multi_start_fixed_points(params, 8)
            counts.append((cc, len(results)))
            if len(results) >= 2:
                found_c, minima, chosen = cc, results, params
                break
        assert found_c is not None, f"no coupling in the grid split the chain: {counts}"
        settings = default_settings(chosen)
        for r in minima:
            assert r.max_residual <= 10 * settings.grad_tol
            assert local_minimality_certificate(r.config, chosen)

        control = ModelParams(L=2.0, n_gaps=n, force=Constant(51.0))
        unique = multi_start_fixed_points(control, 8)
        assert len(unique) == 1
        c.detail = f"(c={found_c} gives {len(minima)} minima; constant force gives 1)"


def test_criterion_10_gradient_check():
    with criterion(10, "analytic gradient matches central differences") as c:
        rng = np.random.default_rng(99)
        n, L = 10, 1.0
        params = ModelParams(L=L, n_gaps=n, force=Constant(1.0))
        h = 1e-6 * L / n
        worst = 0.0
        for _ in range(100):
            gaps = rng.uniform(0.5, 1.5, size=n)
            gaps *= 0.85 * L / gaps.sum()
            head = -0.02 * L  # keep every particle off the walls so +-h moves stay valid
            config = Configuration(head - np.concatenate(([0.0], np.cumsum(gaps))))
            g = energy_gradient(config, params)
            fd = np.empty_like(g)
            for i in range(n + 1):
                up = config.positions.copy()
                dn = config.positions.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    energy(Configuration(up), params)
                    - energy(Configuration(dn), params)
                ) / (2 * h)
            rel = float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-10)))
            worst = max(worst, rel)
            assert rel < 1e-5
        c.detail = f"(worst relative error {worst:.2e})"
