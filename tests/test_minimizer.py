"""Descent oracle: gradient, Hessian, convergence, certificates, multi-start."""

import time

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from coulomb_chain import (
    Classification,
    Configuration,
    Constant,
    MinimizeSettings,
    ModelParams,
    NoConvergence,
    PiecewiseLinear,
    aux_model_gaps,
    critical_force_exact,
    default_settings,
    energy,
    energy_gradient,
    local_minimality_certificate,
    minimize,
    multi_start_fixed_points,
    nonuniqueness_params,
    residuals,
    solve_fixed_point,
    uniform_configuration,
)
from coulomb_chain import minimizer
from coulomb_chain.minimizer import _hessian_bands
from reference import coordinate_certificate


def random_interior_config(rng, n, L=1.0, fill=0.85):
    """Strictly interior chain: every particle clear of both walls."""
    gaps = rng.uniform(0.5, 1.5, size=n)
    gaps *= fill * L / gaps.sum()
    head = -0.02 * L
    return Configuration(head - np.concatenate(([0.0], np.cumsum(gaps))))


def check_gradient_by_central_differences(p, rng, n_configs):
    """energy_gradient against central differences of energy, kinks avoided."""
    n, L = p.n_gaps, p.L
    bx = p.force.breakpoints if isinstance(p.force, PiecewiseLinear) else np.array([])
    h = 1e-6 * L / n
    checked = 0
    while checked < n_configs:
        config = random_interior_config(rng, n, L)
        # a step across a kink of the profile would not see one slope
        if bx.size and np.min(np.abs(config.positions[:, None] - bx[None, :])) <= 2 * h:
            continue
        g = energy_gradient(config, p)
        fd = np.empty_like(g)
        for i in range(n + 1):
            up = config.positions.copy()
            dn = config.positions.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                energy(Configuration(up), p) - energy(Configuration(dn), p)
            ) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-10)
        assert np.max(rel) < 1e-5
        checked += 1


class TestGradient:
    def test_matches_central_differences(self):
        p = ModelParams(L=1.0, n_gaps=10, force=Constant(1.0))
        check_gradient_by_central_differences(p, np.random.default_rng(123), 100)

    def test_matches_central_differences_on_the_tent_profile(self):
        p = ModelParams(L=2.0, n_gaps=10, force=nonuniqueness_params(1.0, 2.0, 4.0, 10).force)
        check_gradient_by_central_differences(p, np.random.default_rng(124), 100)

    @pytest.mark.parametrize(
        "force",
        [Constant(1.0), nonuniqueness_params(1.0, 2.0, 4.0, 10).force],
        ids=["constant", "tent"],
    )
    def test_hessian_matches_central_differences(self, force):
        rng = np.random.default_rng(77)
        n, L = 10, 2.0
        p = ModelParams(L=L, n_gaps=n, force=force)
        bx = p.force.breakpoints if isinstance(p.force, PiecewiseLinear) else np.array([])
        h = 1e-6 * L / n
        checked = 0
        while checked < 50:
            config = random_interior_config(rng, n, L)
            x = config.positions
            # stay a step away from the profile's kinks, where F' jumps
            if bx.size and np.min(np.abs(x[:, None] - bx[None, :])) <= 2 * h:
                continue
            diag, off = _hessian_bands(x, p.force.slope_at(x))
            hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            fd = np.empty_like(hess)
            for i in range(n + 1):
                up = x.copy()
                dn = x.copy()
                up[i] += h
                dn[i] -= h
                fd[:, i] = (energy_gradient(up, p) - energy_gradient(dn, p)) / (2 * h)
            scale = np.maximum(np.abs(fd), np.max(np.abs(fd)) * 1e-12)
            assert np.max(np.abs(hess - fd) / scale) < 1e-5
            checked += 1

    def test_interior_gradient_is_negated_residual(self):
        rng = np.random.default_rng(4)
        p = ModelParams(L=1.0, n_gaps=7, force=Constant(2.0))
        config = random_interior_config(rng, 7)
        g = energy_gradient(config, p)
        res = residuals(config, p)
        np.testing.assert_array_equal(g[1:-1], -res.interior)
        assert g[-1] == res.terminal_slack


class TestMinimize:
    def test_no_force_reaches_equal_thirds(self):
        rng = np.random.default_rng(7)
        p = ModelParams(L=1.0, n_gaps=3, force=Constant(0.0))
        start = Configuration(np.sort(rng.uniform(-1.0, 0.0, 4))[::-1])
        result = minimize(p, start)
        np.testing.assert_allclose(
            result.config.positions, [0.0, -1 / 3, -2 / 3, -1.0], atol=1e-8
        )
        assert result.classification is Classification.BOUNDARY_PINNED

    def test_stationary_start_returns_immediately(self):
        p = ModelParams(L=1.0, n_gaps=4, force=Constant(0.0))
        result = minimize(p, uniform_configuration(p))
        assert result.iterations == 0

    def test_supercritical_matches_shooting(self):
        from coulomb_chain import critical_force_exact

        n = 5
        F = 1.5 * critical_force_exact(n, 1.0)
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(F))
        sol = solve_fixed_point(p)
        orc = minimize(p, uniform_configuration(p))
        np.testing.assert_allclose(
            orc.config.positions, sol.config.positions, atol=1e-6
        )
        assert orc.classification is Classification.INTERIOR

    def test_energy_monotone_along_accepted_steps(self, monkeypatch):
        rng = np.random.default_rng(21)
        p = ModelParams(L=1.0, n_gaps=8, force=Constant(5.0))
        start = random_interior_config(rng, 8, fill=0.7)
        iterates = []  # the descent takes one gradient per iterate

        def recording_gradient(x, params):
            iterates.append(np.array(x, dtype=float))
            return energy_gradient(x, params)

        monkeypatch.setattr(minimizer, "energy_gradient", recording_gradient)
        minimize(p, start)
        assert len(iterates) > 1
        # every accepted step is a strict decrease, taken at the scale of the move
        for x, trial in zip(iterates, iterates[1:]):
            assert minimizer._delta_energy(x, trial, p.profile) < 0.0

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(
        n=st.integers(2, 2000),
        log_length=st.floats(-3.0, 3.0),
        ratio=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jittered_start_matches_shooting(self, n, log_length, ratio, seed):
        L = 10.0 ** log_length
        p = ModelParams(L=L, n_gaps=n, force=Constant(ratio * critical_force_exact(n, L)))
        x = np.linspace(0.0, -L, n + 1)
        x[1:-1] += np.random.default_rng(seed).uniform(-0.3, 0.3, n - 1) * L / n
        orc = minimize(p, Configuration(x))
        sol = solve_fixed_point(p)
        assert np.max(np.abs(orc.config.positions - sol.config.positions)) <= 1e-6 * L / n
        # Near F_cr the terminal slack, about (ratio - 1) * 4N/L**2, falls
        # below the descent's gradient tolerance 1e-10 * (N/L)**2, and either
        # label is a fixed point to that tolerance.
        if abs(ratio - 1.0) > 1e-6:
            assert orc.classification is sol.classification

    def test_large_supercritical_chain(self):
        n = 10 ** 4
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(2.0 * critical_force_exact(n, 1.0)))
        t0 = time.perf_counter()
        orc = minimize(p, uniform_configuration(p))
        elapsed = time.perf_counter() - t0
        sol = solve_fixed_point(p)
        assert np.max(np.abs(orc.config.positions - sol.config.positions)) <= 1e-6 / n
        assert orc.classification is Classification.INTERIOR
        assert orc.iterations <= 50
        assert elapsed < 10.0

    def test_default_tolerance_clears_the_rounding_floor_at_large_n(self):
        # 1e-10 (N/L)**2 lies below the gradient's rounding floor here; the
        # default must follow the floor so that the descent converges.
        n = 10 ** 5
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(2.0 * critical_force_exact(n, 1.0)))
        orc = minimize(p, uniform_configuration(p))
        exact = -np.concatenate(([0.0], np.cumsum(aux_model_gaps(p.profile.value, n))))
        assert np.max(np.abs(orc.config.positions - exact)) <= 1e-6 / n
        sol = solve_fixed_point(p)
        assert np.max(np.abs(orc.config.positions - sol.config.positions)) <= 1e-6 / n
        assert orc.classification is sol.classification is Classification.INTERIOR
        for m in (1, 31, 200, 10 ** 4):
            small = ModelParams(L=0.3, n_gaps=m, force=Constant(0.0))
            assert default_settings(small).grad_tol == 1e-10 / (0.3 / m) ** 2

    @pytest.mark.parametrize("ratio", [30.0, 100.0])
    def test_default_tolerance_follows_the_force(self, ratio):
        # With a floor of 32 eps N (N/L)**2, blind to the force, the default
        # descent stalled here (N = 5480 is the smallest N where it did at
        # 30 F_cr): projected gradient 3.03e-3 and 9.98e-3 against 3.0e-3.
        n = 5480
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(ratio * critical_force_exact(n, 1.0)))
        orc = minimize(p, uniform_configuration(p))
        sol = solve_fixed_point(p)
        assert np.max(np.abs(orc.config.positions - sol.config.positions)) <= 1e-6 / n
        assert orc.classification is sol.classification is Classification.INTERIOR

    def test_default_tolerance_is_unchanged_where_the_first_term_decides(self):
        eps = np.finfo(float).eps

        def force_blind(p):
            return max(1e-10, 32.0 * eps * p.n_gaps) / (p.L / p.n_gaps) ** 2

        cases = [
            ModelParams(L=L, n_gaps=n, force=Constant(r * critical_force_exact(n, L)))
            for n in (1, 2, 5, 31, 50, 100, 200, 2000)
            for L in (1e-3, 0.3, 1.0, 1e3)
            for r in (0.0, 0.5, 1.0, 2.0, 3.0)
        ]
        n = 10 ** 4
        force = Constant(2.0 * critical_force_exact(n, 1.0))
        cases.append(ModelParams(L=1.0, n_gaps=n, force=force))
        cases += [
            nonuniqueness_params(1.0, 2.0, c, n)
            for n in (15, 21, 31, 51)
            for c in (2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        for p in cases:
            assert default_settings(p).grad_tol == force_blind(p)

    def test_residuals_meet_fixed_point_conditions(self):
        p = ModelParams(L=1.0, n_gaps=6, force=Constant(3.0))
        settings = default_settings(p)
        result = minimize(p, uniform_configuration(p), settings)
        assert result.max_residual <= 10 * settings.grad_tol
        if result.classification is Classification.BOUNDARY_PINNED:
            assert result.terminal_slack >= -10 * settings.grad_tol
        else:
            assert abs(result.terminal_slack) <= 10 * settings.grad_tol

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            MinimizeSettings(grad_tol=0.0)

    def test_stalls_fast_below_the_float_floor(self):
        n = 1000
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(2.0 * critical_force_exact(n, 1.0)))
        settings = MinimizeSettings(grad_tol=1e-30)
        with pytest.raises(NoConvergence) as info:
            minimize(p, uniform_configuration(p), settings)
        assert info.value.iterations < 100
        assert info.value.grad_norm > settings.grad_tol

    def test_step_budget_enforced(self, monkeypatch):
        # this descent takes 9 steps under the default budget
        n = 50
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(2.0 * critical_force_exact(n, 1.0)))
        settings = default_settings(p)
        monkeypatch.setattr(minimizer, "MAX_ITER", 2)
        with pytest.raises(NoConvergence) as info:
            minimize(p, uniform_configuration(p), settings)
        assert info.value.iterations == 2
        assert info.value.grad_norm > settings.grad_tol

    def test_overflowing_hessian_raises(self):
        # a 1e-120 gap is a valid configuration, but 2/d**3 overflows
        p = ModelParams(L=1.0, n_gaps=3, force=Constant(1.0))
        start = Configuration([-1e-200, -1e-120, -0.5, -1.0])
        with pytest.warns(RuntimeWarning), pytest.raises(NoConvergence):
            minimize(p, start)

    def test_mismatched_start_rejected(self):
        p = ModelParams(L=1.0, n_gaps=4, force=Constant(0.0))
        with pytest.raises(ValueError):
            minimize(p, Configuration([0.0, -1.0]))


class TestCertificate:
    def test_passes_at_a_solved_fixed_point(self):
        p = ModelParams(L=1.0, n_gaps=6, force=Constant(80.0))
        sol = solve_fixed_point(p)
        assert local_minimality_certificate(sol.config, p)

    def test_fails_away_from_equilibrium(self):
        p = ModelParams(L=1.0, n_gaps=4, force=Constant(0.0))
        skew = Configuration([0.0, -0.05, -0.1, -0.15, -1.0])
        assert not local_minimality_certificate(skew, p)

    def test_rejects_a_stationary_saddle(self):
        # Both ends are held and the middle particle is stationary, but its
        # Hessian entry is 2/d**3 + 2/d**3 - F' = 32 - 100 < 0: a strict local
        # maximum along its free direction.  The +-eps energy drop, about
        # -8.5e-12, lies under the coordinate check's 1e-12 |U| guard.
        p = ModelParams(L=1.0, n_gaps=2, force=PiecewiseLinear([(-1.0, -50.0), (0.0, 50.0)]))
        saddle = Configuration([0.0, -0.5, -1.0])
        g = energy_gradient(saddle, p)
        assert g[1] == 0.0 and g[0] < 0.0 < g[2]
        assert not local_minimality_certificate(saddle, p)
        assert coordinate_certificate(saddle, p)

    def test_rejects_an_end_particle_pulled_off_its_wall(self):
        # x_0 sits on its wall but the gradient pulls it off (g_0 = 96 > 0),
        # so it is free, and its gradient fails the first-order test.
        force = PiecewiseLinear([(-1.0, 0.0), (-0.5, 0.0), (0.0, -100.0)])
        p = ModelParams(L=1.0, n_gaps=2, force=force)
        config = Configuration([0.0, -0.5, -1.0])
        np.testing.assert_array_equal(energy_gradient(config, p), [96.0, 0.0, 4.0])
        assert not local_minimality_certificate(config, p)

    def test_single_gap_with_both_ends_held(self):
        p = ModelParams(L=1.0, n_gaps=1, force=Constant(0.0))
        assert local_minimality_certificate(Configuration([0.0, -1.0]), p)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3000),
        log_length=st.floats(-3.0, 3.0),
        ratio=st.floats(0.0, 3.0),
    )
    def test_certifies_shooting_solutions(self, n, log_length, ratio):
        hypothesis.assume(abs(ratio - 1.0) > 1e-6)
        L = 10.0 ** log_length
        p = ModelParams(L=L, n_gaps=n, force=Constant(ratio * critical_force_exact(n, L)))
        assert local_minimality_certificate(solve_fixed_point(p).config, p)

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_certifies_a_large_shooting_solution(self, ratio):
        n = 10 ** 5
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(ratio * critical_force_exact(n, 1.0)))
        sol = solve_fixed_point(p)
        t0 = time.perf_counter()
        assert local_minimality_certificate(sol.config, p)
        assert time.perf_counter() - t0 < 2.0

    def test_agrees_with_the_coordinate_check_on_every_tent_descent(self, monkeypatch):
        # Every descent, not only the deduplicated survivors: 4 sizes x 5
        # couplings x 6 seeds x 8 starts.
        descents = []

        def recording_minimize(params, start, settings=None):
            result = minimize(params, start, settings)
            descents.append((params, settings, result))
            return result

        monkeypatch.setattr(minimizer, "minimize", recording_minimize)
        for n in (15, 21, 31, 51):
            for c in (2.0, 4.0, 8.0, 16.0, 32.0):
                params = nonuniqueness_params(1.0, 2.0, c, n)
                for seed in range(6):
                    multi_start_fixed_points(params, 8, default_settings(params, seed))
        assert len(descents) == 960
        for params, settings, result in descents:
            new = local_minimality_certificate(result.config, params, 10.0 * settings.grad_tol)
            assert new == coordinate_certificate(result.config, params)


class TestNonuniquenessProfile:
    def test_shape_and_translation(self):
        prof = nonuniqueness_params(1.0, 2.0, 1.0, 1).profile  # coupling c * N = 1
        assert prof.force_at(-1.0) == pytest.approx(1.0)  # peak
        assert prof.force_at(-2.0) == pytest.approx(-3.0)  # a - 2b
        assert prof.force_at(0.0) == pytest.approx(-1.0)  # -a
        assert prof.force_at(-0.5) == pytest.approx(0.0)  # right-branch zero

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nonuniqueness_params(2.0, 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            nonuniqueness_params(-1.0, 2.0, 1.0, 5)

    def test_params_builder_scales_by_c_times_n(self):
        p = nonuniqueness_params(1.0, 2.0, 4.0, 25)
        assert p.L == 2.0
        assert p.profile.force_at(-1.0) == pytest.approx(4.0 * 25)


class TestMultiStart:
    def test_monotone_profile_yields_single_minimum(self):
        p = ModelParams(L=1.0, n_gaps=16, force=Constant(40.0))
        results = multi_start_fixed_points(p, 6)
        assert len(results) == 1

    def test_tent_profile_yields_several_minima(self):
        params = nonuniqueness_params(1.0, 2.0, 8.0, 21)
        results = multi_start_fixed_points(params, 6)
        assert len(results) >= 2
        for r in results:
            assert local_minimality_certificate(r.config, params)

    def test_distinct_minima_have_distinct_energies_or_positions(self):
        params = nonuniqueness_params(1.0, 2.0, 8.0, 21)
        results = multi_start_fixed_points(params, 6)
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                gap = np.max(
                    np.abs(results[i].config.positions - results[j].config.positions)
                )
                assert gap > 1e-3 * 2.0 / 21

    def test_deterministic_given_seed(self):
        params = nonuniqueness_params(1.0, 2.0, 8.0, 15)
        a = multi_start_fixed_points(params, 5)
        b = multi_start_fixed_points(params, 5)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.config.positions, rb.config.positions)
