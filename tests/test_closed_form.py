"""Closed-form gap sequences, critical force and asymptotic densities."""

import math
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from coulomb_chain import (
    Constant,
    ModelParams,
    Phase,
    asymptotic_density,
    aux_model_gaps,
    c_critical,
    PiecewiseLinear,
    critical_force_exact,
    residuals,
    shifted_inverse_sqrt_sum,
    shoot,
)
from coulomb_chain.model import Configuration
from reference import (
    PositivityError,
    aux_model_extent,
    gaps_constant_force,
    inverse_sqrt_sum,
    phase2_scaling_factor,
    phase_density,
)

EPS = np.finfo(float).eps


class TestGapsConstantForce:
    def test_zero_force_collapses_to_constant(self):
        np.testing.assert_allclose(gaps_constant_force(0.3, 0.0, 10), 0.3)

    def test_second_gap_hand_value(self):
        F = 2.5
        d = gaps_constant_force((2 * F) ** -0.5, F, 2)
        assert d[1] == pytest.approx(F ** -0.5, rel=1e-14)

    def test_strictly_increasing_for_positive_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            F = float(rng.uniform(0.1, 5.0))
            d1 = float(rng.uniform(0.2, 0.95)) * ((n - 1) * F) ** -0.5
            gaps = gaps_constant_force(d1, F, n)
            assert np.all(np.diff(gaps) > 0.0)

    def test_positivity_error_names_first_bad_index(self):
        F = 1.0
        with pytest.raises(PositivityError) as err:
            gaps_constant_force(1.0, F, 5)  # 1 - (k-1) fails first at k = 2
        assert err.value.index == 2

    def test_agrees_with_shoot_recursion(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 100))
            F = float(rng.uniform(0.0, 3.0))
            d1 = float(rng.uniform(0.1, 0.9)) * (
                ((n - 1) * F) ** -0.5 if F > 0 else 1.0
            )
            flat = PiecewiseLinear([(-1000.0, F), (0.0, F)])
            out = shoot(d1, ModelParams(L=1000.0, n_gaps=n, force=flat))
            assert out.complete
            np.testing.assert_allclose(
                gaps_constant_force(d1, F, n), out.config.gaps, rtol=1e-10
            )


class TestAuxiliaryModel:
    def test_single_gap(self):
        np.testing.assert_allclose(aux_model_gaps(4.0, 1), [0.5])

    def test_two_gaps(self):
        np.testing.assert_allclose(aux_model_gaps(1.0, 2), [2 ** -0.5, 1.0])

    def test_extent_formula(self):
        F, n = 3.0, 50
        assert aux_model_extent(F, n) == pytest.approx(
            float(np.sum(aux_model_gaps(F, n))), rel=1e-12
        )

    def test_interior_residuals_vanish(self):
        F, n = 2.0, 30
        gaps = aux_model_gaps(F, n)
        config = Configuration(np.concatenate(([0.0], -np.cumsum(gaps))))
        p = ModelParams(L=100.0, n_gaps=n, force=Constant(F))
        res = residuals(config, p)
        assert np.max(np.abs(res.interior)) <= 1e-12 * n * F
        assert abs(res.terminal_slack) <= 1e-12 * F

    def test_large_n_extent_near_two_over_sqrt_c(self):
        c, n = 16.0, 10 ** 4
        extent = aux_model_extent(c * n, n)
        assert 0.49 < extent < 0.51

    def test_rejects_nonpositive_force(self):
        with pytest.raises(ValueError):
            aux_model_gaps(0.0, 3)

    @pytest.mark.parametrize("u", [1.0, 1.5, 40.0])
    def test_terminal_pressure_u_f_gives_a_pinned_fixed_point(self, u):
        F, n = 2.0, 30
        gaps = aux_model_gaps(F, n, u)
        np.testing.assert_allclose(gaps ** -2.0, F * (u + np.arange(n - 1, -1, -1)), rtol=1e-14)
        config = Configuration(np.concatenate(([0.0], -np.cumsum(gaps))))
        L = -float(config.positions[-1])
        res = residuals(config, ModelParams(L=L, n_gaps=n, force=Constant(F)))
        assert np.max(np.abs(res.interior)) <= 1e-12 * (u + n) * F
        assert res.terminal_slack == pytest.approx((u - 1.0) * F, abs=1e-12 * (u + n) * F)


class TestCriticalForce:
    def test_single_gap(self):
        assert critical_force_exact(1, 1.0) == pytest.approx(1.0)

    def test_two_gaps_hand_value(self):
        assert critical_force_exact(2, 1.0) == pytest.approx((1 + 2 ** -0.5) ** 2, rel=1e-14)

    def test_length_scaling_is_exact(self):
        assert critical_force_exact(100, 2.0) == critical_force_exact(100, 1.0) / 4.0
        for L in (0.5, 3.0, 7.7):
            assert critical_force_exact(64, L) * L * L == pytest.approx(
                critical_force_exact(64, 1.0), rel=1e-14
            )

    def test_coefficient(self):
        assert c_critical(1.0) == 4.0
        assert c_critical(2.0) == 1.0

    def test_ratio_approaches_coefficient_from_below(self):
        prev = 0.0
        for n in (100, 1000, 10000):
            ratio = critical_force_exact(n, 1.0) / n
            assert prev < ratio < 4.0
            assert abs(ratio - 4.0) < 2 * 1.4604 * 2 / math.sqrt(n)
            prev = ratio

    def test_inverse_sqrt_sum_expansion(self):
        # 2 sqrt(n) + zeta(1/2) + 1/(2 sqrt(n)) + O(n^-3/2)
        zeta_half = -1.4603545088095868
        for n in (10 ** 3, 10 ** 5):
            approx = 2 * math.sqrt(n) + zeta_half + 0.5 / math.sqrt(n)
            assert inverse_sqrt_sum(n) == pytest.approx(approx, abs=1e-4)


class TestShiftedInverseSqrtSum:
    @pytest.mark.parametrize("u", [1.0, 1.0 + 1e-12, 1.5, 1e3, 1e9, 1e15])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 10 ** 3, 10 ** 7])
    def test_matches_the_hurwitz_zeta_difference(self, n, u):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            mu = mpmath.mpf(u)
            exact = mpmath.zeta(0.5, mu) - mpmath.zeta(0.5, mu + n)
            error = abs((mpmath.mpf(shifted_inverse_sqrt_sum(u, n)) - exact) / exact)
        assert error <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 2, 17, 1000, 10 ** 5])
    def test_critical_force_matches_the_direct_sum(self, n):
        assert critical_force_exact(n, 1.0) == pytest.approx(inverse_sqrt_sum(n) ** 2, rel=1e-13)


class TestScalingFactor:
    def test_exact_rational_values(self):
        # the normalization is algebraically b = 4 / (4 + c L**2)
        assert phase2_scaling_factor(4.0, 1.0) == pytest.approx(0.5, abs=1e-9)
        assert phase2_scaling_factor(2.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_matches_algebraic_solution(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            L = float(rng.uniform(0.4, 3.0))
            c = float(rng.uniform(0.01, 1.0)) * c_critical(L)
            assert phase2_scaling_factor(c, L) == pytest.approx(
                4.0 / (4.0 + c * L * L), abs=1e-9
            )

    def test_weak_coupling_limit(self):
        assert phase2_scaling_factor(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            phase2_scaling_factor(0.0, 1.0)
        with pytest.raises(ValueError):
            phase2_scaling_factor(4.5, 1.0)


class TestAsymptoticDensity:
    def test_sublinear_scaling_is_uniform(self):
        dens = asymptotic_density(3.0, 0.5, 1.0)
        assert dens.phase is Phase.UNIFORM
        xs = np.linspace(-1.0, 0.0, 11)
        np.testing.assert_allclose(dens.density(xs), 1.0)
        total, _ = quad(dens.density, -1.0, 0.0)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_pinned_linear_profile(self):
        L, c = 1.0, 2.0
        dens = asymptotic_density(c, 1.0, L)
        assert dens.phase is Phase.SMOOTH_POSITIVE
        total, _ = quad(dens.density, -L, 0.0)
        assert total == pytest.approx(1.0, abs=1e-10)
        xs = np.linspace(-L + 1e-9, 0.0, 1000)
        assert np.all(dens.density(xs) > 0.0)
        assert dens.density(-L) == pytest.approx((4 - c * L * L) / (4 * L), abs=1e-9)

    def test_critical_coupling_still_smooth(self):
        dens = asymptotic_density(4.0, 1.0, 1.0)
        assert dens.phase is Phase.SMOOTH_POSITIVE
        assert 1.0 / dens.rho0 == pytest.approx(0.5, abs=1e-9)  # b = 1/(L rho0) at L = 1
        assert dens.density(-1.0) == pytest.approx(0.0, abs=1e-8)

    def test_detached_profile(self):
        dens = asymptotic_density(16.0, 1.0, 1.0)
        assert dens.phase is Phase.DETACHED
        assert dens.support_left == pytest.approx(-0.5)
        assert dens.density(0.0) == pytest.approx(4.0)
        assert dens.density(-0.5) == pytest.approx(0.0, abs=1e-12)
        assert dens.density(-0.7) == 0.0
        total, _ = quad(dens.density, -1.0, 0.0, points=[-0.5])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_steep_line_far_off_its_support_does_not_overflow(self):
        dens = asymptotic_density(1e300, 1.0, 1e10)  # slope * -L would be -5e309
        with np.errstate(all="raise"):
            rho = dens.density(np.linspace(-1e10, 0.0, 5))
        np.testing.assert_array_equal(rho, [0.0, 0.0, 0.0, 0.0, 1e150])

    def test_point_mass_phase(self):
        dens = asymptotic_density(2.0, 2.0, 1.0)
        assert dens.phase is Phase.DELTA_AT_ORIGIN
        with pytest.raises(ValueError):
            dens.density(0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            asymptotic_density(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            asymptotic_density(1.0, -2.0, 1.0)

    def test_smallest_coefficient_is_pinned_though_its_slope_rounds_to_zero(self):
        dens = asymptotic_density(5e-324, 1.0, 1.0)
        assert dens.slope == 0.0
        assert dens.phase is Phase.SMOOTH_POSITIVE

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(
        log_L=st.floats(-3.0, 3.0),
        log_ratio=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),  # 0: c = 4/(L*L) exactly
        gamma=st.sampled_from([0.5, 1.0]),
    )
    def test_the_law_matches_the_per_phase_formulas(self, log_L, log_ratio, gamma):
        L = 10.0 ** log_L
        c = 10.0 ** log_ratio * (4.0 / (L * L))
        dens = asymptotic_density(c, gamma, L)
        phase, rho = phase_density(c, gamma, L)
        assert dens.phase is phase
        xs = np.concatenate([np.linspace(-1.25 * L, 0.25 * L, 61), [dens.support_left, 0.0]])
        assert np.max(np.abs(dens.density(xs) - rho(xs))) <= 4 * EPS * dens.rho0
        width = -Fraction(dens.support_left)  # the mass of the stored line, in exact arithmetic
        mass = width * Fraction(dens.rho0) - Fraction(dens.slope) * width * width / 2
        assert abs(mass - 1) <= 4 * EPS
        if phase is Phase.SMOOTH_POSITIVE:
            assert 1.0 / (L * dens.rho0) == pytest.approx(phase2_scaling_factor(c, L), abs=4 * EPS)


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan, 1e-155, 1e-170, 5e-324])
@pytest.mark.parametrize("closed_form", [
    lambda L: critical_force_exact(5, L),
    c_critical,
    lambda L: phase2_scaling_factor(1.0, L),
    lambda L: asymptotic_density(1.0, 1.0, L),
], ids=["critical_force_exact", "c_critical", "phase2_scaling_factor", "asymptotic_density"])
def test_a_length_outside_zero_to_inf_is_rejected(closed_form, L):
    message = f"segment length must be positive, got {L}"
    if 0.0 < L < math.inf:  # a float, but 4/L**2 overflows
        message = f"segment length too short for a finite critical force, got {L}"
    with pytest.raises(ValueError, match=message):
        closed_form(L)
