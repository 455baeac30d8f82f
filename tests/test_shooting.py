"""Shooting recursion, the fixed-point root-find and the wall-departure force."""

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from coulomb_chain import (
    Classification,
    Constant,
    DegenerateConfigurationError,
    ModelParams,
    MonotonicityViolation,
    NoConvergence,
    PiecewiseLinear,
    aux_model_gaps,
    critical_force_exact,
    residuals,
    shoot,
    solve_fixed_point,
)
from coulomb_chain import shooting
from reference import (
    bisect_fixed_point,
    gaps_constant_force,
    min_on,
    non_increasing_on,
    shoot_piecewise,
    wall_force,
)

EPS = np.finfo(float).eps


def params(n, L=1.0, force=None):
    return ModelParams(L=L, n_gaps=n, force=force if force is not None else Constant(0.0))


def flat(F, L=1.0):
    """Constant force F written as a piecewise profile, which Brent solves."""
    return PiecewiseLinear([(-L, F), (0.0, F)])


def random_monotone_piecewise(rng, L, scale):
    k = int(rng.integers(2, 7))
    xs = np.concatenate(([-L], np.sort(rng.uniform(-L, 0.0, size=k - 2)), [0.0]))
    xs = np.unique(xs)
    vals = np.cumsum(rng.uniform(0.0, scale, size=xs.size))[::-1].copy()
    return PiecewiseLinear(list(zip(xs.tolist(), vals.tolist())))


class TestShoot:
    def test_uniform_gap_no_force_hits_wall_exactly(self):
        p = params(4, force=flat(0.0))
        out = shoot(0.25, p)
        assert out.complete
        assert out.x_terminal == -1.0
        np.testing.assert_allclose(out.config.gaps, 0.25)

    def test_two_step_constant_recursion(self):
        p = params(2, force=flat(1.0))
        out = shoot(2.0 ** -0.5, p)
        assert out.complete
        assert out.config.pressures[0] == pytest.approx(2.0, rel=1e-14)
        assert out.terminal_slack == pytest.approx(0.0, abs=1e-14)  # f_2 = 1 = F
        assert out.config.gaps[1] == pytest.approx(1.0, rel=1e-14)
        assert out.x_terminal == pytest.approx(-(2.0 ** -0.5 + 1.0), rel=1e-14)

    def test_collapse_at_the_constant_force_bound(self):
        n, F = 6, 2.0
        p = params(n, force=flat(F))
        out = shoot(((n - 1) * F) ** -0.5, p)
        assert not out.complete
        assert (out.positions, out.terminal_slack) == (None, None)
        # the first n - 1 gaps of the same shot stand: it collapses at gap n
        assert shoot(((n - 1) * F) ** -0.5, params(n - 1, force=flat(F))).complete
        # even larger first gap collapses no later
        assert not shoot(2.0 * ((n - 1) * F) ** -0.5, p).complete

    def test_collapse_reports_smallest_index_piecewise(self):
        f = PiecewiseLinear([(-1.0, 5.0), (0.0, 5.0)])
        p = params(5, force=f)
        out = shoot(1.0, p)
        assert not out.complete
        # f_2 = 1 - 5 < 0 immediately: the one-gap shot completes, the
        # two-gap shot collapses at gap 2
        assert shoot(1.0, params(1, force=f)).complete
        assert not shoot(1.0, params(2, force=f)).complete

    def test_constant_profile_is_not_shot(self):
        # constant force is solved in closed form; Brent shoots a flat profile
        with pytest.raises(TypeError):
            shoot(0.1, params(3, force=Constant(1.0)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(n=st.integers(1, 3000), data=st.data())
    def test_piecewise_shot_is_bitwise_the_reference(self, n, data):
        # Breakpoints on a grid, the first at or left of the wall, so shots
        # cross segments and may run onto the flat extension; the force may
        # rise or go negative, and large forces collapse the shot.
        grid = st.integers(-999, -1).map(lambda k: k / 1000)
        first = data.draw(st.integers(-1500, -1000)) / 1000
        xs = sorted({first, *data.draw(st.lists(grid, max_size=4)), 0.0})
        scale = n * 10.0 ** data.draw(st.floats(-1.0, 1.5))
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(xs), max_size=len(xs)))
        profile = PiecewiseLinear([(x, v * scale) for x, v in zip(xs, values)])
        d1 = data.draw(st.floats(0.3, 1.5)) / n
        out, ref = shoot(d1, params(n, force=profile)), shoot_piecewise(d1, profile, n)
        assert out.complete == ref.complete
        if ref.complete:
            assert out.positions.tobytes() == ref.positions.tobytes()
            assert out.terminal_slack == ref.terminal_slack

    def test_rejects_nonpositive_first_gap(self):
        with pytest.raises(ValueError):
            shoot(0.0, params(3))
        with pytest.raises(ValueError):
            shoot(-0.1, params(3))

    @pytest.mark.parametrize("case", range(6))
    def test_monotone_in_first_gap(self, case):
        rng = np.random.default_rng(100 + case)
        n, L = 30, 1.0
        if case % 2 == 0:
            force = flat(float(rng.uniform(0.0, 2.0 * n)), L)
        else:
            force = random_monotone_piecewise(rng, L, scale=float(n))
        p = params(n, L, force)
        d1 = float(rng.uniform(0.2, 0.8)) * L / n
        a, b = shoot(d1, p), shoot(1.2 * d1, p)
        assert a.complete and b.complete
        assert np.all(b.config.pressures < a.config.pressures)
        assert np.all(b.config.gaps > a.config.gaps)
        assert np.all(b.positions[1:] < a.positions[1:])

    def test_gaps_never_decrease_under_nonnegative_force(self):
        rng = np.random.default_rng(5)
        p = params(20, force=random_monotone_piecewise(rng, 1.0, 10.0))
        out = shoot(0.02, p)
        assert out.complete
        assert np.all(np.diff(out.config.gaps) >= 0.0)

    def test_strict_gap_growth_below_force_support(self):
        # force vanishes right of y = -0.3 and is positive left of it
        y = -0.3
        f = PiecewiseLinear([(-1.0, 8.0), (y - 0.01, 8.0), (y, 0.0), (0.0, 0.0)])
        p = params(12, force=f)
        sol = solve_fixed_point(p)
        gaps = sol.config.gaps
        pos = sol.config.positions
        assert np.all(np.diff(gaps) >= -1e-12 * np.max(gaps))
        # wherever the particle above the gap pair sits in the forced region,
        # the next gap is strictly wider
        for k in range(11):
            if pos[k + 1] < y - 0.01:
                assert gaps[k + 1] > gaps[k]


class TestSolveFixedPoint:
    def test_no_force_is_uniform_and_pinned(self):
        for n, L in [(1, 1.0), (7, 2.5), (50, 0.3)]:
            sol = solve_fixed_point(params(n, L))
            assert sol.classification is Classification.BOUNDARY_PINNED
            assert sol.config.positions[-1] == -L
            np.testing.assert_allclose(sol.config.gaps, L / n, rtol=1e-9)
            assert sol.terminal_slack >= 0.0

    def test_supercritical_matches_half_line_pressures(self):
        n, L = 40, 1.0
        F = 1.5 * critical_force_exact(n, L)
        sol = solve_fixed_point(params(n, L, Constant(F)))
        assert sol.classification is Classification.INTERIOR
        expected = F * np.arange(n, 0, -1, dtype=float)
        np.testing.assert_allclose(sol.config.pressures, expected, rtol=1e-8)
        assert sol.config.positions[-1] > -L

    def test_large_scaled_force_detaches_to_two_over_sqrt_c(self):
        c = 16.0
        n = 10 ** 4
        sol = solve_fixed_point(params(n, 1.0, Constant(c * n)))
        assert sol.classification is Classification.INTERIOR
        assert sol.config.positions[-1] == pytest.approx(-2.0 / np.sqrt(c), abs=0.01)

    def test_gap_growth_and_first_gap_bound_under_constant_force(self):
        n, L = 25, 1.0
        sol = solve_fixed_point(params(n, L, Constant(30.0)))
        gaps = sol.config.gaps
        assert np.all(np.diff(gaps) > 0.0)
        assert sol.delta1 < L / n

    def test_idempotent_reshoot(self):
        n, L = 35, 1.0
        sol = solve_fixed_point(params(n, L, Constant(50.0)))
        out = shoot(sol.delta1, params(n, L, flat(50.0, L)))
        # a pinned result is the re-shot chain stretched by 1 + O(tol_rel)
        np.testing.assert_allclose(
            out.positions[:-1], sol.config.positions[:-1],
            atol=10 * np.finfo(float).eps * n * L,
        )

    def test_matches_closed_form_gaps(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            F = float(rng.uniform(0.0, 4.0 * n))
            p = params(n, 1.0, Constant(F))
            sol = solve_fixed_point(p)
            np.testing.assert_allclose(
                gaps_constant_force(sol.delta1, F, n)[:-1],
                sol.config.gaps[:-1],
                rtol=1e-10,
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_piecewise_profiles_solve_cleanly(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, L = 200, 1.0
        p = params(n, L, random_monotone_piecewise(rng, L, scale=3.0 * n))
        sol = solve_fixed_point(p)
        scale = (n / L) ** 2
        assert sol.max_residual <= 1e-9 * scale
        if sol.classification is Classification.BOUNDARY_PINNED:
            assert sol.config.positions[-1] == -L
            assert sol.terminal_slack >= -1e-9 * scale
        else:
            assert sol.config.positions[-1] > -L

    def test_rejects_increasing_profile(self):
        f = PiecewiseLinear([(-1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(MonotonicityViolation):
            solve_fixed_point(params(5, force=f))

    def test_rejects_negative_profile(self):
        f = PiecewiseLinear([(-1.0, 1.0), (0.0, -0.5)])
        with pytest.raises(MonotonicityViolation):
            solve_fixed_point(params(5, force=f))

    @pytest.mark.parametrize("points", [
        [(-1.0, 1.0), (-0.5, 3.0), (0.0, 0.0)],
        [(-1.0, 2.0), (-0.5, -1.0), (0.0, 1.0)],
    ], ids=["rise-then-fall", "valley-below-zero"])
    def test_rejects_inadmissible_profile(self, points):
        with pytest.raises(MonotonicityViolation):
            solve_fixed_point(params(5, force=PiecewiseLinear(points)))

    @pytest.mark.parametrize("force", [Constant(1.0), flat(1.0)], ids=["constant", "piecewise"])
    def test_tiny_segment_is_degenerate_on_both_routes(self, force):
        # (N/L)**2 overflows: every chain has a gap too small for a finite pressure
        with pytest.raises(DegenerateConfigurationError):
            solve_fixed_point(params(10, L=1e-160, force=force))

    def test_iteration_budget_enforced(self, monkeypatch):
        # At F = 0 the terminal function is linear in the first gap and the
        # search needs only a handful of shots; constant force is nonlinear.
        p = params(35, force=flat(50.0))
        root = solve_fixed_point(p).delta1
        monkeypatch.setattr(shooting, "MAX_ITER", 5)
        with pytest.raises(NoConvergence) as info:
            solve_fixed_point(p)
        assert info.value.iterations == 5
        lo, hi = info.value.bracket
        assert lo <= root <= hi
        assert hi - lo > 1e-14 * hi

    @pytest.mark.parametrize(
        "profile",
        [
            lambda fcr: flat(0.5 * fcr),
            lambda fcr: flat(2.0 * fcr),
            lambda fcr: PiecewiseLinear([(-1.0, 0.8 * fcr), (-0.5, 0.6 * fcr), (0.0, 0.3 * fcr)]),
            lambda fcr: PiecewiseLinear([(-1.0, 2.5 * fcr), (-0.3, 1.6 * fcr), (0.0, 1.2 * fcr)]),
        ],
        ids=["constant-pinned", "constant-interior", "piecewise-pinned", "piecewise-interior"],
    )
    def test_root_find_beats_bisection_on_shots(self, profile):
        # Bisection needs 49-55 shots here; a silent fall back to it fails.
        n = 10 ** 4
        p = params(n, force=profile(critical_force_exact(n, 1.0)))
        sol = solve_fixed_point(p)
        assert sol.iterations <= 25
        assert sol.classification is bisect_fixed_point(p).classification

    @pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_pinned_residual_at_the_rounding_floor(self, n, ratio):
        # Positions summed from gaps carry about N eps L of rounding; the
        # pinned chain must not concentrate it in the last gap.
        sol = solve_fixed_point(params(n, force=Constant(ratio * critical_force_exact(n, 1.0))))
        assert sol.classification is Classification.BOUNDARY_PINNED
        assert sol.config.positions[-1] == -1.0
        assert sol.max_residual / n ** 2 <= 4 * n * EPS

    def test_default_tolerance_resolves_interior_positions_at_large_n(self):
        n = 10 ** 5
        F = 2.0 * critical_force_exact(n, 1.0)
        sol = solve_fixed_point(params(n, force=Constant(F)))
        exact = -np.concatenate(([0.0], np.cumsum(aux_model_gaps(F, n))))
        assert sol.classification is Classification.INTERIOR
        assert np.max(np.abs(sol.config.positions - exact)) <= 1e-7 / n

    def test_residuals_recompute_to_reported_value(self):
        p = params(64, 1.0, Constant(100.0))
        sol = solve_fixed_point(p)
        res = residuals(sol.config, p)
        assert np.max(np.abs(res.interior)) == sol.max_residual


class TestLengthSymmetry:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3000),
        log_length=st.floats(-3.0, 3.0),
        log_lam=st.floats(-3.0, 3.0),
        ratio=st.floats(0.0, 3.0).filter(lambda r: abs(r - 1.0) > 1e-6),
    )
    def test_stretching_the_segment_rescales_the_solution(self, n, log_length, log_lam, ratio):
        # x -> lam x with F -> F / lam**2 maps fixed points onto fixed points.
        L, lam = 10.0 ** log_length, 10.0 ** log_lam
        F = ratio * critical_force_exact(n, L)
        sol = solve_fixed_point(params(n, L, Constant(F)))
        stretched = solve_fixed_point(params(n, lam * L, Constant(F / lam ** 2)))
        gap = np.max(np.abs(stretched.config.positions / lam - sol.config.positions))
        assert gap <= 1e-8 * L / n
        assert stretched.classification is sol.classification

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3000),
        log_length=st.floats(-3.0, 3.0),
        log_lam=st.floats(-3.0, 3.0),
        data=st.data(),
    )
    def test_stretching_rescales_a_piecewise_solution(self, n, log_length, log_lam, data):
        # Breakpoints x lam and values / lam**2, all pinned or all interior:
        # every value in [0.2, 0.9] F_cr or every value in [1.2, 4] F_cr.
        L, lam = 10.0 ** log_length, 10.0 ** log_lam
        fcr = critical_force_exact(n, L)
        lo, hi = data.draw(st.sampled_from([(0.2, 0.9), (1.2, 4.0)]))
        k = data.draw(st.integers(3, 4))
        inner = data.draw(st.lists(st.floats(0.01, 0.99), min_size=k - 2, max_size=k - 2, unique=True))
        ratios = data.draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))
        xs = [-L, *sorted(-L * u for u in inner), 0.0]
        points = list(zip(xs, sorted((r * fcr for r in ratios), reverse=True)))
        sol = solve_fixed_point(params(n, L, PiecewiseLinear(points)))
        stretched_force = PiecewiseLinear([(lam * x, v / lam ** 2) for x, v in points])
        stretched = solve_fixed_point(params(n, lam * L, stretched_force))
        gap = np.max(np.abs(stretched.config.positions / lam - sol.config.positions))
        assert gap <= 1e-8 * L / n
        assert stretched.classification is sol.classification


class TestConstantRoute:
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 2000),
        log_length=st.floats(-3.0, 3.0),
        ratio=st.floats(0.0, 4.0).filter(lambda r: abs(r - 1.0) > 1e-6),
    )
    def test_agrees_with_brent_on_the_flat_profile(self, n, log_length, ratio):
        # The flat profile's shot runs the same recursion one particle at a
        # time; the band around r = 1 is where the two labels may differ.
        L = 10.0 ** log_length
        F = ratio * critical_force_exact(n, L)
        sol = solve_fixed_point(params(n, L, Constant(F)))
        brent = solve_fixed_point(params(n, L, flat(F, L)))
        assert sol.classification is brent.classification
        gap = np.max(np.abs(sol.config.positions - brent.config.positions))
        assert gap <= 1e-8 * L / n

    def test_zero_force_is_the_uniform_chain(self):
        n, L = 10 ** 6, 1.0
        sol = solve_fixed_point(params(n, L, Constant(0.0)))
        assert sol.iterations == 0
        assert sol.classification is Classification.BOUNDARY_PINNED
        assert sol.config.positions[-1] == -L
        np.testing.assert_allclose(sol.config.gaps, L / n, rtol=n * EPS, atol=0.0)

    @pytest.mark.parametrize("ratio", [1.5, 4.0])
    def test_interior_chain_is_the_summed_half_line_gaps(self, ratio):
        n, L = 1000, 0.3
        F = ratio * critical_force_exact(n, L)
        sol = solve_fixed_point(params(n, L, Constant(F)))
        assert sol.classification is Classification.INTERIOR
        assert sol.iterations == 0
        exact = -np.cumsum(aux_model_gaps(F, n))
        assert sol.config.positions[1:].tobytes() == exact.tobytes()

    @pytest.mark.parametrize("n", [1, 100, 10 ** 6])
    def test_the_critical_force_itself_is_pinned(self, n):
        L = 1.0
        fcr = critical_force_exact(n, L)
        tie = solve_fixed_point(params(n, L, Constant(fcr)))
        assert tie.classification is Classification.BOUNDARY_PINNED
        assert tie.config.positions[-1] == -L
        above = solve_fixed_point(params(n, L, Constant(np.nextafter(fcr, np.inf))))
        assert above.classification is Classification.INTERIOR
        assert above.config.positions[-1] > -L
        assert above.iterations == 0


@st.composite
def covering_profiles(draw):
    """(L, profile) with breakpoints inside and beyond [-L, 0], flat segments
    and values at or a rounding step away from zero.

    Breakpoints lie on a 1e-3 L grid or a rounding step from -L and 0, so
    no segment is narrow enough (below |dv| / 1.8e308) to overflow its slope.
    """
    L = 10.0 ** draw(st.floats(-3.0, 3.0))
    grid = st.integers(-3000, 1000).map(lambda k: k / 1000)
    near = st.sampled_from([-1.0, 0.0, -1.0 + 1e-15, -1.0 - 1e-15, 1e-15, -1e-15])
    first = draw(st.one_of(grid.filter(lambda u: u <= -1.0), near.filter(lambda u: u <= -1.0)))
    last = draw(st.one_of(grid.filter(lambda u: u >= 0.0), near.filter(lambda u: u >= 0.0)))
    inner = draw(st.lists(st.one_of(grid, near), max_size=4))
    xs = sorted({L * u for u in (first, last, *inner)})
    scale = draw(st.sampled_from([1.0, 30.0])) / L ** 2
    value = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-17, -1e-17]))
    values = [draw(value) * scale]
    for _ in xs[1:]:
        values.append(values[-1] if draw(st.booleans()) else draw(value) * scale)
    return L, PiecewiseLinear(list(zip(xs, values)))


class TestAdmissibility:
    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(covering_profiles())
    # Falling to 0 just right of -L, where interpolation puts F(-L) at -1.1e-16.
    @hypothesis.example((
        0.18402951039973356,
        PiecewiseLinear([(-2.830807636703697, 0.6836001460975384),
                         (-0.18402951039973342, 0.0), (0.0, 0.0)]),
    ))
    def test_rejected_exactly_when_the_earlier_rule_rejects(self, case):
        L, f = case
        rejected = not non_increasing_on(f, -L, 0.0) or min_on(f, -L, 0.0) < 0.0
        try:
            solve_fixed_point(params(3, L, f))
        except MonotonicityViolation:
            assert rejected
        else:
            assert not rejected


@st.composite
def monotone_profiles(draw, fcr, L):
    """Constant r F_cr away from r = 1, or a 3-4 node non-increasing profile."""
    if draw(st.booleans()):
        ratio = draw(st.floats(0.0, 3.0).filter(lambda r: abs(r - 1.0) > 1e-6))
        return Constant(ratio * fcr)
    k = draw(st.integers(3, 4))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=k - 2, max_size=k - 2, unique=True))
    ratios = draw(
        st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k).filter(
            lambda rs: any(abs(r - 1.0) > 1e-6 for r in rs)
        )
    )
    xs = [-L, *sorted(-L * u for u in inner), 0.0]
    return PiecewiseLinear(list(zip(xs, sorted((r * fcr for r in ratios), reverse=True))))


class TestAgainstBisection:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(n=st.integers(1, 3000), log_length=st.floats(-3.0, 3.0), data=st.data())
    def test_root_find_matches_the_bisection_reference(self, n, log_length, data):
        L = 10.0 ** log_length
        force = data.draw(monotone_profiles(critical_force_exact(n, L), L))
        p = params(n, L, force)
        sol, ref = solve_fixed_point(p), bisect_fixed_point(p)
        assert sol.classification is ref.classification
        # Both stop at a first-gap bracket of 1e-14 (relative); that moves
        # x_N by at most ~1.3 N**1.5 * 1e-14 mean gaps (2e-9 at N = 3000).
        gap = np.max(np.abs(sol.config.positions - ref.config.positions))
        assert gap <= 1e-8 * L / n


class TestWallForce:
    def test_single_gap_value(self):
        got = wall_force(params(1, 1.0, Constant(1.0)))
        assert got == pytest.approx(1.0, rel=1e-8)

    def test_matches_exact_sum_formula(self):
        p = params(100, 1.0, Constant(1.0))
        got = wall_force(p, tol_rel=1e-9)
        assert got == pytest.approx(critical_force_exact(100, 1.0), rel=1e-6)

    def test_length_scaling(self):
        base = wall_force(params(20, 1.0, Constant(1.0)), tol_rel=1e-10)
        scaled = wall_force(params(20, 2.0, Constant(1.0)), tol_rel=1e-10)
        assert scaled == pytest.approx(base / 4.0, rel=1e-7)

    def test_classification_flips_across_threshold(self):
        n, L = 30, 1.0
        fstar = wall_force(params(n, L, Constant(1.0)), tol_rel=1e-10)
        below = solve_fixed_point(params(n, L, Constant(fstar * (1 - 1e-6))))
        above = solve_fixed_point(params(n, L, Constant(fstar * (1 + 1e-6))))
        assert below.classification is Classification.BOUNDARY_PINNED
        assert above.classification is Classification.INTERIOR

    def test_requires_constant_profile(self):
        f = PiecewiseLinear([(-1.0, 1.0), (0.0, 0.0)])
        with pytest.raises(TypeError):
            wall_force(params(5, force=f))
