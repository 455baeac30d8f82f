"""Shooting recursion, the fixed-point root-find and the wall-departure force."""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from coulomb_chain import (
    Classification,
    Configuration,
    Constant,
    DegenerateConfigurationError,
    ModelParams,
    MonotonicityViolation,
    NoConvergence,
    PiecewiseLinear,
    Scaled,
    aux_model_gaps,
    c_critical,
    classify_phase,
    critical_force_exact,
    residuals,
    shoot,
    solve_fixed_point,
)
from coulomb_chain import shooting
from reference import (
    bisect_fixed_point,
    diagnostics_by_diff,
    gaps_constant_force,
    min_on,
    non_increasing_on,
    shoot_piecewise,
    shot_pieces,
    tangent_shot,
    wall_force,
)

EPS = np.finfo(float).eps


def params(n, L=1.0, force=None):
    return ModelParams(L=L, n_gaps=n, force=force if force is not None else Constant(0.0))


def flat(F, L=1.0):
    """Constant force F written as a piecewise profile, which the first-gap search solves."""
    return PiecewiseLinear([(-L, F), (0.0, F)])


# An ill-conditioned free end: Newton lands several straddle widths off the
# computed root, so the endgame gallops and bisects.
GALLOP = params(36_691, 42.4, PiecewiseLinear([(-42.4, 1161.0), (-23.8, 0.0), (0.0, 0.0)]))


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
        assert out.positions[-1] == -1.0
        np.testing.assert_allclose(Configuration(out.positions).gaps, 0.25)

    def test_two_step_constant_recursion(self):
        p = params(2, force=flat(1.0))
        out = shoot(2.0 ** -0.5, p)
        assert out.complete
        config = Configuration(out.positions)
        assert config.pressures[0] == pytest.approx(2.0, rel=1e-14)
        assert out.terminal_slack == pytest.approx(0.0, abs=1e-14)  # f_2 = 1 = F
        assert config.gaps[1] == pytest.approx(1.0, rel=1e-14)
        assert out.positions[-1] == pytest.approx(-(2.0 ** -0.5 + 1.0), rel=1e-14)

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
        # a first gap whose pressure underflows to 0 has collapsed already
        assert shoot(1e200, p) == (None, None)

    def test_a_first_gap_whose_pressure_overflows_is_rejected(self):
        # (1 / delta_1)**2 is inf below about 2**-512
        with pytest.raises(ValueError, match="too small for a finite pressure"):
            shoot(1e-200, params(3, force=flat(1.0)))

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
        # constant force is solved in closed form; the search shoots a flat profile
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

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3000), log_length=st.floats(-3.0, 3.0), ratio=st.floats(0.2, 1.2), data=st.data()
    )
    def test_lean_shot_is_the_shot_with_its_tangent(self, n, log_length, ratio, data):
        L = 10.0 ** log_length
        force = data.draw(monotone_profiles(critical_force_exact(n, L), L))
        if isinstance(force, Constant):  # the constant route takes no shot
            force = flat(force.value, L)
        p, d1 = params(n, L, force), ratio * L / n
        (tangent, dx, df), out = shooting._relaxed_shot(d1, p, None, np.empty(n + 1)), shoot(d1, p)
        assert tangent.complete is out.complete
        if not out.complete:
            return
        assert tangent.positions.tobytes() == out.positions.tobytes()
        assert bits(tangent.terminal_slack) == bits(out.terminal_slack)
        x = float(out.positions[-1])
        f = out.terminal_slack + force.force_at(x)
        # The tangent against a central difference of two recorded shots,
        # where both complete, no x_k crosses a breakpoint between them
        # (F' jumps there) and f_N keeps its sign well inside the step.
        step = 1e-6 * d1
        below, above = shoot(d1 - step, p), shoot(d1 + step, p)
        if not (below.complete and above.complete and step * abs(df) < 1e-4 * f):
            return
        inner = np.stack([below.positions[1:-1], above.positions[1:-1]])
        if np.any(np.prod(inner[:, :, None] - force.breakpoints, axis=0) <= 0.0):
            return
        x_below, x_above = float(below.positions[-1]), float(above.positions[-1])
        f_below = below.terminal_slack + force.force_at(x_below)
        f_above = above.terminal_slack + force.force_at(x_above)
        assert dx == pytest.approx((x_above - x_below) / (2.0 * step), rel=1e-6)
        assert df == pytest.approx((f_above - f_below) / (2.0 * step), rel=1e-6)

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
        a, b = Configuration(a.positions), Configuration(b.positions)
        assert np.all(b.pressures < a.pressures)
        assert np.all(b.gaps > a.gaps)
        assert np.all(b.positions[1:] < a.positions[1:])

    def test_gaps_never_decrease_under_nonnegative_force(self):
        rng = np.random.default_rng(5)
        p = params(20, force=random_monotone_piecewise(rng, 1.0, 10.0))
        out = shoot(0.02, p)
        assert out.complete
        assert np.all(np.diff(Configuration(out.positions).gaps) >= 0.0)

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


@st.composite
def monotone_pieces(draw, n, L):
    """A 2-6 node non-increasing profile with values in [0, 3 F_cr] over [-L, 0]."""
    fcr = critical_force_exact(n, L)
    k = draw(st.integers(2, 6))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=k - 2, max_size=k - 2, unique=True))
    xs = [-L, *sorted(-L * u for u in inner), 0.0]
    hypothesis.assume(all(a < b for a, b in zip(xs, xs[1:])))
    vs = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k)), reverse=True)
    return PiecewiseLinear([(x, fcr * v) for x, v in zip(xs, vs)])


class TestRelaxedShot:
    def test_accumulate_adds_left_to_right(self):
        # The relaxed shot is shoot's loop only if accumulate rounds after
        # each step in order: 15 half-ulps of 1.0 are each rounded away in
        # turn, while the pairwise sum of np.sum keeps some of them.
        halves = [1.0] + [2.0 ** -53] * 15
        assert np.cumsum(halves)[-1] == 1.0
        assert np.sum(halves) != 1.0
        assert np.subtract.accumulate([1.0] + [-(2.0 ** -53)] * 15)[-1] == 1.0

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        block=st.sampled_from([1, 2, 5, 64, 4096, 10 ** 6]),
        log_length=st.floats(-3.0, 3.0),
        ratio=st.floats(0.2, 1.5),
        data=st.data(),
    )
    def test_is_the_shot_bit_for_bit(self, block, log_length, ratio, data):
        # Blocks of one step and of more than N steps; with up to six nodes
        # and blocks of 64 or more, pieces change inside a block; forces up
        # to 3 F_cr at first gaps up to 1.5 L/N collapse many shots.
        sizes = st.one_of(st.integers(1, 20_000), st.integers(8_000, 20_000))
        n = data.draw(st.integers(1, 300) if block < 64 else sizes)
        L = 10.0 ** log_length
        p = params(n, L, data.draw(monotone_pieces(n, L)))
        d1 = ratio * L / n
        # seeds: the uniform chain over L or 2 L, a shot 1e-15 to 1e-3 off, or
        # none (each block guesses its own); a guess left of the chain reads
        # larger forces, so its pressures can reach zero where the shot's do not
        far = {"uniform": L, "stretched": 2.0 * L}
        offset = data.draw(st.one_of(st.none(), st.sampled_from(sorted(far)), st.floats(-15.0, -3.0)))
        seed = np.linspace(0.0, -far[offset], n + 1) if offset in far else None
        if isinstance(offset, float):
            near = d1 * (1.0 + data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** offset)
            seed = shoot_piecewise(near, p.profile, n).positions
            if seed is None:  # a collapsed shot leaves no chain: the far, uniform one
                seed = np.linspace(0.0, -L, n + 1)
        ref = shoot_piecewise(d1, p.profile, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shooting, "_BLOCK", block)
            out, _, _ = shooting._relaxed_shot(d1, p, seed)
        assert out.complete == ref.complete
        if ref.complete:
            assert out.positions.tobytes() == ref.positions.tobytes()
            assert bits(out.terminal_slack) == bits(ref.terminal_slack)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        block=st.sampled_from([1, 2, 5, 64, 4096, 10 ** 6]),
        log_length=st.floats(-3.0, 3.0),
        ratio=st.floats(0.2, 1.5),
        data=st.data(),
    )
    def test_tangent_is_the_scalar_tangent_bit_for_bit(self, block, log_length, ratio, data):
        # As above, with the seeds of Newton's shots: none (each block
        # guesses its own chain, and dx_a throughout), or a reference shot
        # 1e-15 to 1e-3 off with its tangent, its chain as it is or
        # corrected to first order.
        sizes = st.one_of(st.integers(1, 20_000), st.integers(8_000, 20_000))
        n = data.draw(st.integers(1, 300) if block < 64 else sizes)
        L = 10.0 ** log_length
        p = params(n, L, data.draw(monotone_pieces(n, L)))
        d1, seed, dx = ratio * L / n, None, np.empty(n + 1)
        offset = data.draw(st.one_of(st.none(), st.floats(-15.0, -3.0)))
        if offset is not None:  # a collapsed shot leaves no seed
            near = d1 * (1.0 + data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** offset)
            seed = shoot_piecewise(near, p.profile, n).positions
            shooting._relaxed_shot(near, p, None, dx)
            if seed is not None and data.draw(st.booleans()):
                seed += (d1 - near) * dx
        ref = tangent_shot(d1, n, shot_pieces(p.profile))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shooting, "_BLOCK", block)
            out, dx_n, df_n = shooting._relaxed_shot(d1, p, seed, dx)
        assert out.complete is (ref is not None)
        if ref is not None:
            assert_tangent_is(ref, out, dx_n, df_n, p.profile)

    def test_pieces_cross_inside_a_block_and_a_collapse_is_found(self):
        # The first block of 4,096 steps crosses the kink at -0.05, and the
        # shots 1 % and 20 % above the root collapse in a later block; each
        # is relaxed from the root's chain and from its own blocks' guesses,
        # and with its tangent from its own guesses and from the root's
        # chain and tangent, corrected to first order.
        n, L = 20_000, 1.0
        fcr = critical_force_exact(n, L)
        force = PiecewiseLinear([(-1.0, 3 * fcr), (-0.2, 2 * fcr), (-0.15, fcr), (-0.1, 0.5 * fcr),
                                 (-0.05, 0.2 * fcr), (0.0, 0.0)])
        p = params(n, L, force)
        root = solve_fixed_point(p).delta1
        seed, dx = shoot_piecewise(root, force, n).positions, np.empty(n + 1)
        shooting._relaxed_shot(root, p, None, dx)
        assert seed[4096] < -0.05 < seed[1]
        for d1 in (root * (1 + 1e-13), root * 1.01, root * 1.2):
            ref, lean = shoot_piecewise(d1, force, n), tangent_shot(d1, n, shot_pieces(force))
            shots = [shooting._relaxed_shot(d1, p, seed.copy()), shooting._relaxed_shot(d1, p),
                     shooting._relaxed_shot(d1, p, None, np.empty(n + 1)),
                     shooting._relaxed_shot(d1, p, seed + (d1 - root) * dx, dx.copy())]
            for out, dx_n, df_n in shots:
                assert out.complete == ref.complete
                if ref.complete:
                    assert out.positions.tobytes() == ref.positions.tobytes()
            assert (lean is not None) is ref.complete
            for out, dx_n, df_n in shots[2:] if ref.complete else []:
                assert_tangent_is(lean, out, dx_n, df_n, force)
        assert not shoot_piecewise(root * 1.01, force, n).complete
        assert not shoot_piecewise(root * 1.2, force, n).complete


def assert_tangent_is(lean, out, dx_n, df_n, profile):
    """A relaxed tangent shot has the scalar tangent shot's x_N, f_N, dx_N and df_N, hex for hex."""
    x, f, dx, df = lean
    assert float(out.positions[-1]).hex() == x.hex()
    assert out.terminal_slack.hex() == (f - profile.force_at(x)).hex()
    assert (dx_n.hex(), df_n.hex()) == (dx.hex(), df.hex())


class TestRelaxedSolve:
    @staticmethod
    def same_solve(p):
        """Assert that p solves to the same bits with the reference's shots; return the tangent-free ones' count."""
        relaxed, calls = solve_fixed_point(p), []

        def reference_shot(d1, model, seed=None, dx=None):
            # a tangent shot's chain is the reference's shot: the next seed
            out = shoot_piecewise(d1, model.profile, model.n_gaps)
            if dx is None:
                calls.append(d1)
                return out, math.nan, math.nan
            lean = tangent_shot(d1, model.n_gaps, shot_pieces(model.profile))
            if lean is None:
                return shooting.ShootingOutcome(None, None), math.nan, math.nan
            x, f, dx_n, df_n = lean
            return shooting.ShootingOutcome(out.positions, f - model.profile.force_at(x)), dx_n, df_n

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shooting, "_relaxed_shot", reference_shot)
            scalar = solve_fixed_point(p)
        assert relaxed.config.positions.tobytes() == scalar.config.positions.tobytes()
        assert relaxed.classification is scalar.classification
        assert relaxed.iterations == scalar.iterations
        assert bits(relaxed.max_residual) == bits(scalar.max_residual)
        assert bits(relaxed.terminal_slack) == bits(scalar.terminal_slack)
        return len(calls)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(n=st.integers(1, 20_000), log_length=st.floats(-3.0, 3.0), data=st.data())
    def test_same_solve_as_with_scalar_shots(self, n, log_length, data):
        L = 10.0 ** log_length
        relaxed = self.same_solve(params(n, L, data.draw(monotone_pieces(n, L))))
        hypothesis.event(f"tangent-free shots: {min(relaxed, 3)}{'+' if relaxed >= 3 else ''}")

    def test_gallop_and_bisection_endgame(self):
        assert self.same_solve(GALLOP) >= 10
        assert solve_fixed_point(GALLOP).iterations == 17  # as with scalar shots: a relaxed one adds none


@st.composite
def piecewise_params(draw):
    """A chain of N <= 2e4 under a ``monotone_pieces`` profile."""
    n, L = draw(st.integers(1, 20_000)), 10.0 ** draw(st.floats(-3.0, 3.0))
    return params(n, L, draw(monotone_pieces(n, L)))


def shot_log(patch):
    """Log in the returned list the first gap of every shot that solves under
    ``patch`` take, and check that the chain of the latest shot with h > 0,
    the one kept at the bracket's h > 0 end, is neither a later shot's seed
    nor written to."""
    relaxed, gaps, kept = shooting._relaxed_shot, [], None

    def spy(d1, model, seed=None, dx=None):
        nonlocal kept
        assert kept is None or (seed is not kept[0] and kept[0].tobytes() == kept[1])
        gaps.append(d1)
        out = relaxed(d1, model, seed, dx)
        positions, slack = out[0]
        L, n = model.L, model.n_gaps
        if positions is not None and min((positions[-1] + L) / L, slack / ((n / L) * (n / L))) > 0.0:
            kept = positions, positions.tobytes()
        return out

    patch.setattr(shooting, "_relaxed_shot", spy)
    return gaps


class TestEveryShotKeepsItsChain:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(p=piecewise_params())
    @hypothesis.example(p=GALLOP)
    @hypothesis.example(p=params(10, force=PiecewiseLinear([(-1.0, 1e200), (0.0, 0.0)])))
    @hypothesis.example(p=params(3, 1e100, PiecewiseLinear([(-1e100, 1.0), (0.0, 0.0)])))
    @hypothesis.example(p=params(2, force=PiecewiseLinear([(-1.0, 1e300), (-0.999, 0.0), (0.0, 0.0)])))
    @hypothesis.example(p=params(1000, force=PiecewiseLinear([(-1.0, 1900.0), (0.0, 0.0)])))
    def test_no_first_gap_is_shot_twice(self, p):
        # The ill-conditioned free end and the float-range edges, where the
        # search gallops or bisects, end on a bracket whose h > 0 end a
        # tangent-free shot set: its chain is the result, not shot again.
        # At N = 1000 under F_cr / 2 the first shot lands below the root and
        # the Newton step after it starts from that kept chain.
        with pytest.MonkeyPatch.context() as patch:
            gaps = shot_log(patch)
            sol = solve_fixed_point(p)
        assert len(set(gaps)) == len(gaps) == sol.iterations


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

    @pytest.mark.parametrize("L", [1e160, 1e200])
    @pytest.mark.parametrize("force", [Constant(0.0), flat(0.0, L=1e200)], ids=["constant", "piecewise"])
    def test_huge_segment_names_n_over_l(self, force, L):
        # (N/L)**2 is subnormal at L = 1e160 and zero at 1e200, so h would
        # lose digits or divide by zero, and a residual would check nothing
        with pytest.raises(ValueError, match=r"^N/L = "):
            solve_fixed_point(params(10, L=L, force=force))

    @pytest.mark.parametrize("r", [1e-15, 1e-12, 1e-10])
    @pytest.mark.parametrize("n", [10, 10 ** 5])
    def test_a_root_below_the_floor_names_it(self, n, r, monkeypatch):
        # F = 0: the root L/N lies just below the first-gap floor 1e-150 and
        # hi = L/N (1 + 1e-9) just above it, so every shot has h <= 0 and the
        # bracket closes on the floor with no chain at its h > 0 end
        L = n * 1e-150 / (1.0 + 1e-9) * (1.0 + r)
        gaps = shot_log(monkeypatch)
        with pytest.raises(ValueError, match=r"floor 1e-150$"):
            solve_fixed_point(params(n, L, flat(0.0, L)))
        assert len(gaps) <= 20

    def test_iteration_budget_enforced(self, monkeypatch):
        # Newton needs 3-5 shots on most profiles.  This root sits at the
        # edge of collapse, where the terminal function has no usable slope
        # and the search bisects for about 50 shots.
        p = params(10, force=PiecewiseLinear([(-1.0, 1e200), (0.0, 0.0)]))
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
    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5])
    def test_root_find_beats_bisection_on_shots(self, profile, n):
        # Bisection needs 49-55 shots here, Brent's zeroin from the rigorous
        # bracket alone 5-24 and from the continuum seed 3-7; a silent fall
        # back to any of them fails.  Each profile lies below F_cr on [-L, 0]
        # (pinned) or above it (interior), which by comparison with constant
        # force sets the label.
        fcr = critical_force_exact(n, 1.0)
        p = params(n, force=profile(fcr))
        sol = solve_fixed_point(p)
        assert sol.iterations <= 5
        pinned = bool(np.all(p.profile.values < fcr))
        assert pinned or np.all(p.profile.values > fcr)
        assert sol.classification is (
            Classification.BOUNDARY_PINNED if pinned else Classification.INTERIOR
        )

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


def bits(values):
    """The float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def writable_aliases(arr):
    """Arrays reachable from ``arr`` through ``base`` that can be written."""
    out = []
    while isinstance(arr, np.ndarray):
        out += [arr] if arr.flags.writeable else []
        arr = arr.base
    return out


class TestSameBits:
    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3000),
        log_length=st.floats(-3.0, 3.0),
        kind=st.sampled_from(["zero", "pinned", "interior", "piecewise"]),
        data=st.data(),
    )
    def test_solve_matches_the_earlier_formulas(self, n, log_length, kind, data):
        # gaps taken once, a scalar force and max(max r, -min r) must give
        # the bits of -np.diff, a force array and max |r|, signed zeros included
        L = 10.0 ** log_length
        f_cr = critical_force_exact(n, L)
        if kind == "zero":
            force = Constant(0.0)
        elif kind == "piecewise":
            k = data.draw(st.integers(3, 4))
            inner = data.draw(st.lists(st.floats(0.01, 0.99), min_size=k - 2, max_size=k - 2, unique=True))
            xs = [-L, *sorted(-L * u for u in inner), 0.0]
            hypothesis.assume(all(a < b for a, b in zip(xs, xs[1:])))
            vs = sorted(data.draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k)), reverse=True)
            force = PiecewiseLinear([(x, f_cr * v) for x, v in zip(xs, vs)])
        else:
            ratio = data.draw(st.floats(0.05, 0.99) if kind == "pinned" else st.floats(1.01, 5.0))
            force = Scaled(ratio * f_cr / n, 1.0)
        p = params(n, L, force)
        solved = solve_fixed_point(p)
        config = solved.config
        ref = diagnostics_by_diff(config.positions, p)
        assert np.array_equal(bits(config.positions), bits(Configuration(config.positions.tolist()).positions))
        for name in ("gaps", "pressures"):
            assert np.array_equal(bits(getattr(config, name)), bits(ref[name]))
        res = residuals(config, p)
        assert np.array_equal(bits(res.interior), bits(ref["interior"]))
        for name in ("max_residual", "terminal_slack"):
            assert bits(getattr(solved, name)) == bits(ref[name])
        if kind in ("pinned", "interior"):
            row = classify_phase(p, solved)
            for name in ("max_residual", "x_leftmost", "delta1_scaled", "n_max_gap_dev"):
                assert bits(getattr(row, name)) == bits(ref[name])

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_zero_max_residual_is_positive_zero(self, n):
        # the uniform chain balances exactly: every residual is -0.0, as -g gives
        p = params(n)
        solved = solve_fixed_point(p)
        assert np.all(bits(residuals(solved.config, p).interior) == bits(-0.0))
        assert bits(solved.max_residual) == bits(diagnostics_by_diff(solved.config.positions, p)["max_residual"])
        assert bits(solved.max_residual) == bits(0.0)


def ulps(a, b):
    """Largest distance in units in the last place between two arrays of positive floats."""
    return int(np.max(np.abs(bits(a).astype(np.int64) - bits(b).astype(np.int64)), initial=0))


class TestWithinTwoUlpOfPow:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 10 ** 5),
        log_length=st.floats(-3.0, 3.0),
        ratio=st.floats(0.05, 5.0),
        log_u=st.floats(0.0, 12.0),
    )
    def test_constant_force_gaps_and_pressures(self, n, log_length, ratio, log_u):
        # 1 / sqrt(f) and (1 / d)**2 against the np.power forms they replaced,
        # on an interior (u = 1) and a pinned (u > 1) terminal pressure u F
        L = 10.0 ** log_length
        F = ratio * critical_force_exact(n, L)
        for u in (1.0, 10.0 ** log_u):
            f = (np.arange(n, 0, -1, dtype=float) + (u - 1.0)) * F
            assert ulps(aux_model_gaps(F, n, u), np.power(f, -0.5)) <= 2
        config = solve_fixed_point(params(n, L, Constant(F))).config
        assert ulps(config.pressures, np.power(config.gaps, -2.0)) <= 2


class TestNoWritableAlias:
    @pytest.mark.parametrize("force", [
        Constant(0.0), Constant(10.0), Constant(1e4), flat(10.0), flat(1e4),
    ], ids=["uniform", "pinned", "interior", "piecewise-pinned", "piecewise-interior"])
    def test_a_result_holds_its_arrays_read_only(self, force):
        config = solve_fixed_point(params(50, 1.0, force)).config
        assert writable_aliases(config.positions) == []
        assert writable_aliases(config.gaps) == []
        assert not np.shares_memory(config.positions, config.gaps)
        with pytest.raises(ValueError):
            config.positions[1] = -0.5
        with pytest.raises(ValueError):
            config.gaps[0] = 0.5


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
        hypothesis.assume(all(a < b for a, b in zip(xs, xs[1:])))  # two u can round to one x
        hypothesis.assume(all(lam * a < lam * b for a, b in zip(xs, xs[1:])))  # and so can two lam x
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
    def test_agrees_with_the_search_on_the_flat_profile(self, n, log_length, ratio):
        # The flat profile's shot runs the same recursion one particle at a
        # time; the band around r = 1 is where the two labels may differ.
        L = 10.0 ** log_length
        F = ratio * critical_force_exact(n, L)
        sol = solve_fixed_point(params(n, L, Constant(F)))
        searched = solve_fixed_point(params(n, L, flat(F, L)))
        assert sol.classification is searched.classification
        gap = np.max(np.abs(sol.config.positions - searched.config.positions))
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

    @pytest.mark.parametrize("F, label", [(1.0, Classification.INTERIOR), (1e-310, Classification.BOUNDARY_PINNED)])
    def test_a_subnormal_critical_force_still_decides(self, F, label):
        # N/L leaves (N/L)**2 normal, but F_cr ~ 4 N / L**2 is subnormal here
        n, L = 1000, 1e156
        with pytest.raises(ValueError, match="too long for a normal critical force"):
            critical_force_exact(n, L)
        sol = solve_fixed_point(params(n, L, Constant(F)))
        assert sol.classification is label
        if label is Classification.INTERIOR:
            assert sol.config.positions[1:].tobytes() == (-np.cumsum(aux_model_gaps(F, n))).tobytes()
        else:
            assert sol.config.positions[-1] == -L

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
    hypothesis.assume(all(a < b for a, b in zip(xs, xs[1:])))  # two u can round to one x
    return PiecewiseLinear(list(zip(xs, sorted((r * fcr for r in ratios), reverse=True))))


class TestAgainstBisection:
    @pytest.mark.parametrize("points, n, L", [
        ([(-1.0, 1e200), (0.0, 0.0)], 10, 1.0),
        ([(-1e100, 1.0), (0.0, 0.0)], 3, 1e100),
        ([(-1.0, 1e300), (-0.999, 0.0), (0.0, 0.0)], 2, 1.0),
        ([(-1.0, 5.0), (0.0, 1.0)], 1, 1.0),
    ])
    def test_pathological_profiles_match_the_reference(self, points, n, L):
        # Forces and slopes at the edge of the float range: a root-find that
        # passes every random profile can still spend its 200 shots on these.
        p = params(n, L, PiecewiseLinear(points))
        sol, ref = solve_fixed_point(p), bisect_fixed_point(p)
        assert sol.classification is ref.classification is Classification.INTERIOR
        assert np.max(np.abs(sol.config.positions - ref.config.positions)) <= 1e-12 * L / n
        assert sol.iterations <= 100

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


class TestContinuumSeed:
    """The continuum first gap starts the search, and is only a hint."""

    @pytest.mark.parametrize("c", [1.0, 3.0], ids=["pinned", "detached"])
    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5])
    def test_seed_is_the_first_gap_to_one_over_n(self, n, c):
        g = [(-1.0, 2.0), (-0.5, 1.0), (0.0, 0.25)]
        profile = PiecewiseLinear([(x, c * n * v) for x, v in g])
        sol = solve_fixed_point(params(n, force=profile))
        seed = shooting._continuum_first_gap(profile, 1.0, n)
        assert abs(seed / sol.delta1 - 1.0) <= 1.0 / n

    @pytest.mark.parametrize("L", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 2.0])
    def test_flat_seed_detaches_at_the_critical_coefficient(self, L, ratio):
        # F = r c_critical(L) N: t = L sqrt(F/N) / 2 = sqrt(r), and N rho(0) L
        # is 1 + t**2 pinned (t <= 1) or 2 t detached; they differ off t = 1.
        n = 1000
        F = ratio * c_critical(L) * n
        t = L * np.sqrt(F / n) / 2.0
        pinned, detached = L / (n * (1.0 + t * t)), L / (n * 2.0 * t)
        seed = shooting._continuum_first_gap(flat(F, L), L, n)
        expected, other = (pinned, detached) if ratio <= 1.0 else (detached, pinned)
        assert seed == pytest.approx(expected, rel=1e-12)
        assert abs(other / expected - 1.0) > 1e-5

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(n=st.integers(1, 3000), log_length=st.floats(-3.0, 3.0), data=st.data())
    def test_any_seed_gives_the_bisection_fixed_point(self, n, log_length, data):
        L = 10.0 ** log_length
        force = data.draw(monotone_profiles(critical_force_exact(n, L), L))
        if isinstance(force, Constant):  # the constant route takes no search
            force = flat(force.value, L)
        p = params(n, L, force)
        ref = bisect_fixed_point(p)
        for seed in [0.0, np.nan, np.inf, 1e-300, 1e300, 0.5 * ref.delta1, 2.0 * ref.delta1]:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(shooting, "_continuum_first_gap", lambda *args: seed)
                sol = solve_fixed_point(p)
            assert sol.classification is ref.classification
            gap = np.max(np.abs(sol.config.positions - ref.config.positions))
            assert gap <= 1e-8 * L / n

    @pytest.mark.parametrize("first_gap", [0.0, math.nan, 1e300])
    def test_no_shot_after_a_bisection_is_given_a_chain(self, first_gap):
        # A chain far off the shot converges slowly, so where a hint off the
        # bracket makes the search bisect, each bisection's shot guesses its
        # own blocks.
        n, L = 2000, 1.0
        profile = PiecewiseLinear([(-1.0, 6.0 * n), (-0.5, 3.0 * n), (0.0, 0.0)])
        p, relaxed, shots = params(n, L, profile), shooting._relaxed_shot, []

        def spy(d1, model, seed=None, dx=None):
            out = relaxed(d1, model, seed, dx)
            above = out[0].complete and out[0].positions[-1] > -L and out[0].terminal_slack > 0.0  # h > 0
            shots.append((d1, seed is not None, dx is not None, above))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shooting, "_continuum_first_gap", lambda *args: first_gap)
            patch.setattr(shooting, "_relaxed_shot", spy)
            sol = solve_fixed_point(p)
        lo, hi, bisections = shooting._TINY_DELTA1, L / n * (1.0 + 1e-9), 0  # F(0) = 0: hi is L/N
        for (d1, _, _, above), (d_next, seeded, tangent, _) in zip(shots, shots[1:]):
            lo, hi = (d1, hi) if above else (lo, d1)
            if tangent and d_next == (math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)):
                bisections += 1
                assert not seeded
        assert bisections >= 1
        assert sol.classification is solve_fixed_point(p).classification


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
