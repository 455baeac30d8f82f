"""Core model: force profiles, configurations, energy and residuals."""

import math
import warnings
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from coulomb_chain import (
    Configuration,
    Constant,
    DegenerateConfigurationError,
    ModelParams,
    PiecewiseLinear,
    Scaled,
    energy,
    residuals,
    uniform_configuration,
)
from reference import configuration_error, exact_integral, integral_between, slope_at


def chain_from_gaps(gaps):
    return Configuration(np.concatenate(([0.0], -np.cumsum(gaps))))


@st.composite
def moves_near_a_breakpoint(draw):
    """A move of 1e-15 to 1e-4 across or beside a breakpoint of a random profile.

    Positions and values lie on a 1e-3 grid, values in [-10, 10], so that no
    product in the error bound underflows.
    """
    k = draw(st.integers(2, 7))
    grid = draw(st.lists(st.integers(-2000, 2000), min_size=k, max_size=k, unique=True))
    values = draw(st.lists(st.integers(-10_000, 10_000), min_size=k, max_size=k))
    f = PiecewiseLinear([(i * 1e-3, v * 1e-3) for i, v in zip(sorted(grid), values)])
    p = draw(st.sampled_from(f.breakpoints.tolist()))
    length = 10.0 ** draw(st.floats(-15.0, -4.0))
    a = p - draw(st.floats(-0.5, 1.5)) * length  # straddles p for offsets in (0, 1)
    b = a + length
    return (f, a, b) if draw(st.booleans()) else (f, b, a)


# ---------------------------------------------------------------------------
# Force profiles
# ---------------------------------------------------------------------------


class TestForceProfiles:
    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1.0)

    def test_constant_integral(self):
        f = Constant(3.0)
        assert f.integral_between(-1.0, 0.0) == pytest.approx(3.0)
        assert f.integral_between(-1.0, -1.0) == 0.0

    def test_piecewise_needs_increasing_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([(-1.0, 1.0), (-1.0, 2.0), (0.0, 0.0)])
        with pytest.raises(ValueError):
            PiecewiseLinear([(0.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any overflow warning
            with pytest.raises(ValueError, match="too narrow"):
                PiecewiseLinear([(-1.0, 0.0), (0.0, 0.0), (5.1e-309, 1.0)])

    def test_piecewise_interpolates_and_clamps(self):
        f = PiecewiseLinear([(-2.0, 4.0), (-1.0, 2.0), (0.0, 2.0)])
        assert f.force_at(-1.5) == pytest.approx(3.0)
        assert f.force_at(-2.5) == pytest.approx(4.0)  # constant extension
        assert f.force_at(0.5) == pytest.approx(2.0)

    def test_piecewise_integral_matches_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            k = rng.integers(2, 7)
            xs = np.sort(rng.uniform(-2.0, 0.0, size=k))
            xs[0], xs[-1] = -2.0, 0.0
            xs = np.unique(xs)
            vals = rng.uniform(-1.0, 3.0, size=xs.size)
            f = PiecewiseLinear(list(zip(xs, vals)))
            for x in rng.uniform(-2.0, 0.0, size=4):
                expected, _ = quad(f.force_at, -2.0, x, points=xs.tolist())
                assert f.integral_between(-2.0, float(x)) == pytest.approx(expected, abs=1e-12)

    def test_integral_between_matches_quadrature(self):
        rng = np.random.default_rng(43)
        f = PiecewiseLinear([(-2.0, 4.0), (-1.0, -1.0), (-0.5, 2.0), (0.0, 0.5)])
        a = rng.uniform(-2.5, 0.5, size=20)
        b = rng.uniform(-2.5, 0.5, size=20)
        got = f.integral_between(a, b)
        for ai, bi, gi in zip(a, b, got):
            expected, _ = quad(f.force_at, ai, bi, points=f.breakpoints.tolist())
            assert gi == pytest.approx(expected, abs=1e-12)
        assert Constant(3.0).integral_between(-0.5, 0.25) == pytest.approx(2.25)

    def test_integral_between_keeps_digits_of_tiny_moves(self):
        # a difference of antiderivatives would lose about 12 of 16 digits here
        f = PiecewiseLinear([(-2.0, 4.0), (-1.0, 2.0), (0.0, 1.0)])
        # the rounded step (x + 1e-12) - x, which is 1.0000889e-12, not the
        # nominal one; abs=0 because approx's default absolute tolerance of
        # 1e-12 would accept any value of this size
        x = -1.5
        h = (x + 1e-12) - x
        exact = h * (3.0 - 0.5 * 2.0 * h)  # F(-1.5) = 3, slope -2
        assert f.integral_between(x, x + h) == pytest.approx(exact, rel=1e-14, abs=0.0)
        # a move across the breakpoint at -1
        a, b = -1.0 - 7e-13, -1.0 + 1.3e-12
        exact = float(exact_integral(f, a, b))
        assert f.integral_between(a, b) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(moves_near_a_breakpoint())
    def test_integral_of_a_tiny_move_is_exact_to_rounding(self, case):
        f, a, b = case
        error = abs(Fraction(f.integral_between(a, b)) - exact_integral(f, a, b))
        assert error <= 4 * np.finfo(float).eps * abs(b - a) * np.max(np.abs(f.values))

    def test_slope_at(self):
        f = PiecewiseLinear([(-2.0, 4.0), (-1.0, 2.0), (0.0, 3.0)])
        np.testing.assert_array_equal(
            f.slope_at(np.array([-2.5, -1.5, -1.0, -0.5, 0.0, 0.5])),
            [0.0, -2.0, 1.0, 1.0, 0.0, 0.0],  # a breakpoint takes its right segment
        )
        assert f.slope_at(-1.5) == -2.0
        assert Constant(3.0).slope_at(-0.5) == 0.0

    def test_segment_lookup_at_breakpoints_and_beyond_the_ends(self):
        # every breakpoint, and one point past each end, where the segment
        # index is clamped to the first or last segment
        f = PiecewiseLinear([(-2.0, 4.0), (-1.0, 2.0), (0.0, 3.0)])
        x = np.array([-3.0, -2.0, -1.0, 0.0, 1.0])
        np.testing.assert_array_equal(f.slope_at(x), [0.0, -2.0, 1.0, 0.0, 0.0])
        assert [f.slope_at(float(v)) for v in x] == [0.0, -2.0, 1.0, 0.0, 0.0]
        np.testing.assert_array_equal(f.integral_between(-3.0, x), [0.0, 4.0, 7.0, 9.5, 12.5])
        np.testing.assert_array_equal(f.integral_between(x[:-1], x[1:]), [4.0, 3.0, 2.5, 3.0])
        np.testing.assert_array_equal(f.integral_between(x, 1.0), [12.5, 8.5, 5.5, 3.0, 0.0])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data())
    def test_integral_and_slope_are_the_first_written_loop_bit_for_bit(self, data):
        # On a 1/4 grid, so that points fall on breakpoints and beyond every
        # kink; signed zeros and NaN among the points, a > b as often as not.
        grid = st.integers(-12, 4).map(lambda k: k / 4)
        xs = sorted(data.draw(st.sets(grid, min_size=2, max_size=6)))
        vs = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0, 1e300]), min_size=len(xs), max_size=len(xs)))
        f = PiecewiseLinear(list(zip(xs, vs)))
        point = st.one_of(grid, st.sampled_from([0.0, -0.0, math.nan, -1e300]), st.floats(-4.0, 2.0))
        size = data.draw(st.integers(0, 8))
        a, b = (data.draw(point if kind is None else st.lists(point, min_size=size, max_size=size))
                for kind in data.draw(st.sampled_from([(None, None), (None, 1), (1, None), (1, 1)])))
        fa = f.force_at(a) if data.draw(st.booleans()) else None
        with np.errstate(all="ignore"):  # 1e300 overflows and NaN is invalid, on both
            got, ref = f.integral_between(a, b, fa=fa), integral_between(f, a, b, fa=fa)
        assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))
        for profile in (f, Constant(2.0)):
            got, ref = profile.slope_at(b), slope_at(profile, b)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))

    def test_scaled_resolves_to_constant(self):
        f = Scaled(c=2.0, gamma=1.5)
        p = ModelParams(L=1.0, n_gaps=100, force=f)
        assert p.force == f
        resolved = p.profile
        assert isinstance(resolved, Constant)
        assert resolved.value == pytest.approx(2.0 * 100 ** 1.5)

    def test_scaled_validates(self):
        with pytest.raises(ValueError):
            Scaled(c=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            Scaled(c=1.0, gamma=0.0)

    def test_scaled_must_be_resolved(self):
        # only the Constant that ModelParams.profile resolves it to evaluates
        f = Scaled(c=1.0, gamma=1.0)
        assert not any(hasattr(f, m) for m in ("force_at", "integral_between", "slope_at"))
        with pytest.raises(AttributeError):
            f.force_at(0.0)

    def test_the_three_force_types_share_no_base(self):
        assert Constant.__mro__[1:] == PiecewiseLinear.__mro__[1:] == Scaled.__mro__[1:] == (object,)


class TestModelParams:
    def test_validates_basics(self):
        with pytest.raises(ValueError):
            ModelParams(L=0.0, n_gaps=1, force=Constant(0.0))
        with pytest.raises(ValueError):
            ModelParams(L=1.0, n_gaps=0, force=Constant(0.0))

    def test_piecewise_must_cover_segment(self):
        f = PiecewiseLinear([(-0.5, 1.0), (0.0, 0.0)])
        with pytest.raises(ValueError):
            ModelParams(L=1.0, n_gaps=3, force=f)

    @pytest.mark.parametrize("force", [object(), 1.0, None, "constant"])
    def test_force_is_one_of_the_three_types(self, force):
        with pytest.raises(TypeError, match="^force must be Constant, PiecewiseLinear or Scaled$"):
            ModelParams(L=1.0, n_gaps=3, force=force)

    @pytest.mark.parametrize("force", [Constant(0.0), Scaled(c=1.0, gamma=1.0)])
    def test_pressure_scale_bounds_n_over_l(self, force):
        # 2**-511 <= N/L < 2**512: (N/L)**2 is a normal float, on both ends
        for n, L in [(1, 2.0 ** 511), (4, 2.0 ** 513), (1, math.nextafter(2.0 ** -512, 1.0))]:
            assert ModelParams(L=L, n_gaps=n, force=force).n_gaps == n
        for n in (1, 3):
            with pytest.raises(ValueError, match=r"^N/L = .* leaves no normal pressure scale \(N/L\)\*\*2$"):
                ModelParams(L=n * math.nextafter(2.0 ** 511, math.inf), n_gaps=n, force=force)
            with pytest.raises(DegenerateConfigurationError, match="^gap too small for a finite pressure$"):
                ModelParams(L=n * 2.0 ** -512, n_gaps=n, force=force)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


class TestConfiguration:
    def test_orders_and_derives(self):
        c = Configuration([0.0, -0.25, -0.75])
        assert c.n_gaps == 2
        np.testing.assert_allclose(c.gaps, [0.25, 0.5])
        np.testing.assert_allclose(c.pressures, [16.0, 4.0])

    def test_rejects_coinciding_particles(self):
        with pytest.raises(DegenerateConfigurationError):
            Configuration([0.0, -0.5, -0.5])

    def test_rejects_disorder_and_positive_head(self):
        with pytest.raises(ValueError):
            Configuration([0.0, -0.7, -0.3])
        with pytest.raises(ValueError):
            Configuration([0.1, -0.5])

    @pytest.mark.parametrize("positions", [[0.0], [], [[0.0, -1.0]], [[0.0], [-1.0]]])
    def test_needs_a_flat_array_of_two_positions(self, positions):
        with pytest.raises(ValueError, match="^need a 1-D array of at least two positions$"):
            Configuration(positions)

    def test_smallest_gap_with_a_finite_pressure(self):
        # (2**-512)**-2 = 2**1024 overflows; the next float up is the bound
        bound = math.nextafter(2.0 ** -512, 1.0)
        assert np.isfinite(Configuration([0.0, -bound]).pressures[0])
        with pytest.raises(DegenerateConfigurationError, match="finite pressure"):
            Configuration([0.0, -math.nextafter(bound, 0.0)])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.5, -1.0, 1e-300, -2.0 ** -512, -math.nextafter(2.0 ** -512, 1.0),
                             math.nan, math.inf, -math.inf]),
            st.floats(-2.0, 0.5),
        ),
        min_size=2, max_size=6,
    ).flatmap(lambda xs: st.sampled_from([xs, sorted(xs, reverse=True)])))
    def test_raises_what_the_earlier_checks_raised(self, positions):
        # the one-pass check must accept and reject the same chains, with
        # the same exception type and message as the five-pass one
        expected = configuration_error(positions)
        if expected is None:
            Configuration(positions)
            return
        with pytest.raises(type(expected)) as info:
            Configuration(positions)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)

    def test_positions_are_frozen(self):
        c = Configuration([0.0, -1.0])
        with pytest.raises(ValueError):
            c.positions[0] = 5.0

    def test_gaps_are_frozen(self):
        c = Configuration([0.0, -1.0, -3.0])
        with pytest.raises(ValueError):
            c.gaps[0] = 5.0

    @pytest.mark.parametrize("as_array", [False, True])
    def test_keeps_nothing_of_the_callers_data(self, as_array):
        x = [0.0, -0.25, -0.75]
        data = np.array(x) if as_array else list(x)
        c = Configuration(data)
        data[1] = -0.5
        assert c.positions.tolist() == x
        assert c.gaps.tolist() == [0.25, 0.5]
        if as_array:
            assert not np.shares_memory(c.positions, data)

    def test_uniform_configuration(self):
        p = ModelParams(L=2.0, n_gaps=4, force=Constant(0.0))
        c = uniform_configuration(p)
        np.testing.assert_allclose(c.gaps, 0.5)
        assert c.positions[0] == 0.0
        assert c.positions[-1] == -2.0


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


class TestEnergy:
    def test_single_gap_no_force(self):
        p = ModelParams(L=1.0, n_gaps=1, force=Constant(0.0))
        assert energy(Configuration([0.0, -1.0]), p) == pytest.approx(1.0)

    def test_symmetric_split_no_force(self):
        p = ModelParams(L=1.0, n_gaps=2, force=Constant(0.0))
        assert energy(Configuration([0.0, -0.5, -1.0]), p) == pytest.approx(4.0)

    def test_constant_force_hand_value(self):
        # interaction 4.0 minus F * sum(x_i + L) = 1 * (1 + 0.5 + 0) = 1.5
        p = ModelParams(L=1.0, n_gaps=2, force=Constant(1.0))
        assert energy(Configuration([0.0, -0.5, -1.0]), p) == pytest.approx(2.5)

    def test_piecewise_energy_matches_quadrature(self):
        rng = np.random.default_rng(3)
        f = PiecewiseLinear([(-1.0, 2.0), (-0.4, 1.0), (0.0, 0.5)])
        p = ModelParams(L=1.0, n_gaps=4, force=f)
        gaps = rng.uniform(0.1, 0.3, size=4)
        config = chain_from_gaps(gaps)
        expected_ext = sum(
            quad(f.force_at, -1.0, x, points=[-0.4])[0] for x in config.positions
        )
        # at F = 0 the energy is the interaction term alone, and the external
        # term is the energy difference from that
        interaction = energy(config, ModelParams(L=1.0, n_gaps=4, force=Constant(0.0)))
        assert interaction == pytest.approx(np.sum(1.0 / gaps), rel=1e-12)
        assert interaction - energy(config, p) == pytest.approx(expected_ext, rel=1e-12)

    def test_widening_a_gap_lowers_interaction(self):
        rng = np.random.default_rng(11)
        p = ModelParams(L=2.0, n_gaps=5, force=Constant(0.0))
        for _ in range(20):
            gaps = rng.uniform(0.05, 0.2, size=5)
            base = energy(chain_from_gaps(gaps), p)
            k = rng.integers(0, 5)
            wider = gaps.copy()
            wider[k] *= 2.0
            assert energy(chain_from_gaps(wider), p) < base

    def test_mismatched_sizes_rejected(self):
        p = ModelParams(L=1.0, n_gaps=3, force=Constant(0.0))
        with pytest.raises(ValueError):
            energy(Configuration([0.0, -1.0]), p)

    def test_beyond_wall_rejected(self):
        p = ModelParams(L=1.0, n_gaps=1, force=Constant(0.0))
        with pytest.raises(ValueError):
            energy(Configuration([0.0, -1.5]), p)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


class TestResiduals:
    def test_uniform_no_force(self):
        n, L = 8, 1.0
        p = ModelParams(L=L, n_gaps=n, force=Constant(0.0))
        res = residuals(uniform_configuration(p), p)
        np.testing.assert_allclose(res.interior, 0.0, atol=1e-10)
        assert res.terminal_slack == pytest.approx((n / L) ** 2, rel=1e-12)

    def test_half_line_balance_two_gaps(self):
        # pressures (2F, F) satisfy the interior balance and zero slack
        F = 3.0
        gaps = np.array([(2 * F) ** -0.5, F ** -0.5])
        config = chain_from_gaps(gaps)
        p = ModelParams(L=5.0, n_gaps=2, force=Constant(F))
        res = residuals(config, p)
        np.testing.assert_allclose(res.interior, 0.0, atol=1e-12)
        assert res.terminal_slack == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_uniform_is_no_fixed_point(self):
        n = 6
        p = ModelParams(L=1.0, n_gaps=n, force=Constant(0.0))
        pos = uniform_configuration(p).positions.copy()
        pos[3] += 0.01
        res = residuals(Configuration(pos), p)
        assert np.max(np.abs(res.interior)) > 1.0

    def test_single_gap_has_empty_interior(self):
        p = ModelParams(L=1.0, n_gaps=1, force=Constant(2.0))
        res = residuals(Configuration([0.0, -1.0]), p)
        assert res.interior.size == 0
        assert res.terminal_slack == pytest.approx(-1.0)
