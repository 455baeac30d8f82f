"""Fixed-point solver based on shooting from the first gap.

Given the first gap delta_1, the whole chain follows by induction: f_1 =
delta_1**-2, then f_{k+1} = f_k - F(x_k), delta_{k+1} = f_{k+1}**-0.5,
x_{k+1} = x_k - delta_{k+1}, with x_0 = 0.  For a non-negative, non-increasing
force every generated quantity is monotone in delta_1 (pressures and positions
decrease, gaps increase), so both terminal conditions fold into one continuous,
decreasing terminal function, whose scale (N/L)**2 ``ModelParams`` keeps normal

    h(delta_1) = min((x_N + L) / L, (f_N - F(x_N)) / (N/L)**2),

with a collapsed shot (some pressure hits zero) counted as negative: the
positions run to -inf as a pressure nears zero, so a collapse is the limit
h -> -inf.  h > 0 for tiny delta_1 and h <= 0 for delta_1 >= L/N; the fixed
point is its root, located by safeguarded Newton seeded from the continuum
law rho' = F/(2N) (see ``solve_fixed_point``).  Whichever
terminal condition crossed first there decides the classification: the
wall (left particle pinned at -L with non-negative slack) or the exact
terminal balance f_N = F(x_N) in the interior.  That hypothesis on the force
is checked here and nowhere else: ``solve_fixed_point`` raises
MonotonicityViolation for a profile that rises or goes negative on [-L, 0].
``shoot`` is one shot: the positions x_0..x_N and the slack f_N - F(x_N)
of a ``PiecewiseLinear`` profile (constant F as the flat [(-L, F), (0, F)]);
``solve_fixed_point`` builds a ``Constant`` one's chain in closed form.

A shot forms its first pressure as (1 / delta_1)**2 and each step as
1 / sqrt(f), and the search's scales as products and 1 / sqrt: + - * / and
sqrt, which IEEE 754 rounds correctly everywhere, so a solve's bytes depend
on its inputs alone, not on the platform's libm pow.  Every shot is of
one kind, with the bits of the sequential recursion: it relaxes numpy
blocks of steps until a sweep repeats itself bit for bit
(``_relaxed_shot``), and Newton's shots then relax the tangent in delta_1
on each block the same way.

Positions are the cumulative sum of the gaps, so they carry a rounding error
of about N eps L, and ``max_residual`` of a solve sits at that floor: at
most about 2 N eps times the largest pressure, pinned and interior alike.

All functions are pure and reentrant; each solve is sequential internally
(the recursion is inherently ordered in k) but independent solves can run
concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .closed_form import aux_model_gaps, shifted_inverse_sqrt_sum
from .errors import MonotonicityViolation, NoConvergence
from .model import (
    Classification,
    Configuration,
    Constant,
    FixedPointResult,
    ModelParams,
    PiecewiseLinear,
    residuals,
)

__all__ = ["MAX_ITER", "TOL_REL", "ShootingOutcome", "shoot", "solve_fixed_point"]

# Stopping rule of solve_fixed_point, read at call time: the relative width
# of the final first-gap bracket and the shot budget.
TOL_REL = 1e-14
MAX_ITER = 200

# Safe lower end for the first-gap bracket: small enough that h is provably
# positive, large enough that delta**-2 stays below overflow.
_TINY_DELTA1 = 1e-150

# A collapsed shot's x_N and slack: positions run to -inf.
_COLLAPSED = (-math.inf, -math.inf)

# Steps per block of a relaxed shot; 4,096 was the fastest of 512-8,192.
_BLOCK = 4096


class ShootingOutcome(NamedTuple):
    """Result of generating a chain from a trial first gap.

    ``positions`` holds x_0..x_N and ``terminal_slack`` is f_N - F(x_N), or
    both are None where some pressure hit zero first.  The wall at -L is
    ignored here on purpose; positions may overshoot it.
    """

    positions: np.ndarray | None
    terminal_slack: float | None

    @property
    def complete(self) -> bool:
        return self.positions is not None


def shoot(delta1: float, params: ModelParams) -> ShootingOutcome:
    """Generate the chain induced by a trial first gap, ignoring the wall.

    Only a ``PiecewiseLinear`` profile is shot (TypeError otherwise).
    Pressure collapse (some f_k <= 0) is a normal outcome, reported as an
    outcome with no positions; ``delta1 <= 0`` is an error, and so is a
    ``delta1`` below about 2**-512, whose pressure is not finite.  The shot
    is ``_relaxed_shot`` with no chain to start from: each block guesses its
    own, and the result is the sequential recursion's bits.
    """
    if not (delta1 > 0.0):
        raise ValueError(f"first gap must be positive, got {delta1}")
    if not isinstance(params.profile, PiecewiseLinear):
        raise TypeError(f"cannot shoot with profile {type(params.profile).__name__}")
    return _relaxed_shot(float(delta1), params)[0]


def _relaxed_shot(
    delta1: float, params: ModelParams, seed: np.ndarray | None = None, dx: np.ndarray | None = None
) -> tuple[ShootingOutcome, float, float]:
    """The shot, relaxed blockwise in place in ``seed``, a guess of its positions.

    A sweep over a block of up to ``_BLOCK`` steps forms each force term at
    the guessed position before its step (the piece as the recursion picks
    it), then the pressures, 1 / sqrt and the positions in numpy; accumulate
    runs left to right like a scalar loop.  By induction on the step, a
    sweep's positions are the sequential recursion's up to the first that
    differs from its guess bit for bit, that one included; the next sweep
    starts there, so a block of m steps ends within m sweeps, at the one
    that returns its guess.  After each sweep, the pressures it made exact
    (up to that first change, or to the block's end once it repeats) are
    read for a collapse, which ends the shot at the first f <= 0.  With no
    seed, each block guesses the constant-force chain
    from its exact first pressure f_a and position x_a: f_a - j F(x_a),
    floored at f_a 2**-60 short of a collapse.  The guess sets the sweeps,
    never the bits.

    Given ``dx``, N + 1 values that guess the tangent dx_k of x_k in
    delta_1 (with no seed, each block guesses dx_a throughout), a block whose
    positions have repeated then relaxes the tangent in place the same way,
    its g = 1 / sqrt(f) now final: e = df / 2 is the subtract.accumulate of
    e_a and (s_k / 2) dx_k, s_k the slope of x_k's piece, and dx the
    add.accumulate of dx_a and g g g e, in the scalar loop's order of
    operations, until dx repeats.  Returns the outcome and (dx_N, df_N),
    nan without ``dx`` or where the shot collapses.
    """
    profile, n = params.profile, params.n_gaps
    r = 1.0 / delta1
    f = r * r
    if not f > 0.0:
        return ShootingOutcome(None, None), math.nan, math.nan
    if f == math.inf:
        raise ValueError(f"first gap {delta1} too small for a finite pressure")
    # piece p = searchsorted(bx, x, "right") up to top: the flat extension, then segment p - 1
    bx, by, top = profile.breakpoints, profile.values, profile.breakpoints.size - 1
    x0, v0, s = np.append(bx[0], bx[:-1]), np.append(by[0], by[:-1]), np.append(0.0, profile.slopes)
    half_s, ends = 0.5 * s, [-math.inf, *x0[1:].tolist(), math.inf]  # p spans [ends[p], ends[p + 1])
    pos = np.empty(n + 1) if seed is None else seed
    pos[0], pos[1] = 0.0, -delta1
    e = -f / delta1  # df / 2, which is exact
    if dx is not None:
        dx[0], dx[1] = 0.0, -1.0
    t, fs, xs, es = np.empty((4, _BLOCK + 1))

    def piece(x):  # of each of a monotone run of positions: one, where its ends share it
        j = min(int(bx.searchsorted(x[0], "right")), top)
        return j if ends[j] <= x[-1] < ends[j + 1] else np.minimum(bx.searchsorted(x, "right"), top)

    def settle(chain, a, new, k):
        """Write new[k + 1:] over chain[a + k + 1:]; the next k, its first change, or m if it repeats."""
        m = new.size - 1
        miss = new[k + 1 : m].view(np.int64) != chain[a + k + 1 : a + m].view(np.int64)
        chain[a + k + 1 : a + m + 1] = new[k + 1 :]
        return k + 1 + int(miss.argmax()) if miss.any() else m

    with np.errstate(all="ignore"):  # an unconverged guess may drive some f <= 0
        for a in range(1, n, _BLOCK):
            m = min(_BLOCK, n - a)
            guess, tb, fb, xb = pos[a : a + m], t[: m + 1], fs[: m + 1], xs[: m + 1]
            if seed is None:  # the constant-force chain from the block's exact start
                fg = np.maximum(f - float(profile.force_at(guess[0])) * np.arange(1.0, m), f * 2.0 ** -60)
                guess[1:] = guess[0] - np.cumsum(1.0 / np.sqrt(fg))
            k, fb[0] = 0, f
            while k < m:
                g = guess[k:]
                j = piece(g)
                np.add(v0[j], s[j] * (g - x0[j]), out=tb[k + 1 :])
                tb[k] = fb[k]
                np.subtract.accumulate(tb[k:], out=fb[k:])
                tb[k] = g[0]
                np.divide(1.0, np.sqrt(fb[k + 1 :], out=tb[k + 1 :]), out=tb[k + 1 :])
                np.subtract.accumulate(tb[k:], out=xb[k:])
                start, k = k, settle(pos, a, xb, k)
                if (fb[start + 1 : k + 1] <= 0.0).any():  # a collapse among the pressures now exact
                    return ShootingOutcome(None, None), math.nan, math.nan
            f = float(fb[m])
            if dx is None:
                continue
            hs, g3 = np.broadcast_to(half_s[piece(guess)], m), np.divide(1.0, np.sqrt(fb[1:]))
            g3 *= g3 * g3
            guess, eb = dx[a : a + m], es[: m + 1]
            if seed is None:
                guess[1:] = guess[0]
            k, eb[0] = 0, e
            while k < m:
                np.multiply(hs[k:], guess[k:], out=tb[k + 1 :])
                tb[k] = eb[k]
                np.subtract.accumulate(tb[k:], out=eb[k:])
                np.multiply(g3[k:], eb[k + 1 :], out=tb[k + 1 :])
                tb[k] = guess[k]
                np.add.accumulate(tb[k:], out=xb[k:])
                k = settle(dx, a, xb, k)
            e = float(eb[m])
    out = ShootingOutcome(pos, f - float(profile.force_at(pos[-1])))
    return (out, float(dx[-1]), 2.0 * e) if dx is not None else (out, math.nan, math.nan)


def _validate_monotone(profile: Constant | PiecewiseLinear, L: float) -> float:
    """Reject a profile outside the uniqueness hypothesis; return F(0).

    Non-increasing: no piecewise segment overlapping (-L, 0) rises.  F(0) is
    then the minimum on [-L, 0]; F(-L) is checked as well, because its
    interpolation can round a few ulps below a zero F(0).
    """
    if isinstance(profile, PiecewiseLinear):
        bx = profile.breakpoints
        overlap = (bx[:-1] < 0.0) & (bx[1:] > -L)
        if np.any(profile.slopes[overlap] > 0.0):
            raise MonotonicityViolation(
                "force profile increases somewhere on the segment; "
                "uniqueness is not guaranteed, use the descent oracle"
            )
    force_min = profile.force_at(0.0)
    if min(force_min, profile.force_at(-L)) < 0.0:
        raise MonotonicityViolation("force profile takes negative values on the segment")
    return force_min


def _continuum_first_gap(profile: PiecewiseLinear, L: float, n: int) -> float:
    """First gap 1/(N rho(0)) of the continuum law rho' = F/(2N): a hint, maybe nan.

    With A(l), B(l) the integrals of F(y), |y| F(y) over [-l, 0], unit mass
    gives rho(0) = (1 + (L A(L) - B(L)) / (2N)) / L while B(L) <= 2N (pinned);
    beyond, it detaches at the edge l where B(l) = 2N, and rho(0) = A(l) / (2N).
    Both integrals are exact per linear piece (trapezoid, Simpson); B is convex
    in l, so Newton from the left end of the edge's piece nears it from above.
    """
    xs = [0.0, *sorted((x for x in profile.breakpoints.tolist() if -L < x < 0.0), reverse=True), -L]
    fs = profile.force_at(np.array(xs)).tolist()

    def moment(y, fy, q, fq):  # B over [y, q] for F linear there
        return (q - y) * (-y * fy - (y + q) * (fy + fq) - q * fq) / 6.0

    area = mom = 0.0
    for q, fq, p, fp in zip(xs, fs, xs[1:], fs[1:]):
        if mom + moment(p, fp, q, fq) > 2.0 * n:  # detached, edge y = -l in [p, q]
            y, fy = p, fp
            for _ in range(60):  # the floors 1e-300 keep an underflow from raising
                step = (mom + moment(y, fy, q, fq) - 2.0 * n) / max(-y * fy, 1e-300)
                y += step
                fy = fp + (fq - fp) * ((y - p) / (q - p))
                if not step > 1e-13 * -y:
                    break
            return 2.0 / max(area + 0.5 * (q - y) * (fy + fq), 1e-300)
        area += 0.5 * (q - p) * (fp + fq)
        mom += moment(p, fp, q, fq)
    return L / (n + 0.5 * (L * area - mom))


def _constant_chain(params: ModelParams, F: float) -> tuple[np.ndarray, Classification, int]:
    """Positions, label and Z evaluations; the gaps are aux_model_gaps(F, N, u).

    u = 1 if F > F_cr = (Z(1, N) / L)**2, subnormal or not (shrunk a float off
    the wall should rounding reach it); else Z(u, N) = L sqrt(F), bisected to
    float exhaustion on [max(1, s**2 - N + 1), s**2], s = N / (L sqrt(F)), as
    N (u + N - 1)**-0.5 <= Z <= N u**-0.5 (<= ~52 + log2(N) evaluations),
    stretched to x_N = -L.  Uniform where u would exceed N / eps, F = 0 included.
    """
    L, n = params.L, params.n_gaps
    target = L * math.sqrt(F)
    if target < math.sqrt(n * np.finfo(float).eps):
        return np.linspace(0.0, -L, n + 1), Classification.BOUNDARY_PINNED, 0
    root = shifted_inverse_sqrt_sum(1.0, n) / L
    pinned = F <= root * root
    s, u, evaluations = n / target, 1.0, 0
    if pinned:
        u, hi = max(1.0, s * s - (n - 1)), s * s
        while u < (mid := 0.5 * (u + hi)) < hi:
            evaluations += 1
            u, hi = (mid, hi) if shifted_inverse_sqrt_sum(mid, n) > target else (u, mid)
    gaps = aux_model_gaps(F, n, u)
    positions = np.zeros(n + 1)
    np.cumsum(np.negative(gaps, out=gaps), out=positions[1:])
    if pinned or positions[-1] <= -L:
        end = -L if pinned else math.nextafter(-L, 0.0)
        positions *= end / positions[-1]
        positions[-1] = end
    label = Classification.BOUNDARY_PINNED if pinned else Classification.INTERIOR
    return positions, label, evaluations


def solve_fixed_point(params: ModelParams) -> FixedPointResult:
    """Locate the unique fixed point for a non-increasing, non-negative force.

    A ``Constant`` profile (``Scaled`` resolves to one) takes no search: see
    ``_constant_chain``.  A ``PiecewiseLinear`` one takes safeguarded Newton
    (rtsafe, Numerical Recipes 9.4) on the terminal function h of the module
    docstring, over the first gap, from the continuum first gap (under 0.3/N
    off the root).  Its shots carry the tangent (dx_k, df_k) of (x_k, f_k)
    in delta_1, and h' is dx_N / L on the wall branch,
    (df_N - F'(x_N) dx_N) / (N/L)**2 on the slack branch.  A
    sign bracket starts at the rigorous ends: h > 0 at a machine-tiny gap,
    and h <= 0 at min(L/N, (N F(0))**-0.5) * (1 + 1e-9), as gaps never
    shrink along the chain (so x_N <= -N delta_1) and no force term is below
    F(0) (so f_N - F(x_N) <= delta_1**-2 - N F(0)); ValueError, naming L/N
    or N F(0), where they leave no room.  A Newton step is taken only when
    it lands strictly inside the bracket; otherwise, and after a collapse,
    which has no slope, the bracket is bisected (on the geometric mean while
    its ends differ by more than a factor 2).  Once a Newton step is below
    1e-8 relative at |h| < 1e-4 (far off, where rounding flattens F but not
    its slope, the step alone can be tiny), the endgame shoots
    q (1 - 0.4 ``TOL_REL``) at the Newton estimate q, then gallops away
    from it on the side the sign of h points to, the distance doubling, and
    bisects once the sign has turned; q (1 + 0.4 ``TOL_REL``) mostly closes
    the bracket.  Every shot is relaxed in numpy blocks of 4,096 steps with
    the scalar recursion's bits, from a guess of its chain that sets only
    its sweeps: the first shot, and each after a bisection, from its
    blocks' own constant-force guesses and a tangent guess of dx_a
    throughout; a Newton step's shot from the last chain x corrected to
    first order, x + (d + x_1) dx (its first gap is -x_1 exactly), and the
    last tangent; the endgame's shots (that straddle, the gallop and the
    bisection) from the latest chain, about 1e-13 off, in 2-4 sweeps per
    block, and without the tangent.  A far guess converges slowly, so no
    bisection's shot inherits a chain.  Every complete shot with h > 0
    becomes the chain of the bracket's h > 0 end, and no shot relaxes inside
    that one: a Newton guess is formed in a fresh array, an endgame shot
    given a copy.  Other shots relax in place in the chain they are given
    (a collapse leaves no chain), and Newton's shots in one tangent array of
    N + 1 values, dropped when the endgame starts.  So the result and shot
    count are those of scalar shots.  It stops at a relative bracket width
    of ``TOL_REL`` = 1e-14, and spends at most ``MAX_ITER`` = 200 shots
    (3-7 on most profiles); NoConvergence, carrying the shots spent and the
    last bracket, when the bracket is not that narrow by then.  A bracket
    that closes with no chain at its h > 0 end has closed on its floor, so
    the root's first gap is not above 1e-150: ValueError, naming that floor.

    The result is the chain of the bracket's h > 0 end.  Where the other
    end crossed the wall or collapsed, the chain (like a pinned
    constant-force one) is stretched so that x_N = -L exactly; otherwise it
    is interior.  The stretch spreads the wall correction over all gaps instead of dumping the
    summation error into the last one.  ``max_residual`` then sits at the
    rounding floor of positions summed from gaps: at most 1.95 N eps times
    the largest pressure in constant-force checks from N = 10 to 10**7 and
    L = 1e-3 to 1e3, which at F = 0 is a scaled residual
    ``max_residual / (N/L)**2`` of about N eps.

    Args:
        params: chain parameters; ``params.profile`` must be continuous,
            non-negative and non-increasing on [-L, 0], otherwise
            MonotonicityViolation.
    """
    force_min = _validate_monotone(params.profile, params.L)
    if isinstance(params.profile, Constant):
        positions, label, evaluations = _constant_chain(params, force_min)
        config = Configuration(positions, _owned=True)
        return FixedPointResult.from_residuals(config, residuals(config, params), label, evaluations)
    L, n, profile = params.L, params.n_gaps, params.profile
    pressure_scale = (n / L) * (n / L)
    # no F(x_k) is smaller than F(0), x_k <= 0; N F(0) may overflow to inf
    force_bound = 1.0 / math.sqrt(n * force_min) if force_min > 0.0 else math.inf
    hi = min(L / n, force_bound) * (1.0 + 1e-9)
    if _TINY_DELTA1 >= hi:
        bound = f"L/N = {L / n}" if L / n <= force_bound else f"N F(0) = {n * force_min}"
        raise ValueError(f"{bound} leaves no first gap above {_TINY_DELTA1} to bracket")
    # h > 0 at lo, with its chain once shot there; h <= 0 at hi, with x_N
    # there, -inf while hi is unshot or collapsed
    lo, chain, hi_x = _TINY_DELTA1, None, -math.inf
    d = _continuum_first_gap(profile, L, n)
    if not lo < d < hi:
        d = math.sqrt(lo * hi)
    shots, gap, seed, dx = 0, 0.0, None, np.empty(n + 1)
    while hi - lo > TOL_REL * hi:
        if shots >= MAX_ITER:
            raise NoConvergence(
                f"first-gap search did not reach TOL_REL={TOL_REL} "
                f"within MAX_ITER={MAX_ITER} shots",
                iterations=shots, bracket=(lo, hi),
            )
        shots += 1
        if seed is chain is not None:  # no shot relaxes inside lo's chain
            seed = seed.copy()
        (seed, slack), dx_n, df_n = _relaxed_shot(d, params, seed, dx)
        x, slack = (float(seed[-1]), slack) if seed is not None else _COLLAPSED
        dslack = df_n - profile.slope_at(x) * dx_n
        wall, slack = (x + L) / L, slack / pressure_scale
        h, slope = (wall, dx_n / L) if wall <= slack else (slack, dslack / pressure_scale)
        if h > 0.0:
            lo, chain = d, seed
        else:
            hi, hi_x = d, x
        if gap:  # endgame: gallop away from q on the side h points to, then bisect
            gap *= 2.0
            d = lo + gap if h > 0.0 else hi - gap
            if 2.0 * gap >= hi - lo:
                d = 0.5 * (lo + hi)
            continue
        step = -h / slope if -math.inf < slope < 0.0 else math.nan
        if abs(step) < 1e-8 * d and abs(h) < 1e-4:
            gap, dx = 0.4 * TOL_REL * (d + step), None
            d = min(max(d + step - gap, lo + gap), hi - gap)
        elif lo < d + step < hi:  # Newton: the last chain to first order (its first gap is -last[1]), afresh
            d, last = d + step, seed
            with np.errstate(all="ignore"):
                seed = np.multiply(dx, d + last[1])
                seed += last
            del last
        else:  # no slope, or a step that leaves the bracket: bisect, and guess afresh
            d, seed = (math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)), None
    if chain is None:
        raise ValueError(f"the fixed point's first gap lies at or below the bracket's floor {_TINY_DELTA1}")

    positions, seed, dx = chain, None, None  # release seed and tangent before the residual pass
    # Collapse at the other end means the wall was crossed there too
    # (positions run to -inf before pressures hit zero), so both terminal
    # conditions are unresolved at this width: treat as the tie.  Tie (both
    # crossed) classifies as pinned: equality belongs to the pinned branch
    # of the critical-force dichotomy.
    if hi_x <= -L:
        positions *= -L / float(positions[-1])
        positions[-1] = -L
        classification = Classification.BOUNDARY_PINNED
    else:
        classification = Classification.INTERIOR
    config = Configuration(positions, _owned=True)
    return FixedPointResult.from_residuals(config, residuals(config, params), classification, shots)
