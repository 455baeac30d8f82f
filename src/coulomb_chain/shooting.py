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
on its inputs alone, not on the platform's libm pow.  A relaxed shot runs
the same operations in numpy blocks and returns ``shoot``'s bits.

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

# A collapsed shot's x_N, f_N (or slack) and their derivatives in delta_1:
# positions run to -inf, and there is no slope.
_COLLAPSED = (-math.inf, -math.inf, math.nan, math.nan)

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
    ``delta1`` below about 2**-512, whose pressure is not finite.
    """
    if not (delta1 > 0.0):
        raise ValueError(f"first gap must be positive, got {delta1}")
    profile, n, delta1 = params.profile, params.n_gaps, float(delta1)
    if not isinstance(profile, PiecewiseLinear):
        raise TypeError(f"cannot shoot with profile {type(profile).__name__}")
    r = 1.0 / delta1
    f = r * r
    if not f > 0.0:
        return ShootingOutcome(None, None)
    if f == math.inf:
        raise ValueError(f"first gap {delta1} too small for a finite pressure")
    sqrt = math.sqrt
    x = -delta1
    positions = [0.0, x]
    k = 1
    for left, x0, v0, s in _pieces(profile):
        while k < n and x >= left:
            f -= v0 + s * (x - x0)
            if f <= 0.0:
                return ShootingOutcome(None, None)
            x -= 1.0 / sqrt(f)
            positions.append(x)
            k += 1
    pos = np.array(positions)
    return ShootingOutcome(pos, f - float(profile.force_at(pos[-1])))


def _pieces(profile: PiecewiseLinear) -> list[tuple[float, float, float, float]]:
    """The pieces of a shot, each (left end, anchor, value at anchor, slope).

    x only moves left, so they are visited right to left: segment j while
    x >= bx[j], then the flat extension left of bx[0].
    """
    bx, by, slopes = profile.breakpoints.tolist(), profile.values.tolist(), profile.slopes.tolist()
    pieces = [(bx[j], bx[j], by[j], slopes[j]) for j in range(len(bx) - 2, -1, -1)]
    pieces.append((-math.inf, bx[0], by[0], 0.0))
    return pieces


def _lean_shot(delta1: float, n: int, pieces) -> tuple[float, float, float, float] | None:
    """(x_N, f_N) of ``shoot`` bit for bit, and their derivatives (dx_N, df_N) in delta1.

    Keeps no positions, and returns None where ``shoot`` collapses.
    """
    r = 1.0 / delta1
    f = r * r
    if not f > 0.0:
        return None
    sqrt = math.sqrt
    # e = df / 2 saves a product per step; halving is exact, so df is unchanged
    x, dx, e = -delta1, -1.0, -f / delta1
    steps = iter(range(1, n))  # shared by the pieces, like shoot's k
    for left, x0, v0, s in pieces:
        half_s = 0.5 * s
        if x >= left:
            for _ in steps:
                f -= v0 + s * (x - x0)
                if f <= 0.0:
                    return None
                e -= half_s * dx
                g = 1.0 / sqrt(f)
                x -= g
                dx += g * g * g * e
                if x < left:
                    break
    return x, f, dx, 2.0 * e


def _relaxed_shot(delta1: float, params: ModelParams, seed: np.ndarray) -> ShootingOutcome:
    """``shoot`` bit for bit, relaxed blockwise from ``seed``, a guess of its positions.

    A sweep over a block of up to ``_BLOCK`` steps forms each force term at
    the guessed position before its step (the piece as shoot's loop picks
    it), then the pressures, 1 / sqrt and the positions in numpy; accumulate
    runs left to right like that loop.  A sweep that returns its guess bit
    for bit is shoot's sequence, by induction on the step, and each sweep
    makes one more step exact, so a block of m steps ends within m + 1
    sweeps.  Only then is a collapse read off it, at its first f <= 0.
    """
    profile, n = params.profile, params.n_gaps
    r = 1.0 / delta1
    f = r * r
    if not f > 0.0:
        return ShootingOutcome(None, None)
    # piece p = searchsorted(bx, x, "right") up to top: the flat extension, then the segments
    bx, top = profile.breakpoints, profile.breakpoints.size - 1
    lefts, x0, v0, s = np.array(_pieces(profile)[::-1]).T
    ends = [*lefts.tolist(), math.inf]  # piece p spans [ends[p], ends[p + 1])
    pos = seed.copy()
    pos[1] = -delta1
    t, fs, xs = np.empty((3, _BLOCK + 1))
    with np.errstate(all="ignore"):  # an unconverged guess may drive some f <= 0
        for a in range(1, n, _BLOCK):
            m = min(_BLOCK, n - a)
            guess, tb, fb, xb = pos[a : a + m], t[: m + 1], fs[: m + 1], xs[: m + 1]
            for _ in range(m + 1):
                j = min(int(np.searchsorted(bx, guess[0], "right")), top)
                if not ends[j] <= guess[-1] < ends[j + 1]:  # else so is all of a monotone guess
                    j = np.minimum(np.searchsorted(bx, guess, "right"), top)
                np.add(v0[j], s[j] * (guess - x0[j]), out=tb[1:])
                tb[0] = f
                np.subtract.accumulate(tb, out=fb)
                tb[0] = guess[0]
                np.divide(1.0, np.sqrt(fb[1:], out=tb[1:]), out=tb[1:])
                np.subtract.accumulate(tb, out=xb)
                same = np.array_equal(xb[1:m].view(np.int64), guess[1:].view(np.int64))
                pos[a + 1 : a + m + 1] = xb[1:]
                if same:
                    break
            if (fb[1:] <= 0.0).any():
                return ShootingOutcome(None, None)
            f = float(fb[m])
    return ShootingOutcome(pos, f - float(profile.force_at(pos[-1])))


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
    off the root).  Its shots are lean: they carry the tangent (dx_k, df_k)
    of (x_k, f_k) in delta_1 and keep no positions, and h' is dx_N / L on the
    wall branch, (df_N - F'(x_N) dx_N) / (N/L)**2 on the slack branch.  A
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
    q (1 - 0.4 ``TOL_REL``) at the Newton estimate q, recording, then
    gallops away from it on the side the sign of h points to, the distance
    doubling, and bisects once the sign has turned; q (1 + 0.4 ``TOL_REL``)
    mostly closes the bracket.  Once a shot has recorded a complete chain,
    every later shot (that straddle, the gallop, the bisection and the
    re-record below) is relaxed from the latest one, about 1e-13 off: 2-4
    numpy sweeps per block of 4,096 steps, with ``shoot``'s bits, so the
    result and shot count are the scalar shots'.  It stops at a relative
    bracket width of ``TOL_REL`` = 1e-14, and spends at most
    ``MAX_ITER`` = 200 shots, lean, recording and relaxed alike (3-7 on
    most profiles); NoConvergence, carrying the shots spent and the last
    bracket, when the bracket is not that narrow by then.

    The result is the recorded shot of the bracket's h > 0 end (shot once
    more, recording, should it have been a search shot).  Where the other
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
    # h > 0 at lo, with its recorded shot once there is one; h <= 0 at hi,
    # with x_N there, -inf while hi is unshot or collapsed
    lo, lo_out, hi_x = _TINY_DELTA1, None, -math.inf
    pieces = _pieces(profile)
    d = _continuum_first_gap(profile, L, n)
    if not lo < d < hi:
        d = math.sqrt(lo * hi)
    shots, gap, record, seed = 0, 0.0, False, None
    while True:
        narrow = hi - lo <= TOL_REL * hi
        if narrow and lo_out is not None:
            break
        if narrow:  # the h > 0 end ran lean: shoot it again, recording
            d, record = lo, True
        if shots >= MAX_ITER:
            raise NoConvergence(
                f"first-gap search did not reach TOL_REL={TOL_REL} "
                f"within MAX_ITER={MAX_ITER} shots",
                iterations=shots, bracket=(lo, hi),
            )
        shots += 1
        if record or seed is not None:
            out = shoot(d, params) if seed is None else _relaxed_shot(d, params, seed)
            x, slack, dx, dslack = _COLLAPSED
            if out.complete:
                x, slack, seed = float(out.positions[-1]), out.terminal_slack, out.positions
            out = out if record else None
        else:
            out, (x, f, dx, df) = None, _lean_shot(d, n, pieces) or _COLLAPSED
            slack, dslack = f - profile.force_at(x), df - profile.slope_at(x) * dx
        wall, slack = (x + L) / L, slack / pressure_scale
        h, slope = (wall, dx / L) if wall <= slack else (slack, dslack / pressure_scale)
        if h > 0.0:
            lo, lo_out = d, out
        else:
            hi, hi_x = d, x
        record = False
        if gap:  # endgame: gallop away from q on the side h points to, then bisect
            gap *= 2.0
            d = lo + gap if h > 0.0 else hi - gap
            if 2.0 * gap >= hi - lo:
                d = 0.5 * (lo + hi)
            continue
        step = -h / slope if -math.inf < slope < 0.0 else math.nan
        if abs(step) < 1e-8 * d and abs(h) < 1e-4:
            gap = 0.4 * TOL_REL * (d + step)
            d, record = min(max(d + step - gap, lo + gap), hi - gap), True
            continue
        if lo < d + step < hi:
            d += step
        else:  # no slope, or a step that leaves the bracket: bisect
            d = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)

    positions, seed = lo_out.positions, None  # release the seed before the residual pass
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
