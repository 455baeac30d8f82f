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
point is its root, located by a safeguarded Brent root-find seeded from the
continuum law rho' = F/(2N) (see ``solve_fixed_point``).  Whichever
terminal condition crossed first there decides the classification: the
wall (left particle pinned at -L with non-negative slack) or the exact
terminal balance f_N = F(x_N) in the interior.  That hypothesis on the force
is checked here and nowhere else: ``solve_fixed_point`` raises
MonotonicityViolation for a profile that rises or goes negative on [-L, 0].
``shoot`` is one shot: the positions x_0..x_N and the slack f_N - F(x_N)
of a ``PiecewiseLinear`` profile (constant F as the flat [(-L, F), (0, F)]);
``solve_fixed_point`` builds a ``Constant`` one's chain in closed form.

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


class _Probe(NamedTuple):
    """One shot of the root-find: first gap, squashed h, and the outcome."""

    d1: float
    h: float
    out: ShootingOutcome


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
    outcome with no positions; only ``delta1 <= 0`` is an error.
    """
    if not (delta1 > 0.0):
        raise ValueError(f"first gap must be positive, got {delta1}")
    profile, n, delta1 = params.profile, params.n_gaps, float(delta1)
    if not isinstance(profile, PiecewiseLinear):
        raise TypeError(f"cannot shoot with profile {type(profile).__name__}")
    bx = profile.breakpoints.tolist()
    by = profile.values.tolist()
    slopes = profile.slopes.tolist()
    # x only moves left, so the pieces are visited right to left: segment j
    # while x >= bx[j], then the flat extension left of bx[0].  Each piece
    # is (left end, anchor, value at anchor, slope).
    pieces = [(bx[j], bx[j], by[j], slopes[j]) for j in range(len(bx) - 2, -1, -1)]
    pieces.append((-math.inf, bx[0], by[0], 0.0))

    f = delta1 ** -2.0
    if not f > 0.0:
        return ShootingOutcome(None, None)
    x = -delta1
    positions = [0.0, x]
    k = 1
    for left, x0, v0, s in pieces:
        while k < n and x >= left:
            f -= v0 + s * (x - x0)
            if f <= 0.0:
                return ShootingOutcome(None, None)
            x -= f ** -0.5
            positions.append(x)
            k += 1
    pos = np.array(positions)
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
    pinned = F <= (shifted_inverse_sqrt_sum(1.0, n) / L) ** 2
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
    ``_constant_chain``.  A ``PiecewiseLinear`` one takes Brent's root-find
    (zeroin) on the terminal function h of the module docstring, over the
    first gap.  It shoots the continuum first gap d (under 0.3/N off the
    root), then d (1 +- 4/N) on the side the sign of h points to.  Where that
    keeps the sign, N <= 4 or d lies beyond them, the rigorous ends take
    over: h > 0 at a machine-tiny gap, and h <= 0 at min(L/N, (N F(0))**-0.5)
    * (1 + 1e-9), as gaps never shrink along the chain (so x_N <= -N delta_1)
    and no force term is below F(0) (so f_N - F(x_N) <= delta_1**-2 - N F(0));
    ValueError, naming L/N or N F(0), where they leave no room.  Should
    rounding break the signs, NoConvergence carries the bracket.
    Each step interpolates (secant or inverse quadratic) and falls back to
    bisection whenever the interpolant leaves the bracket or does not shrink
    it fast enough.  The search sees h / (1 + |h|), which has the same sign
    and root, reads -1 at a collapse and stays finite for interpolation.  It
    stops at a relative bracket width of ``TOL_REL`` = 1e-14, and spends at
    most ``MAX_ITER`` = 200 shots, the two or three bracket probes included;
    NoConvergence, carrying the shots spent and the last bracket, when the
    bracket is not that narrow by then.

    On the pinned branch the chain (of a piecewise profile, the shot of the
    bracket's positive end) is stretched so that x_N = -L exactly.  That
    spreads the wall correction over all gaps instead of dumping the summation
    error into the last one.  ``max_residual`` then sits at the rounding floor
    of positions summed from gaps: at most 1.95 N eps times the largest
    pressure in constant-force checks from N = 10 to 10**7 and L = 1e-3 to
    1e3, which at F = 0 is a scaled residual ``max_residual / (N/L)**2`` of
    about N eps.  Interior positions of a piecewise profile are the shot of
    the bracket end with the smaller terminal imbalance.

    Args:
        params: chain parameters; ``params.profile`` must be continuous,
            non-negative and non-increasing on [-L, 0], otherwise
            MonotonicityViolation.
    """
    force_min = _validate_monotone(params.profile, params.L)
    if isinstance(params.profile, Constant):
        positions, label, evaluations = _constant_chain(params, force_min)
        config = Configuration(positions)
        return FixedPointResult.from_residuals(config, residuals(config, params), label, evaluations)
    L, n = params.L, params.n_gaps
    pressure_scale = (n / L) ** 2
    shots = 0

    def probe(d1: float) -> _Probe:
        nonlocal shots
        shots += 1
        out = shoot(d1, params)
        if not out.complete:
            return _Probe(d1, -1.0, out)
        h = min((float(out.positions[-1]) + L) / L, out.terminal_slack / pressure_scale)
        return _Probe(d1, h / (1.0 + abs(h)), out)

    # no F(x_k) is smaller than F(0), x_k <= 0; N F(0) may overflow to inf
    force_bound = (n * force_min) ** -0.5 if force_min > 0.0 else math.inf
    hi = min(L / n, force_bound) * (1.0 + 1e-9)
    if _TINY_DELTA1 >= hi:
        bound = f"L/N = {L / n}" if L / n <= force_bound else f"N F(0) = {n * force_min}"
        raise ValueError(f"{bound} leaves no first gap above {_TINY_DELTA1} to bracket")
    seed = _continuum_first_gap(params.profile, L, n)
    below = seed * (1.0 - 4.0 / n)  # N <= 4 leaves no near end below the seed
    if not (_TINY_DELTA1 < below and seed < hi):
        a, b = probe(_TINY_DELTA1), probe(hi)
    elif (at_seed := probe(seed)).h > 0.0:  # the root lies above the seed
        b = probe(min(seed * (1.0 + 4.0 / n), hi))
        a, b = (at_seed, b) if b.h <= 0.0 else (b, probe(hi))
    else:
        a = probe(below)
        a, b = (a, at_seed) if a.h > 0.0 else (probe(_TINY_DELTA1), a)
    if not a.h > 0.0 or b.h > 0.0:
        raise NoConvergence(
            "terminal function does not change sign over the first-gap bracket",
            iterations=shots, bracket=(a.d1, b.d1),
        )

    # Brent (1973), zeroin: b is the best estimate, c the other end of the
    # sign bracket, a the previous b; d is the last step, e the one before.
    c = a
    d = e = b.d1 - a.d1
    half_width = 0.5 * TOL_REL
    while True:
        if (b.h > 0.0) == (c.h > 0.0):
            c = a
            d = e = b.d1 - a.d1
        if abs(c.h) < abs(b.h):
            a, b, c = b, c, b
        tol = half_width * b.d1
        m = 0.5 * (c.d1 - b.d1)
        if abs(m) <= tol:
            break
        if shots >= MAX_ITER:
            raise NoConvergence(
                f"first-gap search did not reach TOL_REL={TOL_REL} "
                f"within MAX_ITER={MAX_ITER} shots",
                iterations=shots, bracket=tuple(sorted((b.d1, c.d1))),
            )
        if b.h == 0.0:
            # b is a root to rounding: the minimum step toward c closes the
            # bracket (Brent stops here, but TOL_REL bounds the bracket).
            e, d = d, 0.0
        elif abs(e) >= tol and abs(a.h) > abs(b.h):
            s = b.h / a.h
            if a is c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = a.h / c.h, b.h / c.h
                p = s * (2.0 * m * q * (q - r) - (b.d1 - a.d1) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a = b
        b = probe(b.d1 + (d if abs(d) > tol else math.copysign(tol, m)))

    lo, hi = (b, c) if b.h > 0.0 else (c, b)
    out_lo, out_hi = lo.out, hi.out

    # Collapse inside the final bracket means the wall was crossed there
    # too (positions run to -inf before pressures hit zero), so both
    # terminal conditions are unresolved at this width: treat as the tie.
    # Tie (both crossed) classifies as pinned: equality belongs to the
    # pinned branch of the critical-force dichotomy.
    if not out_hi.complete or float(out_hi.positions[-1]) <= -L:
        positions = out_lo.positions * (-L / float(out_lo.positions[-1]))
        positions[-1] = -L
        classification = Classification.BOUNDARY_PINNED
    else:
        # Both bracket ends are valid near-fixed-points; keep the one with
        # the smaller terminal imbalance.
        positions = min(out_lo, out_hi, key=lambda out: abs(out.terminal_slack)).positions
        classification = Classification.INTERIOR

    config = Configuration(positions)
    return FixedPointResult.from_residuals(config, residuals(config, params), classification, shots)
