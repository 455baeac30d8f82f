"""Fixed-point solver based on shooting from the first gap.

Given the first gap delta_1, the whole chain follows by induction: f_1 =
delta_1**-2, then f_{k+1} = f_k - F(x_k), delta_{k+1} = f_{k+1}**-0.5,
x_{k+1} = x_k - delta_{k+1}, with x_0 = 0.  For a non-negative, non-increasing
force every generated quantity is monotone in delta_1 (pressures and
positions decrease, gaps increase), so the terminal conditions can be located
by bisection on a single boolean predicate:

    P(delta_1) = shoot completes  and  x_N > -L  and  f_N - F(x_N) > 0

P is true for tiny delta_1 and false for delta_1 >= L/N; the fixed point sits
at the switch.  Whichever terminal condition crossed first there decides the
classification: the wall (left particle pinned at -L with non-negative slack)
or the exact terminal balance f_N = F(x_N) in the interior.

All functions are pure and reentrant; each solve is sequential internally
(the recursion is inherently ordered in k) but independent solves can run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityViolation, NoConvergence
from .model import (
    Classification,
    Configuration,
    Constant,
    FixedPointResult,
    ForceProfile,
    ModelParams,
    PiecewiseLinear,
    residuals,
)

__all__ = ["ShootingOutcome", "shoot", "solve_fixed_point"]

# Safe lower end for the first-gap bracket: small enough that the predicate
# is provably true, large enough that delta**-2 stays below overflow.
_TINY_DELTA1 = 1e-150


@dataclass(frozen=True, eq=False)
class ShootingOutcome:
    """Result of generating a chain from a trial first gap.

    Either the recursion completes (``positions`` holds x_0..x_N and the
    terminal pressure/force are recorded) or some pressure hit zero first and
    ``collapse_index`` is the smallest 1-based gap index where that happened.
    The wall at -L is ignored here on purpose; positions may overshoot it.
    """

    positions: np.ndarray | None
    collapse_index: int | None
    f_terminal: float | None
    force_at_terminal: float | None

    @property
    def complete(self) -> bool:
        return self.positions is not None

    @property
    def x_terminal(self) -> float:
        if not self.complete:
            raise ValueError("no terminal position: shooting collapsed")
        return float(self.positions[-1])

    @property
    def terminal_slack(self) -> float:
        if not self.complete:
            raise ValueError("no terminal slack: shooting collapsed")
        return self.f_terminal - self.force_at_terminal

    @property
    def config(self) -> Configuration:
        if not self.complete:
            raise ValueError("no configuration: shooting collapsed")
        return Configuration(self.positions)


def _collapse(k: int) -> ShootingOutcome:
    return ShootingOutcome(
        positions=None, collapse_index=k, f_terminal=None, force_at_terminal=None
    )


def _shoot_constant(delta1: float, F: float, n: int) -> ShootingOutcome:
    f1 = delta1 ** -2.0
    if not f1 > 0.0:
        return _collapse(1)
    # Constant force decouples the pressure recursion from positions, so the
    # induction unrolls to f_k = f_1 - (k-1) F and vectorizes.
    f = f1 - F * np.arange(n, dtype=float)
    bad = f <= 0.0
    if bad.any():
        return _collapse(int(np.argmax(bad)) + 1)
    gaps = f ** -0.5
    positions = np.empty(n + 1)
    positions[0] = 0.0
    np.cumsum(gaps, out=positions[1:])
    np.negative(positions[1:], out=positions[1:])
    return ShootingOutcome(
        positions=positions,
        collapse_index=None,
        f_terminal=float(f[-1]),
        force_at_terminal=F,
    )


def _shoot_piecewise(delta1: float, profile: PiecewiseLinear, n: int) -> ShootingOutcome:
    bx = profile.breakpoints.tolist()
    by = profile.values.tolist()
    slopes = (np.diff(profile.values) / np.diff(profile.breakpoints)).tolist()
    j = len(bx) - 2

    f = delta1 ** -2.0
    if not f > 0.0:
        return _collapse(1)
    x = -delta1
    positions = [0.0, x]
    for k in range(1, n):
        # x only moves left, so the segment index walks down monotonically.
        while j > 0 and x < bx[j]:
            j -= 1
        if x < bx[0]:
            fv = by[0]
        else:
            fv = by[j] + slopes[j] * (x - bx[j])
        f -= fv
        if f <= 0.0:
            return _collapse(k + 1)
        x -= f ** -0.5
        positions.append(x)
    pos = np.array(positions)
    return ShootingOutcome(
        positions=pos,
        collapse_index=None,
        f_terminal=f,
        force_at_terminal=float(profile.force_at(pos[-1])),
    )


def shoot(delta1: float, params: ModelParams) -> ShootingOutcome:
    """Generate the chain induced by a trial first gap, ignoring the wall.

    Pressure collapse (some f_k <= 0) is a normal outcome, reported with the
    smallest failing index; only ``delta1 <= 0`` is an error.
    """
    if not (delta1 > 0.0):
        raise ValueError(f"first gap must be positive, got {delta1}")
    profile = params.profile
    if isinstance(profile, Constant):
        return _shoot_constant(float(delta1), profile.value, params.n_gaps)
    if isinstance(profile, PiecewiseLinear):
        return _shoot_piecewise(float(delta1), profile, params.n_gaps)
    raise TypeError(f"cannot shoot with profile {type(profile).__name__}")


def _validate_monotone(profile: ForceProfile, L: float):
    if not profile.non_increasing_on(-L, 0.0):
        raise MonotonicityViolation(
            "force profile increases somewhere on the segment; "
            "uniqueness is not guaranteed, use the descent oracle"
        )
    if profile.min_on(-L, 0.0) < 0.0:
        raise MonotonicityViolation("force profile takes negative values on the segment")


def solve_fixed_point(
    params: ModelParams, tol_rel: float = 1e-12, max_iter: int = 200
) -> FixedPointResult:
    """Locate the unique fixed point for a non-increasing, non-negative force.

    Bisects the predicate described in the module docstring over the first
    gap.  The bracket is rigorous: the predicate holds at a machine-tiny gap,
    and fails at L/N * (1 + eps) because gaps never shrink along the chain
    (for constant force the collapse bound ((N-1) F)**-0.5 tightens it).
    When the run lands on the pinned branch, the bracket is refined down to
    floating-point exhaustion before snapping x_N to -L, which keeps the one
    residual perturbed by the snap at the double-precision floor (about
    2 N eps relative to the pressure scale) instead of tol_rel * N.

    Args:
        params: chain parameters; ``params.profile`` must be continuous,
            non-negative and non-increasing, otherwise MonotonicityViolation.
        tol_rel: relative bracket width on the first gap at which bisection
            stops.
        max_iter: shooting-evaluation budget; NoConvergence when exceeded
            before the tolerance is met.
    """
    profile = params.profile
    _validate_monotone(profile, params.L)
    L, n = params.L, params.n_gaps

    def predicate(out: ShootingOutcome) -> bool:
        return out.complete and out.x_terminal > -L and out.terminal_slack > 0.0

    hi = (L / n) * (1.0 + 1e-9)
    if isinstance(profile, Constant) and profile.value > 0.0 and n > 1:
        hi = min(hi, ((n - 1) * profile.value) ** -0.5)
    lo = _TINY_DELTA1
    if lo >= hi:
        raise ValueError("segment too short per gap to bracket the first gap")

    iterations = 0
    out_lo = shoot(lo, params)
    iterations += 1
    if not predicate(out_lo):
        raise NoConvergence("predicate false at the lower bracket end")
    out_hi = shoot(hi, params)
    iterations += 1
    while predicate(out_hi):
        # Cannot happen for a valid profile; defensive geometric growth.
        lo, out_lo = hi, out_hi
        hi *= 2.0
        out_hi = shoot(hi, params)
        iterations += 1
        if iterations >= max_iter:
            raise NoConvergence("could not bracket the terminal conditions")

    while hi - lo > tol_rel * hi:
        if iterations >= max_iter:
            raise NoConvergence(
                f"first-gap bisection did not reach tol_rel={tol_rel} "
                f"within {max_iter} evaluations"
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket no longer resolvable in float64
        out_mid = shoot(mid, params)
        iterations += 1
        if predicate(out_mid):
            lo, out_lo = mid, out_mid
        else:
            hi, out_hi = mid, out_mid

    def is_pinned(out: ShootingOutcome) -> bool:
        # Collapse inside the final bracket means the wall was crossed there
        # too (positions run to -inf before pressures hit zero), so both
        # terminal conditions are unresolved at this width: treat as the tie.
        if not out.complete:
            return True
        # Tie (both crossed) classifies as pinned: equality belongs to the
        # pinned branch of the critical-force dichotomy.
        return out.x_terminal <= -L

    pinned = is_pinned(out_hi)

    if pinned:
        # Refine to float exhaustion so the snap below stays benign.
        while iterations < max_iter + 80:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            out_mid = shoot(mid, params)
            iterations += 1
            if predicate(out_mid):
                lo, out_lo = mid, out_mid
            else:
                hi, out_hi = mid, out_mid
        pinned = is_pinned(out_hi)

    if pinned:
        positions = out_lo.positions.copy()
        positions[-1] = -L
        classification = Classification.BOUNDARY_PINNED
    else:
        # Both bracket ends are valid near-fixed-points; keep the one with
        # the smaller terminal imbalance.
        best = out_lo
        if out_hi.complete and out_hi.x_terminal > -L:
            if abs(out_hi.terminal_slack) < abs(out_lo.terminal_slack):
                best = out_hi
        positions = best.positions
        classification = Classification.INTERIOR

    config = Configuration(positions)
    res = residuals(config, params)
    max_residual = float(np.max(np.abs(res.interior))) if res.interior.size else 0.0
    return FixedPointResult(
        config=config,
        classification=classification,
        delta1=float(lo),
        max_residual=max_residual,
        iterations=iterations,
        terminal_slack=res.terminal_slack,
    )

