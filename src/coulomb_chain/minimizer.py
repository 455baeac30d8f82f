"""Direct energy minimization over ordered positions.

An independent route to fixed points: projected Newton descent on the total
energy, with the walls enforced by clamping the end particles into [-L, 0].
The energy, its gradient and the residuals come from ``model``; this module
adds the Hessian, the Newton step and the line search.  The energy couples
only nearest neighbours, so its Hessian is tridiagonal and each Newton step
is one O(N) LDL^T (Thomas) pass over the free particles, which replaces
any pivot that is not positive (a rising force) so that the direction is
one of descent.  It needs no monotonicity from
the force profile, so it doubles as the oracle for solver verification and
as the probe for non-monotone profiles where several local minima coexist.
``local_minimality_certificate`` certifies a returned point as a strict
local minimum at O(N) cost: a gradient within tolerance over the particles
free to move, and no pivot replaced in the LDL^T pass over their Hessian.

The Hessian's couplings 2/d**3 are formed as 2 (1/d)**3 by a divide and
products, and the Armijo test's directional derivative as numpy's own sum
of g * move, not a BLAS dot product, whose bits depend on the kernel
OpenBLAS picks for the CPU.  With the model's + - * / and sqrt, a descent's
bytes depend on its inputs alone.

``minimize`` is a pure function of (params, start, settings); the
multi-start search is seeded and sorts before deduplicating, so its output
does not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .model import (
    Classification,
    Configuration,
    FixedPointResult,
    ModelParams,
    PiecewiseLinear,
    energy,
    energy_gradient,
    residuals,
)

__all__ = [
    "MAX_ITER",
    "MinimizeSettings",
    "default_settings",
    "local_minimality_certificate",
    "minimize",
    "multi_start_fixed_points",
    "nonuniqueness_params",
]

# Accepted-step budget of minimize, read at call time.
MAX_ITER = 500_000
_ARMIJO = 1e-4


@dataclass(frozen=True)
class MinimizeSettings:
    """Gradient tolerance and multi-start seed of the descent.

    The step budget is not a setting: every descent stops after at most
    ``MAX_ITER`` = 500,000 accepted steps.
    """

    grad_tol: float
    seed: int = 0

    def __post_init__(self):
        if not (self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


def default_settings(params: ModelParams, seed: int = 0) -> MinimizeSettings:
    """Scale-aware defaults: pressures ~ (N/L)**2 plus the force on the chain.

    ``grad_tol`` is 1e-10 (N/L)**2, or 4 eps N P where that is larger, with
    P = (N/L)**2 + (N/L) max(0, integral of F over [-L, 0]) the scale of the
    largest pressure.  Positions rounded to eps L leave each gap, and so each
    pressure, uncertain by about eps N relative, and the projected gradient
    of a descent stalls at 0.56 to 1.0 eps N P (constant force 0 to 100 F_cr,
    N from 5e3 to 1e5, uniform and jittered starts).  At F = r F_cr the first
    term decides while N (1 + 4 r) is below about 1.1e5.
    """
    L, n = params.L, params.n_gaps
    scale = L / n
    push = max(0.0, params.profile.integral_between(-L, 0.0))
    pressure = (1.0 + scale * push) / (scale * scale)
    rounding_floor = 4.0 * np.finfo(float).eps * n * pressure
    return MinimizeSettings(grad_tol=max(1e-10 / (scale * scale), rounding_floor), seed=seed)


def _hessian_bands(x: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal energy Hessian.

    Each gap d contributes 2/d**3 to the diagonal entries of its two
    particles and -2/d**3 to the entry coupling them; the external work adds
    -F'(x_i) to the diagonal.
    """
    r = 1.0 / (x[:-1] - x[1:])
    c = 2.0 * r * r * r
    diag = -np.asarray(slope, dtype=float)
    diag[:-1] += c
    diag[1:] += c
    return diag, -c


def _ldl_solve(diag: list, off: list, rhs: list) -> tuple[list, bool]:
    """Solve T p = rhs for symmetric tridiagonal T by one LDL^T pass.

    A pivot that is not positive is replaced by its magnitude, floored at
    1e-3 of its row's absolute sum (infinite where both are zero, which
    leaves that particle in place), so the solve is with a positive definite
    matrix (Nocedal & Wright, *Numerical Optimization*, §3.4).  Returns the
    solution and whether any pivot was replaced.
    """
    n = len(diag)
    off = [0.0, *off, 0.0]  # off[i] and off[i + 1] flank row i
    pivots = [0.0] * n
    ratios = [0.0] * n
    z = [0.0] * n
    replaced = False
    pivot = 1.0  # row 0 sees a zero coupling to it, and z[-1] = 0.0
    for i in range(n):
        r = off[i] / pivot
        pivot = diag[i] - r * off[i]
        if not pivot > 0.0:
            row = abs(diag[i]) + abs(off[i]) + abs(off[i + 1])
            pivot = max(abs(pivot), 1e-3 * row) or np.inf
            replaced = True
        ratios[i] = r
        pivots[i] = pivot
        z[i] = rhs[i] - r * z[i - 1]
    # back substitution, in place: z becomes the solution
    z[-1] /= pivots[-1]
    for i in range(n - 2, -1, -1):
        z[i] = z[i] / pivots[i] - ratios[i + 1] * z[i + 1]
    return z, replaced


def _free_range(x: np.ndarray, g: np.ndarray, L: float, tol: float) -> tuple[int, int]:
    """Range [lo, hi) of particles free to move.

    An end particle is held when it sits on its wall and the gradient pushes
    it into that wall by more than ``tol``.
    """
    lo = 1 if x[0] >= 0.0 and g[0] < -tol else 0
    hi = x.size - 1 if x[-1] <= -L and g[-1] > tol else x.size
    return lo, hi


def _newton_direction(x: np.ndarray, g: np.ndarray, slope: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Projected Newton direction: zero outside the free range [lo, hi).

    One ``_ldl_solve`` pass over the free block of the Hessian, so the
    direction is always one of descent.  Raises NoConvergence where it is
    not finite.
    """
    diag, off = _hessian_bands(x, slope)
    p_free, _ = _ldl_solve(diag[lo:hi].tolist(), off[lo:hi - 1].tolist(), (-g[lo:hi]).tolist())
    p = np.zeros_like(x)
    p[lo:hi] = p_free
    if not np.all(np.isfinite(p)):
        raise NoConvergence("Hessian is not finite: particles nearly coincide")
    return p


def _delta_energy(x: np.ndarray, trial: np.ndarray, profile) -> float:
    """Energy change U(trial) - U(x), accurate at the scale of the move.

    Small moves make the direct difference of two O(U) energies pure
    rounding noise; here each gap's contribution is formed from the exact
    difference of the two moves, so the result stays meaningful down to
    moves near machine precision.
    """
    move = trial - x
    d = x[:-1] - x[1:]
    dt = trial[:-1] - trial[1:]
    mdiff = move[:-1] - move[1:]  # equals dt - d exactly
    interaction = -float(np.sum(mdiff / (d * dt)))
    external = float(np.sum(profile.integral_between(x, trial)))
    return interaction - external


def minimize(
    params: ModelParams,
    start: Configuration,
    settings: MinimizeSettings | None = None,
) -> FixedPointResult:
    """Descend the energy from ``start`` until the projected gradient is flat.

    Each iteration takes a projected Newton step.  An end particle that sits
    on its wall with the gradient pushing it into the wall is held fixed;
    the tridiagonal Hessian over the other particles is solved in one LDL^T
    pass that replaces any pivot that is not positive.  The step
    is backtracked by halving from its full length along the wall-clamped
    path until the trial keeps strict ordering and achieves Armijo
    decrease, so the energy is monotone along accepted steps.  The descent
    stops when the max-norm of the projected gradient is at most
    ``settings.grad_tol``; ``iterations`` counts accepted steps.

    The chain is labelled pinned when x_N <= -L + 1e-12 L at the stop.  For
    a constant force within |F/F_cr - 1| <= 1e-10 of the critical force the
    terminal slack lies below ``grad_tol``, both labels are fixed points to
    that tolerance, and this label can differ from ``solve_fixed_point``'s.

    Raises NoConvergence, carrying ``iterations`` and the last projected
    gradient norm ``grad_norm``, when the line search can make no further
    progress (the tolerance lies below the floating-point floor of the
    gradient) or ``MAX_ITER`` = 500,000 accepted steps did not reach it.
    """
    if settings is None:
        settings = default_settings(params)
    L = params.L
    profile = params.profile
    energy(start, params)  # a ValueError where start does not fit params
    x = start.positions.copy()
    iterations = 0

    while True:
        g = energy_gradient(x, params)
        lo, hi = _free_range(x, g, L, 0.0)
        grad_norm = float(np.max(np.abs(g[lo:hi]), initial=0.0))
        if grad_norm <= settings.grad_tol:
            break
        if iterations >= MAX_ITER:
            raise NoConvergence(
                f"descent did not reach grad_tol={settings.grad_tol} "
                f"in MAX_ITER={MAX_ITER} iterations",
                iterations=iterations,
                grad_norm=grad_norm,
            )

        p = _newton_direction(x, g, np.asarray(profile.slope_at(x), dtype=float), lo, hi)
        t = 1.0
        while True:
            trial = x + t * p
            if trial[0] > 0.0:
                trial[0] = 0.0
            if trial[-1] < -L:
                trial[-1] = -L
            move = trial - x
            if not np.any(move):
                raise NoConvergence(
                    f"line search stalled at projected gradient {grad_norm:.3g} "
                    f"above grad_tol={settings.grad_tol}",
                    iterations=iterations,
                    grad_norm=grad_norm,
                )
            if np.all(trial[:-1] > trial[1:]):
                du = _delta_energy(x, trial, profile)
                if du <= _ARMIJO * float(np.sum(g * move)):
                    break
            t *= 0.5
        x = trial
        iterations += 1

    pinned = x[-1] <= -L + 1e-12 * L
    if pinned:
        x[-1] = -L
    config = Configuration(x)
    return FixedPointResult.from_residuals(
        config,
        residuals(config, params),
        Classification.BOUNDARY_PINNED if pinned else Classification.INTERIOR,
        iterations,
    )


def local_minimality_certificate(
    config: Configuration, params: ModelParams, grad_tol: float | None = None
) -> bool:
    """Second-order sufficient test for a strict local minimum, at O(N) cost.

    An end particle is held when it sits on its wall and the gradient pushes
    it into that wall by more than ``grad_tol``; every other particle is
    free.  The configuration is certified when the max-norm of the gradient
    over the free particles is at most ``grad_tol`` and ``_ldl_solve``
    replaces no pivot of the tridiagonal Hessian over them, i.e. every
    LDL^T pivot is positive and that block is positive definite (Nocedal &
    Wright, *Numerical Optimization*, Thm 12.6).  With no free particle
    (N = 1, both ends held) it is certified.  ``grad_tol`` defaults to 10
    times ``default_settings(params).grad_tol``, the residual bound
    ``multi_start_fixed_points`` accepts.
    """
    if grad_tol is None:
        grad_tol = 10.0 * default_settings(params).grad_tol
    x = config.positions
    g = energy_gradient(x, params)
    lo, hi = _free_range(x, g, params.L, grad_tol)
    if float(np.max(np.abs(g[lo:hi]), initial=0.0)) > grad_tol:
        return False
    if lo >= hi:
        return True
    diag, off = _hessian_bands(x, np.asarray(params.profile.slope_at(x), dtype=float))
    zeros = [0.0] * (hi - lo)  # only the pivots matter
    _, replaced = _ldl_solve(diag[lo:hi].tolist(), off[lo:hi - 1].tolist(), zeros)
    return not replaced


# ---------------------------------------------------------------------------
# Non-monotone showcase profile and multi-start search
# ---------------------------------------------------------------------------


def nonuniqueness_params(
    a: float, b: float, c: float, n_gaps: int
) -> ModelParams:
    """Chain on [-2, 0] driven by the tent profile with coupling c * N.

    The tent-shaped base force rises linearly from a - 2b at the left wall
    to the peak value a at x = -1, then falls to -a at the right wall (the
    parameters must satisfy b > a > 0).  It is positive only around the
    peak, so once multiplied by a strong coupling the chain splits into
    clusters separated by force barriers and many distinct local energy
    minima appear.
    """
    if not (b > a > 0.0):
        raise ValueError(f"need b > a > 0, got a={a}, b={b}")
    k = c * n_gaps
    tent = PiecewiseLinear([(-2.0, (a - 2.0 * b) * k), (-1.0, a * k), (0.0, -a * k)])
    return ModelParams(L=2.0, n_gaps=n_gaps, force=tent)


def _force_peak(params: ModelParams) -> float:
    """Interior abscissa of the largest force value, used to stratify starts."""
    L = params.L
    profile = params.profile
    peak = -0.5 * L
    if isinstance(profile, PiecewiseLinear):
        bx, by = profile.breakpoints, profile.values
        mask = (bx >= -L) & (bx <= 0.0)
        if mask.any():
            inner_x, inner_v = bx[mask], by[mask]
            peak = float(inner_x[int(np.argmax(inner_v))])
    return float(np.clip(peak, -0.98 * L, -0.02 * L))


def _stratified_start(
    params: ModelParams, m_right: int, peak: float, rng: np.random.Generator
) -> Configuration:
    L, n = params.L, params.n_gaps
    margin = 0.02 * min(-peak, L + peak)
    right = np.linspace(0.0, peak + margin, m_right)
    left = np.linspace(peak - margin, -L, n + 1 - m_right)
    pos = np.concatenate((right, left))
    gaps = pos[:-1] - pos[1:]
    room = 0.25 * np.minimum(gaps[:-1], gaps[1:])
    pos[1:-1] += rng.uniform(-1.0, 1.0, size=n - 1) * room
    return Configuration(pos)


def multi_start_fixed_points(
    params: ModelParams,
    n_starts: int,
    settings: MinimizeSettings | None = None,
) -> list[FixedPointResult]:
    """Minimize from stratified starts and return the distinct local minima.

    Starts vary how many particles begin to the right of the force peak.
    Results are deduplicated on max-abs position distance below 1e-3 * L / N
    (well under the one-gap separation of genuinely distinct minima, well
    over the convergence scatter of one basin), then each survivor must pass
    ``local_minimality_certificate`` at 10 ``settings.grad_tol`` (free
    gradient within it, reduced Hessian positive definite; O(N) per
    survivor).  Every interior particle is free, so that also bounds
    ``max_residual`` by the same tolerance.  Output order is by increasing
    energy; ties break on positions, so the result is independent of
    scheduling.
    """
    if n_starts < 1:
        raise ValueError(f"need at least one start, got {n_starts}")
    if settings is None:
        settings = default_settings(params)
    rng = np.random.default_rng(settings.seed)
    peak = _force_peak(params)
    n = params.n_gaps

    counts = np.unique(np.clip(np.round(np.linspace(1, n, n_starts)).astype(int), 1, n))
    found: list[tuple[float, FixedPointResult]] = []
    for m in counts:
        start = _stratified_start(params, int(m), peak, rng)
        result = minimize(params, start, settings)
        found.append((energy(result.config, params), result))

    found.sort(key=lambda item: (item[0], tuple(item[1].config.positions)))
    dedup_tol = 1e-3 * params.L / n
    distinct: list[tuple[float, FixedPointResult]] = []
    for u, result in found:
        pos = result.config.positions
        if any(
            float(np.max(np.abs(pos - kept.config.positions))) <= dedup_tol
            for _, kept in distinct
        ):
            continue
        distinct.append((u, result))

    tol_res = 10.0 * settings.grad_tol
    return [r for _, r in distinct if local_minimality_certificate(r.config, params, tol_res)]
