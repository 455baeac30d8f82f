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
free to move, and every pivot positive in the LDL^T factorization of their
Hessian.

The LDL^T pass runs in LAPACK's dpttrf and dpttrs from the OpenBLAS that
numpy's wheels bundle (ILP64, ``libscipy_openblas64_``), called through
ctypes and resolved on the first descent; a numpy without it makes that
descent raise ImportError, and every other route keeps working.  Each step
forms the gaps, their reciprocals and the force values once, for the
gradient, the Hessian and the line search.  A step costs about 80-130 ns
per particle at N = 1e5 to 1e6 (x86-64, numpy 2.4.6), against 640-960 ns
with the earlier Python loop over the rows, with the same bits.

The Hessian's couplings 2/d**3 are formed as 2 (1/d)**3 by a divide and
products, and the Armijo test's directional derivative as numpy's own sum
of g * move, not a BLAS dot product, whose bits depend on the kernel
OpenBLAS picks for the CPU.  dpttrf and dpttrs are compiled Fortran loops
in the recurrence's own order, with no kernel chosen by CPU, and match a
Python loop over the rows bit for bit on x86-64.  With the model's + - * /
and sqrt, a descent's bytes depend on its inputs alone.

``minimize`` is a pure function of (params, start, settings); the
multi-start search is seeded and sorts before deduplicating, so its output
does not depend on evaluation order.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
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
    gradient_terms,
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


# numpy's bundled OpenBLAS, by wheel layout: numpy.libs beside the package
# (Linux, Windows) or numpy/.dylibs (macOS).  Read at the first descent.
_NUMPY_DIR = os.path.dirname(np.__file__)
_OPENBLAS = (
    os.path.join(_NUMPY_DIR, os.pardir, "numpy.libs", "libscipy_openblas64_*"),
    os.path.join(_NUMPY_DIR, ".dylibs", "libscipy_openblas64_*"),
)
_LAPACK_SYMBOLS = ("scipy_dpttrf_64_", "scipy_dpttrs_64_")


@functools.cache
def _lapack():
    """LAPACK's dpttrf and dpttrs (ILP64) from numpy's bundled OpenBLAS.

    Resolved on the first descent, not at import, and kept.  The symbol
    names belong to numpy's wheels, not to its API, so there is no fallback:
    ImportError names the library or the symbols that are missing, as on a
    numpy built on Accelerate or a system LAPACK.
    """
    paths = sorted(path for pattern in _OPENBLAS for path in glob.glob(pattern))
    if not paths:
        raise ImportError(
            "the descent needs LAPACK's dpttrf and dpttrs from numpy's bundled "
            f"OpenBLAS, and numpy {np.__version__} ships none: nothing matches "
            + " or ".join(_OPENBLAS)
        )
    lib = ctypes.CDLL(paths[0])
    missing = [name for name in _LAPACK_SYMBOLS if not hasattr(lib, name)]
    if missing:
        raise ImportError(f"numpy's OpenBLAS {paths[0]} exports no {' or '.join(missing)}")
    factor, solve = (getattr(lib, name) for name in _LAPACK_SYMBOLS)
    index, floats = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    factor.argtypes = (index, floats, floats, index)  # N, D, E, INFO
    # N, NRHS, D, E, B, LDB, INFO
    solve.argtypes = (index, index, floats, floats, floats, index, index)
    factor.restype = solve.restype = None
    return factor, solve


def _floats(a: np.ndarray, n: int):
    """LAPACK's pointer to the first of ``n`` float64s that ``a`` holds; None where n is 0.

    ``from_buffer`` also refuses an array that is read-only or not contiguous.
    """
    if a.dtype != np.float64 or a.ndim != 1 or a.size < n:
        raise ValueError(f"LAPACK needs {n} float64s in a flat array, got {a.dtype} {a.shape}")
    return ctypes.c_double.from_buffer(a) if n else None


def _dpttrf(d: np.ndarray, e: np.ndarray) -> int:
    """LAPACK dpttrf in place: pivots over the diagonal ``d``, ratios over ``e``.

    Returns INFO, the 1-based row of the first pivot <= 0, where it stops,
    or 0.  A NaN pivot passes that test.
    """
    n = d.size
    info = ctypes.c_int64()
    _lapack()[0](ctypes.c_int64(n), _floats(d, n), _floats(e, n - 1), info)
    return info.value


def _positive_definite(diag: np.ndarray, off: np.ndarray) -> bool:
    """Whether dpttrf, factoring in place over the bands, finds every pivot positive.

    That is where ``_modified_ldl_solve`` would replace no pivot.  INFO 0
    leaves every pivot positive or NaN, and a NaN pivot makes every later
    one NaN, so the last pivot decides.
    """
    return _dpttrf(diag, off) == 0 and bool(diag[-1] > 0.0)


def _hessian_bands(r: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal energy Hessian.

    Each gap d, given as its reciprocal ``r``, contributes 2/d**3 = 2 r**3
    to the diagonal entries of its two particles and -2 r**3 to the entry
    coupling them; the external work adds -F'(x_i) to the diagonal.
    """
    c = 2.0 * r
    c *= r
    c *= r
    diag = np.negative(slope)
    diag[:-1] += c
    diag[1:] += c
    return diag, np.negative(c, out=c)


def _modified_ldl_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> bool:
    """Solve T p = rhs in place in ``rhs`` for symmetric tridiagonal T by one LDL^T pass.

    A pivot that is not positive is replaced by its magnitude, floored at
    1e-3 of its row's absolute sum (infinite where both are zero, which
    leaves that particle in place), so the solve is with a positive definite
    matrix (Nocedal & Wright, *Numerical Optimization*, §3.4).  Returns
    whether any pivot was replaced.

    LAPACK's dpttrf and dpttrs run the recurrence; where dpttrf stops at a
    pivot, the rule replaces it, that row's ratio and the next row's pivot
    are taken as dpttrf takes them, and dpttrf restarts on the rows below.
    A NaN pivot counts as replaced, as the rule would keep it NaN; the NaN
    solution then matches the rule's up to the signs of its NaNs, which
    IEEE 754 leaves open.  One row is divided, not multiplied by 1 / D as
    dpttrs does.  ``diag`` and ``off`` are left as they are.
    """
    n = rhs.size
    pivots, ratios = diag.copy(), off.copy()
    replaced = False
    start = 0
    while info := _dpttrf(pivots[start:], ratios[start:]):
        # in Python floats, whose inf - inf is NaN without a warning, as in LAPACK
        i = start + info - 1
        left = float(off[i - 1]) if i else 0.0
        right = float(off[i]) if i + 1 < n else 0.0
        row = abs(float(diag[i])) + abs(left) + abs(right)
        pivots[i] = pivot = max(abs(float(pivots[i])), 1e-3 * row) or math.inf
        replaced = True
        if i + 1 == n:
            break
        ratios[i] = ratio = right / pivot
        pivots[i + 1] = float(pivots[i + 1]) - ratio * right
        start = i + 1
    if n == 1:
        rhs[0] = float(rhs[0]) / float(pivots[0])
    else:
        rows, one = ctypes.c_int64(n), ctypes.c_int64(1)
        d, e, b = _floats(pivots, n), _floats(ratios, n - 1), _floats(rhs, n)
        _lapack()[1](rows, one, d, e, b, rows, ctypes.c_int64())
    # dpttrf lets a NaN pivot through, which the rule would keep NaN: every
    # later pivot is NaN either way, and so is every entry of the solution.
    return replaced or math.isnan(pivots[-1])


def _free_range(x: np.ndarray, g: np.ndarray, L: float, tol: float) -> tuple[int, int]:
    """Range [lo, hi) of particles free to move.

    An end particle is held when it sits on its wall and the gradient pushes
    it into that wall by more than ``tol``.
    """
    lo = 1 if x[0] >= 0.0 and g[0] < -tol else 0
    hi = x.size - 1 if x[-1] <= -L and g[-1] > tol else x.size
    return lo, hi


def _newton_direction(r: np.ndarray, g: np.ndarray, slope, lo: int, hi: int) -> np.ndarray:
    """Projected Newton direction: zero outside the free range [lo, hi).

    One ``_modified_ldl_solve`` pass over the free block of the Hessian, so
    the direction is always one of descent.  Raises NoConvergence where it
    is not finite.
    """
    diag, off = _hessian_bands(r, slope)
    p = np.zeros_like(g)
    free = np.negative(g[lo:hi], out=p[lo:hi])
    _modified_ldl_solve(diag[lo:hi], off[lo:hi - 1], free)
    if not np.isfinite(free).all():
        raise NoConvergence("Hessian is not finite: particles nearly coincide")
    return p


def _delta_energy(x, trial, move, d, dt, fv, profile) -> float:
    """Energy change U(trial) - U(x), accurate at the scale of the move.

    Small moves make the direct difference of two O(U) energies pure
    rounding noise; here each gap's contribution is formed from the exact
    difference of the two moves, so the result stays meaningful down to
    moves near machine precision.  ``d`` and ``dt`` are the gaps of ``x``
    and ``trial``, ``fv`` the force at ``x``.
    """
    mdiff = move[:-1] - move[1:]  # equals dt - d exactly
    interaction = -float((mdiff / (d * dt)).sum())
    external = float(profile.integral_between(x, trial, fa=fv).sum())
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
    ``settings.grad_tol``; ``iterations`` counts accepted steps.  Each step
    forms the gaps, their reciprocals and the force values once, for the
    gradient, the Hessian and the energy changes of the line search.

    The chain is labelled pinned when x_N <= -L + 1e-12 L at the stop.  For
    a constant force within |F/F_cr - 1| <= 1e-10 of the critical force the
    terminal slack lies below ``grad_tol``, both labels are fixed points to
    that tolerance, and this label can differ from ``solve_fixed_point``'s.

    Raises NoConvergence, carrying ``iterations`` and the last projected
    gradient norm ``grad_norm``, when the line search can make no further
    progress (the tolerance lies below the floating-point floor of the
    gradient) or ``MAX_ITER`` = 500,000 accepted steps did not reach it.
    The first descent in a process raises ImportError where numpy ships no
    OpenBLAS with LAPACK's dpttrf and dpttrs.
    """
    if settings is None:
        settings = default_settings(params)
    L = params.L
    profile = params.profile
    energy(start, params)  # a ValueError where start does not fit params
    x = start.positions.copy()
    iterations = 0

    while True:
        d, r, fv, g = gradient_terms(x, params)
        lo, hi = _free_range(x, g, L, 0.0)
        grad_norm = float(np.abs(g[lo:hi]).max(initial=0.0))
        if grad_norm <= settings.grad_tol:
            break
        if iterations >= MAX_ITER:
            raise NoConvergence(
                f"descent did not reach grad_tol={settings.grad_tol} "
                f"in MAX_ITER={MAX_ITER} iterations",
                iterations=iterations,
                grad_norm=grad_norm,
            )

        p = _newton_direction(r, g, profile.slope_at(x), lo, hi)
        t = 1.0
        while True:
            trial = x + t * p if t < 1.0 else x + p  # 1.0 * p is p
            if trial[0] > 0.0:
                trial[0] = 0.0
            if trial[-1] < -L:
                trial[-1] = -L
            move = trial - x
            if not move.any():
                raise NoConvergence(
                    f"line search stalled at projected gradient {grad_norm:.3g} "
                    f"above grad_tol={settings.grad_tol}",
                    iterations=iterations,
                    grad_norm=grad_norm,
                )
            dt = trial[:-1] - trial[1:]  # all positive exactly where trial is ordered
            if (dt > 0.0).all():
                du = _delta_energy(x, trial, move, d, dt, fv, profile)
                if du <= _ARMIJO * float((g * move).sum()):
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
    over the free particles is at most ``grad_tol`` and LAPACK's dpttrf
    factors the tridiagonal Hessian over them with every pivot positive,
    none NaN, i.e. that block is positive definite (Nocedal & Wright,
    *Numerical Optimization*, Thm 12.6).  It factors once and solves
    nothing.  With no free particle (N = 1, both ends held) it is
    certified.  ``grad_tol`` defaults to 10 times
    ``default_settings(params).grad_tol``, the residual bound
    ``multi_start_fixed_points`` accepts.
    """
    if grad_tol is None:
        grad_tol = 10.0 * default_settings(params).grad_tol
    x = config.positions
    _, r, _, g = gradient_terms(config, params)
    lo, hi = _free_range(x, g, params.L, grad_tol)
    if float(np.max(np.abs(g[lo:hi]), initial=0.0)) > grad_tol:
        return False
    if lo >= hi:
        return True
    diag, off = _hessian_bands(r, params.profile.slope_at(x))
    return _positive_definite(diag[lo:hi], off[lo:hi - 1])


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
    scheduling.  The minima are those the starts reached, so their count is
    a lower bound (at N = 51, c = 8 it grows 8 -> 15 -> 31 with 8, 16 and 52
    starts), and last-bit changes elsewhere can redraw which minima they are.
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
