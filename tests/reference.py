"""Independent numeric routes that tests compare the library against.

``wall_force`` finds the wall-departure force by bisection over full
``bisect_fixed_point`` solves, without using the exact sum formula that
``critical_force_exact`` evaluates.  ``bisect_fixed_point`` is the
shooting solver's earlier search: plain bisection on the terminal predicate,
refined to float exhaustion on the pinned branch, where only the last
position is snapped to -L; it shoots constant force with ``shoot_constant``,
which the library no longer has, and a piecewise one with ``shoot_piecewise``,
so it uses no shot of the library.  ``shoot_constant`` is the constant-force
shot as first vectorized, one fresh array per intermediate, and ``shoot_piecewise``
the piecewise shot as first written, one segment lookup per particle, with
the library's step 1 / sqrt(f).  ``tangent_shot`` is Newton's shot as the
shooting solver first ran it, a scalar loop over ``shot_pieces`` that
carries the tangent (dx_k, df_k) in the first gap and keeps no positions.  ``render_csv_rows`` is
the CLI's earlier row-wise CSV renderer: ``csv.writer`` over one list per
row, and ``render_json`` its earlier unchunked JSON renderer: one
``json.dumps`` of the whole payload in one process.
``coordinate_certificate`` is the descent oracle's earlier minimality
check: every feasible +-eps single-particle move must raise the energy, at
2 (N + 1) full energy evaluations.  ``ldl_solve`` is the descent's
one-pass modified LDL^T solve as first written, a Python loop over the rows,
which the LAPACK route must match bit for bit.  ``ldl_solve_shifted`` and
``newton_direction_by_shift`` are the descent's earlier Newton step: an
LDL^T solve that gives up at the first pivot that is not positive, retried
under a diagonal shift that starts at 1e-3 of the stiffest coupling and
doubles (Nocedal & Wright, *Numerical Optimization*, Algorithm 3.3).
``gaps_constant_force`` and ``aux_model_extent`` restate closed forms that
the library only uses implicitly (the constant-force shot, the critical
force), and
``inverse_sqrt_sum`` is the sum behind the critical force by direct O(N)
summation.
``non_increasing_on`` and ``min_on`` are the shooting solver's earlier
admissibility rule, once methods of every force profile.
``exact_integral`` integrates a piecewise-linear profile in rational
arithmetic, one trapezoid per linear piece.  ``integral_between`` and
``slope_at`` are the profiles' methods as first written: a kink sum begun
from an array of zeros over a fresh list of the kinks, a masked segment
lookup, and an array of zeros as a constant force's slope.  ``configuration_error`` is
``Configuration``'s earlier validation, five array passes in a fixed order.
``diagnostics_by_diff`` reads a chain's gaps, pressures, residuals and phase
evidence off its positions by the formulas the library used before it took
the gaps once: ``-np.diff``, the pressure as ``(1 / d)**2`` (as the library
forms it), the gradient with the force as an array, and
``np.max(np.abs(...), initial=0.0)``.

``phase_density`` gives the limiting density phase by the three per-phase
formulas that the continuum law replaced, each found from the gap sequences
by a change of variables.  Write k = a N with a in [0, 1] and let x(a) = -sum
of the first a N gaps; then rho(x(a)) = 1 / |dx/da|.

* Pinned regime, F = c N with c <= 4/L**2: with delta_1 = b L / N the
  continuum normalization integral gives 2 b / (1 + sqrt(1 - b**2 c L**2)) = 1
  (equivalently b = 4 / (4 + c L**2), ``phase2_scaling_factor``), and
  inverting x(a) yields the linear density rho(x) = 1/(b L) + c x / 2,
  positive on (-L, 0).
* Detached regime, F = c N with c > 4/L**2: gaps follow the half-line law,
  x(a) = -(2/sqrt(c)) (1 - sqrt(1-a)), and the density is
  rho(x) = sqrt(c) (1 + x sqrt(c) / 2) supported on [-2/sqrt(c), 0].

Both integrate to one exactly.  Forces growing slower than N leave the
density uniform at 1/L; forces growing faster concentrate all mass at the
origin.
"""

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np

from coulomb_chain import (
    Classification,
    Configuration,
    Constant,
    CoulombChainError,
    DegenerateConfigurationError,
    FixedPointResult,
    ModelParams,
    NoConvergence,
    Phase,
    PiecewiseLinear,
    c_critical,
    residuals,
)
from coulomb_chain.minimizer import _hessian_bands
from coulomb_chain.shooting import ShootingOutcome


class PositivityError(CoulombChainError):
    """A closed-form gap sequence left its domain of validity.

    Carries the first 1-based gap index whose pressure would be non-positive.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"pressure not positive at gap k={index}")


def gaps_constant_force(delta1: float, F: float, n: int) -> np.ndarray:
    """Gap sequence generated by a first gap under constant force.

    Valid while 1 - delta1**2 (k-1) F stays positive for all k <= n;
    otherwise raises PositivityError naming the first failing gap.
    """
    if not (delta1 > 0.0):
        raise ValueError(f"first gap must be positive, got {delta1}")
    if F < 0.0:
        raise ValueError(f"force must be non-negative, got {F}")
    if n < 1:
        raise ValueError(f"need at least one gap, got {n}")
    t = delta1 * delta1 * F * np.arange(n, dtype=float)
    bad = t >= 1.0
    if bad.any():
        raise PositivityError(int(np.argmax(bad)) + 1)
    return delta1 * (1.0 - t) ** -0.5


def inverse_sqrt_sum(n: int) -> float:
    """sum_{k=1..n} k**-0.5 by direct summation."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return float(np.sum(np.arange(1, n + 1, dtype=float) ** -0.5))


def aux_model_extent(F: float, n: int) -> float:
    """Total length of the half-line chain, F**-0.5 * sum_k k**-0.5."""
    if not (F > 0.0):
        raise ValueError(f"half-line model needs F > 0, got {F}")
    return inverse_sqrt_sum(n) / math.sqrt(F)


def phase2_scaling_factor(c: float, L: float) -> float:
    """Continuum limit of delta_1 * N / L in the pinned linear-force regime.

    The normalization 2 b / (1 + sqrt(1 - b**2 c L**2)) = 1 is solved exactly
    by b = 4 / (4 + c L**2): square sqrt(1 - b**2 c L**2) = 2 b - 1.
    Defined for 0 < c <= 4/L**2; at the upper end b = 1/2, and b -> 1 as
    c -> 0 recovers the uniform chain.
    """
    ccr = c_critical(L)
    if not (0.0 < c <= ccr * (1.0 + 1e-12)):
        raise ValueError(f"scaling coefficient must lie in (0, {ccr}], got {c}")
    return 4.0 / (4.0 + c * L * L)


def phase_density(c: float, gamma: float, L: float):
    """(phase, rho) of F = c N**gamma by the per-phase formulas; rho is None for the point mass."""
    if gamma < 1.0:
        return Phase.UNIFORM, lambda x: np.where((x >= -L) & (x <= 0.0), 1.0 / L, 0.0)
    if gamma > 1.0:
        return Phase.DELTA_AT_ORIGIN, None
    if c <= c_critical(L):
        b = phase2_scaling_factor(c, L)
        return Phase.SMOOTH_POSITIVE, lambda x: np.where(
            (x >= -L) & (x <= 0.0), 1.0 / (b * L) + 0.5 * c * x, 0.0
        )
    rc = math.sqrt(c)
    return Phase.DETACHED, lambda x: np.where(
        (x >= -2.0 / rc) & (x <= 0.0), rc * (1.0 + 0.5 * rc * x), 0.0
    )


def wall_force(params: ModelParams, tol_rel: float = 1e-9, max_iter: int = 200) -> float:
    """Constant-force threshold at which the left particle leaves the wall.

    Outer bisection over the force magnitude: below the returned value
    ``bisect_fixed_point`` classifies the fixed point as pinned, above it as
    interior.  Only meaningful for constant profiles; the magnitude stored
    in ``params`` is ignored.
    """
    if not isinstance(params.profile, Constant):
        raise TypeError("wall_force is defined for constant force profiles only")

    def interior(F: float) -> bool:
        p = dataclasses.replace(params, force=Constant(F))
        sol = bisect_fixed_point(p)
        return sol.classification is Classification.INTERIOR

    f_lo = 0.0  # F = 0 is always pinned
    f_hi = 1.0 / params.L ** 2
    growth = 0
    while not interior(f_hi):
        f_lo = f_hi
        f_hi *= 4.0
        growth += 1
        if growth > 200:
            raise NoConvergence("could not bracket the wall-departure force")

    it = 0
    while f_hi - f_lo > tol_rel * f_hi:
        if it >= max_iter:
            raise NoConvergence("force bisection exceeded its iteration budget")
        mid = 0.5 * (f_lo + f_hi)
        if mid <= f_lo or mid >= f_hi:
            break
        if interior(mid):
            f_hi = mid
        else:
            f_lo = mid
        it += 1
    return 0.5 * (f_lo + f_hi)


def bisect_fixed_point(
    params: ModelParams, tol_rel: float = 1e-14, max_iter: int = 200
) -> FixedPointResult:
    """Fixed point by bisection on the first gap.

    The predicate "the shot completes with x_N > -L and positive terminal
    slack" holds at a machine-tiny first gap and fails at L/N (1 + 1e-9);
    bisection stops at a relative bracket width ``tol_rel``.
    """
    profile = params.profile
    L, n = params.L, params.n_gaps
    if isinstance(profile, Constant):
        def shoot_at(d1):
            return shoot_constant(d1, profile.value, n)
    else:
        def shoot_at(d1):
            return shoot_piecewise(d1, profile, n)

    def predicate(out) -> bool:
        return out.complete and out.positions[-1] > -L and out.terminal_slack > 0.0

    def bisect(lo, out_lo, hi, out_hi, iterations, budget, width):
        while hi - lo > width * hi and iterations < budget:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            out_mid = shoot_at(mid)
            iterations += 1
            if predicate(out_mid):
                lo, out_lo = mid, out_mid
            else:
                hi, out_hi = mid, out_mid
        return lo, out_lo, hi, out_hi, iterations

    hi = (L / n) * (1.0 + 1e-9)
    if isinstance(profile, Constant) and profile.value > 0.0 and n > 1:
        hi = min(hi, ((n - 1) * profile.value) ** -0.5)
    lo = 1e-150
    out_lo, out_hi = shoot_at(lo), shoot_at(hi)
    if not predicate(out_lo) or predicate(out_hi):
        raise NoConvergence("first-gap bracket does not hold")
    lo, out_lo, hi, out_hi, iterations = bisect(lo, out_lo, hi, out_hi, 2, max_iter, tol_rel)
    if hi - lo > tol_rel * hi and iterations >= max_iter:
        raise NoConvergence(f"bisection did not reach tol_rel={tol_rel}")

    def is_pinned(out) -> bool:
        return not out.complete or out.positions[-1] <= -L

    if is_pinned(out_hi):
        lo, out_lo, hi, out_hi, iterations = bisect(
            lo, out_lo, hi, out_hi, iterations, max_iter + 80, 0.0
        )
    if is_pinned(out_hi):
        positions = out_lo.positions.copy()
        positions[-1] = -L
        classification = Classification.BOUNDARY_PINNED
    else:
        best = out_lo
        if out_hi.complete and out_hi.positions[-1] > -L:
            if abs(out_hi.terminal_slack) < abs(out_lo.terminal_slack):
                best = out_hi
        positions = best.positions
        classification = Classification.INTERIOR

    config = Configuration(positions)
    res = residuals(config, params)
    return FixedPointResult(
        config=config,
        classification=classification,
        max_residual=float(np.max(np.abs(res.interior))) if res.interior.size else 0.0,
        iterations=iterations,
        terminal_slack=res.terminal_slack,
    )


def non_increasing_on(profile, a: float, b: float) -> bool:
    """No segment of a piecewise profile that overlaps (a, b) rises."""
    if not isinstance(profile, PiecewiseLinear):
        return True  # a constant
    bx = profile.breakpoints
    slopes = np.diff(profile.values) / np.diff(bx)
    overlap = (bx[:-1] < b) & (bx[1:] > a)
    return not np.any(slopes[overlap] > 0.0)


def min_on(profile, a: float, b: float) -> float:
    """Smallest of the force at a, at b and at every breakpoint in between."""
    if not isinstance(profile, PiecewiseLinear):
        return profile.value
    bx, by = profile.breakpoints, profile.values
    inner = by[(bx > a) & (bx < b)]
    return float(min(profile.force_at(a), profile.force_at(b), np.min(inner, initial=np.inf)))


def shoot_constant(delta1: float, F: float, n: int) -> ShootingOutcome:
    """Constant-force shot: pressures f_k = f_1 - (k-1) F, gaps f_k**-0.5."""
    f1 = delta1 ** -2.0
    if not f1 > 0.0:
        return ShootingOutcome(None, None)
    f = f1 - F * np.arange(n, dtype=float)
    if np.any(f <= 0.0):
        return ShootingOutcome(None, None)
    gaps = f ** -0.5
    positions = np.empty(n + 1)
    positions[0] = 0.0
    np.cumsum(gaps, out=positions[1:])
    np.negative(positions[1:], out=positions[1:])
    return ShootingOutcome(positions, float(f[-1]) - F)


def shoot_piecewise(delta1: float, profile: PiecewiseLinear, n: int) -> ShootingOutcome:
    """Piecewise shot that finds the segment of every particle afresh."""
    bx = profile.breakpoints.tolist()
    by = profile.values.tolist()
    slopes = profile.slopes.tolist()
    j = len(bx) - 2
    f = (1.0 / delta1) * (1.0 / delta1)
    if not f > 0.0:
        return ShootingOutcome(None, None)
    x = -delta1
    positions = [0.0, x]
    for k in range(1, n):
        while j > 0 and x < bx[j]:
            j -= 1
        if x < bx[0]:
            fv = by[0]
        else:
            fv = by[j] + slopes[j] * (x - bx[j])
        f -= fv
        if f <= 0.0:
            return ShootingOutcome(None, None)
        x -= 1.0 / math.sqrt(f)
        positions.append(x)
    pos = np.array(positions)
    return ShootingOutcome(pos, f - float(profile.force_at(pos[-1])))


def shot_pieces(profile: PiecewiseLinear) -> list[tuple[float, float, float, float]]:
    """The pieces of a shot, each (left end, anchor, value at anchor, slope).

    x only moves left, so they are visited right to left: segment j while
    x >= bx[j], then the flat extension left of bx[0].
    """
    bx, by, slopes = profile.breakpoints.tolist(), profile.values.tolist(), profile.slopes.tolist()
    pieces = [(bx[j], bx[j], by[j], slopes[j]) for j in range(len(bx) - 2, -1, -1)]
    pieces.append((-math.inf, bx[0], by[0], 0.0))
    return pieces


def tangent_shot(delta1: float, n: int, pieces) -> tuple[float, float, float, float] | None:
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


def table_rows(columns) -> list[list]:
    """Rows of a column-wise CLI table: a scalar column repeats on every row."""
    n_rows = max((len(col) for col in columns if isinstance(col, list)), default=1)
    return [[col[i] if isinstance(col, list) else col for col in columns] for i in range(n_rows)]


def render_csv_rows(header, rows) -> str:
    """CSV by ``csv.writer`` row by row, bools written as true/false."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([("true" if v else "false") if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


def render_json(payload) -> str:
    """The whole payload as one line of compact JSON; arrays and numpy scalars reach ``default``."""
    return json.dumps(payload, default=lambda v: v.tolist(), allow_nan=False) + "\n"


def coordinate_certificate(
    config: Configuration, params: ModelParams, eps: float | None = None
) -> bool:
    """Check that every feasible +-eps single-particle move raises the energy.

    A cheap coordinate-wise certificate, not a Hessian test; ``eps`` defaults
    to 1e-6 * L / N.  Moves that would break ordering or leave the segment
    are skipped.  Each feasible trial is one row of an array, and its energy
    the full sum over that row, taken here rather than through ``energy``,
    which would validate a Configuration per trial.
    """
    L = params.L
    if eps is None:
        eps = 1e-6 * L / params.n_gaps
    profile = params.profile

    def energy_of(x):  # one energy per row
        gaps = x[..., :-1] - x[..., 1:]
        return np.sum(1.0 / gaps, axis=-1) - np.sum(profile.integral_between(-L, x), axis=-1)

    x = config.positions
    n = x.size
    u0 = float(energy_of(x))
    guard = 1e-12 * max(1.0, abs(u0))
    i = np.tile(np.arange(n), 2)
    xi = np.concatenate((x + eps, x - eps))
    feasible = np.where(i > 0, xi < x[i - 1], xi <= 0.0)
    feasible &= np.where(i < n - 1, xi > x[np.minimum(i + 1, n - 1)], xi >= -L)
    i, xi = i[feasible], xi[feasible]
    trials = np.tile(x, (i.size, 1))
    trials[np.arange(i.size), i] = xi
    return not np.any(energy_of(trials) < u0 - guard)


def ldl_solve(diag: list, off: list, rhs: list) -> tuple[list, bool]:
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


def ldl_solve_shifted(diag: list, off: list, rhs: list, shift: float) -> list | None:
    """Solve (T + shift*I) p = rhs by LDL^T, or None at a pivot that is not positive."""
    n = len(diag)
    pivots = [0.0] * n
    ratios = [0.0] * n
    z = [0.0] * n
    pivot = diag[0] + shift
    if not pivot > 0.0:
        return None
    pivots[0] = pivot
    z[0] = rhs[0]
    for i in range(1, n):
        r = off[i - 1] / pivot
        pivot = diag[i] + shift - r * off[i - 1]
        if not pivot > 0.0:
            return None
        ratios[i - 1] = r
        pivots[i] = pivot
        z[i] = rhs[i] - r * z[i - 1]
    z[-1] /= pivots[-1]
    for i in range(n - 2, -1, -1):
        z[i] = z[i] / pivots[i] - ratios[i] * z[i + 1]
    return z


def newton_direction_by_shift(r, g, slope, lo: int, hi: int) -> np.ndarray:
    """Projected Newton direction, the shift doubled until the factorization succeeds."""
    diag, off = _hessian_bands(r, slope)
    diag_free = diag[lo:hi].tolist()
    off_free = off[lo:hi - 1].tolist()
    rhs = (-g[lo:hi]).tolist()
    shift = 0.0
    while (p_free := ldl_solve_shifted(diag_free, off_free, rhs, shift)) is None:
        shift = 2.0 * shift if shift else -1e-3 * float(np.min(off))
        if not np.isfinite(shift):
            raise NoConvergence("Hessian is not finite: particles nearly coincide")
    p = np.zeros_like(g)
    p[lo:hi] = p_free
    return p


def exact_integral(profile: PiecewiseLinear, a: float, b: float) -> Fraction:
    """Integral of the profile from a to b, exact in rational arithmetic.

    The breakpoints inside the interval split it into linear pieces, and the
    trapezoid rule is exact on each.
    """
    pts = [(Fraction(p), Fraction(v)) for p, v in profile.points]

    def force(x: Fraction) -> Fraction:
        if x <= pts[0][0]:
            return pts[0][1]
        for (p0, v0), (p1, v1) in zip(pts, pts[1:]):
            if x <= p1:
                return v0 + (v1 - v0) * (x - p0) / (p1 - p0)
        return pts[-1][1]

    lo, hi = sorted((Fraction(a), Fraction(b)))
    nodes = [lo] + [p for p, _ in pts if lo < p < hi] + [hi]
    total = sum((x1 - x0) * (force(x0) + force(x1)) / 2 for x0, x1 in zip(nodes, nodes[1:]))
    return total if a <= b else -total


def integral_between(profile: PiecewiseLinear, a, b, fa=None):
    """``PiecewiseLinear.integral_between`` as it was: a sum of kink terms begun from zeros."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    first, last = lo.min(initial=np.inf), hi.max(initial=-np.inf)
    bend = np.zeros(np.broadcast(a, b).shape)
    for p, ds in zip(profile.breakpoints.tolist(), profile.kinks.tolist()):
        # A kink at or beyond every point has q = a or q = b throughout,
        # so its term is exactly +-0 while ds (last - first) is finite,
        # and adding it would leave bend as it is.
        if (p <= first or p >= last) and math.isfinite(ds * (last - first)):
            continue
        q = np.minimum(np.maximum(p, lo), hi)
        bend += ds * (q - a) * (b - q)
    d = b - a
    if fa is None:
        fa = profile.force_at(a)
    out = 0.5 * (d * (fa + profile.force_at(b)) - np.sign(d) * bend)
    return float(out) if np.ndim(out) == 0 else out


def slope_at(profile, x):
    """``slope_at`` of both profiles as it was: zeros for a constant, a masked segment lookup."""
    if isinstance(profile, Constant):
        out = np.zeros_like(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out
    bx = profile.breakpoints
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(bx[1:-1], x, side="right")
    out = np.where((x >= bx[0]) & (x < bx[-1]), profile.slopes[j], 0.0)
    return float(out) if out.ndim == 0 else out


def configuration_error(positions) -> Exception | None:
    """The error ``Configuration(positions)`` raised under its earlier checks, or None."""
    pos = np.array(positions, dtype=float)
    if not np.all(np.isfinite(pos)):
        return ValueError("positions must be finite")
    if pos[0] > 0.0:
        return ValueError(f"right-most particle must satisfy x_0 <= 0, got {pos[0]}")
    d = -np.diff(pos)
    if np.any(d == 0.0):
        return DegenerateConfigurationError("coinciding particles (zero gap)")
    if np.any(d < 0.0):
        return ValueError("positions must be strictly decreasing")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(d ** -2.0)):
            return DegenerateConfigurationError("gap too small for a finite pressure")
    return None


def diagnostics_by_diff(positions, params: ModelParams) -> dict:
    """Gaps, pressures, residuals and classify_phase evidence, one fresh array per step."""
    x = np.array(positions, dtype=float)
    n, L = params.n_gaps, params.L
    gaps = -np.diff(x)
    fv = np.asarray(params.profile.force_at(x), dtype=float)
    f = 1.0 / (x[:-1] - x[1:])
    f *= f
    g = np.empty_like(x)
    g[0] = -f[0] - fv[0]
    np.subtract(f[:-1], f[1:], out=g[1:-1])
    g[1:-1] -= fv[1:-1]
    g[-1] = f[-1] - fv[-1]
    interior = -g[1:-1]
    return {
        "gaps": gaps,
        "pressures": (1.0 / gaps) ** 2,
        "interior": interior,
        "terminal_slack": float(g[-1]),
        "max_residual": float(np.max(np.abs(interior), initial=0.0)),
        "x_leftmost": float(x[-1]),
        "delta1_scaled": float(x[0] - x[1]) * n / L,
        "n_max_gap_dev": float(n * np.max(np.abs(gaps - L / n))),
    }
