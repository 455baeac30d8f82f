"""Independent numeric routes that tests compare the library against.

``wall_force`` finds the wall-departure force by bisection over full
shooting solves, without using the exact sum formula that
``critical_force_exact`` evaluates.  ``bisect_fixed_point`` is the
shooting solver's earlier search: plain bisection on the terminal predicate,
refined to float exhaustion on the pinned branch, where only the last
position is snapped to -L.  ``shoot_constant`` is the constant-force shot as
first vectorized, one fresh array per intermediate.  ``render_csv_rows`` is
the CLI's earlier row-wise CSV renderer: ``csv.writer`` over one list per
row.  ``coordinate_certificate`` is the descent oracle's earlier minimality
check: every feasible +-eps single-particle move must raise the energy, at
2 (N + 1) full energy evaluations.
"""

import csv
import dataclasses
import io

import numpy as np

from coulomb_chain import (
    Classification,
    Configuration,
    Constant,
    FixedPointResult,
    ModelParams,
    NoConvergence,
    ShootingOutcome,
    residuals,
    shoot,
    solve_fixed_point,
)
from coulomb_chain.minimizer import _energy_raw


def wall_force(params: ModelParams, tol_rel: float = 1e-9, max_iter: int = 200) -> float:
    """Constant-force threshold at which the left particle leaves the wall.

    Outer bisection over the force magnitude: below the returned value the
    solver classifies the fixed point as pinned, above it as interior.  Only
    meaningful for constant profiles; the magnitude stored in ``params`` is
    ignored.
    """
    if not isinstance(params.profile, Constant):
        raise TypeError("wall_force is defined for constant force profiles only")

    def interior(F: float) -> bool:
        p = dataclasses.replace(params, force=Constant(F))
        sol = solve_fixed_point(p)
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

    def predicate(out) -> bool:
        return out.complete and out.x_terminal > -L and out.terminal_slack > 0.0

    def bisect(lo, out_lo, hi, out_hi, iterations, budget, width):
        while hi - lo > width * hi and iterations < budget:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            out_mid = shoot(mid, params)
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
    out_lo, out_hi = shoot(lo, params), shoot(hi, params)
    if not predicate(out_lo) or predicate(out_hi):
        raise NoConvergence("first-gap bracket does not hold")
    lo, out_lo, hi, out_hi, iterations = bisect(lo, out_lo, hi, out_hi, 2, max_iter, tol_rel)
    if hi - lo > tol_rel * hi and iterations >= max_iter:
        raise NoConvergence(f"bisection did not reach tol_rel={tol_rel}")

    def is_pinned(out) -> bool:
        return not out.complete or out.x_terminal <= -L

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
        if out_hi.complete and out_hi.x_terminal > -L:
            if abs(out_hi.terminal_slack) < abs(out_lo.terminal_slack):
                best = out_hi
        positions = best.positions
        classification = Classification.INTERIOR

    config = Configuration(positions)
    res = residuals(config, params)
    return FixedPointResult(
        config=config,
        classification=classification,
        delta1=float(lo),
        max_residual=float(np.max(np.abs(res.interior))) if res.interior.size else 0.0,
        iterations=iterations,
        terminal_slack=res.terminal_slack,
    )


def shoot_constant(delta1: float, F: float, n: int) -> ShootingOutcome:
    """Constant-force shot: pressures f_k = f_1 - (k-1) F, gaps f_k**-0.5."""
    f1 = delta1 ** -2.0
    if not f1 > 0.0:
        return ShootingOutcome(None, 1, None, None)
    f = f1 - F * np.arange(n, dtype=float)
    bad = f <= 0.0
    if bad.any():
        return ShootingOutcome(None, int(np.argmax(bad)) + 1, None, None)
    gaps = f ** -0.5
    positions = np.empty(n + 1)
    positions[0] = 0.0
    np.cumsum(gaps, out=positions[1:])
    np.negative(positions[1:], out=positions[1:])
    return ShootingOutcome(positions, None, float(f[-1]), F)


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


def coordinate_certificate(
    config: Configuration, params: ModelParams, eps: float | None = None
) -> bool:
    """Check that every feasible +-eps single-particle move raises the energy.

    A cheap coordinate-wise certificate, not a Hessian test; ``eps`` defaults
    to 1e-6 * L / N.  Moves that would break ordering or leave the segment
    are skipped.
    """
    L = params.L
    if eps is None:
        eps = 1e-6 * L / params.n_gaps
    profile = params.profile
    x = config.positions
    u0 = _energy_raw(x, profile, L)
    guard = 1e-12 * max(1.0, abs(u0))
    for i in range(x.size):
        for s in (eps, -eps):
            xi = x[i] + s
            if i == 0 and xi > 0.0:
                continue
            if i == x.size - 1 and xi < -L:
                continue
            if i > 0 and xi >= x[i - 1]:
                continue
            if i < x.size - 1 and xi <= x[i + 1]:
                continue
            trial = x.copy()
            trial[i] = xi
            if _energy_raw(trial, profile, L) < u0 - guard:
                return False
    return True
