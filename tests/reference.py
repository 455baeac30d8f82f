"""Independent numeric routes that tests compare the library against.

``wall_force`` finds the wall-departure force by bisection over full
shooting solves, without using the exact sum formula that
``critical_force_exact`` evaluates.
"""

import dataclasses

from coulomb_chain import Classification, Constant, ModelParams, NoConvergence, solve_fixed_point


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
