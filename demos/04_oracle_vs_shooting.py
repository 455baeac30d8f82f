"""Cross-validate the shooting solver against direct energy descent.

The two routes share nothing but the energy definition: one integrates the
force-balance recursion, the other minimizes the energy with projected
Newton steps.  Their fixed points should coincide to tight tolerance,
and the analytic gradient should match finite differences.
"""

import numpy as np

from coulomb_chain import (
    Configuration,
    Constant,
    ModelParams,
    critical_force_exact,
    energy,
    energy_gradient,
    minimize,
    solve_fixed_point,
    uniform_configuration,
)

print(f"{'N':>3} {'F':>10} {'class (solver)':>16} {'max |pos diff|':>15} {'descent iters':>14}")
for n in (2, 4, 6, 8):
    for F in (0.0, 5.0, 1.5 * critical_force_exact(n, 1.0)):
        params = ModelParams(L=1.0, n_gaps=n, force=Constant(F))
        sol = solve_fixed_point(params)
        orc = minimize(params, uniform_configuration(params))
        diff = float(np.max(np.abs(sol.config.positions - orc.config.positions)))
        print(f"{n:>3} {F:>10.4f} {sol.classification.value:>16} {diff:>15.2e} "
              f"{orc.iterations:>14}")

print()
print("Spot check: analytic gradient vs central differences (N=10, F=1)")
rng = np.random.default_rng(0)
params = ModelParams(L=1.0, n_gaps=10, force=Constant(1.0))
gaps = rng.uniform(0.5, 1.5, size=10)
gaps *= 0.85 / gaps.sum()
config = Configuration(-0.02 - np.concatenate(([0.0], np.cumsum(gaps))))
g = energy_gradient(config, params)
h = 1e-7
fd = np.empty_like(g)
for i in range(11):
    up = config.positions.copy()
    dn = config.positions.copy()
    up[i] += h
    dn[i] -= h
    fd[i] = (energy(Configuration(up), params) - energy(Configuration(dn), params)) / (2 * h)
print(f"worst relative error: {np.max(np.abs(g - fd) / np.abs(fd)):.2e}")
