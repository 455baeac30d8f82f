"""The four density phases under the force scaling F = c * N**gamma.

Solves a large chain for one representative (c, gamma) per phase,
classifies it from finite-N evidence, and compares the empirical histogram
against the predicted limiting density where one exists.
"""

import numpy as np

from coulomb_chain import (
    ModelParams,
    Phase,
    Scaled,
    asymptotic_density,
    classify_phase,
    histogram,
    solve_fixed_point,
)

N, L = 10 ** 4, 1.0

cases = [
    ("sub-linear force, uniform density", 1.0, 0.5),
    ("linear force below critical, smooth pinned density", 2.0, 1.0),
    ("linear force above critical, detached support", 16.0, 1.0),
    ("super-linear force, collapse to the origin", 1.0, 2.0),
]

for title, c, gamma in cases:
    params = ModelParams(L=L, n_gaps=N, force=Scaled(c=c, gamma=gamma))
    sol = solve_fixed_point(params)
    report = classify_phase(params, sol)
    print("=" * 70)
    print(f"{title}   (c={c}, gamma={gamma})")
    print("=" * 70)
    print(f"detected phase        : {report.detected.value}"
          + (" [ambiguous evidence]" if report.ambiguous else ""))
    print(f"x_N                   : {report.x_leftmost:.5f}")
    print(f"delta_1 * N / L       : {report.delta1_scaled:.5f}")
    print(f"N * max gap deviation : {report.n_max_gap_dev:.5f}")
    if report.sup_deviation is not None:
        print(f"histogram vs predicted density, sup deviation: "
              f"{report.sup_deviation:.4f}")
    if report.detected is Phase.DETACHED:
        edge = asymptotic_density(c, gamma, L).support_left
        print(f"predicted support edge: {edge:.4f} (-2/sqrt(c))")
        hist = histogram(sol.config, params, n_bins=20)
        left = hist.mass[hist.bin_edges[1:] <= edge]
        print(f"mass left of the predicted edge: {float(left.sum()):.2e}")
    if report.detected is Phase.DELTA_AT_ORIGIN:
        hist = histogram(sol.config, params, n_bins=100)
        near = float(hist.mass[hist.bin_edges[:-1] >= -0.05].sum())
        print(f"mass within 0.05 of the origin: {near:.4f}")
    print()
