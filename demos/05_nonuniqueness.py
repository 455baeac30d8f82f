"""Many local minima under a non-monotone force.

The shooting solver requires a non-increasing force because that hypothesis
is exactly what makes the fixed point unique.  This demo drives a chain with
the tent-shaped profile (single interior force maximum, negative near the
walls): once the coupling c * N is strong enough, descent from stratified
starts lands in several distinct verified local minima, distinguished by how
many particles sit on each side of the force peak.
"""

import numpy as np

from coulomb_chain import (
    default_settings,
    energy,
    local_minimality_certificate,
    multi_start_fixed_points,
    nonuniqueness_params,
)

N = 51
A, B = 1.0, 2.0  # peak value and left slope of the base tent profile

print(f"Tent profile on [-2, 0], peak at x = -1, a={A}, b={B}, N={N}")
print(f"{'c':>6} {'distinct minima':>16}")
chosen = None
for c in (2.0, 4.0, 8.0, 16.0, 32.0):
    params = nonuniqueness_params(A, B, c, N)
    results = multi_start_fixed_points(params, n_starts=8)
    print(f"{c:>6} {len(results):>16}")
    if len(results) >= 2 and chosen is None:
        chosen = (c, params, results)

if chosen is None:
    raise SystemExit("no coupling in the grid split the chain into clusters")

c, params, results = chosen
print()
print(f"First coupling with several minima: c = {c}")
print(f"{'minimum':>8} {'energy':>14} {'right of peak':>14} {'certified':>10}")
for j, r in enumerate(results):
    n_right = int(np.sum(r.config.positions > -1.0))
    ok = local_minimality_certificate(r.config, params)
    print(f"{j:>8} {energy(r.config, params):>14.4f} {n_right:>14} {str(ok):>10}")

print()
print("Each minimum balances the same forces but splits the particles")
print("differently across the repelling region left of the peak.  Each is")
print("certified in O(N): the gradient over the particles free to move is")
print("within 10 grad_tol, and the Hessian over them is positive definite")
print("(every LDL^T pivot positive), so all are strict local minima.")
