"""The wall-departure force: the classification flips at the exact sum formula.

The force at which the left particle detaches equals
(sum_{k=1..N} k**-0.5 / L)**2 exactly, and grows like (4/L**2) N for large
chains.  This script solves just below and just above that force to show
the pinned/interior flip, then checks the large-N trend and the L scaling.
"""

from coulomb_chain import (
    Classification,
    Constant,
    ModelParams,
    c_critical,
    critical_force_exact,
    solve_fixed_point,
)

L = 1.0

print("Shooting solves at F_cr * (1 -+ 1e-6): pinned below, interior above")
print(f"{'N':>6} {'exact F_cr':>14} {'below':>16} {'above':>10}")
for n in (1, 2, 10, 50, 100):
    exact = critical_force_exact(n, L)
    below, above = (
        solve_fixed_point(ModelParams(L=L, n_gaps=n, force=Constant(exact * factor)))
        for factor in (1 - 1e-6, 1 + 1e-6)
    )
    print(f"{n:>6} {exact:>14.6f} {below.classification.value:>16} "
          f"{above.classification.value:>10}")
    assert below.classification is Classification.BOUNDARY_PINNED
    assert above.classification is Classification.INTERIOR

print()
print(f"Large-N trend: F_cr / N should approach c_cr = 4/L^2 = {c_critical(L)}")
print(f"{'N':>8} {'F_cr/N':>10} {'gap to 4':>10}")
for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
    ratio = critical_force_exact(n, L) / n
    print(f"{n:>8} {ratio:>10.5f} {4.0 - ratio:>10.5f}")

print()
print("Scaling in the segment length: F_cr(N, L) = F_cr(N, 1) / L^2")
for length in (0.5, 2.0, 4.0):
    lhs = critical_force_exact(100, length)
    rhs = critical_force_exact(100, 1.0) / length ** 2
    print(f"  L = {length}: {lhs:.6f} vs {rhs:.6f}")
