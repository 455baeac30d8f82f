"""Explicit formulas for the constant-force chain and its large-N limits.

Everything here is exact algebra on top of two facts about constant force F:
the pressure recursion telescopes to f_k = f_1 - (k-1) F, giving the gap
sequence

    delta_k = delta_1 * (1 - delta_1**2 (k-1) F)**-0.5,

and on the half-line (no left wall) the terminal balance forces
f_k = (N-k+1) F exactly, so the chain extent is F**-0.5 * sum_k k**-0.5.
Setting that extent equal to L yields the exact wall-departure force

    F_cr(N, L) = (sum_{k=1..N} k**-0.5 / L)**2  ~  (4 / L**2) N.

Asymptotic densities follow from the gap sequences by a change of variables.
Write k = a N with a in [0, 1] and let x(a) = -sum of the first a N gaps;
then rho(x(a)) = 1 / |dx/da|.  Two regimes have closed forms:

* Pinned regime, F = c N with c <= 4/L**2: with delta_1 = b L / N the
  continuum normalization integral gives 2 b / (1 + sqrt(1 - b**2 c L**2)) = 1
  (equivalently b = 4 / (4 + c L**2)), and inverting x(a) yields the linear
  density rho(x) = 1/(b L) + c x / 2, positive on (-L, 0).
* Detached regime, F = c N with c > 4/L**2: gaps follow the half-line law,
  x(a) = -(2/sqrt(c)) (1 - sqrt(1-a)), and the density is
  rho(x) = sqrt(c) (1 + x sqrt(c) / 2) supported on [-2/sqrt(c), 0].

Both integrate to one exactly.  Forces growing slower than N leave the
density uniform at 1/L; forces growing faster concentrate all mass at the
origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PositivityError

__all__ = [
    "AsymptoticDensity",
    "Phase",
    "asymptotic_density",
    "aux_model_extent",
    "aux_model_gaps",
    "c_critical",
    "critical_force_exact",
    "gaps_constant_force",
    "inverse_sqrt_sum",
    "phase2_scaling_factor",
]


class Phase(str, Enum):
    """Qualitative regime of the limiting particle density."""

    UNIFORM = "uniform"
    SMOOTH_POSITIVE = "smooth_positive"
    DETACHED = "detached"
    DELTA_AT_ORIGIN = "delta_at_origin"


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


def aux_model_gaps(F: float, n: int) -> np.ndarray:
    """Exact interior fixed-point gaps of the half-line chain.

    With no left wall the terminal pressure must equal the force, so
    f_k = (n-k+1) F and delta_k = ((n-k+1) F)**-0.5.
    """
    if not (F > 0.0):
        raise ValueError(f"half-line model needs F > 0, got {F}")
    if n < 1:
        raise ValueError(f"need at least one gap, got {n}")
    return (F * np.arange(n, 0, -1, dtype=float)) ** -0.5


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


def critical_force_exact(n: int, L: float) -> float:
    """Exact constant force at which the left particle leaves the wall."""
    if L <= 0.0:
        raise ValueError(f"segment length must be positive, got {L}")
    return (inverse_sqrt_sum(n) / L) ** 2


def c_critical(L: float) -> float:
    """Large-N coefficient of the critical force, F_cr ~ (4 / L**2) N."""
    if L <= 0.0:
        raise ValueError(f"segment length must be positive, got {L}")
    return 4.0 / (L * L)


def phase2_scaling_factor(c: float, L: float) -> float:
    """Continuum limit of delta_1 * N / L in the pinned linear-force regime.

    The normalization 2 b / (1 + sqrt(1 - b**2 c L**2)) = 1 is solved exactly
    by b = 4 / (4 + c L**2): square sqrt(1 - b**2 c L**2) = 2 b - 1.
    Defined for 0 < c <= 4/L**2; at the upper end b = 1/2, and b -> 1 as
    c -> 0 recovers the uniform chain.
    """
    if L <= 0.0:
        raise ValueError(f"segment length must be positive, got {L}")
    ccr = c_critical(L)
    if not (0.0 < c <= ccr * (1.0 + 1e-12)):
        raise ValueError(f"scaling coefficient must lie in (0, {ccr}], got {c}")
    return 4.0 / (4.0 + c * L * L)


@dataclass(frozen=True)
class AsymptoticDensity:
    """Limiting particle density for a force scaling F = c * N**gamma.

    ``b`` is set in the smooth pinned phase, ``support_left`` in the detached
    phase.  The point-mass phase carries no pointwise evaluator.
    """

    phase: Phase
    L: float
    c: float
    gamma: float
    b: float | None = None
    support_left: float | None = None

    def density(self, x):
        """Pointwise density rho(x); zero outside the support."""
        x = np.asarray(x, dtype=float)
        if self.phase is Phase.UNIFORM:
            rho = np.where((x >= -self.L) & (x <= 0.0), 1.0 / self.L, 0.0)
        elif self.phase is Phase.SMOOTH_POSITIVE:
            rho = np.where(
                (x >= -self.L) & (x <= 0.0),
                1.0 / (self.b * self.L) + 0.5 * self.c * x,
                0.0,
            )
        elif self.phase is Phase.DETACHED:
            rc = math.sqrt(self.c)
            rho = np.where((x >= self.support_left) & (x <= 0.0), rc * (1.0 + 0.5 * rc * x), 0.0)
        else:
            raise ValueError("point-mass limit has no pointwise density")
        return float(rho) if rho.ndim == 0 else rho


def asymptotic_density(c: float, gamma: float, L: float) -> AsymptoticDensity:
    """Classify the density phase of the scaling F = c * N**gamma.

    gamma < 1 leaves the density uniform; gamma = 1 gives the linear pinned
    profile up to c = 4/L**2 (the boundary value included) and the detached
    profile beyond it; gamma > 1 collapses all mass to the origin.
    """
    if not (c > 0.0) or not (gamma > 0.0):
        raise ValueError(f"need c > 0 and gamma > 0, got c={c}, gamma={gamma}")
    if L <= 0.0:
        raise ValueError(f"segment length must be positive, got {L}")
    if gamma < 1.0:
        return AsymptoticDensity(phase=Phase.UNIFORM, L=L, c=c, gamma=gamma)
    if gamma > 1.0:
        return AsymptoticDensity(phase=Phase.DELTA_AT_ORIGIN, L=L, c=c, gamma=gamma)
    if c <= c_critical(L):
        return AsymptoticDensity(
            phase=Phase.SMOOTH_POSITIVE,
            L=L,
            c=c,
            gamma=gamma,
            b=phase2_scaling_factor(c, L),
        )
    return AsymptoticDensity(
        phase=Phase.DETACHED,
        L=L,
        c=c,
        gamma=gamma,
        support_left=-2.0 / math.sqrt(c),
    )
