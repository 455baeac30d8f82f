"""Explicit formulas for the constant-force chain and its large-N limits.

Everything here is exact algebra on top of two facts about constant force F:
the pressure recursion telescopes to f_k = f_1 - (k-1) F, giving the gap
sequence

    delta_k = delta_1 * (1 - delta_1**2 (k-1) F)**-0.5,

and on the half-line (no left wall) the terminal balance forces
f_k = (N-k+1) F exactly, so the chain extent is F**-0.5 * sum_k k**-0.5.
Setting that extent equal to L yields the exact wall-departure force

    F_cr(N, L) = (sum_{k=1..N} k**-0.5 / L)**2  ~  (4 / L**2) N.

Asymptotic densities follow from one continuum law.  With gaps 1/(N rho)
the pressures are f = N**2 rho**2, and the balance f_k - f_{k+1} = F(x_k)
becomes rho' = F / (2N).  Under F = c N**gamma the density is a line of
slope (c/2) N**(gamma-1) with unit mass, which leaves four phases:

* gamma < 1: the slope vanishes and rho = 1/L on [-L, 0];
* gamma = 1 and c <= 4/L**2: pinned, rho(0) = 1/L + c L/4 with slope c/2 on
  [-L, 0], where rho(-L) = 1/L - c L/4 stays non-negative;
* gamma = 1 beyond: detached, the line reaches zero at an edge -l with unit
  mass rho(0) l / 2 = 1, so rho(0) = sqrt(c) and l = 2/sqrt(c);
* gamma > 1: the slope diverges and all mass collapses to the origin.

The floats that reach output are formed with + - * / and sqrt alone, which
IEEE 754 rounds correctly on every platform and at every SIMD width: the
gaps as 1 / sqrt(f), the terms of Z as reciprocal square roots and their
products and quotients, summed by ``math.fsum``, and the critical force as
a product.  No pow, numpy's or the platform libm's, reaches output, so the
bytes do not depend on numpy's SIMD dispatch or on the libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "AsymptoticDensity",
    "Phase",
    "asymptotic_density",
    "aux_model_gaps",
    "c_critical",
    "critical_force_exact",
    "shifted_inverse_sqrt_sum",
]


class Phase(str, Enum):
    """Qualitative regime of the limiting particle density."""

    UNIFORM = "uniform"
    SMOOTH_POSITIVE = "smooth_positive"
    DETACHED = "detached"
    DELTA_AT_ORIGIN = "delta_at_origin"


def aux_model_gaps(F: float, n: int, u: float = 1.0) -> np.ndarray:
    """Exact interior fixed-point gaps of the half-line chain.

    With no left wall the terminal pressure must equal the force, so
    f_k = (n-k+1) F and delta_k = ((n-k+1) F)**-0.5.  A terminal pressure
    u F, u >= 1, gives the pinned gaps ((u + n - k) F)**-0.5.  Each is
    formed as 1 / sqrt(f), within 2 ulp of numpy's pow.
    """
    if not (F > 0.0):
        raise ValueError(f"half-line model needs F > 0, got {F}")
    if n < 1:
        raise ValueError(f"need at least one gap, got {n}")
    f = np.arange(n, 0, -1, dtype=float)
    f += u - 1.0
    f *= F
    np.sqrt(f, out=f)
    return np.divide(1.0, f, out=f)


def shifted_inverse_sqrt_sum(u: float, n: int) -> float:
    """Z(u, n) = sum_{i<n} (u + i)**-0.5 = zeta(1/2, u) - zeta(1/2, u + n), in O(1).

    A pinned chain has f_k = (u + N - k) F, Z(u, N) = L sqrt(F).  16 terms, then
    Euler-Maclaurin (B_2 .. B_8) from a = u + 16 to b = u + n, the integral as
    2 (n - 16) / (sqrt(a) + sqrt(b)).  Remainder <= |B_10| / 10! |f^(9)(a)|,
    8.7e-5 a**-9 of Z (3.3 eps at u = 1); 1 eps off mpmath for n <= 1e7.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    terms = [1.0 / math.sqrt(u + i) for i in range(min(n, 16))]
    if n > 16:
        a, b = u + 16, u + n
        ra, rb = 1.0 / math.sqrt(a), 1.0 / math.sqrt(b)
        terms += [2.0 * (n - 16) / (math.sqrt(a) + math.sqrt(b)), 0.5 * (ra - rb)]
        # sum_k B_2k / (2k)! f^(2k-1)(x), k = 1..4, taken as g(b) - g(a),
        # with t = x**-1.5 and w = x**-2
        for x, r, sign in ((b, rb, 1.0), (a, ra, -1.0)):
            t, w = r / x, 1.0 / x / x
            terms.append(sign * (-t / 24.0 + t * w / 384.0 - t * w * w / 1024.0
                                 + 143.0 * t * w * w * w / 163840.0))
    return math.fsum(terms)


def _check_length(L: float) -> None:
    if not 0.0 < L < math.inf:
        raise ValueError(f"segment length must be positive, got {L}")


def _finite_in_length(formula, L: float) -> float:
    """formula(L) for a checked L; a ValueError naming L where it overflows or is not normal."""
    _check_length(L)
    try:
        value = formula(L)
    except ZeroDivisionError:  # L * L underflows; an overflow is inf already
        value = math.inf
    if value < 2.0 ** -1022:  # subnormal or 0: L * L overflows, (Z/L)**2 underflows
        raise ValueError(f"segment length too long for a normal critical force, got {L}")
    if value < math.inf:
        return value
    raise ValueError(f"segment length too short for a finite critical force, got {L}")


def critical_force_exact(n: int, L: float) -> float:
    """Exact wall-departure force (Z(1, n) / L)**2; F equal to it is pinned (the tie rule)."""

    def formula(L):
        root = shifted_inverse_sqrt_sum(1.0, n) / L
        return root * root

    return _finite_in_length(formula, L)


def c_critical(L: float) -> float:
    """Large-N coefficient of the critical force, F_cr ~ (4 / L**2) N."""
    return _finite_in_length(lambda L: 4.0 / (L * L), L)


@dataclass(frozen=True)
class AsymptoticDensity:
    """Limiting density rho0 + slope * x on [support_left, 0], of unit mass.

    The point-mass phase is the limit rho0 = slope = inf, support_left = 0,
    and carries no pointwise evaluator.
    """

    phase: Phase
    rho0: float
    slope: float
    support_left: float

    def density(self, x):
        """Pointwise density rho(x); zero outside the support."""
        if self.phase is Phase.DELTA_AT_ORIGIN:
            raise ValueError("point-mass limit has no pointwise density")
        x = np.asarray(x, dtype=float)
        # clipped, so that a steep line far off its support cannot overflow
        line = self.rho0 + self.slope * np.clip(x, self.support_left, 0.0)
        rho = np.where((x >= self.support_left) & (x <= 0.0), line, 0.0)
        return float(rho) if rho.ndim == 0 else rho


def asymptotic_density(c: float, gamma: float, L: float) -> AsymptoticDensity:
    """The line of slope (c/2) N**(gamma-1) and unit mass for F = c * N**gamma.

    gamma < 1 leaves the density uniform; gamma = 1 gives the line pinned at
    -L up to c = 4/L**2 (the boundary value included) and the detached line
    beyond it; gamma > 1 collapses all mass to the origin.  The phase is
    decided from gamma and c alone, never from the rounded slope.
    """
    if not (c > 0.0) or not (gamma > 0.0):
        raise ValueError(f"need c > 0 and gamma > 0, got c={c}, gamma={gamma}")
    _check_length(L)
    if gamma < 1.0:
        return AsymptoticDensity(Phase.UNIFORM, 1.0 / L, 0.0, -L)
    if gamma > 1.0:
        return AsymptoticDensity(Phase.DELTA_AT_ORIGIN, math.inf, math.inf, 0.0)
    # where L * L overflows, c_critical(L) is not normal and c L**2 <= 4 decides
    if (c * L * L <= 4.0) if L * L == math.inf else (c <= c_critical(L)):
        return AsymptoticDensity(Phase.SMOOTH_POSITIVE, 1.0 / L + 0.25 * c * L, 0.5 * c, -L)
    return AsymptoticDensity(Phase.DETACHED, math.sqrt(c), 0.5 * c, -2.0 / math.sqrt(c))
