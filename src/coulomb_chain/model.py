"""Model types, the energy and its force balance for a chain of like charges.

The chain lives on [-L, 0]: positions x_0 >= x_1 >= ... >= x_N with hard walls
at both ends, nearest neighbours repelling through the potential 1/|x_i -
x_{i+1}|, and an external force field F(x) >= 0 pushing every particle toward
the right wall at 0.  All forces handled here are renormalized ones (external
field divided by the interaction constant), with dimension length**-2, so
that a gap delta exerts pressure delta**-2 on its two endpoints and the two
terms of the energy balance without extra constants.

Derived quantities follow the same conventions everywhere:

* gap        delta_k = x_{k-1} - x_k          for k = 1..N
* pressure   f_k     = delta_k**-2
* energy     U = sum_k 1/delta_k - sum_i integral_{-L}^{x_i} F(x) dx

This module is the only one that writes U down.  ``energy`` evaluates it,
``energy_gradient`` differentiates it, and ``residuals`` reads the force
balance f_{k+1} + F(x_k) = f_k off that gradient, because the balance is
the statement dU/dx_k = 0.  The solvers and the descent oracle call these
three instead of restating them, and both return through
``FixedPointResult.from_residuals``, which reads a result's diagnostics off
``residuals``.  Which profiles admit a unique fixed point (non-negative and
non-increasing) is the shooting solver's check, not a profile method.

Every type is an immutable value object and every operation a pure function,
so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateConfigurationError

__all__ = [
    "Classification",
    "Configuration",
    "Constant",
    "FixedPointResult",
    "ForceProfile",
    "ModelParams",
    "PiecewiseLinear",
    "Residuals",
    "Scaled",
    "energy",
    "energy_gradient",
    "residuals",
    "uniform_configuration",
]


class Classification(str, Enum):
    """Terminal state of the left-most particle at a fixed point."""

    BOUNDARY_PINNED = "boundary_pinned"  # x_N = -L, f_N >= F(-L)
    INTERIOR = "interior"  # x_N > -L, f_N = F(x_N)


# ---------------------------------------------------------------------------
# Force profiles
# ---------------------------------------------------------------------------


class ForceProfile:
    """Renormalized external force as an evaluable profile on [-L, 0].

    Subclasses are immutable value objects.  Evaluation is clamped to a
    constant outside the profile's native range, which matters only while the
    shooting recursion transiently overshoots the left wall.
    """

    def force_at(self, x):
        raise NotImplementedError

    def integral_between(self, a, b):
        """Exact integral of the force from a to b, elementwise.

        Accurate at the scale of b - a, so that the energy change of a tiny
        move keeps its digits.
        """
        raise NotImplementedError

    def slope_at(self, x):
        """Derivative F'(x); at a breakpoint, the slope of the segment to its right."""
        raise NotImplementedError

    def scale(self, factor: float) -> "ForceProfile":
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(ForceProfile):
    """Spatially uniform non-negative force."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"constant force must be finite and >= 0, got {self.value}")
        object.__setattr__(self, "value", v)

    def force_at(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.value)
        return float(out) if out.ndim == 0 else out

    def integral_between(self, a, b):
        out = self.value * (np.asarray(b, dtype=float) - np.asarray(a, dtype=float))
        return float(out) if out.ndim == 0 else out

    def slope_at(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out

    def scale(self, factor):
        return Constant(self.value * factor)


class PiecewiseLinear(ForceProfile):
    """Continuous piecewise-linear force given by (position, value) breakpoints.

    Breakpoints must be strictly increasing in position.  Between breakpoints
    the force interpolates linearly; beyond the first/last breakpoint it
    extends as a constant.  Values may be negative (the descent oracle allows
    that; the shooting solver rejects such profiles).
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = [(float(p), float(v)) for p, v in points]
        if len(pts) < 2:
            raise ValueError("piecewise profile needs at least two breakpoints")
        bx = np.array([p for p, _ in pts])
        by = np.array([v for _, v in pts])
        if not np.all(np.isfinite(bx)) or not np.all(np.isfinite(by)):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(bx) <= 0.0):
            raise ValueError("breakpoint positions must be strictly increasing")
        self._bx = bx
        self._by = by
        self._slopes = np.diff(by) / np.diff(bx)
        # cumulative exact integral from bx[0] to each node
        seg = 0.5 * (by[1:] + by[:-1]) * np.diff(bx)
        self._node_integral = np.concatenate(([0.0], np.cumsum(seg)))
        for arr in (self._bx, self._by, self._slopes, self._node_integral):
            arr.setflags(write=False)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._bx.tolist(), self._by.tolist()))

    @property
    def breakpoints(self) -> np.ndarray:
        return self._bx

    @property
    def values(self) -> np.ndarray:
        return self._by

    @property
    def slopes(self) -> np.ndarray:
        """Slope of each segment between consecutive breakpoints."""
        return self._slopes

    def __repr__(self):
        return f"PiecewiseLinear({list(self.points)!r})"

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseLinear)
            and self._bx.shape == other._bx.shape
            and bool(np.all(self._bx == other._bx))
            and bool(np.all(self._by == other._by))
        )

    def force_at(self, x):
        out = np.interp(x, self._bx, self._by)
        return float(out) if np.ndim(out) == 0 else out

    def _integral_from_first_node(self, x):
        bx, by = self._bx, self._by
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(bx[1:-1], x, side="right")  # segment, clamped to the end ones
        dx = x - bx[j]
        inside = self._node_integral[j] + by[j] * dx + 0.5 * self._slopes[j] * dx * dx
        below = by[0] * (x - bx[0])
        above = self._node_integral[-1] + by[-1] * (x - bx[-1])
        return np.where(x < bx[0], below, np.where(x > bx[-1], above, inside))

    def integral_between(self, a, b):
        # With both endpoints in one linear (or flat-extension) region the
        # trapezoid rule is exact and free of large-value cancellation;
        # endpoints in different regions are far apart, where the plain
        # difference of antiderivatives is already well conditioned.
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        same = np.searchsorted(self._bx, a, side="right") == np.searchsorted(self._bx, b, side="right")
        trapezoid = 0.5 * (np.interp(a, self._bx, self._by) + np.interp(b, self._bx, self._by)) * (b - a)
        far = self._integral_from_first_node(b) - self._integral_from_first_node(a)
        out = np.where(same, trapezoid, far)
        return float(out) if out.ndim == 0 else out

    def slope_at(self, x):
        bx = self._bx
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(bx[1:-1], x, side="right")
        out = np.where((x >= bx[0]) & (x < bx[-1]), self._slopes[j], 0.0)
        return float(out) if out.ndim == 0 else out

    def scale(self, factor):
        return PiecewiseLinear([(p, v * factor) for p, v in self.points])


@dataclass(frozen=True)
class Scaled(ForceProfile):
    """Constant force that grows with the chain size as c * N**gamma.

    Stays symbolic: ``ModelParams`` resolves it against its gap count into
    ``ModelParams.profile``, which is what lets phase sweeps declare a
    scaling once and reuse it across N.  It cannot be evaluated itself.
    """

    c: float
    gamma: float

    def __post_init__(self):
        if not (self.c > 0.0) or not (self.gamma > 0.0):
            raise ValueError("scaled force needs c > 0 and gamma > 0")

    def scale(self, factor):
        return Scaled(self.c * factor, self.gamma)


# ---------------------------------------------------------------------------
# Parameters and configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Segment length, gap count and force profile of one chain instance.

    ``n_gaps`` is the number of gaps N; the chain has N + 1 particles.
    ``force`` is kept as declared; ``profile`` is the evaluable force, with a
    ``Scaled(c, gamma)`` declaration resolved to ``Constant(c * N**gamma)``.
    """

    L: float
    n_gaps: int
    force: ForceProfile
    profile: ForceProfile = field(init=False, compare=False)

    def __post_init__(self):
        if not (float(self.L) > 0.0) or not math.isfinite(float(self.L)):
            raise ValueError(f"segment length must be positive, got {self.L}")
        if int(self.n_gaps) < 1 or int(self.n_gaps) != self.n_gaps:
            raise ValueError(f"n_gaps must be an integer >= 1, got {self.n_gaps}")
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "n_gaps", int(self.n_gaps))
        if not isinstance(self.force, ForceProfile):
            raise TypeError("force must be a ForceProfile")
        if isinstance(self.force, PiecewiseLinear):
            bx = self.force.breakpoints
            if bx[0] > -self.L or bx[-1] < 0.0:
                raise ValueError(
                    f"piecewise profile must cover [-L, 0] = [{-self.L}, 0], "
                    f"got [{bx[0]}, {bx[-1]}]"
                )
        profile = self.force
        if isinstance(profile, Scaled):
            profile = Constant(profile.c * float(self.n_gaps) ** profile.gamma)
        object.__setattr__(self, "profile", profile)

    @classmethod
    def from_physical(
        cls,
        L: float,
        n_gaps: int,
        alpha_ext: float,
        alpha_int: float,
        base_force: ForceProfile,
    ) -> "ModelParams":
        """Build params from physical constants, renormalizing the force.

        The fixed points depend on the external field only through
        F = (alpha_ext / alpha_int) * F0, so that ratio is applied here once
        and the rest of the library never sees the raw constants.
        """
        if not (alpha_ext > 0.0 and alpha_int > 0.0):
            raise ValueError("interaction constants must be positive")
        return cls(L=L, n_gaps=n_gaps, force=base_force.scale(alpha_ext / alpha_int))


@dataclass(frozen=True, eq=False)
class Configuration:
    """Ordered particle positions x_0 > x_1 > ... > x_N with x_0 <= 0.

    Gaps and pressures are recomputed from positions on every access;
    positions are the single source of truth.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("need a 1-D array of at least two positions")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if pos[0] > 0.0:
            raise ValueError(f"right-most particle must satisfy x_0 <= 0, got {pos[0]}")
        d = -np.diff(pos)
        if np.any(d == 0.0):
            raise DegenerateConfigurationError("coinciding particles (zero gap)")
        if np.any(d < 0.0):
            raise ValueError("positions must be strictly decreasing")
        if not np.all(np.isfinite(d ** -2.0)):
            raise DegenerateConfigurationError("gap too small for a finite pressure")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_gaps(self) -> int:
        return self.positions.size - 1

    @property
    def gaps(self) -> np.ndarray:
        """delta_k = x_{k-1} - x_k, k = 1..N."""
        return -np.diff(self.positions)

    @property
    def pressures(self) -> np.ndarray:
        """f_k = delta_k**-2, k = 1..N."""
        return self.gaps ** -2.0


class Residuals(NamedTuple):
    """Raw force-balance diagnostics of a configuration.

    ``interior[k-1] = f_{k+1} + F(x_k) - f_k`` for k = 1..N-1, and
    ``terminal_slack = f_N - F(x_N)``.  A configuration is a fixed point iff
    every interior entry vanishes and the slack either vanishes (interior
    left end) or is non-negative with x_N = -L (pinned left end).
    """

    interior: np.ndarray
    terminal_slack: float


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """A solved configuration plus classification and solve diagnostics."""

    config: Configuration
    classification: Classification
    delta1: float
    max_residual: float
    iterations: int
    terminal_slack: float

    @classmethod
    def from_residuals(
        cls,
        config: Configuration,
        res: Residuals,
        classification: Classification,
        delta1: float,
        iterations: int,
    ) -> "FixedPointResult":
        """Result with diagnostics read off ``res``, the residuals of ``config``.

        ``max_residual`` is the largest interior imbalance, 0 when N = 1
        leaves no interior particle.
        """
        return cls(
            config=config,
            classification=classification,
            delta1=float(delta1),
            max_residual=float(np.max(np.abs(res.interior), initial=0.0)),
            iterations=iterations,
            terminal_slack=res.terminal_slack,
        )


def uniform_configuration(params: ModelParams) -> Configuration:
    """Equally spaced chain filling the whole segment."""
    return Configuration(np.linspace(0.0, -params.L, params.n_gaps + 1))


# ---------------------------------------------------------------------------
# Energy and residual evaluation
# ---------------------------------------------------------------------------


def _check_fits(config: Configuration, params: ModelParams):
    if config.n_gaps != params.n_gaps:
        raise ValueError(
            f"configuration has {config.n_gaps} gaps, params expect {params.n_gaps}"
        )
    if config.positions[-1] < -params.L:
        raise ValueError(
            f"left-most particle {config.positions[-1]} lies beyond the wall at {-params.L}"
        )


def energy(config: Configuration, params: ModelParams) -> float:
    """Total renormalized energy U = sum_k 1/delta_k - sum_i integral_{-L}^{x_i} F."""
    _check_fits(config, params)
    work = params.profile.integral_between(-params.L, config.positions)
    return float(np.sum(1.0 / config.gaps) - np.sum(work))


def energy_gradient(positions, params: ModelParams) -> np.ndarray:
    """Analytic gradient of the energy with respect to every position.

    For an interior particle dU/dx_i = f_i - f_{i+1} - F(x_i); the end
    particles keep only their single interaction term.  ``positions`` may be
    a Configuration or a plain array (the descent's unvalidated iterates).
    """
    x = positions.positions if isinstance(positions, Configuration) else np.asarray(positions, dtype=float)
    fv = np.asarray(params.profile.force_at(x), dtype=float)
    f = x[:-1] - x[1:]
    np.power(f, -2.0, out=f)
    g = np.empty_like(x)
    g[0] = -f[0] - fv[0]
    np.subtract(f[:-1], f[1:], out=g[1:-1])
    g[1:-1] -= fv[1:-1]
    g[-1] = f[-1] - fv[-1]
    return g


def residuals(config: Configuration, params: ModelParams) -> Residuals:
    """Interior force-balance residuals and the terminal slack.

    Both are read off ``energy_gradient``: the interior balance is -dU/dx_k
    and the slack is dU/dx_N.
    """
    _check_fits(config, params)
    g = energy_gradient(config, params)
    return Residuals(interior=-g[1:-1], terminal_slack=float(g[-1]))
