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
from typing import NamedTuple

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


@dataclass(frozen=True)
class PiecewiseLinear(ForceProfile):
    """Continuous piecewise-linear force given by (position, value) breakpoints.

    ``points`` is the only field set by the caller; equality compares it.
    Breakpoints must be strictly increasing in position.  Between breakpoints
    the force interpolates linearly; beyond the first/last breakpoint it
    extends as a constant.  Values may be negative (the descent oracle allows
    that; the shooting solver rejects such profiles).

    Derived from ``points`` and read-only: ``breakpoints`` and ``values``,
    the ``slopes`` of the segments between them, and the ``kinks``, the
    slope change at each breakpoint, the two flat extensions included.  A
    profile whose slopes or slope changes overflow, such as a segment
    narrower than |rise| / 1.8e308, is rejected, because every integral
    across that segment would not be finite.
    """

    points: tuple[tuple[float, float], ...]
    breakpoints: np.ndarray = field(init=False, compare=False, repr=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)
    slopes: np.ndarray = field(init=False, compare=False, repr=False)
    kinks: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple((float(p), float(v)) for p, v in self.points)
        if len(pts) < 2:
            raise ValueError("piecewise profile needs at least two breakpoints")
        bx = np.array([p for p, _ in pts])
        by = np.array([v for _, v in pts])
        if not np.all(np.isfinite(bx)) or not np.all(np.isfinite(by)):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(bx) <= 0.0):
            raise ValueError("breakpoint positions must be strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(by) / np.diff(bx)
            kinks = np.diff(slopes, prepend=0.0, append=0.0)
        if not np.all(np.isfinite(kinks)):
            raise ValueError("slopes must be finite: a segment is too narrow for its rise")
        for arr in (bx, by, slopes, kinks):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "breakpoints", bx)
        object.__setattr__(self, "values", by)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "kinks", kinks)

    def force_at(self, x):
        out = np.interp(x, self.breakpoints, self.values)
        return float(out) if np.ndim(out) == 0 else out

    def integral_between(self, a, b):
        # Trapezoid rule minus one term per kink: a slope change ds at p adds
        # ds (x - p)_+ to F, whose integral over a < b falls short of its
        # trapezoid by ds (q - a)(b - q) / 2, with q = p clipped to [a, b]
        # (a kink outside drops out at q = a or q = b); for a > b the sign
        # flips.  Every term scales with b - a, so a tiny move keeps its
        # digits wherever it lies, breakpoints included.
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bend = np.zeros(np.broadcast(a, b).shape)
        for p, ds in zip(self.breakpoints.tolist(), self.kinks.tolist()):
            q = np.minimum(np.maximum(p, lo), hi)
            bend += ds * (q - a) * (b - q)
        d = b - a
        out = 0.5 * (d * (self.force_at(a) + self.force_at(b)) - np.sign(d) * bend)
        return float(out) if np.ndim(out) == 0 else out

    def slope_at(self, x):
        bx = self.breakpoints
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(bx[1:-1], x, side="right")
        out = np.where((x >= bx[0]) & (x < bx[-1]), self.slopes[j], 0.0)
        return float(out) if out.ndim == 0 else out


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
            try:
                profile = Constant(profile.c * float(self.n_gaps) ** profile.gamma)
            except OverflowError:
                raise ValueError(f"scaled force c * N**gamma overflows at N = {self.n_gaps}") from None
        object.__setattr__(self, "profile", profile)


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
        # One pass: gaps above 2**-512 (its pressure overflows), finite ends, no NaN.
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails too
            if not (-np.diff(pos).max() > 2.0 ** -512 and pos[0] <= 0.0 and math.isfinite(pos[-1])):
                if not np.all(np.isfinite(pos)):
                    raise ValueError("positions must be finite")
                if pos[0] > 0.0:
                    raise ValueError(f"right-most particle must satisfy x_0 <= 0, got {pos[0]}")
                d = -np.diff(pos)
                if np.any(d == 0.0):
                    raise DegenerateConfigurationError("coinciding particles (zero gap)")
                if np.any(d < 0.0):
                    raise ValueError("positions must be strictly decreasing")
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
    """A solved configuration plus classification and solve diagnostics.

    ``delta1`` is read off ``config``.  ``iterations`` counts Brent shots
    (piecewise force), Z evaluations (constant force) or descent steps.
    """

    config: Configuration
    classification: Classification
    max_residual: float
    iterations: int
    terminal_slack: float

    @property
    def delta1(self) -> float:
        return float(self.config.positions[0] - self.config.positions[1])

    @classmethod
    def from_residuals(
        cls,
        config: Configuration,
        res: Residuals,
        classification: Classification,
        iterations: int,
    ) -> "FixedPointResult":
        """Result with diagnostics read off ``res``, the residuals of ``config``.

        ``max_residual`` is the largest interior imbalance, 0 when N = 1
        leaves no interior particle.
        """
        return cls(
            config=config,
            classification=classification,
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
