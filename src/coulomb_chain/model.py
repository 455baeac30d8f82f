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

A pressure is formed as (1 / delta_k)**2, a divide and a product, which
IEEE 754 rounds correctly at every SIMD width, so the output bytes do not
depend on numpy's dispatch; 1 / (delta_k * delta_k) would round the product
into the subnormals for the gaps below 2**-511 that ``ModelParams`` admits.
The one pow left is the input's own, ``Scaled``'s c * N**gamma, which a
libm within 1 ulp returns exactly wherever N**gamma is a float, as at
gamma = 1.

This module is the only one that writes U down.  ``energy`` evaluates it,
``energy_gradient`` differentiates it, and ``residuals`` reads the force
balance f_{k+1} + F(x_k) = f_k off that gradient, because the balance is
the statement dU/dx_k = 0.  The solvers and the descent oracle call these
three instead of restating them (the descent through ``gradient_terms``,
which also hands back the gaps, reciprocal gaps and force values it
formed), and both return through ``FixedPointResult.from_residuals``,
which reads a result's diagnostics off ``residuals``.  They read the gaps
a ``Configuration`` keeps beside its positions, so a solved chain holds
two arrays, and its residual pass forms one more, the gradient, in place.
``ModelParams`` gates the force type and N/L; the uniqueness hypothesis
(F non-negative, non-increasing) is the shooting solver's check.

Every type is an immutable value object and every operation a pure function,
so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError

__all__ = [
    "Classification",
    "Configuration",
    "Constant",
    "FixedPointResult",
    "ModelParams",
    "PiecewiseLinear",
    "Residuals",
    "Scaled",
    "energy",
    "energy_gradient",
    "gradient_terms",
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


@dataclass(frozen=True)
class Constant:
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

    def integral_between(self, a, b, fa=None):
        """Exact integral value * (b - a), elementwise, accurate at the scale of b - a.

        ``fa``, the force at ``a`` where the caller has it, is not needed here.
        """
        out = self.value * (np.asarray(b, dtype=float) - np.asarray(a, dtype=float))
        return float(out) if out.ndim == 0 else out

    def slope_at(self, x):
        """Derivative F'(x) = 0, elementwise: a read-only broadcast of 0.0, no array of zeros."""
        out = np.broadcast_to(0.0, np.shape(x))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PiecewiseLinear:
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
        # slope_at's table: 0.0 left of bx[0], the slopes, 0.0 from bx[-1] on
        table = np.concatenate(([0.0], slopes, [0.0]))
        for arr in (bx, by, slopes, kinks, table):
            arr.setflags(write=False)
        object.__setattr__(self, "_slope_table", table)
        object.__setattr__(self, "_kink_list", tuple(zip(bx.tolist(), kinks.tolist())))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "breakpoints", bx)
        object.__setattr__(self, "values", by)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "kinks", kinks)

    def force_at(self, x):
        """F(x), clamped to the end values beyond the breakpoints (a shot may overshoot -L)."""
        out = np.interp(x, self.breakpoints, self.values)
        return float(out) if np.ndim(out) == 0 else out

    def integral_between(self, a, b, fa=None):
        """Exact integral from a to b, elementwise, accurate at the scale of b - a.

        ``fa`` is ``force_at(a)`` where the caller has it already, as the
        descent does from its gradient; it is formed here otherwise.
        """
        # Trapezoid rule minus one term per kink: a slope change ds at p adds
        # ds (x - p)_+ to F, whose integral over a < b falls short of its
        # trapezoid by ds (q - a)(b - q) / 2, with q = p clipped to [a, b]
        # (a kink outside drops out at q = a or q = b); for a > b the sign
        # flips.  Every term scales with b - a, so a tiny move keeps its
        # digits wherever it lies, breakpoints included.
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        first, last = lo.min(initial=np.inf), hi.max(initial=-np.inf)
        bend = 0.0  # 0.0 + the first term, bit for bit what an array of zeros gave
        for p, ds in self._kink_list:
            # A kink at or beyond every point has q = a or q = b throughout,
            # so its term is exactly +-0 while ds (last - first) is finite,
            # and adding it would leave bend as it is.
            if (p <= first or p >= last) and math.isfinite(ds * (last - first)):
                continue
            q = np.minimum(np.maximum(p, lo), hi)
            bend += ds * (q - a) * (b - q)
        d = b - a
        if fa is None:
            fa = self.force_at(a)
        out = 0.5 * (d * (fa + self.force_at(b)) - np.sign(d) * bend)
        return float(out) if np.ndim(out) == 0 else out

    def slope_at(self, x):
        """Derivative F'(x); at a breakpoint, the slope of the segment to its right."""
        out = self._slope_table[np.searchsorted(self.breakpoints, x, side="right")]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Scaled:
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
    ``force`` is a ``Constant``, ``PiecewiseLinear`` or ``Scaled`` as declared;
    ``profile`` is the evaluable force, ``Scaled(c, gamma)`` resolved to
    ``Constant(c * N**gamma)``.  Every route needs the pressure scale (N/L)**2
    normal, 2**-511 <= N/L < 2**512: DegenerateConfigurationError above it,
    ValueError naming N/L below.
    """

    L: float
    n_gaps: int
    force: Constant | PiecewiseLinear | Scaled
    profile: Constant | PiecewiseLinear = field(init=False, compare=False)

    def __post_init__(self):
        if not (float(self.L) > 0.0) or not math.isfinite(float(self.L)):
            raise ValueError(f"segment length must be positive, got {self.L}")
        if int(self.n_gaps) < 1 or int(self.n_gaps) != self.n_gaps:
            raise ValueError(f"n_gaps must be an integer >= 1, got {self.n_gaps}")
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "n_gaps", int(self.n_gaps))
        if not isinstance(self.force, (Constant, PiecewiseLinear, Scaled)):
            raise TypeError("force must be Constant, PiecewiseLinear or Scaled")
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
        if self.n_gaps / self.L >= 2.0 ** 512:  # some gap is at most L/N <= 2**-512
            raise DegenerateConfigurationError("gap too small for a finite pressure")
        if self.n_gaps / self.L < 2.0 ** -511:  # (N/L)**2 < 2**-1022: subnormal or 0
            raise ValueError(f"N/L = {self.n_gaps / self.L} leaves no normal pressure scale (N/L)**2")


@dataclass(frozen=True, eq=False)
class Configuration:
    """Ordered particle positions x_0 > x_1 > ... > x_N with x_0 <= 0.

    ``positions``, a read-only copy of the caller's data, is the source of
    truth; ``gaps`` is taken from it once, by the validating pass, and kept
    read-only beside it.  ``pressures`` are formed on every access, not kept.
    A solver hands over the fresh array it built with ``_owned`` = True,
    which freezes that array instead of copying it.
    """

    positions: np.ndarray
    gaps: np.ndarray = field(init=False, repr=False)
    _owned: InitVar[bool] = False  # a keyword, which perfbench's tracer passes through

    def __post_init__(self, _owned):
        pos = self.positions if _owned else np.array(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("need a 1-D array of at least two positions")
        # One pass: gaps above 2**-512 (its pressure overflows), finite ends, no NaN.
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails too
            gaps = pos[:-1] - pos[1:]  # -np.diff(pos) bit for bit, as fl(b - a) = -fl(a - b)
            if not (gaps.min() > 2.0 ** -512 and pos[0] <= 0.0 and math.isfinite(pos[-1])):
                if not np.all(np.isfinite(pos)):
                    raise ValueError("positions must be finite")
                if pos[0] > 0.0:
                    raise ValueError(f"right-most particle must satisfy x_0 <= 0, got {pos[0]}")
                if np.any(gaps == 0.0):
                    raise DegenerateConfigurationError("coinciding particles (zero gap)")
                if np.any(gaps < 0.0):
                    raise ValueError("positions must be strictly decreasing")
                raise DegenerateConfigurationError("gap too small for a finite pressure")
        for arr in (pos, pos.base, gaps):  # a solver's linspace is a view of its arange
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "gaps", gaps)

    @property
    def n_gaps(self) -> int:
        return self.positions.size - 1

    @property
    def pressures(self) -> np.ndarray:
        """f_k = delta_k**-2, k = 1..N, formed anew on each access as (1 / delta_k)**2."""
        f = np.divide(1.0, self.gaps)
        return np.multiply(f, f, out=f)


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

    ``delta1`` is read off ``config``.  ``iterations`` counts shots
    (piecewise force), Z evaluations (constant force) or descent steps.
    """

    config: Configuration
    classification: Classification
    max_residual: float
    iterations: int
    terminal_slack: float

    @property
    def delta1(self) -> float:
        return float(self.config.gaps[0])

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
        leaves no interior particle.  It is taken as max(max r, -min r), with
        no array of |r|; adding 0.0 turns a -0.0 into the 0.0 that |r| gives.
        """
        interior = res.interior
        worst = max(np.max(interior, initial=0.0), -np.min(interior, initial=0.0))
        return cls(
            config=config,
            classification=classification,
            max_residual=float(worst) + 0.0,
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


def _chain_terms(positions, params: ModelParams):
    """Positions, gaps and force values of a Configuration or a plain array."""
    cached = isinstance(positions, Configuration)
    x = positions.positions if cached else np.asarray(positions, dtype=float)
    d = positions.gaps if cached else x[:-1] - x[1:]
    profile = params.profile  # a Constant broadcast: no array of N + 1 equal values
    fv = np.broadcast_to(profile.value, x.shape) if isinstance(profile, Constant) else profile.force_at(x)
    return x, d, fv


def _gradient_from_pressures(g: np.ndarray, fv) -> np.ndarray:
    """Turn ``g``, holding the pressure f_k at index k, into the gradient in place."""
    f = g[1:]
    g[0] = -f[0] - fv[0]
    np.subtract(g[1:-1], g[2:], out=g[1:-1])  # reads f_{i+1} before writing over it
    g[1:-1] -= fv[1:-1]
    g[-1] -= fv[-1]
    return g


def energy_gradient(positions, params: ModelParams) -> np.ndarray:
    """Analytic gradient of the energy with respect to every position.

    For an interior particle dU/dx_i = f_i - f_{i+1} - F(x_i); the end
    particles keep only their single interaction term.  ``positions`` may be
    a Configuration, whose cached gaps are read, or a plain array.  The
    pressures f_k, (1 / delta_k)**2 as in ``Configuration.pressures``, are
    formed in the result itself, at index k, and turned into the gradient in
    place; a ``Constant`` force is subtracted as a scalar.
    """
    x, d, fv = _chain_terms(positions, params)
    g = np.empty_like(x)
    f = np.divide(1.0, d, out=g[1:])
    np.multiply(f, f, out=f)
    return _gradient_from_pressures(g, fv)


def gradient_terms(positions, params: ModelParams):
    """``energy_gradient`` with the terms it is formed from, bit for bit.

    Returns (gaps, reciprocal gaps 1 / delta_k, force values F(x_i), gradient).
    The descent reads all four: the reciprocal gaps give the Hessian's
    couplings, the gaps and force values the energy change of a step.  The
    force values of a ``Constant`` are a read-only broadcast of the scalar.
    """
    x, d, fv = _chain_terms(positions, params)
    r = np.divide(1.0, d)
    g = np.empty_like(x)
    np.multiply(r, r, out=g[1:])
    return d, r, fv, _gradient_from_pressures(g, fv)


def residuals(config: Configuration, params: ModelParams) -> Residuals:
    """Interior force-balance residuals and the terminal slack.

    Both are read off ``energy_gradient``: the interior balance is -dU/dx_k,
    negated in place, and the slack is dU/dx_N.  So the pass allocates the
    one gradient array (and the force values of a non-constant profile).
    """
    _check_fits(config, params)
    g = energy_gradient(config, params)
    return Residuals(interior=np.negative(g[1:-1], out=g[1:-1]), terminal_slack=float(g[-1]))
