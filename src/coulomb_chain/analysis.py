"""Empirical densities, phase classification and sweeps.

Connects finite-N solver output to the asymptotic predictions: histograms
estimate the particle density, a small set of documented evidence thresholds
maps a solved chain onto one of the four density phases in a sweep row, and
the sweep produces flat, deterministic tables for the CLI: every row is a
function of its grid point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import Phase, asymptotic_density
from .errors import CoulombChainError
from .model import Configuration, FixedPointResult, ModelParams, Scaled
from .shooting import solve_fixed_point

__all__ = [
    "DensityHistogram",
    "SweepRow",
    "classify_phase",
    "histogram",
    "sweep",
]

# Evidence thresholds for phase detection.  Engineering heuristics calibrated
# on the derived finite-N convergence rates, not asymptotic statements:
# uniform when N * max_k |delta_k - L/N| stays below 0.05, point-mass when
# the whole chain has contracted into 3 L / sqrt(N) around the origin,
# detached when the left particle clears the wall by more than 0.01 L.
_UNIFORM_THRESHOLD = 0.05
_DETACH_THRESHOLD = 0.01
_COLLAPSE_FACTOR = 3.0
_AMBIGUOUS_BAND = (0.5, 2.0)


@dataclass(frozen=True, eq=False)
class DensityHistogram:
    """Particle counts over uniform bins of [-L, 0], normalized to mass 1."""

    bin_edges: np.ndarray
    mass: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def density(self) -> np.ndarray:
        """Mass per unit length; integrates to one over the segment."""
        return self.mass / np.diff(self.bin_edges)


def histogram(config: Configuration, params: ModelParams, n_bins: int | None = None) -> DensityHistogram:
    """Bin the particles of one configuration over [-L, 0].

    ``n_bins`` defaults to round(sqrt(N)), balancing quantization noise
    against resolution.  Particles sitting exactly on a wall count toward
    the corresponding end bin.
    """
    if n_bins is None:
        n_bins = max(1, round(math.sqrt(config.n_gaps)))
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    # As np.histogram(positions, n_bins, (-L, 0)) counts: half-open bins on its
    # edges, the last closed, but in O(n_bins log N) on the sorted positions.
    edges = np.linspace(-params.L, 0.0, n_bins + 1)
    below = np.searchsorted(config.positions[::-1], edges)  # positions < each edge
    below[-1] = config.positions.size  # every position is <= 0
    return DensityHistogram(bin_edges=edges, mass=np.diff(below) / config.positions.size)


def _evidence(solved: FixedPointResult, L: float) -> tuple[float, float, float]:
    """(x_N, delta_1 N / L, N max_k |delta_k - L/N|) of one solved chain; the
    max is at the widest or the narrowest gap, as rounding is monotone."""
    gaps, n = solved.config.gaps, solved.config.n_gaps
    mean = L / n
    return (
        float(solved.config.positions[-1]),
        solved.delta1 * n / L,
        float(n * max(gaps.max() - mean, mean - gaps.min())),
    )


def classify_phase(params: ModelParams, solved: FixedPointResult) -> SweepRow:
    """Map a solved chain onto a density phase from finite-N evidence.

    Requires the force declared as a scaling (c, gamma); the decision
    thresholds are the module-level heuristics, and near-threshold evidence
    sets the ``ambiguous`` flag instead of being resolved.  ``sup_deviation``
    compares the prediction with ``histogram``'s default of round(sqrt(N))
    bins.  The result is the point's ``sweep`` row.
    """
    if not isinstance(params.force, Scaled):
        raise TypeError("phase classification needs a force declared as Scaled(c, gamma)")
    c, gamma = params.force.c, params.force.gamma
    L, n = params.L, params.n_gaps

    x_left, delta1_scaled, n_max_gap_dev = _evidence(solved, L)
    prediction = asymptotic_density(c, gamma, L)
    sup_dev = None  # histogram vs prediction at bin centers
    if prediction.phase is not Phase.DELTA_AT_ORIGIN:
        hist = histogram(solved.config, params)
        sup_dev = float(np.max(np.abs(hist.density - prediction.density(hist.centers))))

    uniform_ratio = n_max_gap_dev / _UNIFORM_THRESHOLD
    collapse_ratio = abs(x_left) / (_COLLAPSE_FACTOR * L / math.sqrt(n))
    detach_ratio = (x_left + L) / (_DETACH_THRESHOLD * L)

    if uniform_ratio < 1.0:
        detected = Phase.UNIFORM
        deciding = [uniform_ratio]
    elif collapse_ratio < 1.0:
        detected = Phase.DELTA_AT_ORIGIN
        deciding = [collapse_ratio]
    elif detach_ratio > 1.0:
        detected = Phase.DETACHED
        deciding = [detach_ratio]
    else:
        detected = Phase.SMOOTH_POSITIVE
        deciding = [uniform_ratio, detach_ratio]

    lo, hi = _AMBIGUOUS_BAND
    ambiguous = any(lo <= r <= hi for r in deciding)

    return SweepRow(
        n_gaps=n,
        L=L,
        c=float(c),
        gamma=float(gamma),
        detected=detected,
        ambiguous=ambiguous,
        x_leftmost=x_left,
        delta1_scaled=delta1_scaled,
        n_max_gap_dev=n_max_gap_dev,
        sup_deviation=sup_dev,
        iterations=solved.iterations,
        max_residual=solved.max_residual,
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a phase sweep; failures carry an error string."""

    n_gaps: int
    L: float
    c: float
    gamma: float
    detected: Phase | None = None
    ambiguous: bool | None = None
    x_leftmost: float | None = None
    delta1_scaled: float | None = None
    n_max_gap_dev: float | None = None
    sup_deviation: float | None = None
    iterations: int | None = None
    max_residual: float | None = None
    error: str | None = None


def sweep(grid) -> list[SweepRow]:
    """Solve and classify every (N, L, c, gamma) grid point.

    Each point is one ``solve_fixed_point`` (the search-free constant-force
    route) and one ``classify_phase`` (round(sqrt(N)) histogram bins).  Rows
    come back in grid order; a failing point records its error and the
    sweep continues.  Every row is a deterministic function of its point.
    """
    rows: list[SweepRow] = []
    for n, L, c, gamma in grid:
        point = dict(n_gaps=int(n), L=float(L), c=float(c), gamma=float(gamma))
        try:
            params = ModelParams(L=float(L), n_gaps=int(n), force=Scaled(c=c, gamma=gamma))
            rows.append(classify_phase(params, solve_fixed_point(params)))
        except (CoulombChainError, ValueError, TypeError) as exc:
            rows.append(SweepRow(**point, error=f"{type(exc).__name__}: {exc}"))
    return rows
