"""Empirical densities, phase classification, sweeps and convergence studies.

Connects finite-N solver output to the asymptotic predictions: histograms
estimate the particle density, a small set of documented evidence thresholds
maps a solved chain onto one of the four density phases, and the sweep /
convergence helpers produce flat, deterministic tables for the CLI.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .closed_form import AsymptoticDensity, Phase, asymptotic_density
from .errors import CoulombChainError
from .model import Configuration, Constant, FixedPointResult, ModelParams, Scaled
from .shooting import solve_fixed_point

__all__ = [
    "ConvergenceRow",
    "DensityHistogram",
    "PhaseReport",
    "SweepRow",
    "classify_phase",
    "convergence_study",
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


@dataclass(frozen=True, eq=False)
class PhaseReport:
    """Detected phase of one solved chain plus the evidence behind it."""

    c: float
    gamma: float
    detected: Phase
    ambiguous: bool
    x_leftmost: float
    delta1_scaled: float  # delta_1 * N / L
    n_max_gap_dev: float  # N * max_k |delta_k - L/N|
    sup_deviation: float | None  # histogram vs prediction at bin centers
    prediction: AsymptoticDensity


def _sup_deviation(hist: DensityHistogram, prediction: AsymptoticDensity) -> float | None:
    if prediction.phase is Phase.DELTA_AT_ORIGIN:
        return None
    return float(np.max(np.abs(hist.density - prediction.density(hist.centers))))


def _evidence(solved: FixedPointResult, L: float) -> tuple[float, float, float]:
    """(x_N, delta_1 N / L, N max_k |delta_k - L/N|) of one solved chain."""
    n = solved.config.n_gaps
    return (
        float(solved.config.positions[-1]),
        solved.delta1 * n / L,
        float(n * np.max(np.abs(solved.config.gaps - L / n))),
    )


def classify_phase(params: ModelParams, solved: FixedPointResult) -> PhaseReport:
    """Map a solved chain onto a density phase from finite-N evidence.

    Requires the force declared as a scaling (c, gamma); the decision
    thresholds are the module-level heuristics, and near-threshold evidence
    sets the ``ambiguous`` flag instead of being resolved.  ``sup_deviation``
    compares the prediction with ``histogram``'s default of round(sqrt(N))
    bins.
    """
    if not isinstance(params.force, Scaled):
        raise TypeError("phase classification needs a force declared as Scaled(c, gamma)")
    c, gamma = params.force.c, params.force.gamma
    L, n = params.L, params.n_gaps

    x_left, delta1_scaled, n_max_gap_dev = _evidence(solved, L)
    prediction = asymptotic_density(c, gamma, L)
    sup_dev = _sup_deviation(histogram(solved.config, params), prediction)

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

    return PhaseReport(
        c=c,
        gamma=gamma,
        detected=detected,
        ambiguous=ambiguous,
        x_leftmost=x_left,
        delta1_scaled=delta1_scaled,
        n_max_gap_dev=n_max_gap_dev,
        sup_deviation=sup_dev,
        prediction=prediction,
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a phase sweep; failures carry an error string."""

    n_gaps: int
    L: float
    c: float
    gamma: float
    detected: str | None = None
    ambiguous: bool | None = None
    x_leftmost: float | None = None
    delta1_scaled: float | None = None
    n_max_gap_dev: float | None = None
    sup_deviation: float | None = None
    iterations: int | None = None
    max_residual: float | None = None
    seconds: float | None = None
    error: str | None = None


def sweep(grid) -> list[SweepRow]:
    """Solve and classify every (N, L, c, gamma) grid point.

    Each point is one ``solve_fixed_point`` (the search-free constant-force
    route) and one ``classify_phase`` (round(sqrt(N)) histogram bins).  Rows
    come back in grid order; a failing point records its error and the
    sweep continues.  Everything except the ``seconds`` timing column is a
    deterministic function of the grid.
    """
    rows: list[SweepRow] = []
    for n, L, c, gamma in grid:
        point = dict(n_gaps=int(n), L=float(L), c=float(c), gamma=float(gamma))
        t0 = time.perf_counter()
        try:
            params = ModelParams(L=float(L), n_gaps=int(n), force=Scaled(c=c, gamma=gamma))
            solved = solve_fixed_point(params)
            report = classify_phase(params, solved)
            rows.append(
                SweepRow(
                    **point,
                    detected=report.detected.value,
                    ambiguous=report.ambiguous,
                    x_leftmost=report.x_leftmost,
                    delta1_scaled=report.delta1_scaled,
                    n_max_gap_dev=report.n_max_gap_dev,
                    sup_deviation=report.sup_deviation,
                    iterations=solved.iterations,
                    max_residual=solved.max_residual,
                    seconds=time.perf_counter() - t0,
                )
            )
        except (CoulombChainError, ValueError, TypeError) as exc:
            rows.append(
                SweepRow(
                    **point,
                    seconds=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    n_gaps: int
    x_leftmost: float
    delta1_scaled: float
    n_max_gap_dev: float


def convergence_study(c: float, gamma: float, L: float, n_list) -> list[ConvergenceRow]:
    """Track solver output across increasing N for one force scaling.

    ``c = 0`` is accepted and means zero force.  The columns are the inputs
    for monotone-convergence assertions: the wall distance of the left
    particle, the scaled first gap, and N times the worst gap deviation from
    uniform spacing.
    """
    rows = []
    for n in n_list:
        n = int(n)
        force = Constant(0.0) if c == 0.0 else Scaled(c=c, gamma=gamma)
        params = ModelParams(L=L, n_gaps=n, force=force)
        rows.append(ConvergenceRow(n, *_evidence(solve_fixed_point(params), L)))
    return rows
