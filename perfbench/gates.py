"""Correctness gates: each checks one operation's output against a reference
that does not come from the code path being timed.

A gate returns a list of problems; an empty list means the output passed.
The references are the closed forms (``critical_force_exact`` for the
pinned/interior split, ``aux_model_gaps`` for interior constant-force gaps)
and, for the descent oracle, a shooting solve made before timing starts.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from coulomb_chain.closed_form import aux_model_gaps, critical_force_exact

PINNED = "boundary_pinned"
INTERIOR = "interior"

# Interior constant force: the bisection stops at a relative first-gap width
# of 1e-12, and the last gap amplifies that error by up to ~N (f_N is the
# difference of two numbers of size N F), so gaps agree to about 1e-12 * N.
# The gate allows 100 times that.
GAP_TOL_PER_GAP = 1e-10
# Slack sign: |slack| for an interior chain, and -slack for a pinned one,
# may not exceed this share of the largest pressure.
SLACK_TOL = 1e-9
# Descent oracle against shooting, in units of the mean gap L/N.  The
# descent stops at a gradient of 1e-10 (N/L)**2; observed agreement is ~2e-7.
ORACLE_TOL_GAPS = 1e-5
# Interior force balance of a verified multi-start minimum, recomputed here,
# relative to the largest pressure (the descent's own stop is ~1e-10).
MINIMUM_RESIDUAL_TOL = 1e-7


def chain(positions, L: float, n_gaps: int) -> list[str]:
    """N+1 strictly decreasing positions inside [-L, 0]."""
    x = np.asarray(positions, dtype=float)
    problems = []
    if x.shape != (n_gaps + 1,):
        return [f"expected {n_gaps + 1} positions, got shape {x.shape}"]
    if not np.all(np.isfinite(x)):
        problems.append("non-finite position")
    if not np.all(np.diff(x) < 0.0):
        problems.append("positions not strictly decreasing")
    if x[0] > 0.0:
        problems.append(f"x_0 = {x[0]!r} > 0")
    if x[-1] < -L:
        problems.append(f"x_N = {x[-1]!r} < -L = {-L!r}")
    return problems


def constant_force(positions, classification: str, F: float, L: float, n_gaps: int) -> list[str]:
    """Chain checks plus the exact pinned/interior split and interior gaps."""
    problems = chain(positions, L, n_gaps)
    if problems:
        return problems
    expected = INTERIOR if F > critical_force_exact(n_gaps, L) else PINNED
    if classification != expected:
        return [f"classified {classification}, exact critical force says {expected}"]
    if expected == INTERIOR:
        gaps = -np.diff(np.asarray(positions, dtype=float))
        err = float(np.max(np.abs(gaps / aux_model_gaps(F, n_gaps) - 1.0)))
        if err > GAP_TOL_PER_GAP * n_gaps:
            problems.append(f"interior gaps differ from the half-line gaps by {err:.3g} (relative)")
    return problems


def piecewise(positions, classification: str, slack: float, expected: str, L: float, n_gaps: int) -> list[str]:
    """Chain checks, the expected branch, and a slack sign that matches it.

    ``expected`` follows from comparison with constant force: a profile that
    stays below the critical force everywhere on [-L, 0] leaves the chain
    pinned, one that stays above it detaches the chain.
    """
    problems = chain(positions, L, n_gaps)
    if problems:
        return problems
    if classification != expected:
        return [f"classified {classification}, profile bounds say {expected}"]
    gaps = -np.diff(np.asarray(positions, dtype=float))
    scale = float(np.max(gaps ** -2.0))
    if classification == PINNED and slack < -SLACK_TOL * scale:
        problems.append(f"pinned chain with negative terminal slack {slack!r}")
    if classification == INTERIOR and abs(slack) > SLACK_TOL * scale:
        problems.append(f"interior chain with terminal slack {slack!r}")
    return problems


def oracle_against_shooting(positions, reference, L: float, n_gaps: int) -> list[str]:
    """Descent result within ORACLE_TOL_GAPS mean gaps of the shooting result."""
    problems = chain(positions, L, n_gaps)
    if problems:
        return problems
    dev = float(np.max(np.abs(np.asarray(positions) - np.asarray(reference)))) / (L / n_gaps)
    if dev > ORACLE_TOL_GAPS:
        problems.append(f"oracle and shooting differ by {dev:.3g} mean gaps")
    return problems


def local_minima(minima, breakpoints, values, L: float, n_gaps: int) -> list[str]:
    """At least two distinct minima (non-uniqueness), each a force-balanced chain.

    The interior balance f_{k+1} + F(x_k) - f_k = 0 is recomputed from the
    positions with the profile's own breakpoints.
    """
    if len(minima) < 2:
        return [f"expected at least two distinct local minima, got {len(minima)}"]
    problems = []
    for j, (positions, classification) in enumerate(minima):
        x = np.asarray(positions, dtype=float)
        bad = chain(x, L, n_gaps)
        if bad:
            problems.extend(f"minimum {j}: {p}" for p in bad)
            continue
        f = np.diff(x) ** -2.0
        balance = f[1:] + np.interp(x[1:-1], breakpoints, values) - f[:-1]
        if float(np.max(np.abs(balance))) > MINIMUM_RESIDUAL_TOL * float(np.max(f)):
            problems.append(f"minimum {j}: interior force balance off by {np.max(np.abs(balance)):.3g}")
        if (classification == PINNED) != (x[-1] == -L):
            problems.append(f"minimum {j}: classified {classification} with x_N = {x[-1]!r}")
    return problems


def read_cli_output(path: str, fmt: str):
    """Parse a ``coulomb-chain solve`` output file.

    Returns positions, gaps (N values), pressures, classification and
    max_residual; raises ValueError when the file does not parse or its
    columns disagree in length.
    """
    if fmt == "json":
        with open(path) as handle:
            payload = json.load(handle)
        positions = payload["positions"]
        gaps, pressures = payload["gaps"], payload["pressures"]
        classification, max_residual = payload["classification"], payload["max_residual"]
    else:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = list(reader)
        if not rows:
            raise ValueError("empty CSV")
        col = {name: header.index(name) for name in ("position", "gap", "pressure", "classification", "max_residual")}
        positions = [float(r[col["position"]]) for r in rows]
        gaps = [float(r[col["gap"]]) for r in rows[1:]]
        pressures = [float(r[col["pressure"]]) for r in rows[1:]]
        classes = {r[col["classification"]] for r in rows}
        if len(classes) != 1:
            raise ValueError(f"classification column not constant: {sorted(classes)}")
        classification = classes.pop()
        max_residual = float(rows[0][col["max_residual"]])
    if not (len(gaps) == len(pressures) == len(positions) - 1):
        raise ValueError("position, gap and pressure counts disagree")
    return (
        np.asarray(positions, dtype=float),
        np.asarray(gaps, dtype=float),
        np.asarray(pressures, dtype=float),
        classification,
        float(max_residual),
    )
