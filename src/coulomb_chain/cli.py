"""Command-line front end: solve, verify and tabulate chain configurations.

Subcommands map one-to-one onto the library surface: ``solve`` (shooting
solver), ``critical`` (exact wall-departure force), ``density`` (histogram
plus asymptotic prediction), ``sweep`` (analysis table), ``oracle``
(descent minimizer) and ``nonunique`` (multi-start search on the tent
profile).  Output is compact JSON or CSV, byte for byte as ``json.dumps``
and ``csv.writer`` write it.  Float arrays and the CSV row index take their
digits from one ``orjson`` call per chunk, and only the layouts in which
orjson and repr differ are rewritten.  Both formats stream: the text is
formatted and written a chunk at a time, in one process.  Model errors, and an ``--output``
path that cannot be written, exit 1 with a machine-readable JSON error
object; a stdout closed early exits 1 with no more output; usage errors exit 2.

``solve`` and ``critical`` import neither ``analysis`` nor ``minimizer``, and
``main`` registers ``gc.freeze`` at exit, once per process: the final
collections skip every live object, about 20 ms of a CSV solve at N = 1.5e5.
No output waits on them: ``--output`` is closed before ``main`` returns, the
interpreter flushes stdout explicitly, and a caller in the same process sees
the collector unchanged until it exits.

The solvers' budgets and tolerances are fixed, not flags: a shooting solve
under a piecewise force stops at a relative first-gap bracket of
``shooting.TOL_REL`` = 1e-14 within ``shooting.MAX_ITER`` = 200 shots,
which its ``iterations`` counts (none is needed under constant force); a
descent at ``minimizer.default_settings`` within ``minimizer.MAX_ITER`` =
500,000 steps.  ``oracle`` descends from the uniform chain; ``nonunique``
runs 8 stratified starts per coupling, jittered by ``--seed``.  ``sweep``
classifies each point on round(sqrt(N)) histogram bins; only ``density``
takes ``--bins``.  Its table has the fields of ``SweepRow`` as columns,
in order, and every row is a function of its grid point.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import dataclasses
import gc
import io
import itertools
import json
import os
import sys
import tempfile

import numpy as np
import orjson

from .closed_form import Phase, asymptotic_density, c_critical, critical_force_exact
from .errors import CoulombChainError
from .model import (
    Constant,
    FixedPointResult,
    ModelParams,
    PiecewiseLinear,
    Scaled,
    energy,
    uniform_configuration,
)
from .shooting import solve_fixed_point

__all__ = ["main"]

# Rows per chunk of CSV text (values per chunk of a JSON array), and the
# starts of each ``nonunique`` search.
_CSV_CHUNK_LINES = 4096
_NONUNIQUE_STARTS = 8


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _parse_piecewise(text: str) -> PiecewiseLinear:
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, _, v = chunk.partition(":")
        points.append((float(x), float(v)))
    return PiecewiseLinear(points)


def _parse_scaled(text: str) -> Scaled:
    c, _, gamma = text.partition(",")
    return Scaled(c=float(c), gamma=float(gamma))


def _parse_force(args):
    if args.force is not None:
        return Constant(args.force)
    if args.force_scaled is not None:
        return _parse_scaled(args.force_scaled)
    return _parse_piecewise(args.force_piecewise)


def _build_parser() -> argparse.ArgumentParser:
    # Flags that several subcommands share, each declared once and taken
    # as argparse parents.
    size, length, force, output = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    size.add_argument("--n", type=int, required=True, help="number of gaps N")
    length.add_argument("--length", type=float, default=1.0, help="segment length L")
    group = force.add_mutually_exclusive_group(required=True)
    group.add_argument("--force", type=float, metavar="F", help="constant force magnitude")
    group.add_argument(
        "--force-scaled", metavar="C,GAMMA", help="force c*N**gamma resolved against --n"
    )
    group.add_argument(
        "--force-piecewise",
        metavar="X:V,X:V,...",
        help="piecewise-linear breakpoints on [-L, 0]",
    )
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument(
        "--output", metavar="PATH", help="write here (atomically) instead of stdout"
    )

    parser = argparse.ArgumentParser(
        prog="coulomb-chain",
        description="Equilibrium chains of like charges on a segment under an external force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver = [size, length, force, output]
    sub.add_parser("solve", parents=solver, help="shooting solver for a monotone force")
    sub.add_parser("critical", parents=[size, length, output], help="exact wall-departure force")

    p = sub.add_parser("density", parents=solver, help="empirical density vs asymptotic prediction")
    p.add_argument("--bins", type=int, default=None, help="bin count (default round(sqrt(N)))")

    p = sub.add_parser("sweep", parents=[output], help="solve and classify a (N, L, c, gamma) grid")
    p.add_argument(
        "--grid",
        required=True,
        metavar="N,L,C,GAMMA;...",
        help="semicolon-separated grid points",
    )

    sub.add_parser("oracle", parents=solver, help="projected Newton energy minimization")

    p = sub.add_parser(
        "nonunique", parents=[output], help="multi-start search on the tent profile; counts are lower bounds"
    )
    p.add_argument("--a", type=float, default=1.0, help="peak value of the base force")
    p.add_argument("--b", type=float, default=2.0, help="left slope parameter (b > a)")
    p.add_argument("--n", type=int, default=51)
    p.add_argument("--c-grid", default="2,4,8,16,32", metavar="C1,C2,...")
    p.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _csv_quote(text: str) -> str:
    # csv's own minimal quoting rather than a copy of its rules, which have
    # corners (Python 3.11 leaves a "\r" unquoted under lineterminator "\n").
    # The second, empty field keeps an empty text from being quoted as a
    # lone field.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _csv_cell(v) -> str:
    """One value as ``csv.writer`` writes it, with bools as ``true``/``false``."""
    if isinstance(v, float):
        return float.__repr__(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return _csv_quote(v)
    return str(v)


_IS_DIGIT = np.zeros(256, bool)
_IS_DIGIT[ord("0"):ord("9") + 1] = True


def _format_floats(values, sep: str = ",") -> str:
    """A 1-D float64 array as ``json.dumps(values.tolist())`` writes it, with
    ``sep`` for its ``, `` separators and no brackets; a non-finite value is ``null``.

    orjson writes repr's shortest round-trip digits (Ryu) in another layout:
    ``1e16`` and ``1e-6`` for repr's ``1e+16`` and ``1e-06``, and values in
    [1e-5, 1e-4) positionally, ``0.00001234`` for ``1.234e-05``.  Only those
    layouts are rewritten, and the text decides each fix: a sign goes only
    where an exponent has none, a zero only before a lone exponent digit.
    The array only says which fields may read ``0.0000``; text with nothing
    to fix is orjson's bytes as they are.
    """
    values = np.ascontiguousarray(values)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    near = np.flatnonzero(abs(abs(values) - 5.5e-5) < 4.6e-5)  # |v| in (9e-6, 1.01e-4)
    if len(near) or b"e" in text:
        t = np.frombuffer(text, np.uint8)
        e = np.flatnonzero(t == ord("e"))
        unsigned = _IS_DIGIT[t[e + 1]]
        first = e + 2 - unsigned  # an exponent's first digit
        ends = np.append(np.flatnonzero(t == ord(",")) if len(near) else near, len(t) - 1)
        s, end = np.where(near, ends[near - 1] + 1, 1), ends[near]  # the fields, after any sign
        s += t[s] == ord("-")
        s, end = s[end - s >= 7], end[end - s >= 7]
        small = (t[s] == ord("0")) & (t[s + 5] == ord("0"))  # not 0.0001dddd or d.ddde-6
        s, end = s[small], end[small]
        at = [e[unsigned] + 1, first[~_IS_DIGIT[t[first + 1]]]] + [end] * 4
        if len(s):  # 0.0000dddd becomes d.ddde-05: "0.000" turns to NUL bytes, which orjson
            t = t.copy()  # never writes, to drop; "0d" to "d." ("d" and NUL for a lone digit)
            t[s[:, None] + np.arange(5)] = 0
            t[s + 5], t[s + 6] = t[s + 6], np.where(end > s + 7, ord("."), 0)
        if sum(map(len, at)):
            chars = np.repeat(np.frombuffer(b"+0e-05", np.uint8), [len(i) for i in at])
            t = np.insert(t, np.concatenate(at), chars)  # equal indices keep their order: "e-05"
            text = (t[t != 0] if len(s) else t).tobytes()
    text = text[1:-1]
    return (text if sep == "," else text.replace(b",", sep.encode())).decode()


def _csv_chunk(cells, n_rows: int, start: int, stop: int, sep: str) -> str:
    """Rows ``start`` to ``stop`` of a table, each line ended by ``sep``."""
    step, rows = 2 * len(cells), stop - start
    text = [","] * (step * rows)  # cell, ",", cell, ..., cell, sep: one join for every row
    for j, col in enumerate(cells):
        if isinstance(col, str):  # a run of scalars' cells
            text[2 * j::step] = [col] * rows
            continue
        skip = n_rows - len(col)
        part = col[max(start - skip, 0):max(stop - skip, 0)]
        if not len(part):
            body = []
        elif isinstance(part, range):
            ints = np.arange(part.start, part.stop, part.step, dtype=np.int64)
            body = orjson.dumps(ints, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        elif getattr(part, "dtype", None) == float:
            body = _format_floats(part).split(",")
            for i in np.flatnonzero(~np.isfinite(part)):  # orjson's null
                body[i] = float.__repr__(float(part[i]))
        else:
            body = list(map(_csv_cell, part.tolist() if hasattr(part, "tolist") else part))
        text[2 * j::step] = [""] * max(skip - start, 0) + body
    if step == 2 and sep == "\n":  # csv quotes a lone empty field so the line is not blank
        text[::2] = [cell or '""' for cell in text[::2]]
    text[step - 1::step] = [sep] * rows
    return "".join(text)


def _render_csv(header, columns):
    """Render a column-wise table as CSV, byte for byte as ``csv.writer`` would.

    ``columns`` holds one entry per name in ``header``: a list, an int64
    range or a 1-D array with one value per row, or a single scalar that is
    the same on every row.  The longest sequence sets the row count (one row
    if there is none); a shorter one fills the last rows, leaving the first
    ones empty.  None is an empty cell, a float is written by its round-trip
    repr, a bool as ``true``/``false``, and strings get csv's minimal
    quoting.  Each run of adjacent scalars is one cell, written once, and a
    trailing run is part of the line end, so a ``solve`` row joins 4 cells,
    not 10.  A chunk of ``_CSV_CHUNK_LINES`` rows takes a float array's or a
    range's slice from one orjson call and joins all its rows at once.
    """
    columns = [col if isinstance(col, (list, range)) or getattr(col, "ndim", 0) == 1
               else _csv_cell(col) for col in columns]
    n_rows = max((len(col) for col in columns if not isinstance(col, str)), default=1)
    yield _csv_chunk([_csv_cell(name) for name in header], 1, 0, 1, "\n")
    cells, sep = [], "\n"
    for scalar, run in itertools.groupby(columns, key=lambda col: isinstance(col, str)):
        cells += [",".join(run)] if scalar else run
    if len(cells) > 1 and isinstance(cells[-1], str):
        sep = "," + cells.pop() + "\n"
    for start in range(0, n_rows, _CSV_CHUNK_LINES):
        yield _csv_chunk(cells, n_rows, start, min(start + _CSV_CHUNK_LINES, n_rows), sep)


def _json_parts(value, parts: list) -> list:
    """Append the JSON text of ``value`` (str keys), as ``json.dumps`` writes
    it, to ``parts``: literal text, and each 1-D float64 array as slices of
    ``_CSV_CHUNK_LINES`` values."""
    if isinstance(value, (dict, list)):
        keyed = isinstance(value, dict)
        parts.append("{" if keyed else "[")
        for i, item in enumerate(value.items() if keyed else value):
            parts.append((", " if i else "") + (json.dumps(item[0]) + ": " if keyed else ""))
            _json_parts(item[1] if keyed else item, parts)
        parts.append("}" if keyed else "]")
    elif getattr(value, "ndim", 0) != 1 or value.dtype != float:
        # numpy scalars and other arrays reach ``default``; floats keep their repr
        parts.append(json.dumps(value, default=lambda v: v.tolist(), allow_nan=False))
    else:  # the ValueError json.dumps(allow_nan=False) raises at the first non-finite value
        json.dumps(value[~np.isfinite(value)][:1].tolist(), allow_nan=False)  # N bools, not N floats
        for start in range(0, len(value), _CSV_CHUNK_LINES):
            parts += [", " if start else "[", value[start:start + _CSV_CHUNK_LINES]]
        parts.append("]" if len(value) else "[]")
    return parts


def _render_json(payload):
    parts = _json_parts(payload, [])  # a non-finite float raises here, before any text
    parts.append("\n")
    return (p if isinstance(p, str) else _format_floats(p, ", ") for p in parts)


def _write_out(chunks, path: str | None):
    """Write an iterable of text chunks to stdout, or atomically to ``path``."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".coulomb-chain-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode a shell redirect gives, not mkstemp's 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _force_dict(force) -> dict:
    if isinstance(force, Constant):
        return {"kind": "constant", "value": force.value}
    if isinstance(force, Scaled):
        return {"kind": "scaled", "c": force.c, "gamma": force.gamma}
    return {"kind": "piecewise_linear", "breakpoints": [list(p) for p in force.points]}


def _params_dict(params: ModelParams) -> dict:
    return {
        "n_gaps": params.n_gaps,
        "length": params.L,
        "force": _force_dict(params.force),
    }


def _solution_payload(params: ModelParams, result: FixedPointResult) -> dict:
    config = result.config
    return {
        "params": _params_dict(params),
        "positions": config.positions,
        "gaps": config.gaps,
        "pressures": config.pressures,
        "classification": result.classification.value,
        "delta1": result.delta1,
        "max_residual": result.max_residual,
        "terminal_slack": result.terminal_slack,
        "iterations": result.iterations,
    }


def _solution_table(payload: dict, extra: dict | None = None):
    extra = extra or {}
    header = (
        ["index", "position", "gap", "pressure", "classification", "delta1",
         "max_residual", "iterations", "n_gaps", "length"]
        + list(extra)
    )
    columns = [
        range(len(payload["positions"])),
        payload["positions"],
        payload["gaps"],  # one shorter: row 0 has no gap and no pressure
        payload["pressures"],
        payload["classification"],
        payload["delta1"],
        payload["max_residual"],
        payload["iterations"],
        payload["params"]["n_gaps"],
        payload["params"]["length"],
    ] + list(extra.values())
    return header, columns


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_solve(args):
    params = ModelParams(L=args.length, n_gaps=args.n, force=_parse_force(args))
    result = solve_fixed_point(params)
    payload = _solution_payload(params, result)
    return payload, lambda: _solution_table(payload)


def _cmd_critical(args):
    payload = {
        "n_gaps": args.n,
        "length": args.length,
        "exact": critical_force_exact(args.n, args.length),
        "asymptotic_coefficient": c_critical(args.length),
    }
    return payload, lambda: (list(payload), list(payload.values()))


def _cmd_density(args):
    from .analysis import histogram

    force = _parse_force(args)
    params = ModelParams(L=args.length, n_gaps=args.n, force=force)
    result = solve_fixed_point(params)
    hist = histogram(result.config, params, args.bins)
    prediction = None
    if isinstance(force, Scaled):
        dens = asymptotic_density(force.c, force.gamma, args.length)
        if dens.phase is not Phase.DELTA_AT_ORIGIN:
            prediction = dens.density(hist.centers)
    payload = {
        "params": _params_dict(params),
        "bin_edges": hist.bin_edges,
        "mass": hist.mass,
        "prediction": prediction,
    }

    def table():
        columns = [hist.bin_edges[:-1], hist.bin_edges[1:], hist.mass, prediction]
        return ["bin_left", "bin_right", "mass", "prediction"], columns

    return payload, table


def _cmd_sweep(args):
    from .analysis import SweepRow, sweep

    grid = []
    for chunk in args.grid.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        n, L, c, gamma = (float(part) for part in chunk.split(","))
        if not n.is_integer():
            raise ValueError(f"grid point N must be an integer, got {n}")
        grid.append((int(n), L, c, gamma))
    rows = sweep(grid)
    header = [f.name for f in dataclasses.fields(SweepRow)]
    columns = [[getattr(r, name) for r in rows] for name in header]
    payload = {"columns": header, "rows": [list(row) for row in zip(*columns)]}
    return payload, lambda: (header, columns)


def _cmd_oracle(args):
    from .minimizer import minimize

    params = ModelParams(L=args.length, n_gaps=args.n, force=_parse_force(args))
    result = minimize(params, uniform_configuration(params))
    payload = _solution_payload(params, result)
    payload["energy"] = energy(result.config, params)
    return payload, lambda: _solution_table(payload, extra={"energy": payload["energy"]})


def _cmd_nonunique(args):
    from .minimizer import default_settings, multi_start_fixed_points, nonuniqueness_params

    c_grid = [float(part) for part in args.c_grid.split(",") if part.strip()]
    counts_by_c = []
    c_found = None
    minima: list[FixedPointResult] = []
    chosen_params = None
    for c in c_grid:
        params = nonuniqueness_params(args.a, args.b, c, args.n)
        settings = default_settings(params, seed=args.seed)
        results = multi_start_fixed_points(params, _NONUNIQUE_STARTS, settings)
        counts_by_c.append([c, len(results)])
        if len(results) >= 2 or not minima:
            minima, chosen_params = results, params
        if len(results) >= 2:
            c_found = c
            break
    payload = {
        "a": args.a,
        "b": args.b,
        "n_gaps": args.n,
        "length": 2.0,
        "c_grid": c_grid,
        "counts_by_c": counts_by_c,
        "c_found": c_found,
        "distinct_count": len(minima),
        "minima": [
            {
                "positions": r.config.positions,
                "energy": energy(r.config, chosen_params),
                "classification": r.classification.value,
                "delta1": r.delta1,
                "max_residual": r.max_residual,
            }
            for r in minima
        ],
    }

    def table():
        minima = payload["minima"]
        sizes = [len(m["positions"]) for m in minima]
        columns = [
            c_found,
            [j for j, size in enumerate(sizes) for _ in range(size)],
            np.repeat([m["energy"] for m in minima], sizes),
            [i for size in sizes for i in range(size)],
            np.concatenate([m["positions"] for m in minima] or [np.empty(0)]),
        ]
        return ["c_found", "minimum", "energy", "particle", "position"], columns

    return payload, table


_COMMANDS = {
    "solve": _cmd_solve,
    "critical": _cmd_critical,
    "density": _cmd_density,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "nonunique": _cmd_nonunique,
}


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)  # one exit hook per process, however often main runs
    atexit.register(gc.freeze)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # A command returns its payload and a thunk for the CSV table, which
        # is built only when CSV is asked for.
        payload, table = _COMMANDS[args.command](args)
        chunks = _render_csv(*table()) if args.format == "csv" else _render_json(payload)
        _write_out(chunks, args.output)
    except BrokenPipeError:  # the reader has gone: no error object, and a quiet flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CoulombChainError, OSError, ValueError, TypeError) as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        for name in ("iterations", "grad_norm", "bracket"):
            value = getattr(exc, name, None)
            if value is not None:
                error[name] = value
        sys.stdout.write(json.dumps({"error": error}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
