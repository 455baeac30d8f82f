"""Command-line front end: solve, verify and tabulate chain configurations.

Subcommands map one-to-one onto the library surface: ``solve`` (shooting
solver), ``critical`` (exact wall-departure force), ``density`` (histogram
plus asymptotic prediction), ``sweep`` and ``converge`` (analysis tables),
``oracle`` (descent minimizer) and ``nonunique`` (multi-start search on the
tent profile).  Output is compact JSON or CSV with full round-trip float
precision.  Both formats stream: the text is written a chunk at a time, and
the chunks are formatted on every CPU in the affinity mask, with the same
bytes whatever the CPU count.  Model errors, and an ``--output`` path that
cannot be written, exit 1 with a machine-readable JSON error object; a
stdout closed early exits 1 with no more output; usage errors exit 2.

The solvers' budgets and tolerances are fixed, not flags: a shooting solve
under a piecewise force stops at a relative first-gap bracket of
``shooting.TOL_REL`` = 1e-14 within ``shooting.MAX_ITER`` = 200 shots (none
is needed under constant force), a descent at ``minimizer.default_settings``
within ``minimizer.MAX_ITER`` = 500,000 steps.  ``oracle`` descends from the
uniform chain; ``nonunique`` runs 8 stratified starts per coupling, jittered
by ``--seed``.  ``sweep`` classifies each point on round(sqrt(N)) histogram
bins; only ``density`` takes ``--bins``.  The ``sweep`` and ``converge``
columns are the fields of ``SweepRow`` and ``ConvergenceRow``, in order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import sys
import tempfile

from .analysis import ConvergenceRow, SweepRow, convergence_study, histogram, sweep
from .closed_form import Phase, asymptotic_density, c_critical, critical_force_exact
from .errors import CoulombChainError
from .minimizer import (
    default_settings,
    minimize,
    multi_start_fixed_points,
    nonuniqueness_params,
)
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


def _add_force_flags(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--force", type=float, metavar="F", help="constant force magnitude")
    group.add_argument(
        "--force-scaled", metavar="C,GAMMA", help="force c*N**gamma resolved against --n"
    )
    group.add_argument(
        "--force-piecewise",
        metavar="X:V,X:V,...",
        help="piecewise-linear breakpoints on [-L, 0]",
    )


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", metavar="PATH", help="write here (atomically) instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomb-chain",
        description="Equilibrium chains of like charges on a segment under an external force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="shooting solver for a monotone force")
    p.add_argument("--n", type=int, required=True, help="number of gaps N")
    p.add_argument("--length", type=float, default=1.0, help="segment length L")
    _add_force_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("critical", help="exact wall-departure force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, default=1.0)
    _add_output_flags(p)

    p = sub.add_parser("density", help="empirical density vs asymptotic prediction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=None, help="bin count (default round(sqrt(N)))")
    _add_force_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="solve and classify a (N, L, c, gamma) grid")
    p.add_argument(
        "--grid",
        required=True,
        metavar="N,L,C,GAMMA;...",
        help="semicolon-separated grid points",
    )
    _add_output_flags(p)

    p = sub.add_parser("converge", help="solver output across increasing N")
    p.add_argument("--c", type=float, required=True, help="force coefficient (0 means no force)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--n-list", required=True, metavar="N1,N2,...")
    _add_output_flags(p)

    p = sub.add_parser("oracle", help="projected Newton energy minimization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, default=1.0)
    _add_force_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("nonunique", help="multi-start search on the tent profile")
    p.add_argument("--a", type=float, default=1.0, help="peak value of the base force")
    p.add_argument("--b", type=float, default=2.0, help="left slope parameter (b > a)")
    p.add_argument("--n", type=int, default=51)
    p.add_argument("--c-grid", default="2,4,8,16,32", metavar="C1,C2,...")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

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


def _render(format_chunk, jobs):
    """Yield ``format_chunk(job)`` for each job, in order.

    Job i is formatted by process i % P: the main process, or one of P - 1
    workers forked here, each sending its texts back in order through its
    own pipe, so the bytes do not depend on P.  P is the CPU count of the
    affinity mask (1 without ``os.fork`` or ``os.sched_getaffinity``), at
    most the count of jobs after the first.  A failed worker is an OSError.
    Every worker is reaped once the generator is exhausted or closed.
    """
    has_cpus = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_procs = min(len(jobs) - 1, len(os.sched_getaffinity(0)) if has_cpus else 1) or 1
    readers, pids = [], []
    try:
        for k in range(1, n_procs):
            r, w = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            out = os.fdopen(w, "wb")
            if (pid := os.fork()) == 0:
                # A worker only slices, calls tolist and formats: no BLAS call
                # and no lock, so forking while numpy's BLAS threads exist is
                # safe.  os._exit flushes no inherited stdio, runs no atexit.
                try:
                    for reader in readers:  # only the main process reads: its close ends a write
                        reader.close()
                    for text in (format_chunk(job).encode() for job in jobs[k::n_procs]):
                        out.write(len(text).to_bytes(8, "little") + text)
                        out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            out.close()
        for i, job in enumerate(jobs):
            if not (k := i % n_procs):
                yield format_chunk(job)
                continue
            size = int.from_bytes(readers[k - 1].read(8), "little")  # no text is empty
            if not size or len(text := readers[k - 1].read(size)) < size:
                raise OSError("a worker formatting the output failed")
            yield text.decode()
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _csv_chunk(job) -> str:
    """Rows ``start`` to ``stop`` of a table, as ``csv.writer`` writes them."""
    columns, n_rows, start, stop = job
    cells = []
    for col in columns:
        if isinstance(col, str):  # a scalar's cell
            cells.append(itertools.repeat(col, stop - start))
            continue
        skip = n_rows - len(col)
        part = col[max(start - skip, 0):max(stop - skip, 0)]
        cell = float.__repr__ if getattr(part, "dtype", None) == float else _csv_cell
        body = map(cell, part.tolist() if hasattr(part, "tolist") else part)
        cells.append(itertools.chain(itertools.repeat("", max(skip - start, 0)), body))
    lines = map(",".join, zip(*cells, strict=True))
    if len(cells) == 1:  # csv quotes a lone empty field so the line is not blank
        lines = (line or '""' for line in lines)
    return "\n".join(lines) + "\n"


def _render_csv(header, columns):
    """Render a column-wise table as CSV, byte for byte as ``csv.writer`` would.

    ``columns`` holds one entry per name in ``header``: a list, range or 1-D
    array with one value per row, or a single scalar that is the same on
    every row.  The longest sequence sets the row count (one row if there is
    none); a shorter one fills the last rows, leaving the first ones empty.
    None is an empty cell, a float is written by its round-trip repr, a bool
    as ``true``/``false``, and strings get csv's minimal quoting.  A chunk of
    ``_CSV_CHUNK_LINES`` rows formats one slice of each sequence.
    """
    columns = [col if isinstance(col, (list, range)) or getattr(col, "ndim", 0) == 1
               else _csv_cell(col) for col in columns]
    n_rows = max((len(col) for col in columns if not isinstance(col, str)), default=1)
    jobs = [(columns, n_rows, start, min(start + _CSV_CHUNK_LINES, n_rows))
            for start in range(0, n_rows, _CSV_CHUNK_LINES)]
    return _render(_csv_chunk, [([_csv_cell(name) for name in header], 1, 0, 1), *jobs])


def _json_jobs(value, jobs: list) -> list:
    """Append the JSON text of ``value`` (str keys), as ``json.dumps`` writes
    it, to ``jobs``: each slice of ``_CSV_CHUNK_LINES`` values of a 1-D array
    starts a job, and literal text joins the last job."""
    if isinstance(value, (dict, list)):
        keyed = isinstance(value, dict)
        jobs[-1].append("{" if keyed else "[")
        for i, item in enumerate(value.items() if keyed else value):
            jobs[-1].append((", " if i else "") + (json.dumps(item[0]) + ": " if keyed else ""))
            _json_jobs(item[1] if keyed else item, jobs)
        jobs[-1].append("}" if keyed else "]")
    elif getattr(value, "ndim", 0) != 1:  # numpy scalars reach ``default``; floats keep their repr
        jobs[-1].append(json.dumps(value, default=lambda v: v.tolist(), allow_nan=False))
    else:  # the ValueError json.dumps(allow_nan=False) raises at the first non-finite value
        json.dumps(value[~(abs(value) < float("inf"))][:1].tolist(), allow_nan=False)
        for start in range(0, len(value), _CSV_CHUNK_LINES):
            jobs[-1].append(", " if start else "[")
            jobs.append([value[start:start + _CSV_CHUNK_LINES]])
        jobs[-1].append("]" if len(value) else "[]")
    return jobs


def _json_chunk(job) -> str:
    values, *texts = job  # a slice of an array (None in the first job), then literal text
    return ("" if values is None else json.dumps(values.tolist())[1:-1]) + "".join(texts)


def _render_json(payload):
    jobs = _json_jobs(payload, [[None]])  # a non-finite float raises here, before any text
    jobs[-1].append("\n")
    return _render(_json_chunk, jobs)


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
    return {
        "params": _params_dict(params),
        "positions": result.config.positions,
        "gaps": result.config.gaps,
        "pressures": result.config.pressures,
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


def _rows_table(row_type, rows):
    """Payload and CSV table of analysis rows, one column per dataclass field."""
    header = [f.name for f in dataclasses.fields(row_type)]
    columns = [[getattr(r, name) for r in rows] for name in header]
    payload = {"columns": header, "rows": [list(row) for row in zip(*columns)]}
    return payload, lambda: (header, columns)


def _cmd_sweep(args):
    grid = []
    for chunk in args.grid.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        n, L, c, gamma = (float(part) for part in chunk.split(","))
        if not n.is_integer():
            raise ValueError(f"grid point N must be an integer, got {n}")
        grid.append((int(n), L, c, gamma))
    return _rows_table(SweepRow, sweep(grid))


def _cmd_converge(args):
    n_list = [int(part) for part in args.n_list.split(",") if part.strip()]
    return _rows_table(ConvergenceRow, convergence_study(args.c, args.gamma, args.length, n_list))


def _cmd_oracle(args):
    params = ModelParams(L=args.length, n_gaps=args.n, force=_parse_force(args))
    result = minimize(params, uniform_configuration(params))
    payload = _solution_payload(params, result)
    payload["energy"] = energy(result.config, params)
    return payload, lambda: _solution_table(payload, extra={"energy": payload["energy"]})


def _cmd_nonunique(args):
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
        chains = [m["positions"].tolist() for m in minima]
        columns = [
            c_found,
            [j for j, xs in enumerate(chains) for _ in xs],
            [m["energy"] for m, xs in zip(minima, chains) for _ in xs],
            [i for xs in chains for i in range(len(xs))],
            [x for xs in chains for x in xs],
        ]
        return ["c_found", "minimum", "energy", "particle", "position"], columns

    return payload, table


_COMMANDS = {
    "solve": _cmd_solve,
    "critical": _cmd_critical,
    "density": _cmd_density,
    "sweep": _cmd_sweep,
    "converge": _cmd_converge,
    "oracle": _cmd_oracle,
    "nonunique": _cmd_nonunique,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # A command returns its payload and a thunk for the CSV table, which
        # is built only when CSV is asked for.
        payload, table = _COMMANDS[args.command](args)
        chunks = _render_csv(*table()) if args.format == "csv" else _render_json(payload)
        try:
            _write_out(chunks, args.output)
        finally:
            chunks.close()  # reaps the workers also when writing fails
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
