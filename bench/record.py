"""Large-N record of the piecewise shooting solve and the CLI process, written to bench/BENCH_<short sha>.json.

Usage (from the root of a checkout):

    python3 bench/record.py [--against DIR]
    python3 bench/record.py --smoke

It solves the 3-point profile g = 2, 1, 0.25 at x = -1, -0.5, 0 with
F = c N g on L = 1, pinned (c = 1) and interior (c = 3), at N = 1e5, 1e6
and 1e7, each solve in a fresh interpreter, three times.  Every run
records the wall time of ``solve_fixed_point``, the same time in perfbench's
reference seconds (``perfbench/run.py``'s calibration job, timed before and
after the solve), the shots it took, the scaled residual
``max_residual / (N/L)**2`` and the peak RSS of its interpreter.

It then runs ``coulomb-chain solve --force 0`` at N = 1e3 (where start-up
dominates), 1e6 and 1e7, in JSON and CSV, written with ``--output``, each
as a fresh ``python -c`` child like perfbench's cli-solve operations, three
times.  Every run records the wall time from spawn to exit, in seconds and
reference seconds, the child's peak RSS, and the size and SHA-256 of its
output.

``--against DIR`` runs the same solves on the ``src/`` of another checkout,
alternating with this one (the other first in odd pairs), so that the two
can be compared on a host whose speed drifts.  ``--smoke`` runs the
piecewise solves at N = 1e4 once, and no CLI process, and prints the record
instead of writing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))  # run.py: calibration job and machine, read only
PROFILE = ((-1.0, 2.0), (-0.5, 1.0), (0.0, 0.25))  # (x, g(x)); F = c N g
COUPLINGS = (1.0, 3.0)  # pinned, interior
SIZES = (10**5, 10**6, 10**7)
SMOKE_SIZES = (10**4,)
REPEATS = 3
CLI_SIZES = (10**3, 10**6, 10**7)
CLI_FORMATS = ("json", "csv")
CLI_CHILD = "import sys; from coulomb_chain.cli import main; sys.exit(main())"  # as perfbench runs it


def child(src: str, n: int, c: float) -> dict:
    """One solve in this interpreter; what a run records."""
    sys.path.insert(0, src)
    from run import CAL_REF_S, calibrate

    from coulomb_chain import ModelParams, PiecewiseLinear, solve_fixed_point

    params = ModelParams(L=1.0, n_gaps=n, force=PiecewiseLinear([(x, c * n * g) for x, g in PROFILE]))
    before = calibrate()
    start = time.perf_counter()
    solved = solve_fixed_point(params)
    wall = time.perf_counter() - start
    after = calibrate()
    return {
        "n": n,
        "c": c,
        "label": solved.classification.value,
        "wall_s": wall,
        "ref_s": wall * CAL_REF_S / statistics.median(before + after),
        "shots": solved.iterations,
        "scaled_residual": solved.max_residual / (n / params.L) ** 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }


def run_one(src: str, n: int, c: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, str(n), repr(c)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def run_cli(src: str, n: int, fmt: str) -> dict:
    """One ``coulomb-chain solve --force 0`` process; what a run records."""
    import run

    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out")
        argv = [sys.executable, "-c", CLI_CHILD, "solve", "--n", str(n), "--force", "0",
                "--format", fmt, "--output", out]
        before = run.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": src})
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak, not the largest child's
        wall = time.perf_counter() - start
        after = run.calibrate()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        digest = hashlib.sha256()
        with open(out, "rb") as f:
            for block in iter(lambda: f.read(1 << 24), b""):
                digest.update(block)
        size = os.path.getsize(out)
    return {
        "n": n,
        "format": fmt,
        "wall_s": wall,
        "ref_s": wall * run.CAL_REF_S / statistics.median(before + after),
        "peak_rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "out_bytes": size,
        "out_sha256": digest.hexdigest(),
    }


def tree_id(checkout: str) -> dict:
    """Short git sha (None outside git, with "dirty" where src/ differs from it) and a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    git = ["git", "-C", checkout]
    sha = subprocess.run([*git, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run([*git, "status", "--porcelain", "--", "src"], capture_output=True, text=True)
    return {
        "sha": sha.stdout.strip() if sha.returncode == 0 else None,
        "dirty": bool(dirty.stdout.strip()) if dirty.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),
    }


def summary(runs: list[dict]) -> list[dict]:
    """Medians over the repeats of each (tree, c or format, N), and the pairs this tree was faster in."""
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["tree"], r.get("c"), r.get("format"), r["n"]), []).append(r)
    rows = []
    for (tree, c, fmt, n), rs in groups.items():
        row = {"tree": tree, **({"c": c} if fmt is None else {"format": fmt}), "n": n, "runs": len(rs)}
        row.update({k: rs[0][k] for k in ("shots", "label", "out_bytes") if k in rs[0]})
        row.update({k: statistics.median(r[k] for r in rs)
                    for k in ("wall_s", "ref_s", "peak_rss_mb", "scaled_residual") if k in rs[0]})
        other = groups.get(("against", c, fmt, n))
        if tree == "this" and other:
            row["pairs_faster"] = sum(a["wall_s"] < b["wall_s"] for a, b in zip(rs, other))
            if fmt is not None:
                row["same_bytes"] = len({r["out_sha256"] for r in rs + other}) == 1
        rows.append(row)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="DIR", help="another checkout to alternate with")
    p.add_argument("--smoke", action="store_true", help="piecewise N = 1e4 once, printed, not written")
    p.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        src, n, c = args.child
        print(json.dumps(child(src, int(n), float(c))))
        return 0
    import run

    os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))  # for the solves, as perfbench pins them
    sizes, repeats = (SMOKE_SIZES, 1) if args.smoke else (SIZES, REPEATS)
    trees = {"this": ROOT}
    if args.against:
        trees["against"] = os.path.abspath(args.against)
    cases = [(run_one, n, c) for n in sizes for c in COUPLINGS]
    if not args.smoke:
        cases += [(run_cli, n, fmt) for n in CLI_SIZES for fmt in CLI_FORMATS]
    runs = []
    for fn, n, case in cases:
        for pair in range(repeats):
            order = list(trees) if pair % 2 else list(trees)[::-1]  # the other first in odd pairs
            for tree in order:
                row = fn(os.path.join(trees[tree], "src"), n, case)
                runs.append({"tree": tree, "pair": pair + 1, **row})
                tag = f"c={case:g}" if fn is run_one else case
                what = f"{row['shots']} shots" if fn is run_one else f"{row['out_bytes']} bytes"
                print(f"{tree:8} N={n:<9} {tag:<5}  {row['wall_s']:.3f} s  {row['ref_s']:.3f} ref s  "
                      f"{what}  {row['peak_rss_mb']:.1f} MB", file=sys.stderr)
    record = {
        "what": "solve_fixed_point on the 3-point profile g = 2, 1, 0.25 at x = -1, -0.5, 0, F = c N g, L = 1"
                + ("" if args.smoke else "; coulomb-chain solve --force 0 --output processes, spawn to exit"),
        "trees": {name: tree_id(path) for name, path in trees.items()},
        "machine": {**run.machine(), "platform": platform.platform()},
        "summary": summary(runs),
        "runs": runs,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.smoke:
        sys.stdout.write(text)
        return 0
    name = f"BENCH_{record['trees']['this']['sha'] or 'nogit'}.json"
    with open(os.path.join(HERE, name), "w") as f:
        f.write(text)
    print(f"wrote bench/{name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
