"""Large-N record of the piecewise shooting solve, written to bench/BENCH_<short sha>.json.

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

``--against DIR`` runs the same solves on the ``src/`` of another checkout,
alternating with this one (the other first in odd pairs), so that the two
can be compared on a host whose speed drifts.  ``--smoke`` runs N = 1e4
once and prints the record instead of writing it.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))  # run.py: calibration job and machine, read only
PROFILE = ((-1.0, 2.0), (-0.5, 1.0), (0.0, 0.25))  # (x, g(x)); F = c N g
COUPLINGS = (1.0, 3.0)  # pinned, interior
SIZES = (10**5, 10**6, 10**7)
SMOKE_SIZES = (10**4,)
REPEATS = 3


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
    """Medians over the repeats of each (tree, c, N), and the pairs this tree was faster in."""
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["tree"], r["c"], r["n"]), []).append(r)
    rows = []
    for (tree, c, n), rs in groups.items():
        row = {"tree": tree, "c": c, "n": n, "runs": len(rs), "shots": rs[0]["shots"], "label": rs[0]["label"]}
        row.update({k: statistics.median(r[k] for r in rs) for k in ("wall_s", "ref_s", "peak_rss_mb", "scaled_residual")})
        other = groups.get(("against", c, n))
        if tree == "this" and other:
            row["pairs_faster"] = sum(a["wall_s"] < b["wall_s"] for a, b in zip(rs, other))
        rows.append(row)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="DIR", help="another checkout to alternate with")
    p.add_argument("--smoke", action="store_true", help="N = 1e4 once, printed, not written")
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
    runs = []
    for n in sizes:
        for c in COUPLINGS:
            for pair in range(repeats):
                order = list(trees) if pair % 2 else list(trees)[::-1]  # the other first in odd pairs
                for tree in order:
                    row = run_one(os.path.join(trees[tree], "src"), n, c)
                    runs.append({"tree": tree, "pair": pair + 1, **row})
                    print(f"{tree:8} N={n:<9} c={c:g}  {row['wall_s']:.3f} s  {row['ref_s']:.3f} ref s  "
                          f"{row['shots']} shots  {row['peak_rss_mb']:.1f} MB", file=sys.stderr)
    record = {
        "what": "solve_fixed_point on the 3-point profile g = 2, 1, 0.25 at x = -1, -0.5, 0, F = c N g, L = 1",
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
