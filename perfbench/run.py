"""Benchmark of coulomb-chain: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli-solve,shoot-sweep,oracle} \\
        --seed N --seconds S --trace {0,1}

It times set-up in fresh interpreters, then repeats passes over the
workload's operations for about S seconds, checking every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cli-solve", "shoot-sweep", "oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_UNTRACED_PASSES = 2
# Seeds 1-10 tuned the benchmark; this one was kept out for hold-out checks.
HOLDOUT_SEED = 7919
# On a shared host the speed of one core drifts by up to ~1.7x over tens of
# seconds (a fixed loop timed back to back shows it), more than any bound a
# regression check can use.  So every time is scaled by
# CAL_REF_S / (median time of the calibration jobs run around it): times are
# reported in seconds of a machine on which that job takes CAL_REF_S.  The
# job uses only the standard library and numpy, so no change to the package
# can move it.
CAL_REF_S = 0.0023
CAL_SAMPLES = 3


def calibration_job():
    """Fixed work in the proportions the workloads have: a float recursion
    like a piecewise shot, small-array numpy steps like descent iterations,
    a large-array pass like a constant-force shot, and float-to-text
    conversion like the CLI's rendering."""
    import numpy as np

    f, x = 1e6, 0.0
    for _ in range(5000):
        f -= 1.0
        x -= f ** -0.5
    a = np.linspace(0.0, -1.0, 201)
    for _ in range(50):
        g = (a[:-1] - a[1:]) ** -2.0
        a = a - 1e-12 * np.concatenate(([0.0], g[:-1] - g[1:], [0.0]))
    big = np.cumsum(np.linspace(1.0, 2.0, 100_000) ** -0.5)
    json.dumps(big[:1000].tolist())
    return x + a[1] + big[-1]


def calibrate() -> list[float]:
    """Times of CAL_SAMPLES calibration jobs (s)."""
    samples = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        calibration_job()
        samples.append(time.perf_counter() - start)
    return samples


def speed_factors(boundaries: list[list[float]]) -> list[float]:
    """Scale factor of each operation from the calibrations around it.

    ``boundaries[i]`` holds the calibration samples taken just before
    operation i (the last entry: after the last operation).  Operation i
    uses the median of the samples of boundaries i-1 .. i+2, which keeps a
    single slow sample from moving one operation.
    """
    factors = []
    for i in range(len(boundaries) - 1):
        window = [t for b in boundaries[max(0, i - 1) : i + 3] for t in b]
        factors.append(CAL_REF_S / statistics.median(window))
    return factors


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _cache_size(level: int) -> str | None:
    path = f"/sys/devices/system/cpu/cpu0/cache/index{level}/size"
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _setup_once(workload: str, seed: int) -> tuple[float, float, str]:
    """Fresh interpreter until the CLI is imported and the inputs exist.

    Returns the measured seconds, the speed factor around them and the
    digest of the inputs the probe drew.
    """
    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, speed_factors([before, calibrate()])[0], line.strip()


def _run_pass(workload, tracer):
    """One pass over the operations; spans are recorded when ``tracer`` is set."""
    from metrics import Pass
    from workloads import Outcome

    latencies, outcomes, cal = [], [], [calibrate()]
    for i in range(len(workload.inputs)):
        span = error = out = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.run(i, False)
            else:
                with tracer.operation(i) as span:
                    out = workload.run(i, True)
        except Exception as exc:  # an operation that raises is a failed operation
            error = exc
        end = time.perf_counter_ns()
        if span is not None:  # traced: the op span is the latency, so self times add up to it
            start, end = tracer.spans[span].start, tracer.spans[span].end
        try:
            if error is not None:
                raise error
            outcome = workload.check(i, out)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome([f"{type(exc).__name__}: {exc}"], 0)
        if outcome.child_spans and span is not None:
            tracer.adopt(outcome.child_spans, span)
        for problem in outcome.problems:
            print(f"op {i} failed: {problem}", file=sys.stderr)
        latencies.append((end - start) * 1e-9)
        outcomes.append(outcome)
        cal.append(calibrate())
    return Pass(latencies, outcomes, tracer.spans if tracer is not None else None, speed_factors(cal))


def measure(workload, seconds: float, trace: bool):
    """Untraced passes (and, with ``trace``, traced ones in alternation).

    Passes continue while the next one is expected to end within
    ``seconds``; at least two untraced passes run, or one of each kind.
    """
    import spans

    untraced, traced = [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        run_traced = trace and len(traced) < len(untraced)
        t0 = time.perf_counter()
        if run_traced:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced.append(_run_pass(workload, tracer))
        else:
            untraced.append(_run_pass(workload, None))
        longest = max(longest, time.perf_counter() - t0)
        enough = (traced and untraced) if trace else len(untraced) >= MIN_UNTRACED_PASSES
        if enough and time.perf_counter() - begin + longest > seconds:
            return untraced, traced


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coulomb_chain", "__init__.py")):
        print(f"error: no coulomb_chain package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported, here or in children
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)

    import coulomb_chain

    if not os.path.abspath(coulomb_chain.__file__).startswith(SRC + os.sep):
        print(f"error: imported coulomb_chain from {coulomb_chain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import metrics
    import workloads

    setups = [_setup_once(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    setup_samples = [t * k for t, k, _ in setups]
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        inputs_sha256 = workloads.digest(workload.inputs)
        if {d for _, _, d in setups} != {inputs_sha256}:
            print("error: set-up probes drew other inputs from the same seed", file=sys.stderr)
            return 2
        workload.prepare()
        untraced, traced = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    passes = untraced + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        values, units = metrics.per_layer(traced, untraced), metrics.PER_LAYER
    else:
        peak = _peak_rss_mb(workload.in_process)
        values, units = metrics.end_to_end(setup_samples, untraced, peak), metrics.END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "inputs_sha256": inputs_sha256,
        "ops_per_pass": len(workload.inputs),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "machine": machine(),
        "measured": {
            "setup_s": statistics.median(t for t, _, _ in setups),
            "wall_s": statistics.median(sum(p.latencies) for p in untraced),
            "speed_factor": statistics.median(k for p in passes for k in p.speed),
        },
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, n) in values.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={n})")
    if args.trace:
        for k, p in enumerate(traced):
            print(f"trace pass {k}: self-time sum {metrics.self_sum(p):.6g} s, "
                  f"traced wall_s {p.wall:.6g} s")
        print(f"trace untraced wall_s median {statistics.median(p.wall for p in untraced):.6g} s")
    print(f"failed {failed} of {attempted} attempted")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
