"""Metric names, units and how each is computed from the passes of a run.

A pass records, per operation, its latency and what the untimed check
learnt; a traced pass also records spans.  Times are in reference seconds
(see ``run.CAL_REF_S``).  Times per layer are totals over one pass, so that
the self times of all spans of a pass add up to that pass's wall time.  A
layer that does not run on a workload reports 0.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import defaultdict

import spans as spanlib

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "particles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.out_bytes": "count",
    "shooting.solve_s": "s",
    "shooting.self_s": "s",
    "shooting.shots_per_solve": "count",
    "shooting.collapse_frac": "1",
    "shooting.shot_ns_per_particle.constant": "ns",
    "shooting.shot_ns_per_particle.piecewise": "ns",
    "model.config_s": "s",
    "model.residuals_s": "s",
    "analysis.classify_s": "s",
    "analysis.phase_agree_frac": "1",
    "minimizer.minimize_s": "s",
    "minimizer.iters_per_minimize": "count",
    "minimizer.iter_ns_per_particle": "ns",
    "minimizer.certificate_s": "s",
    "minimizer.self_s": "s",
    "minimizer.verified_per_start": "1",
    "op.self_s": "s",
    "residual_rel_max": "1",
    "trace.overhead_frac": "1",
}


@dataclasses.dataclass
class Pass:
    """One pass over the operations; ``spans`` is set on a traced pass.

    ``speed[i]`` converts operation i's measured seconds to reference
    seconds (see ``run.CAL_REF_S``); it defaults to 1.
    """

    latencies: list[float]
    outcomes: list
    spans: list | None = None
    speed: list[float] | None = None

    def factor(self, i: int) -> float:
        return self.speed[i] if self.speed else 1.0

    @property
    def times(self) -> list[float]:
        """Operation latencies in reference seconds."""
        return [t * self.factor(i) for i, t in enumerate(self.latencies)]

    @property
    def wall(self) -> float:
        """Sum of operation latencies: one client, one operation in flight."""
        return sum(self.times)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)

    @property
    def particles(self) -> int:
        """Sum of N + 1 over the operations that passed their check."""
        return sum(o.particles for o in self.outcomes if not o.problems)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def best_times(passes: list[Pass]) -> list[float]:
    """Each operation's best (smallest) time over the passes.

    One operation's time varies by up to a quarter from one repetition to
    the next even after scaling (memory-heavy work such as rendering is hit
    by other tenants' memory traffic, which the calibration job does not
    see); the best of k repetitions is the estimate that repeats.
    """
    return [min(times) for times in zip(*(p.times for p in passes))]


def end_to_end(setup_samples: list[float], passes: list[Pass], peak_rss_mb: float) -> dict:
    """name -> (value, sample count), from set-ups and untraced passes."""
    best = best_times(passes)
    wall = sum(best)
    samples = len(best) * len(passes)
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (wall, samples),
        "op_s_p50": (statistics.median(best), samples),
        "particles_per_s": (_ratio(min(p.particles for p in passes), wall), samples),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def layer_values(p: Pass) -> dict:
    """Per-layer values of one traced pass, without the overhead ratio."""
    total = defaultdict(int)  # ns, inclusive
    own = defaultdict(int)  # ns, self
    count = defaultdict(int)
    shot_ns = defaultdict(int)
    shot_particles = defaultdict(int)
    collapsed = iterations = iter_particles = verified = 0
    for s, self_ns in zip(p.spans, spanlib.self_times(p.spans)):
        k = p.factor(s.op)
        total[s.name] += (s.end - s.start) * k
        own[s.name] += self_ns * k
        count[s.name] += 1
        if s.name == "shooting.shoot" and s.info:
            kind, particles, did_collapse = s.info
            shot_ns[kind] += (s.end - s.start) * k
            shot_particles[kind] += particles
            collapsed += bool(did_collapse)
        elif s.name == "minimizer.minimize" and s.info:
            iterations += s.info[0]
            iter_particles += s.info[0] * s.info[1]
        elif s.name == "minimizer.multi_start" and s.info:
            verified += s.info[0]
    starts = sum(
        1
        for s in p.spans
        if s.name == "minimizer.minimize" and s.parent >= 0 and p.spans[s.parent].name == "minimizer.multi_start"
    )
    classified = [o.phase_agree for o in p.outcomes if o.phase_agree is not None]
    residuals = [o.residual_rel for o in p.outcomes if o.residual_rel is not None]
    ns = 1e-9
    return {
        "cli.self_s": own["cli.main"] * ns,
        "cli.out_bytes": sum(o.out_bytes for o in p.outcomes),
        "shooting.solve_s": total["shooting.solve_fixed_point"] * ns,
        "shooting.self_s": own["shooting.solve_fixed_point"] * ns,
        "shooting.shots_per_solve": _ratio(count["shooting.shoot"], count["shooting.solve_fixed_point"]),
        "shooting.collapse_frac": _ratio(collapsed, count["shooting.shoot"]),
        "shooting.shot_ns_per_particle.constant": _ratio(shot_ns["constant"], shot_particles["constant"]),
        "shooting.shot_ns_per_particle.piecewise": _ratio(shot_ns["piecewise"], shot_particles["piecewise"]),
        "model.config_s": total["model.Configuration"] * ns,
        "model.residuals_s": total["model.residuals"] * ns,
        "analysis.classify_s": total["analysis.classify_phase"] * ns,
        "analysis.phase_agree_frac": _ratio(sum(classified), len(classified)),
        "minimizer.minimize_s": total["minimizer.minimize"] * ns,
        "minimizer.iters_per_minimize": _ratio(iterations, count["minimizer.minimize"]),
        "minimizer.iter_ns_per_particle": _ratio(own["minimizer.minimize"], iter_particles),
        "minimizer.certificate_s": total["minimizer.certificate"] * ns,
        "minimizer.self_s": own["minimizer.multi_start"] * ns,
        "minimizer.verified_per_start": _ratio(verified, starts),
        "op.self_s": own["op"] * ns,
        "residual_rel_max": max(residuals, default=0.0),
    }


def self_sum(p: Pass) -> float:
    """Sum of every span's self time in a traced pass (reference s)."""
    return sum(t * p.factor(s.op) for s, t in zip(p.spans, spanlib.self_times(p.spans))) * 1e-9


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict:
    """name -> (value, sample count): medians over the traced passes."""
    values = [layer_values(p) for p in traced]
    out = {name: (statistics.median(v[name] for v in values), len(values)) for name in values[0]}
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p in traced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, len(traced) + len(untraced))
    return out
