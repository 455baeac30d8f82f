"""Span recording around the package's public callables, and self-time sums.

The benchmark observes the program only from outside: ``installed`` swaps a
module attribute for a wrapper that records a span around each call and
puts the original back afterwards.  A wrapper replaces the name under which
the *calling* module looks the callable up (``cli.solve_fixed_point``, not
only ``shooting.solve_fixed_point``), because a module binds imported names
in its own namespace.

Spans are kept in memory and written out once, at the end of a pass.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable, NamedTuple

from coulomb_chain.model import PiecewiseLinear


class Span(NamedTuple):
    """One call: name, start and end (ns, CLOCK_MONOTONIC), parent index, op id.

    ``parent`` indexes the list the span lives in (-1 for a top-level span).
    ``info`` holds the counts recorded at the same boundary, or None.
    """

    name: str
    start: int
    end: int
    parent: int
    op: int
    info: tuple | None = None


def _shot_info(args, out):
    params = args[1]
    kind = "piecewise" if isinstance(params.force, PiecewiseLinear) else "constant"
    return (kind, params.n_gaps + 1, not out.complete)


def _minimize_info(args, out):
    return (out.iterations, args[0].n_gaps + 1)


def _multi_start_info(args, out):
    return (len(out),)


# (module, attribute, span name, info from (args, result)).  The span name's
# prefix before the first dot is the layer.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("coulomb_chain.cli", "main", "cli.main", None),
    ("coulomb_chain.cli", "solve_fixed_point", "shooting.solve_fixed_point", None),
    ("coulomb_chain.analysis", "solve_fixed_point", "shooting.solve_fixed_point", None),
    ("coulomb_chain.analysis", "classify_phase", "analysis.classify_phase", None),
    ("coulomb_chain.shooting", "solve_fixed_point", "shooting.solve_fixed_point", None),
    ("coulomb_chain.shooting", "shoot", "shooting.shoot", _shot_info),
    ("coulomb_chain.shooting", "residuals", "model.residuals", None),
    ("coulomb_chain.shooting", "Configuration", "model.Configuration", None),
    ("coulomb_chain.minimizer", "multi_start_fixed_points", "minimizer.multi_start", _multi_start_info),
    ("coulomb_chain.minimizer", "minimize", "minimizer.minimize", _minimize_info),
    (
        "coulomb_chain.minimizer",
        "local_minimality_certificate",
        "minimizer.certificate",
        None,
    ),
)


class Tracer:
    """Collects spans; records only while an operation is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # reserve the slot so children see their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = info(args, out) if (info is not None and out is not None) else None
                spans[index] = Span(name, start, end, parent, self.op, counts)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def operation(self, op: int, name: str = "op"):
        """Open operation ``op`` as a top-level span around the block."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.op = op
        start = time.perf_counter_ns()
        try:
            yield index
        finally:
            end = time.perf_counter_ns()
            self.op = None
            self._stack.pop()
            self.spans[index] = Span(name, start, end, -1, op, None)

    def adopt(self, child_spans, parent: int):
        """Append spans recorded in a child process under span ``parent``."""
        offset = len(self.spans)
        for s in child_spans:
            own_parent = parent if s.parent < 0 else s.parent + offset
            self.spans.append(Span(s.name, s.start, s.end, own_parent, self.spans[parent].op, s.info))


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Swap every target for a recording wrapper; restore them on exit."""
    saved = []
    try:
        for module_name, attr, span_name, info in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, info))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered)
    return out


def span_to_list(s: Span) -> list:
    return [s.name, s.start, s.end, s.parent, s.op, list(s.info) if s.info else None]


def span_from_list(row) -> Span:
    name, start, end, parent, op, info = row
    return Span(name, start, end, parent, op, tuple(info) if info else None)
