"""Spans around calls into the program's modules, kept in memory.

The tracer replaces a module function by a wrapper in every ``qdiscord``
module that holds a reference to it, so calls made inside the program are
caught as well as calls made by the benchmark.  Each span records its name,
the phase it ran in, start and end, the nearest enclosing span and the
time its traced children took; the eigen-solver wrappers only count calls
against the innermost open span.  Everything is restored on exit.

Calls made in worker processes of a pool are not seen.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name); missing attributes are skipped, so a later
# version of the program that drops a function simply yields no spans for it
TARGETS = (
    ("qdiscord.ensembles", "random_hs_state", "draw"),
    ("qdiscord.ensembles", "project_x_state", "x_project"),
    ("qdiscord.linalg", "validate_density_matrix", "validate"),
    ("qdiscord.linalg", "von_neumann_entropy", "entropy"),
    ("qdiscord.linalg", "partial_trace", "partial_trace"),
    ("qdiscord.fano_bloch", "state_blocks", "blocks"),
    ("qdiscord.canonical", "to_canonical", "to_canonical"),
    ("qdiscord.measures", "_minimize_blocks", "minimize"),
    ("qdiscord.measures", "quantum_discord", "discord"),
    ("qdiscord.statefile", "parse_state_text", "parse"),
    ("qdiscord.experiments", "optimal_direction_clusters", "pipeline"),
    ("qdiscord.experiments", "optimal_direction_histogram", "pipeline"),
    ("qdiscord.experiments", "bound_scatter", "pipeline"),
    ("qdiscord.experiments", "render_csv", "render"),
    ("qdiscord.experiments", "write_output", "write"),
    ("qdiscord.cli", "main", "cli"),
    ("scipy.optimize", "minimize", "refine"),
)
EIGEN_SOLVERS = ("eigvalsh", "eigh", "eig", "eigvals", "svd")

_AXES = np.eye(3)


def _on_axis(result) -> bool:
    n = np.asarray(result[0])
    return any(np.array_equal(np.abs(n), axis) for axis in _AXES)


def _mcdm_chosen(report) -> bool:
    return bool(np.array_equal(report.optimal_direction, report.mcdm_direction))


# what a span keeps of its call's result
INFO = {
    "minimize": _on_axis,
    "discord": _mcdm_chosen,
    "refine": lambda result: int(result.nfev),
}


class Span:
    __slots__ = ("name", "phase", "parent", "start", "end", "child_time", "eig", "info", "failed")

    def __init__(self, name: str, phase: str, parent):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.child_time = 0.0
        self.eig = 0
        self.info = None
        self.failed = True

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "pipeline"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, func):
        stack = self._stack
        info = INFO.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, self.phase, stack[-1] if stack else None)
            stack.append(span)
            span.start = self.clock()
            try:
                result = func(*args, **kwargs)
                span.failed = False
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
                if span.parent is not None:
                    span.parent.child_time += span.duration
                    span.parent.eig += span.eig
            if info is not None:
                span.info = info(result)
            return result

        return wrapper

    def _count_wrapper(self, func):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1].eig += 1
            return func(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        holders = [owner] + [m for key, m in sys.modules.items()
                             if key.startswith("qdiscord") and m is not owner]
        for module in holders:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is not None and hasattr(owner, attr):
                self._replace(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for attr in EIGEN_SOLVERS:
            self._replace(np.linalg, attr, self._count_wrapper(getattr(np.linalg, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()

    def by_name(self) -> dict[tuple[str, str], list[Span]]:
        groups: dict[tuple[str, str], list[Span]] = {}
        for span in self.spans:
            if not span.failed:
                groups.setdefault((span.phase, span.name), []).append(span)
        return groups

    def dump(self) -> list[list]:
        """Spans as rows [name, phase, start, end, parent row or -1], for a trace file."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        return [[s.name, s.phase, s.start, s.end, index.get(id(s.parent), -1)] for s in self.spans]
