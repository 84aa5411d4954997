"""Span recorder and function wrappers for the traced benchmark run.

The traced run replaces public functions of the ``multithresh`` modules at
the module attribute through which their caller looks them up (for example
``synthesize_at`` as bound in ``multithresh.aggregation``). Each wrapper
records a span (name, start, end, parent span, item id) in memory and adds
work counts derived from argument and result sizes. The program itself is
never edited: ``installed`` restores every original attribute on exit.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Self-time metric of every span name. "evaluate.universal" is the universal
# baseline called from the Monte Carlo loop: its own self time belongs to
# the evaluate layer, and its inclusive time is reported separately.
SELF_TIME_METRICS = {
    "wavelets.grid_synth": "wavelets.grid_synth_ms",
    "wavelets.point_synth": "wavelets.point_synth_ms",
    "wavelets.pointwise": "wavelets.pointwise_ms",
    "wavelets.analyze": "wavelets.analyze_ms",
    "wavelets.build_family": "wavelets.build_family_ms",
    "coefficients": "coefficients.ms",
    "thresholding": "thresholding.ms",
    "thresholding.ongle": "thresholding.ongle_ms",
    "simulate": "simulate.ms",
    "aggregation": "aggregation.self_ms",
    "evaluate": "evaluate.self_ms",
    "evaluate.universal": "evaluate.self_ms",
    "cli.read": "cli.read_ms",
    "cli": "cli.self_ms",
    "cli.startup": "cli.startup_ms",
}

COUNT_METRICS = (
    "wavelets.grid_synth_calls",
    "wavelets.grid_synth_evals",
    "wavelets.point_synth_evals",
    "wavelets.pointwise_calls",
    "coefficients.basis_evals",
    "thresholding.coeffs",
    "thresholding.ongle_points",
    "simulate.draws",
    "aggregation.candidates",
    "cli.bytes_written",
)


def share_metric(ms_metric: str) -> str:
    """'coefficients.ms' -> 'coefficients.share', 'x.self_ms' -> 'x.self_share'."""
    return ms_metric[: -len("ms")] + "share"


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: dict[tuple, float] = defaultdict(float)
        self.item: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args=(), kwargs=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a call, such as process start-up."""
        self.spans.append([name, start, end, -1, self.item])

    def count(self, key: str, value: float) -> None:
        self.counts[(self.item, key)] += value

    def merge(self, record: dict) -> None:
        """Append spans and counts written by a child process for this item."""
        offset = len(self.spans)
        for name, start, end, parent in record["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               self.item])
        for key, value in record["counts"].items():
            self.count(key, value)

    def item_metrics(self, item: int) -> dict[str, float]:
        """Self time (ms) per layer metric, counts, and inclusive universal time."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == item]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in spans:
            own = (s[2] - s[1]) - child_time[i]
            out[SELF_TIME_METRICS[s[0]]] += 1e3 * own
            if s[0] == "evaluate.universal":
                out["evaluate.universal_ms"] += 1e3 * (s[2] - s[1])
        for (it, key), value in self.counts.items():
            if it == item:
                out[key] += value
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def child_record(self) -> dict:
        """Spans and counts of a child process, for ``merge`` in the parent."""
        return {
            "spans": [s[:4] for s in self.spans],
            "counts": {key: value for (_, key), value in self.counts.items()},
        }


# ---------------------------------------------------------------------------
# Probes: which attribute to wrap, how to name its span, what to count
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    span: str | Callable[[tuple], str]
    count: Callable[[Tracer, str, tuple, object], None] | None = None


def _synth_span(grid_size: int):
    import numpy as np

    grid = (np.arange(grid_size) + 0.5) / grid_size

    def classify(args) -> str:
        x = args[2]
        if len(x) == grid_size and np.array_equal(x, grid):
            return "wavelets.grid_synth"
        return "wavelets.point_synth"

    return classify


def _count_synth(tracer: Tracer, name: str, args, result) -> None:
    family, expansion, x = args[:3]
    evals = len(x) * (1 + len(expansion.beta)) * family.support_width
    if name == "wavelets.grid_synth":
        tracer.count("wavelets.grid_synth_calls", 1)
    tracer.count(name + "_evals", evals)


def _count_coeffs(tracer: Tracer, name: str, args, result) -> None:
    sample, family, j1 = args[:3]
    levels = j1 - family.tau + 2  # scaling row plus wavelet levels tau..j1
    tracer.count("coefficients.basis_evals", sample.n * levels * family.support_width)


def _count_threshold(tracer: Tracer, name: str, args, result) -> None:
    raw = args[0]
    tracer.count("thresholding.coeffs", sum(len(row) for row in raw.beta))
    tracer.count("thresholding.zeroed", sum(
        int(((out == 0.0) & (row != 0.0)).sum()) for row, out in zip(raw.beta, result.beta)
    ))


def probes(grid_size: int) -> list[Probe]:
    """Every wrapped attribute; ``grid_size`` identifies quadrature-grid synthesis."""
    count_draws = lambda t, n, a, r: t.count("simulate.draws", r.n)  # noqa: E731
    count_candidates = lambda t, n, a, r: t.count("aggregation.candidates", len(r[0]))  # noqa: E731
    return [
        Probe("multithresh.aggregation", "synthesize_at", _synth_span(grid_size),
              _count_synth),
        Probe("multithresh.evaluate", "eval_periodized", "wavelets.pointwise",
              lambda t, n, a, r: t.count("wavelets.pointwise_calls", 1)),
        Probe("multithresh.evaluate", "analyze", "wavelets.analyze"),
        Probe("multithresh.evaluate", "build_family", "wavelets.build_family"),
        Probe("multithresh.cli", "build_family", "wavelets.build_family"),
        Probe("multithresh.aggregation", "density_coeffs", "coefficients", _count_coeffs),
        Probe("multithresh.aggregation", "regression_coeffs", "coefficients", _count_coeffs),
        Probe("multithresh.aggregation", "threshold_expansion", "thresholding",
              _count_threshold),
        Probe("multithresh.thresholding", "verify_ongle", "thresholding.ongle",
              lambda t, n, a, r: t.count("thresholding.ongle_points", r.points_checked)),
        Probe("multithresh.evaluate", "derive_rng", "simulate"),
        Probe("multithresh.evaluate", "sample_density", "simulate", count_draws),
        Probe("multithresh.evaluate", "sample_regression", "simulate", count_draws),
        Probe("multithresh.evaluate", "multi_threshold_candidates", "aggregation",
              count_candidates),
        Probe("multithresh.aggregation", "multi_threshold_candidates", "aggregation",
              count_candidates),
        Probe("multithresh.cli", "multi_threshold_estimate", "aggregation"),
        Probe("multithresh.evaluate", "universal_threshold_estimate", "evaluate.universal"),
        Probe("multithresh.evaluate", "monte_carlo", "evaluate"),
        Probe("multithresh.evaluate", "check_moment", "evaluate"),
        Probe("multithresh.evaluate", "check_deviation", "evaluate"),
        Probe("multithresh.cli", "read_sample_file", "cli.read"),
    ]


def _wrapper(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        name = probe.span(args) if callable(probe.span) else probe.span
        result = tracer.call(name, original, args, kwargs)
        if probe.count is not None:
            probe.count(tracer, name, args, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, grid_size: int):
    """Wrap every probe attribute for the duration of the block."""
    saved = []
    try:
        for probe in probes(grid_size):
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr)
            saved.append((module, probe.attr, original))
            setattr(module, probe.attr, _wrapper(tracer, probe, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
