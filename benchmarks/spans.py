"""Spans around the calls into each danteflow layer, recorded from outside.

install() replaces each traced public function in every danteflow module
namespace that binds it (danteflow.integrate, danteflow.flow.integrate,
danteflow.shapespace.integrate and danteflow.cli.integrate are one function
bound four times), and Trajectory.sample_at on its class.  Each call then
records a span: layer, operation index, parent span, start, end and a work
count taken from the result.  Spans stay in memory until the run ends.

A layer's self time is its span minus the spans of its direct children, so
trace_flowline's self time excludes the forward integrate it calls.

This module imports nothing heavy, so the CLI launcher can load it before
danteflow without shifting the package's import time.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

#: Span name of the CLI entry point, recorded by the launcher.
CLI_MAIN = "cli.main"


def _len(args, result):
    return len(result)


def _points_requested(args, result):
    t = args[1]
    return len(t) if hasattr(t, "__len__") else 1


def _boundary_points(args, result):
    return sum(len(points) for points in result.values())


#: (layer, module, attribute, work count of one call or None).
TARGETS = (
    ("flow.integrate", "danteflow.flow", "integrate", _len),
    ("flow.inversion", "danteflow.flow", "snake_lambda_of_time", None),
    ("flow.inversion", "danteflow.flow", "turtle_mu_of_time", None),
    ("geometry.curvature_summary", "danteflow.geometry", "curvature_summary", None),
    ("geometry.classify", "danteflow.geometry", "classify", None),
    ("shapespace.trace_flowline", "danteflow.shapespace", "trace_flowline", _len),
    ("shapespace.region_boundaries", "danteflow.shapespace", "region_boundaries",
     _boundary_points),
)


class Tracer:
    """In-memory span recorder; `op` is the index of the running operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, layer: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, self.op, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
            self.spans.append(span)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                span[3] = start
                self._stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loaded danteflow module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "danteflow" or name.startswith("danteflow.")]
        for layer, module_name, attr, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(layer, original, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
        trajectory = sys.modules["danteflow.flow"].Trajectory
        trajectory.sample_at = self.wrap("flow.sample_at", trajectory.sample_at,
                                         _points_requested)


def layer_totals(spans, scales) -> dict[str, dict]:
    """Per layer: calls, summed work counts and summed self time at reference
    speed, where scales[op] is the reference-speed factor of operation op."""
    child_time = [0.0] * len(spans)
    for layer, op, parent, start, end, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (layer, op, parent, start, end, count) in enumerate(spans):
        entry = totals.setdefault(layer, {"calls": 0, "count": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["count"] += count
        entry["self_s"] += (end - start - child_time[i]) * scales[op]
    return totals
