"""Span tracer for the benchmark's traced run.

Every deltawell module binds the names it imports, so the tracer installs
one timing wrapper per instrumented public function on every module
namespace that holds that function, including the module that defines
it.  No source file is edited, and uninstalling restores the original
objects.  Each call of a wrapped function while the tracer is active
records a span: name, start, end, parent span and job id, plus the
number of elements of its first array argument (1 for a scalar call).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# module.function, relative to the deltawell package
INSTRUMENTED = (
    "specfun.cerfc",
    "specfun.airy_ai",
    "specfun.airy_ai_prime",
    "specfun.hyp1f1_one",
    "specfun.hyp1f1_one_family",
    "specfun.moshinsky",
    "propagator.volkov_phi",
    "volterra.solve_psi0",
    "volterra.reconstruct_psi_x",
    "volterra.bound_overlap",
    "approx.first_scheme_psi0",
    "approx.y_integral",
    "approx.decay_closed_pair",
    "approx.decay_closed_psi0",
    "analysis.fit_c",
    "analysis.extract_rate_shift",
    "analysis.plateau",
    "scenario.run_scenario",
    "scenario.result_to_csv",
    "cli.main",
    "identities.check_airy_fourier",
    "identities.check_z6_identity",
    "identities.check_airy_erf_identity",
)

# bytes touched per march cell: one complex128 weight and one complex128 sample
MARCH_CELL_BYTES = 32


def _pair_key(bound, result):
    return float(bound["t"]), complex(bound["ansatz"].E)


def _march_cells(bound, result):
    # solve_psi0 marches the grid, then (when asked and N >= 8) the
    # half-resolution grid for its error estimate; node i costs i cells
    n = bound["grid"].n_steps
    cells = n * (n + 1) // 2
    if bound.get("estimate_error", True) and n >= 8:
        half = n // 2
        cells += half * (half + 1) // 2
    return cells


def _csv_bytes(bound, result):
    return len(result.encode())


# per-call extras, computed from the bound arguments and the result
_EXTRAS = {
    "approx.decay_closed_pair": _pair_key,
    "volterra.solve_psi0": _march_cells,
    "scenario.result_to_csv": _csv_bytes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "points", "error", "nested", "extra")

    def __init__(self, name, parent, job, points, nested):
        self.name = name
        self.parent = parent
        self.job = job
        self.points = points
        self.nested = nested
        self.error = False
        self.extra = None
        self.start = self.end = 0.0


def _points(args) -> int:
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.size)
    return 1


class Tracer:
    """Records spans of the instrumented functions while ``active`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.active = False
        self._stack: list[int] = []
        self._depth = dict.fromkeys(INSTRUMENTED, 0)
        self._installed: list[tuple] = []

    def reset(self):
        self.spans = []

    def _wrap(self, name, fn):
        tracer = self
        extra = _EXTRAS.get(name)
        signature = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(
                name,
                stack[-1] if stack else -1,
                tracer.job,
                _points(args),
                tracer._depth[name] > 0,
            )
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._depth[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._depth[name] -= 1
                stack.pop()
            if extra:
                bound = signature.bind(*args, **kwargs).arguments
                span.extra = extra(bound, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "deltawell" or n.startswith("deltawell.")]
        for name in INSTRUMENTED:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"deltawell.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def write(self, path, origin: float):
        """Write the spans as JSON lines: name, start and end (seconds
        from ``origin``), parent span index (-1 for a root) and job id."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start - origin, s.end - origin, s.parent, s.job]) + "\n")


def summarize(spans: list[Span]) -> dict:
    """Per-function stats and the derived per-layer metrics.

    For every instrumented function: ``calls``, ``errors``, ``points``
    (summed), ``s`` (inclusive time of the outermost calls, so recursion
    is not counted twice) and ``self_s`` (duration minus the time covered
    by direct child spans)."""
    stats = {n: {"calls": 0, "errors": 0, "points": 0, "s": 0.0, "self_s": 0.0} for n in INSTRUMENTED}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    pairs = set()
    cells = 0
    csv_bytes = 0
    in_overlap = 0
    for i, s in enumerate(spans):
        st = stats[s.name]
        duration = s.end - s.start
        st["calls"] += 1
        st["errors"] += int(s.error)
        st["points"] += s.points
        st["self_s"] += duration - child_time[i]
        if not s.nested:
            st["s"] += duration
        if s.name == "approx.decay_closed_pair":
            pairs.add((s.job, s.extra))
        elif s.name == "volterra.solve_psi0":
            cells += s.extra or 0
        elif s.name == "scenario.result_to_csv":
            csv_bytes += s.extra or 0
        elif s.name == "volterra.reconstruct_psi_x" and _has_ancestor(spans, s, "volterra.bound_overlap"):
            in_overlap += 1

    out = {f"{n}.{k}": v for n, st in stats.items() for k, v in st.items()}
    pair_calls = stats["approx.decay_closed_pair"]["calls"]
    overlaps = stats["volterra.bound_overlap"]["calls"]
    solve_s = stats["volterra.solve_psi0"]["s"]
    out["approx.decay_closed_pair.distinct_frac"] = len(pairs) / pair_calls if pair_calls else 0.0
    out["volterra.reconstruct_psi_x.calls_per_overlap"] = in_overlap / overlaps if overlaps else 0.0
    out["volterra.march.cells"] = cells
    out["volterra.march.bytes_computed"] = MARCH_CELL_BYTES * cells
    out["volterra.march.cells_per_s"] = cells / solve_s if solve_s else 0.0
    out["scenario.result_to_csv.bytes"] = csv_bytes
    return out


def _has_ancestor(spans, span, name) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def count_keys(summary: dict) -> list[str]:
    """The entries of a summary that must repeat exactly for the same jobs."""
    exact = ("calls", "errors", "points", "cells", "bytes", "bytes_computed", "distinct_frac", "calls_per_overlap")
    return sorted(k for k in summary if k.rsplit(".", 1)[1] in exact)
