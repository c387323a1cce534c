"""Spans and counters recorded around every call the benchmark makes into dvafit.

The benchmark reaches the library only through a :class:`Layers` object.
Untraced, its attributes are the library functions themselves, so the timed
path carries no wrapper at all.  Traced, each attribute is a wrapper that
records a span (layer, function, start, end, parent, phase, trace id) and
bumps ``<layer>.<function>_calls`` plus any result-derived counters.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time

import numpy as np

# A multi-start counts as a hit when its final objective lies within this
# relative distance of the best start's objective.
START_HIT_RTOL = 1e-6


def _fit_counts(result, args, kwargs):
    objs = np.array([rec.objective for rec in result.start_records])
    hits = int(np.sum(objs <= result.objective * (1.0 + START_HIT_RTOL)))
    return {
        "fitting.nfev": result.iterations,
        "fitting.starts": len(result.start_records),
        "fitting.start_hits": hits,
    }


def _rows_parsed(result, args, kwargs):
    return {"dataio.rows_parsed": len(result.q)}


def _reports_read(result, args, kwargs):
    return {"dataio.reports_read": 1}


def _report_bytes(result, args, kwargs):
    return {"dataio.report_bytes": os.path.getsize(args[1])}


# (layer, metric name, library attribute, result-derived counters).  Two
# metric names are shorter than the function they time: ``rate_check`` is
# ``capacity_at_rate_check`` and ``summarize`` is ``summarize_by_batch``.
LAYER_FUNCTIONS = (
    ("synth", "analytic_reference_curves", "analytic_reference_curves", None),
    ("synth", "random_feasible_theta", "random_feasible_theta", None),
    ("synth", "implied_v_min", "implied_v_min", None),
    ("synth", "generate", "generate", None),
    ("synth", "degrade", "degrade", None),
    ("model", "predict_voltage", "predict_voltage", None),
    ("dataio", "parse_reference_curve", "parse_reference_curve", None),
    ("dataio", "write_full_cell", "write_full_cell", None),
    ("dataio", "parse_full_cell", "parse_full_cell", _rows_parsed),
    ("dataio", "sha256_of", "sha256_of", None),
    ("dataio", "diagnostics_from_result", "diagnostics_from_result", None),
    ("dataio", "write_report", "write_report", _report_bytes),
    ("dataio", "read_report", "read_report", _reports_read),
    ("fitting", "fit", "fit", _fit_counts),
    ("features", "derive_features", "derive_features", None),
    ("features", "degradation", "degradation", None),
    ("batch", "normalize_areal", "normalize_areal", None),
    ("batch", "summarize", "summarize_by_batch", None),
    ("batch", "correlate", "correlate", None),
    ("curves", "rate_check", "capacity_at_rate_check", None),
    ("curves", "resample", "resample", None),
    ("curves", "differentiate", "differentiate", None),
)

# Functions that only build inputs.  Their per-layer figures are set-up
# totals, which add up to part of setup_s; all other figures are per cell of
# the timed phase.  Set-up calls to other functions (line_ingest stores its
# reports with derive_features, normalize_areal and write_report) show only
# in setup_s and in the spans file.
SETUP_FUNCTIONS = frozenset(
    f"{layer}.{name}"
    for layer, name, _, _ in LAYER_FUNCTIONS
    if layer in ("synth", "model") or name in ("parse_reference_curve", "write_full_cell")
)

# Counters reported besides the per-function ``_calls`` counts.
EXTRA_COUNTERS = (
    ("fitting.nfev", "count"),
    ("fitting.starts", "count"),
    ("dataio.rows_parsed", "count"),
    ("dataio.reports_read", "count"),
    ("dataio.report_bytes", "bytes"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a stable order."""
    units = {}
    for layer, name, _, _ in LAYER_FUNCTIONS:
        units[f"{layer}.{name}_s"] = "s"
        units[f"{layer}.{name}_calls"] = "count"
    units.update(dict(EXTRA_COUNTERS))
    units["fitting.us_per_nfev"] = "us"
    units["fitting.start_hit_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """In-memory span and counter store for one traced run.

    ``phase`` is ``"setup"`` or ``"timed"``; every span and counter is
    attributed to the phase current when it started.  ``trace_id`` groups
    the spans of one cell (``"setup"`` for set-up work).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.phase = "setup"
        self.trace_id = "setup"
        self._stack: list[int] = []

    def _open(self, layer: str, function: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, layer, function, self.phase, self.trace_id, 0, 0])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, start: int, end: int):
        self._stack.pop()
        self.spans[span_id][6] = start
        self.spans[span_id][7] = end

    @contextlib.contextmanager
    def span(self, layer: str, function: str):
        span_id = self._open(layer, function)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, start, time.perf_counter_ns())

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, layer: str, name: str, fn, counters):
        metric = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._open(layer, name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, start, time.perf_counter_ns())
            self.count(metric + "_calls", 1)
            if counters is not None:
                for key, value in counters(result, args, kwargs).items():
                    self.count(key, value)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write spans as JSON lines: one object per span."""
        keys = ("id", "parent", "layer", "function", "phase", "trace_id", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self, timed_cells: int) -> dict[str, float]:
        """Per-layer metrics from the spans and counters.

        Functions in SETUP_FUNCTIONS report their set-up total; every other
        function reports its timed-phase total per cell, so runs of different
        length compare.  Library calls do not nest inside one another in the
        benchmark, so a library span's duration is its self time.
        """
        def wanted(phase, layer, function):
            return (phase == "setup") == (f"{layer}.{function}" in SETUP_FUNCTIONS)

        scale = {"setup": 1.0, "timed": 1.0 / timed_cells}
        seconds: dict[str, float] = {}
        for _, _, layer, function, phase, _, start, end in self.spans:
            if layer != "bench" and wanted(phase, layer, function):
                key = f"{layer}.{function}_s"
                seconds[key] = seconds.get(key, 0.0) + (end - start) * 1e-9 * scale[phase]
        counts: dict[str, float] = {}
        for (phase, name), value in self.counts.items():
            layer, _, function = name.removesuffix("_calls").partition(".")
            if wanted(phase, layer, function):
                counts[name] = counts.get(name, 0.0) + value * scale[phase]

        out = {}
        for name in per_layer_metric_units():
            if name.endswith("_s"):
                out[name] = seconds.get(name, 0.0)
            else:
                out[name] = counts.get(name, 0.0)
        nfev = counts.get("fitting.nfev", 0.0)
        starts = counts.get("fitting.starts", 0.0)
        out["fitting.us_per_nfev"] = out["fitting.fit_s"] / nfev * 1e6 if nfev else 0.0
        out["fitting.start_hit_ratio"] = (
            counts.get("fitting.start_hits", 0.0) / starts if starts else 0.0
        )
        out["trace.spans"] = float(len(self.spans))
        out["trace.overhead_s"] = 0.0  # filled in by the launcher
        return out


class Layers:
    """The dvafit functions the workloads call, traced or not."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        for layer, name, attr, counters in LAYER_FUNCTIONS:
            fn = getattr(importlib.import_module(f"dvafit.{layer}"), attr)
            if tracer is not None:
                fn = tracer.wrap(layer, name, fn, counters)
            setattr(self, attr, fn)

    def span(self, function: str):
        """A benchmark-level span (layer ``bench``), or nothing untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench", function)

    def set_phase(self, phase: str, trace_id: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.trace_id = trace_id
