"""Span tracing of packpredict's public functions, from outside the library.

`Tracer.install` replaces each traced function with a timing wrapper in
every packpredict module that binds it by name (for example
`substitute_pack` in both `games` and `aggregator`), so calls made inside
the library are caught too.  Spans are kept in memory and folded into the
per-layer metrics at the end.  A span's self time is its duration minus the
durations of its direct child spans; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _columns(args, result):
    return np.shape(args[1])[1]


def _length(args, result):
    return len(result)


def _entries(args, result):
    return len(result.entries)


def _rows(args, result):
    return result[0].num_items


# Defining module -> {public function: work counter or None}.
TRACED = {
    "games": {"substitute_pack": _columns},
    "aggregator": {"init_state": None, "predict_pack": None,
                   "predict_item": None, "observe_pack": None},
    "algorithms": {name: _length for name in (
        "run_aa", "run_aap_equal", "run_aap_max", "run_aap_incremental",
        "run_aap_current")},
    "parallel": {"run_parallel": None},
    "bounds": {"audit_run": _entries},
    "harness": {"generate_synthetic_stream": None, "load_pack_csv": _rows,
                "run_experiment": None, "emit_report": _length,
                "result_from_json": None},
    "cli": {"main": None},
}


class Tracer:
    """Collects spans (name, start_ns, end_ns, parent index, work count)."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.enabled = True

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if counter is not None:
                spans[index] = (name, start, end, parent,
                                counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever packpredict binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "packpredict"
                                         or n.startswith("packpredict."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"packpredict.{module_name}"]
            for fn_name, counter in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original,
                                     counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed work counts,
        durations in ms, and how many spans sit directly under run_parallel."""
        out = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "count": 0, "ms": [], "under_parallel": 0})
            s["calls"] += 1
            s["s"] += (end - start) * 1e-9
            s["self_s"] += (end - start - child_ns[i]) * 1e-9
            s["count"] += count
            s["ms"].append((end - start) * 1e-6)
            if parent >= 0 and self.spans[parent][0] == "parallel.run_parallel":
                s["under_parallel"] += 1
        return out


# Per-layer metric -> (span name, summary field).  Counts come from the
# work counters in TRACED; parallel.copies counts the single-item learners
# `run_parallel` creates.
LAYER_METRICS = {
    "games.substitute_pack.calls": ("games.substitute_pack", "calls"),
    "games.substitute_pack.columns": ("games.substitute_pack", "count"),
    "games.substitute_pack.s": ("games.substitute_pack", "s"),
    "aggregator.predict_pack.calls": ("aggregator.predict_pack", "calls"),
    "aggregator.predict_pack.s": ("aggregator.predict_pack", "s"),
    "aggregator.predict_pack.self_s": ("aggregator.predict_pack", "self_s"),
    "aggregator.predict_item.calls": ("aggregator.predict_item", "calls"),
    "aggregator.predict_item.s": ("aggregator.predict_item", "s"),
    "aggregator.predict_item.self_s": ("aggregator.predict_item", "self_s"),
    "aggregator.observe_pack.calls": ("aggregator.observe_pack", "calls"),
    "aggregator.observe_pack.s": ("aggregator.observe_pack", "s"),
    "algorithms.run.s": ("algorithms.run_", "s"),
    "algorithms.run.self_s": ("algorithms.run_", "self_s"),
    "algorithms.records": ("algorithms.run_", "count"),
    "parallel.run_parallel.s": ("parallel.run_parallel", "s"),
    "parallel.run_parallel.self_s": ("parallel.run_parallel", "self_s"),
    "parallel.copies": ("aggregator.init_state", "under_parallel"),
    "bounds.audit_run.calls": ("bounds.audit_run", "calls"),
    "bounds.audit_run.s": ("bounds.audit_run", "s"),
    "bounds.entries": ("bounds.audit_run", "count"),
    "harness.generate_synthetic_stream.s": ("harness.generate_synthetic_stream", "s"),
    "harness.load_pack_csv.s": ("harness.load_pack_csv", "s"),
    "harness.rows": ("harness.load_pack_csv", "count"),
    "harness.run_experiment.self_s": ("harness.run_experiment", "self_s"),
    "harness.emit_report.s": ("harness.emit_report", "s"),
    "harness.report_bytes": ("harness.emit_report", "count"),
    "harness.result_from_json.s": ("harness.result_from_json", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def layer_metrics(summary: dict, reps: int) -> dict:
    """Per-layer metrics of one traced repetition (totals / reps).  A span
    name ending in '_' sums every function with that prefix."""
    def total(prefix, field):
        names = [n for n in summary
                 if n == prefix or (prefix.endswith("_") and n.startswith(prefix))]
        return sum(summary[n][field] for n in names)

    metrics = {m: total(*source) / reps for m, source in LAYER_METRICS.items()}
    predict_ms = summary.get("aggregator.predict_pack", {}).get("ms", [])
    p50, p99 = np.percentile(predict_ms, [50, 99]) if predict_ms else (0.0, 0.0)
    metrics["aggregator.predict_pack.p50_ms"] = float(p50)
    metrics["aggregator.predict_pack.p99_ms"] = float(p99)
    return metrics
