"""Spans around the calls into each jacobibands layer, installed from outside.

``Tracer.install`` rebinds module globals of the imported package, so a
call is traced exactly where the calling module looks the name up; the
package itself is not modified. Spans are kept in memory as
``[name, start, end, parent, trial, raised]`` and written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import time

# (module, global, span name). The exact evaluator and the float
# evaluators are traced per caller so their cost can be charged to it.
TARGETS = (
    ("jacobibands.ensemble", "build_discriminant", "discriminant"),
    ("jacobibands.ensemble", "band_structure", "bands"),
    ("jacobibands.ensemble", "band_edges_oracle", "floquet"),
    ("jacobibands.ensemble", "potential_report", "potential"),
    ("jacobibands.bounds", "evaluate_all_bounds", "bounds"),
    ("jacobibands.bands", "band_edges_oracle", "floquet"),
    ("jacobibands.discriminant", "real_roots_in", "polynomial"),
    ("jacobibands.bands", "scaled_trace_exact", "bands.exact"),
    ("jacobibands.bands", "eval_discriminant_stable", "bands.float"),
    ("jacobibands.bands", "eval_discriminant_bounded", "bands.float"),
    ("jacobibands.potential", "scaled_trace_exact", "potential.exact"),
    ("jacobibands.potential", "eval_discriminant_bounded", "potential.float"),
)

# Pipeline stage of each span, for the per-period buckets. A stage's time is
# the self time of its spans, so Floquet calls made by bands count as floquet.
STAGE = {
    "discriminant": "discriminant",
    "polynomial": "discriminant",
    "bands": "bands",
    "bands.exact": "bands",
    "bands.float": "bands",
    "floquet": "floquet",
    "potential": "potential",
    "potential.exact": "potential",
    "potential.float": "potential",
}

P_BUCKETS = ((2, 5), (6, 10), (11, 20))

RAISING_LAYERS = ("discriminant", "bands", "floquet", "potential", "bounds")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.trial = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span named name, child of the innermost open span."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.trial, True]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[5] = False
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _wrap(self, name, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\ttrial\traised\n")
            for name, start, end, parent, trial, raised in self.spans:
                out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{trial}\t{int(raised)}\n")


def layer_metrics(spans: list[list], periods) -> dict[str, float]:
    """Per-layer totals over a traced run.

    periods[trial] is the period p of the operator of that trial. Self time is a span's
    duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _trial, _raised in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    raised: dict[str, int] = {}
    buckets = {
        (stage, lo, hi): 0.0 for stage in set(STAGE.values()) for lo, hi in P_BUCKETS
    }
    oracle_trials = set()
    potential_edges = 0
    for i, (name, start, end, parent, trial, failed) in enumerate(spans):
        duration = (end - start) * 1e3
        own = duration - child[i] * 1e3
        self_ms[name] = self_ms.get(name, 0.0) + own
        total_ms[name] = total_ms.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        raised[name] = raised.get(name, 0) + failed
        p = periods[trial]
        if name == "floquet" and parent >= 0 and spans[parent][0] == "bands":
            oracle_trials.add(trial)
        elif name == "potential":
            potential_edges += 2 * p
        stage = STAGE.get(name)
        if stage is not None:
            for lo, hi in P_BUCKETS:
                if lo <= p <= hi:
                    buckets[(stage, lo, hi)] += own

    out = {
        "ensemble.ms": self_ms.get("ensemble", 0.0),
        "ensemble.report_ms": self_ms.get("report", 0.0),
        "discriminant.ms": self_ms.get("discriminant", 0.0),
        "polynomial.ms": self_ms.get("polynomial", 0.0),
        "polynomial.calls": calls.get("polynomial", 0),
        "bands.ms": self_ms.get("bands", 0.0),
        "bands.exact_calls": calls.get("bands.exact", 0),
        "bands.exact_ms": total_ms.get("bands.exact", 0.0),
        "bands.oracle_path": len(oracle_trials),
        "floquet.ms": self_ms.get("floquet", 0.0),
        "floquet.calls": calls.get("floquet", 0),
        "potential.ms": self_ms.get("potential", 0.0),
        "potential.exact_calls": calls.get("potential.exact", 0),
        "potential.exact_ms": total_ms.get("potential.exact", 0.0),
        "potential.exact_per_edge": calls.get("potential.exact", 0) / max(1, potential_edges),
        "bounds.ms": self_ms.get("bounds", 0.0),
        "discriminant.exact_calls": calls.get("bands.exact", 0) + calls.get("potential.exact", 0),
        "discriminant.exact_ms": total_ms.get("bands.exact", 0.0) + total_ms.get("potential.exact", 0.0),
        "discriminant.float_calls": calls.get("bands.float", 0) + calls.get("potential.float", 0),
        "discriminant.float_ms": total_ms.get("bands.float", 0.0) + total_ms.get("potential.float", 0.0),
    }
    for layer in RAISING_LAYERS:
        out[f"{layer}.raised"] = raised.get(layer, 0)
    for (stage, lo, hi), ms in buckets.items():
        out[f"{stage}.ms.p{lo:02d}_{hi:02d}"] = ms
    return out
