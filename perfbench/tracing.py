"""Spans around calls into richfan's public functions, recorded from outside.

`install()` replaces each traced function or method with a wrapper that
records one span: name, start, end, parent span and a few counters taken from
the arguments and the result.  Module-level functions are replaced in every
loaded richfan module that bound them by name, so calls between modules are
seen too.  Spans stay in memory until `dump()`; `layer_metrics()` turns them
into the per-layer metrics, using self time (a span's duration minus the time
its child spans cover).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

def _no_counts(args, kwargs, out):
    return {}


def _ideal_counts(args, kwargs, out):
    return {"gens_out": len(out.generators)}


def _pullback_counts(args, kwargs, out):
    return {"rows_in": len(args[0].generators), "rows_out": len(out.generators)}


def _dd_counts(args, kwargs, out):
    eqs = args[2] if len(args) > 2 else kwargs.get("eqs", ())
    return {"constraints": len(args[1]) + len(eqs), "rays_out": len(out[1])}


def _newton_counts(args, kwargs, out):
    return {"gens_in": len(args[0].generators), "cones_out": len(out.cones)}


def _valid_counts(args, kwargs, out):
    c = len(args[0].cones)
    return {"pairs": c * (c - 1) // 2}


def _cuts_counts(args, kwargs, out):
    n = len(args[0].vertices)
    return {"bipartitions": max(0, 2 ** (n - 1) - 1), "found": len(out)}


# span name -> (module, function, counters(args, kwargs, result) -> dict)
_FUNCTIONS = {
    "subdivision.richness_ideal": ("richfan.subdivision", "richness_ideal", _ideal_counts),
    "subdivision.pullback": ("richfan.subdivision", "pullback_to_contraction", _pullback_counts),
    "subdivision.newton": ("richfan.subdivision", "newton_subdivision", _newton_counts),
    "subdivision.choice_fan": ("richfan.subdivision", "choice_function_fan", None),
    "subdivision.smoothness": ("richfan.subdivision", "smoothness_report", _no_counts),
    "subdivision.factors_through": ("richfan.subdivision", "factors_through", _no_counts),
    "cones.dd": ("richfan.cones", "double_description", _dd_counts),
    "catalog.census": ("richfan.catalog", "small_connected_graphs", _no_counts),
    "curves.family_is_weakly_r_rich": ("richfan.curves", "family_is_weakly_r_rich", _no_counts),
    "drawing.cross_section": ("richfan.drawing", "cross_section", _no_counts),
}
# span name -> (module, class, method, counters)
_METHODS = {
    "graphs.cuts": ("richfan.graphs", "Graph", "cuts", _cuts_counts),
    "cones.fan_valid": ("richfan.cones", "Fan", "is_valid", _valid_counts),
    "cones.fan_complete": ("richfan.cones", "Fan", "is_complete_on_orthant", _no_counts),
    "monoids.is_free": ("richfan.monoids", "SharpMonoid", "is_free", _no_counts),
    "monoids.hilbert_basis": ("richfan.monoids", "SharpMonoid", "hilbert_basis", _no_counts),
    "curves.is_r_rich": ("richfan.curves", "TropicalCurve", "is_r_rich", _no_counts),
    "curves.is_weakly_r_rich": ("richfan.curves", "TropicalCurve", "is_weakly_r_rich", _no_counts),
    "curves.basic_model": ("richfan.curves", "TropicalCurve", "basic_model", _no_counts),
}

# per-layer metric names, in report order; BENCHMARK.json lists the same ones
LAYER_METRICS: list[tuple[str, str]] = [
    ("subdivision.richness_ideal.calls", "count"),
    ("subdivision.richness_ideal.s", "s"),
    ("subdivision.richness_ideal.gens_out", "count"),
    ("subdivision.richness_ideal.gens_out_max", "count"),
    ("subdivision.pullback.calls", "count"),
    ("subdivision.pullback.s", "s"),
    ("subdivision.pullback.rows_in", "count"),
    ("subdivision.pullback.rows_out", "count"),
    ("cones.dd.calls", "count"),
    ("cones.dd.s", "s"),
    ("cones.dd.constraints", "count"),
    ("cones.dd.constraints_max", "count"),
    ("cones.dd.rays_out", "count"),
    ("subdivision.newton.calls", "count"),
    ("subdivision.newton.s", "s"),
    ("subdivision.newton.gens_in", "count"),
    ("subdivision.newton.cones_out", "count"),
    ("subdivision.newton.kept", "ratio"),
    ("subdivision.choice_fan.s", "s"),
    ("subdivision.choice_fan.choices", "count"),
    ("subdivision.choice_fan.cones_out", "count"),
    ("subdivision.choice_fan.kept", "ratio"),
    ("cones.fan_valid.s", "s"),
    ("cones.fan_valid.pairs", "count"),
    ("cones.fan_complete.s", "s"),
    ("subdivision.smoothness.s", "s"),
    ("subdivision.factors_through.calls", "count"),
    ("subdivision.factors_through.s", "s"),
    ("monoids.is_free.calls", "count"),
    ("monoids.is_free.s", "s"),
    ("monoids.hilbert_basis.calls", "count"),
    ("monoids.hilbert_basis.s", "s"),
    ("graphs.cuts.calls", "count"),
    ("graphs.cuts.s", "s"),
    ("graphs.cuts.bipartitions", "count"),
    ("graphs.cuts.found", "count"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("catalog.census.s", "s"),
    ("curves.is_r_rich.s", "s"),
    ("curves.is_weakly_r_rich.s", "s"),
    ("curves.basic_model.s", "s"),
    ("curves.family_is_weakly_r_rich.s", "s"),
    ("drawing.cross_section.s", "s"),
    ("trace.overhead_s", "s"),
]


def _materialised(dd):
    """double_description takes iterables; pass lists so they can be counted."""

    @functools.wraps(dd)
    def wrapper(rank, ineqs, eqs=()):
        return dd(rank, list(ineqs), list(eqs))

    return wrapper


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = counters(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function; richfan must already be imported."""
        import richfan.catalog  # noqa: F401
        import richfan.drawing  # noqa: F401
        import richfan.subdivision  # noqa: F401

        mods = [m for k, m in sys.modules.items() if k == "richfan" or k.startswith("richfan.")]
        for name, (mod, cls, attr, counters) in _METHODS.items():
            klass = getattr(sys.modules[mod], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr), counters))
        plain_cuts = sys.modules["richfan.graphs"].Graph.cuts.__wrapped__

        def choice_counts(args, kwargs, out):
            return {
                "choices": math.prod(len(c) for c in plain_cuts(args[0])),
                "cones_out": len(out.cones),
            }

        for name, (mod, attr, counters) in _FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr)
            if name == "subdivision.choice_fan":
                counters = choice_counts
            new = self.wrap(name, orig, counters)
            if name == "cones.dd":
                new = _materialised(new)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, new)

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "extra": extra or {}}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per span name: calls, summed self seconds, summed counters and maxima."""
    agg: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        name, counts = s[0], s[4] or {}
        agg[name + ".calls"] = agg.get(name + ".calls", 0) + 1
        agg[name + ".s"] = agg.get(name + ".s", 0.0) + own
        for k, v in counts.items():
            agg[f"{name}.{k}"] = agg.get(f"{name}.{k}", 0) + v
            mk = f"{name}.{k}_max"
            agg[mk] = max(agg.get(mk, 0), v)
    return agg


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for p in parts:
        for k, v in p.items():
            out[k] = max(out.get(k, 0), v) if k.endswith("_max") else out.get(k, 0) + v
    return out


def layer_metrics(agg: dict[str, float], overhead_s: float, cli_times: dict[str, float]) -> dict:
    """The per-layer metrics of LAYER_METRICS from aggregated span data."""
    vals = dict(agg)
    for name, base in (("subdivision.newton", "gens_in"), ("subdivision.choice_fan", "choices")):
        den = agg.get(f"{name}.{base}", 0)
        vals[f"{name}.kept"] = agg.get(f"{name}.cones_out", 0) / den if den else 0.0
    vals.update(cli_times)
    vals["trace.overhead_s"] = overhead_s
    return {name: {"value": vals.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}
