"""Span tracing of the seqgeo layers, installed from outside the library.

The tracer replaces the public functions of each layer module, and the
public methods of the model classes, with thin wrappers that record one
span per call: name, start, end and the span that was open when the call
began. Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts
every original object back and :meth:`Tracer.restored` checks that it did.

Spans are kept in memory and turned into per-layer metrics by
:func:`layer_metrics` once the traced run has finished.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time

# Layer modules whose public functions are wrapped. ``expfam`` is reached
# only through ``geometry``/``conformal`` and its time stays in their spans.
LAYERS = ("models", "sequential", "geometry", "conformal", "tensorops", "harness", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "note", "error")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.note = None
        self.error = None


def _draws_requested(args, kwargs) -> int:
    return int(kwargs["size"] if "size" in kwargs else args[3])


def _stop_outcome(result) -> tuple[int, float]:
    decision = result[0]
    return decision.tau, decision.criterion_value - decision.threshold


# Spans that note one value read from their arguments or their result,
# because a layer metric needs it; every other span keeps timing only.
_ARG_NOTES = {"models.sample_many": _draws_requested}
_RESULT_NOTES = {"sequential.run_stopping": _stop_outcome}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, post=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``post`` may replace the result before it is handed back; it is
        used to trace closures that a layer function returns.
        """
        spans, stack, clock = self.spans, self._open, time.perf_counter
        arg_note = _ARG_NOTES.get(name)
        result_note = _RESULT_NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            if arg_note is not None:
                span.note = arg_note(args, kwargs)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = clock()
            if result_note is not None:
                span.note = result_note(result)
            return post(result) if post is not None else result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every public function of the layer modules and the model methods.

        A function imported by name into another module of the package
        (``from .geometry import chart_grid``) is replaced there as well, so
        every call site goes through the same wrapper.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                post = self._trace_coords if (layer, attr) == ("conformal", "quadric_gauge") else None
                wrapper = self.wrap(f"{layer}.{attr}", obj, post)
                for other in modules:
                    for name, val in list(vars(other).items()):
                        if val is obj:
                            self._patch(other, name, wrapper)
        models = sys.modules[f"{package.__name__}.models"]
        for cls_name, cls in sorted(vars(models).items()):
            if not (inspect.isclass(cls) and cls.__module__ == models.__name__ and cls_name.endswith("Model")):
                continue
            for attr, obj in sorted(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    self._patch(cls, attr, self.wrap(f"models.{attr}", obj))

    def _trace_coords(self, result):
        gauge, coords = result
        return gauge, dataclasses.replace(
            coords, forward=self.wrap("conformal.coords_forward", coords.forward))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again."""
        for owner, attr, original in self._patches:
            current = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr)
            if current is not original:
                return False
        return True


# ---------------------------------------------------------------------------
# per-layer metrics


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0 when it is empty."""
    if not sorted_vals:
        return 0.0
    k = max(0, min(len(sorted_vals) - 1, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[k]


# (span name, metrics wanted). ``calls`` and ``self_s`` come straight from
# the spans; the derived ones are filled in by ``layer_metrics``.
NAMED = (
    ("models.sample_many", ("calls", "draws", "self_s", "us_per_call", "ns_per_draw")),
    ("models.mle_many", ("calls", "self_s")),
    ("models.criterion_many", ("calls", "self_s")),
    ("models.nu_many", ("calls", "self_s")),
    ("models.mle_direction", ("calls", "self_s", "undefined")),
    ("sequential.run_stopping", ("calls", "self_s", "p50_ms", "p99_ms", "bursts_per_call",
                                 "runaway", "useful_draw_ratio", "overshoot_mean", "total_frac")),
    ("sequential.bias_correct", ("calls", "self_s", "us_per_call", "total_frac")),
    ("sequential.crb", ("self_s",)),
    ("sequential.asymptotic_covariance", ("self_s",)),
    ("geometry.frame_at", ("calls", "self_s")),
    ("geometry.induced_metric", ("calls", "self_s")),
    ("geometry.sub_connections", ("calls", "self_s")),
    ("geometry.es_curvature", ("calls", "self_s")),
    ("geometry.gauss_curvature", ("calls", "self_s")),
    ("geometry.classify", ("calls", "self_s")),
    ("conformal.quadric_gauge", ("calls", "self_s")),
    ("conformal.coords_forward", ("calls", "self_s")),
    ("conformal.weyl_schouten", ("calls", "self_s", "ms_per_point")),
    ("conformal.flatness_test", ("calls", "self_s")),
    ("conformal.gauge_pde_residual", ("calls", "self_s")),
    ("conformal.ubar_chart_connection", ("calls", "self_s")),
    ("tensorops.invert_matrix", ("calls", "self_s")),
    ("harness.run_nonsequential", ("self_s",)),
    ("harness.run_sequential", ("self_s",)),
    ("harness.rep_seed", ("calls", "self_s")),
    ("harness.write_results", ("calls", "self_s")),
    ("cli.geometry_report", ("self_s",)),
)

# Entry points whose self time is whatever the spans below them leave
# uncovered; ``trace.named_self_frac`` leaves them out so that it can fall.
ROOTS = ("harness.run_nonsequential", "harness.run_sequential", "cli.geometry_report")

UNITS = {
    "calls": "count", "draws": "count", "undefined": "count", "runaway": "count",
    "self_s": "s", "total_frac": "ratio", "us_per_call": "us", "ns_per_draw": "ns",
    "p50_ms": "ms", "p99_ms": "ms", "ms_per_point": "ms",
    "bursts_per_call": "count", "useful_draw_ratio": "ratio", "overshoot_mean": "criterion",
}


def metric_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {f"{span}.{m}": UNITS[m] for span, wanted in NAMED for m in wanted}
    out.update({f"{layer}.self_s": "s" for layer in LAYERS})
    out["trace.named_self_frac"] = "ratio"
    out["trace_overhead_frac"] = "ratio"
    return out


def layer_metrics(spans: list[Span], traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace_overhead_frac`` excluded).

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + dur - child[i]
        total_s[s.name] = total_s.get(s.name, 0.0) + dur

    stop_idx = [i for i, s in enumerate(spans) if s.name == "sequential.run_stopping"]
    stop_set = set(stop_idx)
    draws_all = 0
    draws_in_stop = 0
    bursts_in_stop = 0
    for s in spans:
        if s.name == "models.sample_many":
            draws_all += s.note
            if s.parent in stop_set:
                draws_in_stop += s.note
                bursts_in_stop += 1
    outcomes = [spans[i].note for i in stop_idx if spans[i].error is None]
    stop_ms = sorted((spans[i].end - spans[i].start) * 1e3 for i in stop_idx)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    derived = {
        "models.sample_many.draws": draws_all,
        "models.sample_many.us_per_call": per(self_s.get("models.sample_many", 0.0),
                                              calls.get("models.sample_many", 0), 1e6),
        "models.sample_many.ns_per_draw": per(self_s.get("models.sample_many", 0.0), draws_all, 1e9),
        "models.mle_direction.undefined": sum(
            1 for s in spans if s.name == "models.mle_direction" and s.error == "MleUndefinedError"),
        "sequential.run_stopping.p50_ms": _quantile(stop_ms, 0.50),
        "sequential.run_stopping.p99_ms": _quantile(stop_ms, 0.99),
        "sequential.run_stopping.bursts_per_call": per(bursts_in_stop, len(stop_idx)),
        "sequential.run_stopping.runaway": sum(
            1 for i in stop_idx if spans[i].error == "RunawayStopError"),
        "sequential.run_stopping.useful_draw_ratio": per(sum(tau for tau, _ in outcomes), draws_in_stop),
        "sequential.run_stopping.overshoot_mean": per(
            sum(over for _, over in outcomes), len(outcomes)),
        "sequential.run_stopping.total_frac": per(total_s.get("sequential.run_stopping", 0.0),
                                                  traced_wall_s),
        "sequential.bias_correct.us_per_call": per(self_s.get("sequential.bias_correct", 0.0),
                                                   calls.get("sequential.bias_correct", 0), 1e6),
        "sequential.bias_correct.total_frac": per(total_s.get("sequential.bias_correct", 0.0),
                                                  traced_wall_s),
        "conformal.weyl_schouten.ms_per_point": per(total_s.get("conformal.weyl_schouten", 0.0),
                                                    calls.get("conformal.weyl_schouten", 0), 1e3),
    }
    out: dict[str, float] = {}
    for span, wanted in NAMED:
        for m in wanted:
            key = f"{span}.{m}"
            if m == "calls":
                out[key] = calls.get(span, 0)
            elif m == "self_s":
                out[key] = self_s.get(span, 0.0)
            else:
                out[key] = derived[key]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, v in self_s.items():
        layer_self[name.split(".", 1)[0]] += v
    for layer, v in layer_self.items():
        out[f"{layer}.self_s"] = v
    out["trace.named_self_frac"] = per(
        sum(self_s.get(span, 0.0) for span, _ in NAMED if span not in ROOTS), traced_wall_s)
    return out
