"""Spans around ptqlab's public functions, recorded from outside the package.

The tracer swaps each traced function for a wrapper in every ``ptqlab``
module that binds it. A name imported with ``from .x import y`` is a
separate binding in each importing module (``forward_logits`` lives in
``model.network``, ``model``, ``model.generate``, ``evaluation`` and
``gptq``), so every binding that is the original object is replaced, and
restored when the tracer is removed. Methods are swapped on their class.

A span records its name, start, end and parent span; spans stay in memory
until :func:`per_layer_metrics` reduces them. A layer's self time is its
duration minus the durations of its direct child spans. Functions that are
not traced count towards the self time of the nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYER_FNS = ("linear_fwd", "linear_bwd", "attention_fwd", "attention_bwd", "gelu_fwd",
             "gelu_bwd", "layer_norm_fwd", "layer_norm_bwd", "embedding_fwd",
             "embedding_bwd", "cross_entropy_from_logits")
DTYPES = ("f32", "f64")
TASKS_FNS = ("sample_example", "sample_task_rows", "load_corpus", "corpus_hash",
             "sample_text_rows", "ar_batch", "diffusion_batch")
LATENCY_UNITS = ("ar_token", "diffusion_step")
PIPELINE_STAGES = ("stage_train", "stage_eval", "stage_report", "reproduce")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = self.child = 0.0
        self.attrs = None


# -- what each traced function reports ---------------------------------------

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _tag(dtype) -> str:
    dt = np.dtype(dtype)
    if dt == np.float32:
        return ".f32"
    if dt == np.float64:
        return ".f64"
    return "." + dt.name


def _first_dtype(args, kwargs, out):
    return _tag(args[0].dtype), None


def _linear_fwd(args, kwargs, out):
    x, weight = args[0], args[1]
    return _tag(x.dtype), {"flop": 2 * x.shape[0] * weight.shape[0] * weight.shape[1]}


def _linear_bwd(args, kwargs, out):
    dout, (_, weight) = args[0], args[1]
    return _tag(dout.dtype), {"flop": 4 * dout.shape[0] * weight.shape[0] * weight.shape[1]}


def _attention_fwd(args, kwargs, out):
    q, k = args[0], args[1]
    return _tag(q.dtype), {"flop": 4 * q.size * k.shape[-2]}


def _attention_bwd(args, kwargs, out):
    dout, (q, k, _, _) = args[0], args[1]
    return _tag(dout.dtype), {"flop": 8 * q.size * k.shape[-2]}


def _embedding_bwd(args, kwargs, out):
    return _tag(_arg(args, kwargs, 3, "dtype")), None


def _forward_logits(args, kwargs, out):
    ids = np.asarray(_arg(args, kwargs, 2, "input_ids"))
    return _tag(_arg(args, kwargs, 3, "dtype", np.float32)), {"tokens": int(ids.size)}


def _backward_from_logits(args, kwargs, out):
    return _tag(args[0]["dtype"]), None


def _generated(args, kwargs, out):
    prompt = _arg(args, kwargs, 1, "prompt")
    return "", {"tokens_out": len(out) - len(prompt) if out is not None else 0}


def _sensitivity_record(args, kwargs, out):
    if out is None:
        return "", None
    return "", {"iters": out.iters_used, "converged": bool(out.converged)}


def _latency_unit(args, kwargs, out):
    return "", {"unit": _arg(args, kwargs, 1, "cfg").unit_of_work}


LAYER_INFO = {"linear_fwd": _linear_fwd, "linear_bwd": _linear_bwd,
              "attention_fwd": _attention_fwd, "attention_bwd": _attention_bwd,
              "embedding_bwd": _embedding_bwd}

# (module, attribute, span name, info); info(args, kwargs, result) returns a
# suffix for the span name and a dict of attributes, or None.
TARGETS = (
    [("ptqlab.model.layers", fn, f"model.layers.{fn}", LAYER_INFO.get(fn, _first_dtype))
     for fn in LAYER_FNS]
    + [("ptqlab.model.network", "forward_logits", "model.network.forward_logits",
        _forward_logits),
       ("ptqlab.model.network", "backward_from_logits", "model.network.backward_from_logits",
        _backward_from_logits),
       ("ptqlab.trainer", "train", "trainer.train", None),
       ("ptqlab.trainer", "calibration_batches", "trainer.calibration_batches", None)]
    + [("ptqlab.tasks", fn, f"tasks.{fn}", None) for fn in TASKS_FNS]
    + [("ptqlab.sensitivity", "power_iteration_sensitivity",
        "sensitivity.power_iteration_sensitivity", _sensitivity_record),
       ("ptqlab.sensitivity", "ModuleGradientOracle.gradient", "sensitivity.gradient", None),
       ("ptqlab.gptq", "collect_calibration", "gptq.collect_calibration", None),
       ("ptqlab.gptq", "gptq_quantize_layer", "gptq.gptq_quantize_layer", None),
       ("ptqlab.numerics", "cholesky_upper_of_inverse", "numerics.cholesky_upper_of_inverse",
        None),
       ("ptqlab.quant", "quantize_weight", "quant.quantize_weight", None),
       ("ptqlab.quant", "dequantize", "quant.dequantize", None),
       ("ptqlab.quant", "rtn_quantize_model", "quant.rtn_quantize_model", None),
       ("ptqlab.allocator", "assign_precision", "allocator.assign_precision", None),
       ("ptqlab.model.generate", "generate_ar", "model.generate.generate_ar", _generated),
       ("ptqlab.model.generate", "generate_diffusion", "model.generate.generate_diffusion",
        _generated),
       ("ptqlab.evaluation", "evaluate_tasks", "evaluation.evaluate_tasks", None),
       ("ptqlab.evaluation", "measure_latency", "evaluation.measure_latency", _latency_unit),
       ("ptqlab.model.checkpoint", "ModelCheckpoint.load", "model.checkpoint.load", None),
       ("ptqlab.model.checkpoint", "ModelCheckpoint.save", "model.checkpoint.save", None),
       ("ptqlab.model.checkpoint", "ModelCheckpoint.to_bytes", "model.checkpoint.to_bytes",
        None),
       ("ptqlab.reporting", "emit", "reporting.emit", None)]
    + [("ptqlab.pipeline", fn, f"pipeline.{fn}", None) for fn in PIPELINE_STAGES]
)


class Tracer:
    """Records spans while :meth:`active` is entered."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            out = None
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span.end = clock()
                stack.pop()
                if info is not None:
                    suffix, span.attrs = info(args, kwargs, out)
                    span.name = name + suffix

        return traced

    @contextmanager
    def active(self):
        patches = []
        try:
            for modname, attr, name, info in TARGETS:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, info))
                    else:
                        new = self._wrap(raw, name, info)
                    patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(orig, name, info)
                for modname2, mod2 in list(sys.modules.items()):
                    if modname2 != "ptqlab" and not modname2.startswith("ptqlab."):
                        continue
                    for key, val in list(vars(mod2).items()):
                        if val is orig:
                            patches.append((mod2, key, val))
                            setattr(mod2, key, new)
            yield self
        finally:
            for owner, key, val in reversed(patches):
                setattr(owner, key, val)


# -- reduction to per-layer metrics ------------------------------------------

# Values measured outside the spans, supplied by the caller.
EXTRA_KEYS = ("cache_hit_ratio", "cell_spread.ar", "cell_spread.diffusion",
              "trace_overhead_frac")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, extra: dict, n_ops: int) -> dict:
    """Reduce the spans of ``n_ops`` traced operations to the per-layer metrics.

    Returns ``{name: (value, unit)}`` in report order. Counts and times
    (``calls``, ``busy_s``, ``self_s``, ``tokens``, ``tokens_out``, ``gflop``)
    are per operation, so they do not depend on how many operations a run
    traced; means and ratios are taken over all of them. ``extra`` holds the
    values of :data:`EXTRA_KEYS`.
    """
    calls: dict = {}
    busy: dict = {}
    self_s: dict = {}
    attr_sum: dict = {}
    for s in spans:
        s.child = 0.0
    for s in spans:
        if s.parent is not None:
            s.parent.child += s.end - s.start
    for s in spans:
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + dur
        self_s[s.name] = self_s.get(s.name, 0.0) + dur - s.child
        for key, val in (s.attrs or {}).items():
            if isinstance(val, (int, float)):
                attr_sum[(s.name, key)] = attr_sum.get((s.name, key), 0) + val

    def parent_is(s, name):
        return s.parent is not None and s.parent.name == name

    m = {}

    def per_op(name, value, unit):
        m[name] = (value / n_ops, unit)

    def stats(name, *which):
        units = {"calls": "count", "busy_s": "s", "self_s": "s"}
        table = {"calls": calls, "busy_s": busy, "self_s": self_s}
        for stat in which:
            per_op(f"{name}.{stat}", table[stat].get(name, 0), units[stat])

    for fn in LAYER_FNS:
        for dt in DTYPES:
            stats(f"model.layers.{fn}.{dt}", "calls", "self_s")
    for op in ("linear", "attention"):
        for dt in DTYPES:
            names = [f"model.layers.{op}_fwd.{dt}", f"model.layers.{op}_bwd.{dt}"]
            gflop = sum(attr_sum.get((n, "flop"), 0) for n in names) / 1e9
            per_op(f"model.layers.{op}.{dt}.gflop", gflop, "GFLOP")
            m[f"model.layers.{op}.{dt}.gflop_per_s"] = (
                _ratio(gflop, sum(self_s.get(n, 0.0) for n in names)), "GFLOP/s")
    for dt in DTYPES:
        fwd = f"model.network.forward_logits.{dt}"
        stats(fwd, "calls", "self_s")
        per_op(f"{fwd}.tokens", attr_sum.get((fwd, "tokens"), 0), "count")
        stats(f"model.network.backward_from_logits.{dt}", "calls", "self_s")
    stats("trainer.train", "calls", "self_s")
    per_op("tasks.busy_s",
           sum(s.end - s.start for s in spans if s.name.startswith("tasks.")
               and not (s.parent is not None and s.parent.name.startswith("tasks."))), "s")
    stats("trainer.calibration_batches", "calls", "busy_s")
    stats("sensitivity.power_iteration_sensitivity", "calls", "busy_s")
    stats("sensitivity.gradient", "calls")
    records = [s.attrs for s in spans
               if s.name == "sensitivity.power_iteration_sensitivity" and s.attrs]
    m["sensitivity.iters_used_mean"] = (
        _ratio(sum(r["iters"] for r in records), len(records)), "count")
    m["sensitivity.converged_frac"] = (
        _ratio(sum(r["converged"] for r in records), len(records)), "frac")
    stats("gptq.collect_calibration", "calls", "busy_s")
    stats("gptq.gptq_quantize_layer", "calls", "busy_s")
    cholesky = sum(1 for s in spans if s.name == "numerics.cholesky_upper_of_inverse"
                   and parent_is(s, "gptq.gptq_quantize_layer"))
    m["gptq.cholesky_calls_per_layer"] = (
        _ratio(cholesky, calls.get("gptq.gptq_quantize_layer", 0)), "count")
    stats("quant.quantize_weight", "calls", "busy_s")
    stats("quant.dequantize", "calls", "busy_s")
    stats("quant.rtn_quantize_model", "busy_s")
    stats("allocator.assign_precision", "busy_s")
    tokens_out = {}
    for mode in ("ar", "diffusion"):
        gen = f"model.generate.generate_{mode}"
        stats(gen, "calls", "self_s")
        tokens_out[mode] = attr_sum.get((gen, "tokens_out"), 0)
    per_op("model.generate.tokens_out", sum(tokens_out.values()), "count")
    for mode in ("ar", "diffusion"):
        gen = f"model.generate.generate_{mode}"
        positions = sum(s.attrs["tokens"] for s in spans
                        if s.name.startswith("model.network.forward_logits.")
                        and parent_is(s, gen))
        m[f"model.generate.positions_per_token.{mode}"] = (
            _ratio(positions, tokens_out[mode]), "count")
    stats("evaluation.evaluate_tasks", "calls", "busy_s")
    stats("evaluation.measure_latency", "calls", "busy_s")
    unit_ms: dict = {u: [] for u in LATENCY_UNITS}
    for s in spans:
        if (s.name.startswith("model.network.forward_logits.")
                and parent_is(s, "evaluation.measure_latency") and s.parent.attrs):
            unit_ms[s.parent.attrs["unit"]].append((s.end - s.start) * 1e3)
    for u in LATENCY_UNITS:
        m[f"evaluation.measure_latency.unit_p50_ms.{u}"] = (
            statistics.median(unit_ms[u]) if unit_ms[u] else 0.0, "ms")
    for mode in ("ar", "diffusion"):
        m[f"evaluation.measure_latency.cell_spread.{mode}"] = (
            extra[f"cell_spread.{mode}"], "ratio")
    m["evaluation.cache_hit_ratio"] = (extra["cache_hit_ratio"], "frac")
    for fn in ("load", "save", "to_bytes"):
        stats(f"model.checkpoint.{fn}", "calls", "busy_s")
    stats("reporting.emit", "calls", "busy_s")
    for fn in PIPELINE_STAGES:
        stats(f"pipeline.{fn}", "busy_s")
    m["trace_overhead_frac"] = (extra["trace_overhead_frac"], "frac")
    return m


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    empty = per_layer_metrics([], dict.fromkeys(EXTRA_KEYS, 0.0), n_ops=1)
    return [(name, unit) for name, (_, unit) in empty.items()]
