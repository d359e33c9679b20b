"""Span tracing of soliton_lab's modules, installed from outside the package.

Every public function of a layer module (its ``__all__``), and every
public method of a public class, is replaced by a wrapper at each module
attribute it is reached through, so calls made through ``from .profile
import solve_profile`` in another module are seen too.  A span is recorded
where a call crosses into the layer from outside it; a call from the
layer's own module (``verify.run_battery`` calling ``check_bounds``) is
part of the caller's span.  A span is (name, start, end, parent span, operation id,
counts); the counts are taken at the boundary from the call's arguments
and result.  Spans stay in memory until the run ends.  Only the traced run
installs this.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("model", "series", "profile", "phase", "asymptotics", "verify", "output", "cli")

# A constant-time predicate on alpha that the slaved tail asks about 6
# times per Newton iteration (about 12k calls per far-field solve).  A span
# per call added 47 % to a ``far`` operation and tells nothing a layer
# time would, so it is left unwrapped.
UNTRACED = {"model.is_log_branch"}

_SOLVE = "profile.solve_profile"
_EVALUATE = "profile.RadialProfile.evaluate"


class Recorder:
    """Spans of one run, in start order; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, home: str, fn, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced


def _counter(layer: str, qualname: str, fn):
    """What a span of ``layer.qualname`` counts, or None."""
    name = f"{layer}.{qualname}"
    if name == _SOLVE:
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = [a["params"].n, a["params"].alpha, float(a["t_max"]), float(a["tol"]),
                   float(a["switch_radius"])]
            return {"nodes": len(result.grid) - 1, "key": key}
        return count
    if name == _EVALUATE:
        return lambda args, kwargs, result: {"points": int(np.size(args[1]))}
    if layer == "output":
        return lambda args, kwargs, result: (
            {"bytes": len(result.encode("utf-8"))} if isinstance(result, str) else None
        )
    if layer == "verify":
        report_type = importlib.import_module("soliton_lab.verify").CheckReport

        def count(args, kwargs, result):
            reports = result if isinstance(result, list) else [result]
            checks = sum(isinstance(r, report_type) for r in reports)
            return {"checks": checks} if checks else None
        return count
    return None


def install(recorder: Recorder) -> None:
    """Wrap every public function and method of the layer modules."""
    package = importlib.import_module("soliton_lab")
    modules = [importlib.import_module(f"soliton_lab.{layer}") for layer in LAYERS]
    replaced = {}
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNTRACED:
                replaced[id(obj)] = recorder.wrap(
                    f"{layer}.{attr}", module.__name__, obj, _counter(layer, attr, obj)
                )
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if meth_name.startswith("_") or not inspect.isfunction(meth):
                        continue
                    qualname = f"{attr}.{meth_name}"
                    setattr(obj, meth_name, recorder.wrap(
                        f"{layer}.{qualname}", module.__name__, meth,
                        _counter(layer, qualname, meth),
                    ))
    for module in [package, *modules]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])


def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from a run's spans: name -> (value, unit).

    A layer's time is self time: span time minus the time of its child
    spans.  ``profile.solve_s`` and ``profile.evaluate_s`` split the
    profile layer between ``solve_profile`` and ``RadialProfile.evaluate``.
    """
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    time_by = {layer: 0.0 for layer in LAYERS}
    calls_by = {layer: 0 for layer in LAYERS}
    solve_s = evaluate_s = 0.0
    solves = nodes = points = checks = out_bytes = 0
    keys_per_op: dict[int, set] = {}
    for s, own in zip(spans, self_time):
        layer = s[0].split(".", 1)[0]
        time_by[layer] += own
        calls_by[layer] += 1
        counts = s[5] or {}
        if s[0] == _SOLVE:
            solve_s += own
            solves += 1
            nodes += counts["nodes"]
            keys_per_op.setdefault(s[4], set()).add(tuple(counts["key"]))
        elif s[0] == _EVALUATE:
            evaluate_s += own
            points += counts["points"]
        checks += counts.get("checks", 0)
        out_bytes += counts.get("bytes", 0)
    distinct = sum(len(keys) for keys in keys_per_op.values())
    per_op = 1.0 / ops
    return {
        "profile.solve_s": (solve_s * per_op, "s/op"),
        "profile.us_per_node": (1e6 * solve_s / nodes if nodes else 0.0, "us"),
        "profile.solves": (solves * per_op, "count/op"),
        "profile.distinct_solve_ratio": (distinct / solves if solves else 1.0, "ratio"),
        "profile.nodes": (nodes * per_op, "count/op"),
        "profile.evaluate_s": (evaluate_s * per_op, "s/op"),
        "profile.evaluate_points": (points * per_op, "count/op"),
        "series.s": (time_by["series"] * per_op, "s/op"),
        "series.calls": (calls_by["series"] * per_op, "count/op"),
        "model.s": (time_by["model"] * per_op, "s/op"),
        "model.calls": (calls_by["model"] * per_op, "count/op"),
        "phase.s": (time_by["phase"] * per_op, "s/op"),
        "asymptotics.s": (time_by["asymptotics"] * per_op, "s/op"),
        "verify.s": (time_by["verify"] * per_op, "s/op"),
        "verify.checks": (checks * per_op, "count/op"),
        "output.s": (time_by["output"] * per_op, "s/op"),
        "output.bytes": (out_bytes * per_op, "B/op"),
        "cli.s": (time_by["cli"] * per_op, "s/op"),
    }
