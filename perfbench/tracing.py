"""Spans around every public jdsmooth function, installed from outside.

``Tracer.install`` wraps each public (non-underscore) function defined in
the layer modules and rebinds the name in every ``jdsmooth`` module
namespace that holds it, so calls made inside the package (``mc`` calling
``local_linear_fit`` on its pool threads, ``locallinear`` calling
``weight_values``) are caught too.  Private helpers are not wrapped: their
time is charged to the public function that called them.

A span records (id, parent, layer, name, start, end, op, raised, counts).
A span opened on a thread with no open span of its own (an MC pool
thread) takes the innermost open span of the main thread as its parent.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "jdsmooth"
LAYERS = ("simulate", "proxy", "kernels", "locallinear", "bandwidth", "inference", "mc")
ROOT_LAYER = "op"

# span tuple fields
ID, PARENT, LAYER, NAME, START, END, OP, RAISED, COUNTS = range(9)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_counts(pos):
    def counts(args, kwargs, result):
        u = np.atleast_1d(_arg(args, kwargs, pos, "u"))
        return {"evals": int(u.size), "nonzero": int(np.count_nonzero(result))}

    return counts


def _block_cv_counts(args, kwargs, choice):
    n = len(_arg(args, kwargs, 0, "p"))
    folds = int(choice.candidates.size) * (n - 2 * int(choice.k))
    return {"folds": folds, "fold_failures": int(choice.failures)}


# counts derived from a call's arguments and return value
COUNTERS = {
    ("kernels", "weight_values"): _kernel_counts(1),
    ("kernels", "gamma_kernel"): _kernel_counts(0),
    ("kernels", "gaussian_kernel"): _kernel_counts(0),
    ("simulate", "simulate_path"): lambda a, k, r: {"steps": int(_arg(a, k, 2, "n"))},
    ("bandwidth", "block_cv"): _block_cv_counts,
    ("inference", "confidence_band"): lambda a, k, r: {"gaps": len(r.gaps)},
}
for _curve in ("estimate_drift_curve", "estimate_m_curve", "estimate_moment_curve"):
    COUNTERS[("locallinear", _curve)] = lambda a, k, r: {"flagged": len(r.failures)}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._originals: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap and rebind every public layer function; returns how many."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(layer, name, fn)
        self._originals = {w: fn for fn, w in wrappers.items()}
        _rebind(wrappers)
        return len(wrappers)

    def uninstall(self) -> None:
        _rebind(self._originals)
        self._originals = {}

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, fn, counter, args, kwargs)

        return traced

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _call(self, layer, name, fn, counter, args, kwargs):
        stack, sid, parent = self._open(layer)
        raised, counts = True, None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = perf_counter()
            stack.pop()
            if counter is not None and not raised:
                counts = counter(args, kwargs, result)
            self.spans.append(
                (sid, parent, layer, name, start, end, self.op, raised, counts)
            )

    def run_op(self, op: int, fn, *args, **kwargs):
        """Run one op under a root span."""
        self.op = op
        stack, sid, parent = self._open(ROOT_LAYER)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, ROOT_LAYER, "op", start, end, op, False, None))
            self.op = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _rebind(mapping: dict) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in mapping:
                setattr(mod, attr, mapping[value])


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans) -> dict:
    """Per-layer calls, self time and counts.

    Self time is a span's duration minus the part of it covered by its
    child spans, on any thread.  ``calls`` counts entries into a layer
    from outside it; nested calls within one layer are part of the entry
    call.  Counts that would repeat along such a nesting (kernel
    evaluations, flagged points) are taken from entry spans only.
    """
    layer_of = {s[ID]: s[LAYER] for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))

    out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "self_s")}
    sums = defaultdict(int)
    for s in spans:
        layer = s[LAYER]
        if layer == ROOT_LAYER:
            continue
        self_s = (s[END] - s[START]) - _covered(children[s[ID]], s[START], s[END])
        out[f"{layer}.self_s"] += self_s
        entry = layer_of.get(s[PARENT]) != layer
        if not entry:
            continue
        out[f"{layer}.calls"] += 1
        counts = s[COUNTS] or {}
        for key in ("evals", "nonzero", "steps", "folds", "fold_failures", "gaps"):
            sums[key] += counts.get(key, 0)
        if layer == "locallinear":
            sums["flagged"] += 1 if s[RAISED] else counts.get("flagged", 0)

    out["simulate.steps"] = sums["steps"]
    out["kernels.evals"] = sums["evals"]
    out["kernels.nonzero_frac"] = sums["nonzero"] / sums["evals"] if sums["evals"] else 0.0
    out["locallinear.flagged"] = sums["flagged"]
    out["bandwidth.folds"] = sums["folds"]
    out["bandwidth.fold_ok_frac"] = (
        1.0 - sums["fold_failures"] / sums["folds"] if sums["folds"] else 0.0
    )
    out["inference.gaps"] = sums["gaps"]
    return out
