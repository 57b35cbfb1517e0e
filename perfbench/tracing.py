"""Span tracing around the public functions of each mubose module.

The benchmark installs a wrapper around every public function of the
layer modules and records one span per call: name, start, end, parent
span and operation id, plus a small layer-specific payload (terms summed
by a kernel, the route tag of a core result, the rows of a rendered
table).  Spans stay in memory; :func:`summarize` turns the spans of one
pass into the per-layer metrics.

Layers are named after the modules.  ``kernels`` is the active backend
(``mubose._backend.kernels``); ``setup`` spans are recorded by the
traced CLI child around its imports.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("kernels", "core", "cli", "pq", "expansion", "partfrac", "special")
KERNELS = ("a_coeff_values", "lerch_sum", "closed_moment_sum",
           "oracle_moment_sum", "power_sum", "pq_oracle_sum")
MODULE_LAYERS = ("pq", "expansion", "partfrac", "special")
ROUTES = ("closed_form", "oracle", "asymptotic")


def _kernel_terms(name, args, out):
    """Terms summed by one kernel call.

    Four kernels return ``terms_used`` as their third value.
    ``power_sum`` sums exactly ``n_max + 1`` terms and returns no count;
    ``a_coeff_values`` runs a fixed recurrence and sums no series (0).
    """
    if name == "power_sum":
        return args[3] + 1
    if name == "a_coeff_values":
        return 0
    return out[2]


def _render_info(args, out):
    rows, header = args[0], args[1]
    overtol = failed = 0
    if header and header[-1] == "method":
        for row in rows:
            method = row[-1]
            overtol += method.endswith("+overtol")
            failed += method == "failed"
    return (len(rows), len(out.encode()), overtol, failed)


def _module(layer):
    if layer == "kernels":
        return importlib.import_module("mubose._backend").kernels
    return importlib.import_module(f"mubose.{layer}")


def _public_functions(layer, module):
    if layer == "kernels":
        return {name: getattr(module, name) for name in KERNELS}
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


class Tracer:
    """Records spans; ``spans`` holds (name, t0_ns, t1_ns, parent, op, info, raised)."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patched = []

    def span(self, name, t0, t1):
        """Record a span measured by the caller (used for the import spans)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, t0, t1, parent, self.op, None, False))

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        if layer == "kernels":
            def info_of(args, out):
                return _kernel_terms(name, args, out)
        elif layer == "core":
            def info_of(args, out):
                return getattr(out, "method", None)
        elif full == "cli.render":
            info_of = _render_info
        else:
            def info_of(args, out):
                return None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (full, t0, clock(), parent, self.op, None, True)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (full, t0, t1, parent, self.op, info_of(args, out), False)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer's public functions wherever mubose modules bind them."""
        originals = {}
        for layer in LAYERS:
            for name, fn in _public_functions(layer, _module(layer)).items():
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mubose" or mod_name.startswith("mubose.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def summarize(spans):
    """Per-layer counts (exact) and times (seconds) for one pass of spans.

    Self time of a span is its duration minus the durations of its
    direct children.  Counts: kernel calls and terms, per-kernel figures,
    core calls, routes of top-level core results (core spans whose parent
    is not core), core errors, kernel calls per core result, and the
    rows, bytes, over-tolerance rows and failed rows the CLI rendered.
    """
    child_ns = defaultdict(int)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    self_ns = Counter()
    calls = Counter()
    counts = Counter()
    kern = defaultdict(Counter)
    for i, (name, t0, t1, parent, _op, info, raised) in enumerate(spans):
        layer = layer_of[i]
        dur = t1 - t0
        self_ns[layer] += dur - child_ns[i]
        calls[layer] += 1
        if layer == "kernels":
            fn = name.split(".", 1)[1]
            kern[fn]["calls"] += 1
            kern[fn]["busy_ns"] += dur
            kern[fn]["terms"] += info or 0
            a = parent
            while a >= 0 and layer_of[a] != "core":
                a = spans[a][3]
            counts["kernel_calls_under_core"] += a >= 0
        elif layer == "core" and (parent < 0 or layer_of[parent] != "core"):
            if raised:
                counts["core_errors"] += 1
            else:
                counts["core_results"] += 1
                if info in ROUTES:
                    counts["route." + info] += 1
        elif name == "cli.render" and info is not None:
            counts["cli_render_ns"] += dur
            for key, val in zip(("rows", "bytes_out", "overtol_rows", "failed_rows"), info):
                counts["cli." + key] += val

    k_calls = sum(k["calls"] for k in kern.values())
    k_busy = sum(k["busy_ns"] for k in kern.values())
    k_terms = sum(k["terms"] for k in kern.values())
    m = {
        "kernels.calls": k_calls,
        "kernels.busy_s": k_busy / 1e9,
        "kernels.terms": k_terms,
        "kernels.terms_per_call": k_terms / k_calls if k_calls else 0.0,
        "kernels.ns_per_term": k_busy / k_terms if k_terms else 0.0,
    }
    for fn in KERNELS:
        m[f"kernels.{fn}.calls"] = kern[fn]["calls"]
        m[f"kernels.{fn}.busy_s"] = kern[fn]["busy_ns"] / 1e9
        m[f"kernels.{fn}.terms"] = kern[fn]["terms"]
    m["core.calls"] = calls["core"]
    m["core.self_s"] = self_ns["core"] / 1e9
    for route in ROUTES:
        m[f"core.route.{route}"] = counts["route." + route]
    m["core.errors"] = counts["core_errors"]
    m["core.kernel_calls_per_result"] = (
        counts["kernel_calls_under_core"] / counts["core_results"]
        if counts["core_results"] else 0.0)
    m["cli.self_s"] = self_ns["cli"] / 1e9
    m["cli.render_s"] = counts["cli_render_ns"] / 1e9
    for key in ("rows", "bytes_out", "overtol_rows", "failed_rows"):
        m["cli." + key] = counts["cli." + key]
    for layer in MODULE_LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9
    layer_self = {layer: self_ns[layer] / 1e9 for layer in LAYERS + ("setup",)}
    return m, layer_self


#: per-layer metrics that are exact counts and must repeat pass after pass
EXACT_COUNTS = (
    ["kernels.calls", "kernels.terms"]
    + [f"kernels.{fn}.{c}" for fn in KERNELS for c in ("calls", "terms")]
    + ["core.calls", "core.errors"] + [f"core.route.{r}" for r in ROUTES]
    + [f"{layer}.calls" for layer in MODULE_LAYERS]
    + ["cli.rows", "cli.bytes_out", "cli.overtol_rows", "cli.failed_rows"]
)

#: per-layer times that read 0.0 on every run of a workload that never
#: reaches the layer; printed and saved, but not part of the result line
PARTIAL_TIMES = frozenset(
    [f"kernels.{fn}.busy_s" for fn in KERNELS if fn != "closed_moment_sum"]
    + ["cli.self_s", "cli.render_s"] + [f"{layer}.self_s" for layer in MODULE_LAYERS]
)
