"""Span tracer for the benchmark.

Wraps, from outside, the public functions of every sojournlab module,
including names one module re-imports from another (`berman.fbm_batch`,
`asymptotics.stationary_batch`, ...). A call that crosses into a layer
records one span: name, layer, start, end and parent; calls a layer makes
to itself run unrecorded inside that span. Spans stay in memory and are
written when the benchmark ends. A layer's self time is the time of its
spans minus the time their child spans cover. Counters are taken at the
same boundaries, from the arguments and return values of the wrapped calls.

The berman sample kernel handed to `mc.chunked_mean` / `chunked_mean_vec`
is wrapped only when that call runs in-process. With workers > 1 the kernel
goes to the process pool unwrapped (a closure does not pickle) and the time
the caller blocks in the call counts as `mc.wait_s`. Forked pool workers
inherit the wrappers but record nothing.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
from time import perf_counter

import numpy as np

LAYERS = ("cli", "berman", "asymptotics", "mc", "gaussim", "sojourn")
COUNTERS = ("gaussim.rows", "gaussim.points", "gaussim.bytes_out",
            "sojourn.rows", "asymptotics.n_sims", "asymptotics.retained",
            "asymptotics.target_curves", "berman.kernel_s", "berman.samples",
            "mc.chunks", "mc.pools", "mc.wait_s")

# span record fields
NAME, LAYER, T0, T1, PARENT, CHILD_S = range(6)


def _array_of(obj):
    """The value array of a gaussim/sojourn argument or result."""
    if isinstance(obj, np.ndarray):
        return obj
    values = getattr(obj, "values", None)  # SamplePath, Field2D
    return values if isinstance(values, np.ndarray) else None


class Tracer:
    def __init__(self):
        self.active = True
        os.register_at_fork(after_in_child=self._forked)
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._patched = []

    def _forked(self):
        self.active = False

    # -- spans ---------------------------------------------------------------

    def caller_layer(self):
        """Layer of the innermost open span, or None."""
        return self.spans[self.stack[-1]][LAYER] if self.stack else None

    def open(self, name, layer):
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                0.0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span[T0] = perf_counter()
        return span

    def close(self, span):
        span[T1] = perf_counter()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[T1] - span[T0]
        return span[T1] - span[T0]

    @contextlib.contextmanager
    def span(self, name, layer):
        span = self.open(name, layer)
        try:
            yield
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------

    def install(self):
        """Wrap every public sojournlab function in every namespace."""
        mods = [importlib.import_module("sojournlab." + m) for m in LAYERS]
        wrappers = {}
        for mod in mods + [importlib.import_module("sojournlab")]:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("sojournlab.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        if fn.__name__ in ("chunked_mean", "chunked_mean_vec"):
            return self._wrap_driver(fn, name)
        count = self._counter_for(layer, fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self.caller_layer()
            if not self.active or caller == layer:
                return fn(*args, **kwargs)
            span = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count:
                count(caller, args, out)
            return out
        return traced

    def _wrap_driver(self, fn, name):
        sig = inspect.signature(fn)
        c = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            workers = bound.arguments["workers"]
            pooled = bool(workers and workers > 1)
            if not pooled:
                bound.arguments["kernel"] = self._wrap_kernel(
                    bound.arguments["kernel"])
            caller = self.caller_layer()
            span = self.open(name, "mc")
            try:
                out = fn(*bound.args, **bound.kwargs)
            finally:
                seconds = self.close(span)
            c["mc.chunks"] += out[2]
            if pooled:
                c["mc.pools"] += 1
                c["mc.wait_s"] += seconds
            if caller == "berman":
                c["berman.samples"] += int(bound.arguments["n_samples"])
            return out
        return traced

    def _wrap_kernel(self, kernel):
        name = f"berman.{kernel.__name__}"

        @functools.wraps(kernel)
        def traced(rng, m, params):
            span = self.open(name, "berman")
            try:
                return kernel(rng, m, params)
            finally:
                self.counters["berman.kernel_s"] += (
                    self.close(span) - span[CHILD_S])
        return traced

    def _counter_for(self, layer, fname):
        """The counter update for one wrapped function, or None."""
        c = self.counters

        def gaussim_out(caller, args, out):
            arr = _array_of(out)
            if arr is not None:
                c["gaussim.rows"] += arr.shape[0] if arr.ndim > 1 else 1
                c["gaussim.points"] += arr.size
                c["gaussim.bytes_out"] += arr.nbytes

        def sojourn_in(caller, args, out):
            arr = _array_of(args[0]) if args else None
            if arr is not None:
                c["sojourn.rows"] += arr.shape[0] if arr.ndim > 1 else 1

        def experiment(caller, args, out):
            c["asymptotics.n_sims"] += out.metadata["n_sims"]
            c["asymptotics.retained"] += out.n_conditioned

        def target_curve(caller, args, out):
            if caller == "asymptotics":
                c["asymptotics.target_curves"] += 1

        if layer == "gaussim":
            return gaussim_out
        if layer == "sojourn":
            return sojourn_in
        if fname == "conditional_sojourn_cdf":
            return experiment
        if fname.startswith("berman_curve_"):
            return target_curve
        return None

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """(self seconds, calls) per layer, summed over closed spans."""
        self_s, calls = {}, {}
        for s in self.spans:
            self_s[s[LAYER]] = self_s.get(s[LAYER], 0.0) + (
                s[T1] - s[T0] - s[CHILD_S])
            calls[s[LAYER]] = calls.get(s[LAYER], 0) + 1
        return self_s, calls

    def dump(self, path):
        """Write the spans as gzipped JSON lines: name, layer, t0, t1, parent."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:PARENT + 1]) + "\n")
