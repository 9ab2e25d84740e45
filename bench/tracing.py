"""Span recording around calls into davlab's layers.

A layer is one davlab module.  In a traced run, ``instrument`` replaces the
listed public functions in every loaded davlab module namespace with a
wrapper that opens a span, so calls from one layer into another (the CLI
into the search, a construction into the fold) nest under the benchmark's
job span.  A call from a layer into its own public functions opens no span:
it does not cross a layer boundary.  Neither does a call made while no job
runs, such as the benchmark's own output checks.

Spans are kept in memory as ``[name, start, end, parent, job]`` lists and
written out by the caller when the run ends.
"""

import contextlib
import functools
import sys
import time

# Public functions wrapped in a traced run, per layer.  Hot helpers such as
# ``modring.units`` are left out: they run inside the search loops, and a
# span per call there would measure the tracer rather than the layer.
TRACED = {
    "modring": ("involutions", "crt_split"),
    "bounds": (
        "table_row",
        "lower_bound",
        "upper_bound",
        "construct_witness_1",
        "construct_witness_2",
    ),
    "zsfree": ("reachable_sums", "has_weighted_zero_sum", "extract_certificate"),
    "davenport": (
        "exact_davenport",
        "exact_davenport_k",
        "enumerate_extremal",
        "verify_sandwich",
    ),
    "metacyclic": (
        "classify_extremal",
        "small_davenport",
        "has_product_one_subsequence",
    ),
}

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    job = None

    def span(self, name):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def current_layer(self):
        if not self._stack:
            return None
        return self.spans[self._stack[-1]][0].partition(".")[0]

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


def _wrap(tracer, layer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.job is None or tracer.current_layer() == layer:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def instrument(tracer):
    """Route every davlab-internal reference to a TRACED function through a
    span-opening wrapper.  Meant for a process that runs one traced
    workload; the originals are not restored."""
    modules = [
        m for k, m in list(sys.modules.items())
        if m is not None and (k == "davlab" or k.startswith("davlab."))
    ]
    for layer, names in TRACED.items():
        home = sys.modules[f"davlab.{layer}"]
        for fname in names:
            fn = getattr(home, fname)
            wrapper = _wrap(tracer, layer, f"{layer}.{fname}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)


def self_times(spans):
    """Self time of each span: its duration minus the time its direct
    children cover.  Children run inside their parent on one thread, so
    their intervals never overlap."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
