"""Per-layer spans for otdual, recorded from outside the package.

Every public module-level function of each layer module is wrapped, and the
wrapper is rebound wherever the package binds that function: in its own
module and in every module that imported it by name (for example
``otdual.cli.solve_alpha`` and ``otdual.approx.solve_beta_star``).  Spans
stay in memory while a sweep runs; self time, outermost calls, errors and
the boundary counts are computed from them afterwards.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import re
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "otdual"

# The layers are the package's modules.  ``numeric`` (per-value arithmetic)
# and ``errors`` (exception types) get no boundary, so their time counts in
# their callers; ``oracle`` is the brute-force reference no workload runs.
LAYERS = (
    "cli",
    "instances",
    "spaces",
    "transport",
    "lp",
    "wasserstein",
    "rectangles",
    "approx",
    "couplings",
    "costs",
)

COUNT_NAMES = (
    "instances.bytes_in",
    "cli.bytes_out",
    "spaces.triangle_triples",
    "transport.cells",
    "lp.rows",
    "lp.cols",
)

# Span fields, kept as lists for a cheap wrapper.
LAYER, NAME, START, END, PARENT, CALL, ERROR = range(7)


class TraceError(RuntimeError):
    """The package no longer offers the boundaries the trace relies on."""


def _bytes_in(path):
    return {"instances.bytes_in": os.path.getsize(path)}


def _triangle_triples(space):
    metric = space.metric
    return {"spaces.triangle_triples": len(metric) ** 3 if metric is not None else 0}


def _cells(c):
    rows = getattr(c, "values", c)
    return {"transport.cells": len(rows) * (len(rows[0]) if rows else 0)}


def _lp_shape(lhs):
    return {"lp.rows": len(lhs), "lp.cols": len(lhs[0]) if lhs else 0}


# The report's timing field varies in length from call to call.
_ELAPSED_VALUE = re.compile(rb'("elapsed_seconds": )[^,\n}]*')


def _bytes_out(argv):
    """Report bytes written, without the digits of ``elapsed_seconds``."""
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            out = argv[argv.index(flag) + 1]
            if os.path.exists(out):
                with open(out, "rb") as handle:
                    data = handle.read()
                return {"cli.bytes_out": len(_ELAPSED_VALUE.sub(rb"\1", data))}
    return {}


# (layer, function or None for every function of the layer, parameter,
# count function, whether it counts after the call returns).  A listed
# function that disappears fails the trace, so a rename cannot silently
# zero a count.
ARGUMENT_COUNTS = (
    ("instances", "load_instance", "path", _bytes_in, False),
    ("spaces", "validate_space", "space", _triangle_triples, False),
    ("transport", None, "c", _cells, False),
    ("lp", "simplex_maximize", "lhs", _lp_shape, False),
    ("cli", "main", "argv", _bytes_out, True),
)


def layer_functions(modules):
    """Map each layer to its public functions; fail on a layer without any.

    ``modules`` maps module names (``otdual.cli``, ...) to module objects.
    """
    found = {}
    for layer in LAYERS:
        module = modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            raise TraceError(f"layer module {PACKAGE}.{layer} is missing")
        functions = {
            name: obj
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        }
        if not functions:
            raise TraceError(f"layer module {PACKAGE}.{layer} has no public function to wrap")
        found[layer] = functions
    for layer, name, param, _, _ in ARGUMENT_COUNTS:
        if name is not None and name not in found[layer]:
            raise TraceError(f"{PACKAGE}.{layer}.{name}, a counted boundary, is missing")
        targets = [found[layer][name]] if name else list(found[layer].values())
        if not any(param in inspect.signature(fn).parameters for fn in targets):
            raise TraceError(f"no {PACKAGE}.{layer} function takes the counted argument {param!r}")
    return found


def package_modules():
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


class Tracer:
    """Wraps the layer boundaries of the imported package while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.call_id = -1
        self._stack = []
        self._rebound = []

    def install(self, modules=None):
        modules = package_modules() if modules is None else modules
        wrappers = {}
        for layer, functions in layer_functions(modules).items():
            for name, fn in functions.items():
                wrappers[fn] = self._wrap(layer, name, fn)
        for module in modules.values():
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((namespace, name, obj))
                    namespace[name] = wrappers[obj]

    def uninstall(self):
        for namespace, name, original in reversed(self._rebound):
            namespace[name] = original
        self._rebound.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, layer, name, fn):
        tracer = self
        signature = inspect.signature(fn)
        specs = [
            (param, count, after)
            for spec_layer, spec_name, param, count, after in ARGUMENT_COUNTS
            if spec_layer == layer and spec_name in (None, name)
            and param in signature.parameters
        ]

        def count(bound, when):
            for param, counter, after in specs:
                if after is when:
                    tracer.counts.update(counter(bound[param]))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if specs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, False)
            stack = tracer._stack
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, tracer.call_id, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if specs:
                    count(bound.arguments, True)

        return wrapper

    def layer_summary(self):
        """Per layer: self seconds, outermost calls and spans ending in an error."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        summary = {layer: {"self_s": 0.0, "calls": 0, "errors": 0} for layer in LAYERS}
        for index, span in enumerate(spans):
            entry = summary[span[LAYER]]
            entry["self_s"] += span[END] - span[START] - child_time[index]
            parent = span[PARENT]
            if parent < 0 or spans[parent][LAYER] != span[LAYER]:
                entry["calls"] += 1
            entry["errors"] += span[ERROR]
        return summary

    def root_spans(self):
        return [span for span in self.spans if span[PARENT] < 0]

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        fields = ("layer", "function", "start", "end", "parent", "call", "error")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
