"""Run one extremeforms CLI command with layer spans recorded from outside.

Usage: python trace_cli.py SPANS_OUT [CLI ARGUMENTS...]

The package itself is not modified. An import hook wraps the layer entry
points of each extremeforms module as soon as the module has executed, so
the lazy imports inside the CLI handlers stay where they are in an
untraced run and pick the wrappers up when they bind the names. Each wrapper
records a span (name, start, end, parent span) closed in ``finally``, because
``extreme_points`` raises ``BudgetExceeded`` on purpose inside ``kg``.
Functions called once per point are aggregated into a call count and a total
per parent span instead of one span per call. Timestamps come from
``time.perf_counter``, the system-wide monotonic clock on Linux, so the
benchmark can place the spans inside the wall time it measured for this
process. The spans are written as JSON to SPANS_OUT when the command ends.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import sys
import time

# Layer entry points that get one span per call.
SPANS = {
    "extremeforms.cli": ["main"],
    "extremeforms.search": ["extreme_points", "planar_extreme_points",
                            "is_extreme", "brute_force_vertices"],
    "extremeforms.storage": ["write_extreme_set", "read_extreme_set",
                             "cache_store", "cache_load"],
    "extremeforms.constants": ["bh_constant", "maximize_convex"],
    "extremeforms.grothendieck": ["kg_lower_bound"],
}

# Functions called once per point: one count and one total per parent span.
AGGREGATES = {
    "extremeforms.core": ["FormVector.__post_init__"],
    "extremeforms.constants": ["f_lambda"],
    "extremeforms.grothendieck": ["inner_sphere_max"],
}

# Called once per anchored basis; only counted, so the sign systems solved
# can be derived (bases x 2^(n^m - 1)) without timing a per-basis call.
BASIS_COUNTER = ("extremeforms.search", "_process_basis")

_perf = time.perf_counter


def _short(module: str, attr: str) -> str:
    name = f"{module.rpartition('.')[2]}.{attr}"
    return name.removesuffix(".__post_init__")


def _arguments(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _annotate_extreme_points(attrs, call, result, error):
    attrs.update(m=call["m"], n=call["n"])
    partial = getattr(error, "partial", None)
    produced = result if result is not None else partial
    attrs["points"] = len(produced) if produced is not None else 0


def _annotate_maximize(attrs, call, result, error):
    attrs["points"] = len(call["extreme_set"])


def _annotate_file_bytes(attrs, call, result, error):
    attrs["bytes"] = _size(call["path"])


def _annotate_store(attrs, call, result, error):
    attrs["bytes"] = len(call["data"])


def _annotate_load(attrs, call, result, error):
    attrs["hit"] = result is not None
    attrs["bytes"] = len(result) if result is not None else 0


ANNOTATIONS = {
    "search.extreme_points": _annotate_extreme_points,
    "constants.maximize_convex": _annotate_maximize,
    "storage.write_extreme_set": _annotate_file_bytes,
    "storage.read_extreme_set": _annotate_file_bytes,
    "storage.cache_store": _annotate_store,
    "storage.cache_load": _annotate_load,
}


class Tracer:
    """Spans and per-point aggregates of one process, kept in memory."""

    def __init__(self):
        self.spans = []        # dicts: name, start, end, parent, agg_s, ...
        # (name, parent span name) -> [calls, total, self]
        self.aggregates = {}
        self.stack = []        # open frames: [span index or None, child_s]
        self.bases = 0
        self.missing = []

    def _parent_span(self):
        for index, _ in reversed(self.stack):
            if index is not None:
                return index
        return None

    def span(self, name, func):
        annotate = ANNOTATIONS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = {"name": name, "start": _perf(), "end": None,
                      "parent": self._parent_span(), "agg_s": 0.0,
                      "bases": self.bases}
            self.spans.append(record)
            self.stack.append([len(self.spans) - 1, 0.0])
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record["end"] = _perf()
                self.stack.pop()
                record["bases"] = self.bases - record["bases"]
                if self.stack:
                    self.stack[-1][1] += record["end"] - record["start"]
                if annotate is not None:
                    annotate(record, _arguments(func, args, kwargs),
                             result, error)

        return wrapper

    def aggregate(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._parent_span()
            self.stack.append([None, 0.0])
            start = _perf()
            try:
                return func(*args, **kwargs)
            finally:
                duration = _perf() - start
                _, child_s = self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                if parent is not None and self.stack[-1][0] == parent:
                    self.spans[parent]["agg_s"] += duration
                key = (name, None if parent is None
                       else self.spans[parent]["name"])
                entry = self.aggregates.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child_s

        return wrapper

    def counter(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.bases += 1
            return func(*args, **kwargs)

        return wrapper

    def instrument(self, module) -> None:
        """Replace the listed attributes of a freshly executed module."""

        name = module.__name__
        for attr in SPANS.get(name, ()):
            self._replace(module, attr, self.span)
        for attr in AGGREGATES.get(name, ()):
            self._replace(module, attr, self.aggregate)
        if name == BASIS_COUNTER[0]:
            self._replace(module, BASIS_COUNTER[1],
                          lambda _, func: self.counter(func))

    def _replace(self, module, dotted, make) -> None:
        owner = module
        *path, attr = dotted.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            func = getattr(owner, attr)
        except AttributeError:
            # A renamed or removed entry point reads as zero, not a crash.
            self.missing.append(f"{module.__name__}.{dotted}")
            return
        setattr(owner, attr, make(_short(module.__name__, dotted), func))

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "aggregates": [[name, parent, *values] for (name, parent), values
                           in sorted(self.aggregates.items(), key=str)],
            "missing": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _Instrumenting(importlib.abc.MetaPathFinder):
    """Finds extremeforms modules normally, then instruments them."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname.partition(".")[0] != "extremeforms":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            self.tracer.instrument(module)

        spec.loader.exec_module = exec_module
        return spec


def run(spans_out, argv) -> int:
    tracer = Tracer()
    sys.meta_path.insert(0, _Instrumenting(tracer))
    import extremeforms.cli

    try:
        return extremeforms.cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
