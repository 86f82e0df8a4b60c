"""Span tracing around the calls into each fdridge module.

Nothing under ``src/`` changes: ``Tracer.install`` rebinds the public
functions of every ``fdridge.*`` module, in every module namespace that
holds them, to wrappers that record a span per call, and wraps the public
methods of the stateful classes in place.  ``Tracer.uninstall`` puts the
originals back.  Calls the program makes internally resolve names through
module globals, so they go through the wrappers too.

A span is ``(name, start, end, parent, run)`` plus a few attributes that
the per-layer counters need.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("datasets", "sketch", "solvers", "random_sketch", "diagnostics",
          "experiments", "cli")

# Methods of the program's stateful classes that count as layer calls.
CLASS_METHODS = {
    ("sketch", "StreamingSketch"): ("extend", "update", "finalize"),
    ("solvers", "InverseOperator"): ("__init__", "apply"),
}

ITERATIVE = ("solvers.ifdrr_solve", "solvers.iterative_randomized_solve")
DIAGNOSTICS = {"diagnostics.optimal_diagnostics": "optimal_s",
               "diagnostics.sketched_diagnostics": "sketched_s",
               "diagnostics.hessian_sketch_diagnostics": "hessian_s",
               "diagnostics.classical_sketch_diagnostics": "classical_s"}
RUNNERS = ("experiments.run_bias_variance_sweep",
           "experiments.run_iterative_experiment",
           "experiments.run_sketch_accuracy")


# Every per-layer metric with its unit; all are reported on every
# workload, zero where the workload never enters the layer.
METRICS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)},
    "sketch.extend_s": "s", "sketch.rows": "count", "sketch.shrinks": "count",
    "sketch.shrink_flops": "flop", "sketch.finalize_s": "s",
    "sketch.finalize_calls": "count",
    "solvers.sketch_builds": "count", "solvers.inverse_build_s": "s",
    "solvers.inverse_builds": "count", "solvers.inverse_apply_s": "s",
    "solvers.inverse_applies": "count", "solvers.newton_iters": "count",
    "solvers.newton_s": "s", "solvers.exact_s": "s",
    "solvers.divergences": "count",
    "random_sketch.gauss.realize_s": "s",
    "random_sketch.gauss.realizations": "count",
    "random_sketch.sjlt.realize_s": "s",
    "random_sketch.sjlt.realizations": "count",
    "diagnostics.optimal_s": "s", "diagnostics.sketched_s": "s",
    "diagnostics.hessian_s": "s", "diagnostics.classical_s": "s",
    "diagnostics.calls": "count",
    "datasets.build_s": "s",
    "experiments.cells": "count", "experiments.csv_write_s": "s",
    "experiments.csv_bytes": "B",
}


def layer_modules() -> dict:
    """Layer name -> imported fdridge module."""
    return {layer: importlib.import_module(f"fdridge.{layer}")
            for layer in LAYERS}


def svd_flops(rows: int, cols: int) -> int:
    """Flop count of an economy SVD with both factors (Golub & Van Loan's
    R-SVD: 6 a b^2 + 20 b^3 for an a x b problem, a >= b)."""
    a, b = max(rows, cols), min(rows, cols)
    return 6 * a * b * b + 20 * b ** 3


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "attrs",
                 "child_s")

    def __init__(self, sid, name, start, parent, run):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = {}
        self.child_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Calls are sequential (one thread), so children never overlap.
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list = []
        self.run = "untraced"

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.sid if parent else None, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ----------------------------------------------------------
    def _wrap_function(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn) if name in ITERATIVE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                if sig is not None:
                    span.attrs["t"] = sig.bind(*args, **kwargs).arguments["t"]
                out = fn(*args, **kwargs)
                if name == "experiments.write_csv":
                    path = args[0] if args else kwargs["path"]
                    span.attrs["bytes"] = os.path.getsize(path)
                elif name in RUNNERS:
                    span.attrs["cells"] = len({(r["method"], r["gamma"])
                                               for r in out})
                return out
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                span.attrs["iteration"] = getattr(err, "iteration", None)
                raise
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_method(self, name: str, fn):
        tracer = self

        if name == "sketch.StreamingSketch.extend":
            @functools.wraps(fn)
            def extend(sk, rows):
                if getattr(rows, "ndim", None) != 2:
                    return fn(sk, rows)  # let the original reject it
                # Feed at most m + 1 rows per inner call: each inner call
                # then shrinks at most once, and a shrink shows as a drop
                # in ``fill``.  StreamingSketch.extend is documented to be
                # equivalent to row-at-a-time updates, so results match.
                span = tracer.open(name)
                try:
                    rows_seen = shrinks = flops = 0
                    step = sk.m + 1
                    total = len(rows)
                    for lo in range(0, max(total, 1), step):
                        chunk = rows[lo:lo + step]
                        before = sk.fill
                        fn(sk, chunk)
                        rows_seen += len(chunk)
                        if sk.fill < before + len(chunk):
                            shrinks += 1
                            flops += svd_flops(2 * sk.m, sk.d)
                    span.attrs.update(rows=rows_seen, shrinks=shrinks,
                                      flops=flops)
                finally:
                    tracer.close(span)
            return extend

        if name == "sketch.StreamingSketch.update":
            @functools.wraps(fn)
            def update(sk, row):
                span = tracer.open(name)
                try:
                    before = sk.fill
                    fn(sk, row)
                    shrunk = int(sk.fill < before + 1)
                    span.attrs.update(rows=1, shrinks=shrunk,
                                      flops=shrunk * svd_flops(2 * sk.m, sk.d))
                finally:
                    tracer.close(span)
            return update

        @functools.wraps(fn)
        def method(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
        return method

    def install(self, modules: dict, extra=()) -> None:
        """Rebind every public function defined in ``modules`` (layer name
        -> module) wherever those modules or ``extra`` namespaces hold it,
        and wrap the methods in CLASS_METHODS."""
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap_function(f"{layer}.{attr}", obj)
        for ns in [*modules.values(), *extra]:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth,
                        self._wrap_method(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run, **s.attrs}) + "\n")


def per_layer(spans, passes: int) -> dict:
    """Per-layer metrics for one set-up plus one pass.

    Spans recorded during set-up (run "setup") count once; spans of the
    ``passes`` traced passes are averaged.  Returns name -> (value, unit,
    samples), where samples is the number of spans behind the value.
    """
    by_id = {s.sid: s for s in spans}
    setup, traced, samples = Counter(), Counter(), Counter()

    def add(key, value, span):
        (setup if span.run == "setup" else traced)[key] += value
        samples[key] += 1

    for s in spans:
        add(f"{s.layer}.self_s", s.self_s, s)
        name = s.name
        if name in ("sketch.StreamingSketch.extend", "sketch.StreamingSketch.update"):
            add("sketch.extend_s", s.duration, s)
            add("sketch.rows", s.attrs.get("rows", 0), s)
            add("sketch.shrinks", s.attrs.get("shrinks", 0), s)
            add("sketch.shrink_flops", s.attrs.get("flops", 0), s)
        elif name == "sketch.StreamingSketch.finalize":
            add("sketch.finalize_s", s.duration, s)
            add("sketch.finalize_calls", 1, s)
        elif name == "solvers.sketch_with_targets":
            add("solvers.sketch_builds", 1, s)
        elif name == "solvers.InverseOperator.__init__":
            add("solvers.inverse_build_s", s.duration, s)
            add("solvers.inverse_builds", 1, s)
        elif name == "solvers.InverseOperator.apply":
            add("solvers.inverse_apply_s", s.duration, s)
            add("solvers.inverse_applies", 1, s)
        elif name in ITERATIVE:
            diverged = s.attrs.get("error") == "DivergenceError"
            iters = s.attrs.get("iteration") if diverged else s.attrs.get("t")
            add("solvers.newton_iters", iters or 0, s)
            add("solvers.newton_s", s.self_s, s)
            add("solvers.iterative_solves", 1, s)
            add("solvers.divergences", int(diverged), s)
            add("solvers.converged", int("error" not in s.attrs), s)
        elif name == "solvers.solve_exact":
            add("solvers.exact_s", s.duration, s)
        elif name in ("random_sketch.realize_gaussian", "random_sketch.realize_sjlt"):
            flavor = "gauss" if name.endswith("gaussian") else "sjlt"
            add(f"random_sketch.{flavor}.realize_s", s.duration, s)
            add(f"random_sketch.{flavor}.realizations", 1, s)
        elif name in DIAGNOSTICS:
            add(f"diagnostics.{DIAGNOSTICS[name]}", s.duration, s)
            add("diagnostics.calls", 1, s)
        elif name in RUNNERS:
            add("experiments.cells", s.attrs.get("cells", 0), s)
        elif name == "experiments.write_csv":
            add("experiments.csv_write_s", s.duration, s)
            add("experiments.csv_bytes", s.attrs.get("bytes", 0), s)
        parent = by_id.get(s.parent)
        if s.layer == "datasets" and (parent is None or parent.layer != "datasets"):
            add("datasets.build_s", s.duration, s)

    def value(key):
        return setup[key] + traced[key] / passes

    out = {key: (value(key), unit, samples[key]) for key, unit in METRICS.items()}
    solves = value("solvers.iterative_solves")
    out["solvers.converged_frac"] = (
        value("solvers.converged") / solves if solves else 0.0, "ratio",
        samples["solvers.converged"])
    out["trace.spans"] = (float(len(spans)), "count", len(spans))
    return out
