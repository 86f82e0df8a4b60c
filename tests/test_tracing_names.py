"""Every name that bench/tracing.py keys a per-layer counter on still
names a function or method of fdridge.

The tracer wraps functions and methods by name and books each span under
that name, so a refactor that renames, moves or hides one leaves its
counter at zero without an error.  This test reads the tracer's tables
(CLASS_METHODS, ITERATIVE, DIAGNOSTICS, RUNNERS) and every span name the
tracer compares ``name`` with, and resolves each the way the tracer
wraps it: a public function defined in its layer's module, or a method
defined on its class.  The tracer is imported, never changed.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Names of deleted functions that the tracer still keys counters on; the
# ROADMAP's tracer item re-keys them.  When it does, drop them here.
KNOWN_STALE = {"solvers.iterative_randomized_solve",
               "solvers.sketch_with_targets"}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compared_names() -> set:
    """The string constants that ``name`` is compared with, alone or in a
    tuple, anywhere in the tracer (per_layer and the wrappers)."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "name"):
            continue
        for right in node.comparators:
            items = right.elts if isinstance(right, ast.Tuple) else [right]
            names.update(item.value for item in items
                         if isinstance(item, ast.Constant))
    return names


def _table_names(tracing) -> set:
    names = {f"{layer}.{cls}.{meth}"
             for (layer, cls), methods in tracing.CLASS_METHODS.items()
             for meth in methods}
    return names.union(tracing.ITERATIVE, tracing.DIAGNOSTICS, tracing.RUNNERS)


def _resolves(name: str, layers) -> bool:
    layer, *path = name.split(".")
    if layer not in layers:
        return False
    module = importlib.import_module(f"fdridge.{layer}")
    if len(path) == 1:
        fn = vars(module).get(path[0])
        return (not path[0].startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__)
    cls_name, meth = path
    cls = vars(module).get(cls_name)
    return inspect.isclass(cls) and inspect.isfunction(vars(cls).get(meth))


def test_every_traced_name_resolves_in_fdridge():
    tracing = _tracing()
    tables, compared = _table_names(tracing), _compared_names()
    # both sources are read: a table entry and span names compared with
    assert "solvers.InverseOperator.apply" in tables
    assert {"experiments.write_csv", "sketch.StreamingSketch.finalize",
            "solvers.solve_exact"} <= compared
    stale = {name for name in tables | compared
             if not _resolves(name, tracing.LAYERS)}
    assert stale == KNOWN_STALE
