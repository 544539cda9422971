"""In-memory spans around warpcurv's public functions, installed from outside.

`install` wraps every public function of the listed warpcurv modules, plus a
few methods, and rebinds each wrapper everywhere the original is referenced:
its defining module, every module that imported it by name, the package
namespace and module-level dispatch tables such as `cli.SCANS`.  Nothing
under `src/` is edited; a wrapper only records a span and calls through.

A span is (name, start, end, parent, scenario id).  Spans live in flat
arrays so that a traced run of a few hundred thousand calls stays small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("exprs", "geometry", "chart_core", "connections", "structured",
           "verify", "einstein", "families", "cli")

# Methods traced under a layer-level name: (module, class, method) -> span name.
METHODS = {
    ("geometry", "ProductManifoldSpec", "check_point"): "geometry.check_point",
    ("structured", "StructuredGeometryCache", "__init__"): "structured.cache_build",
    ("families", "SolutionFamily", "max_residual"): "families.max_residual",
}


class SpanRecorder:
    """Append-only span store with a stack of open spans (one thread)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scenario = array("i")
        self.scenario_id = -1
        self.errors = {}  # module -> typed exceptions that escaped a wrapped call
        self._stack = []
        self._seen_errors = []

    def intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_scenario(self, sid):
        self.scenario_id = sid
        self._seen_errors.clear()

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.scenario.append(self.scenario_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def error(self, module, exc):
        """Count an exception once, at the innermost wrapped call it left."""
        if any(seen is exc for seen in self._seen_errors):
            return
        self._seen_errors.append(exc)
        self.errors[module] = self.errors.get(module, 0) + 1

    def __len__(self):
        return len(self.start)


def _wrap(rec, name, module, fn, error_type):
    nid = rec.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        except error_type as exc:
            rec.error(module, exc)
            raise
        finally:
            rec.close(idx)

    return traced


def install(rec):
    """Wrap the public functions and METHODS; returns a callable that undoes it."""
    package = importlib.import_module("warpcurv")
    error_type = importlib.import_module("warpcurv.errors").WarpcurvError
    mods = {m: importlib.import_module(f"warpcurv.{m}") for m in MODULES}

    wrappers = {}  # id(original) -> (original, wrapper)
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, _wrap(rec, f"{short}.{attr}", short, obj, error_type))

    def replacement(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    undo = []
    for ns in [vars(m) for m in mods.values()] + [vars(package)]:
        for key, value in list(ns.items()):
            new = replacement(value)
            if new is not None:
                undo.append((ns, key, value))
                ns[key] = new
            elif isinstance(value, dict):
                for k2, v2 in list(value.items()):
                    new = replacement(v2)
                    if new is not None:
                        undo.append((value, k2, v2))
                        value[k2] = new

    for (short, cls_name, meth), name in METHODS.items():
        cls = getattr(mods[short], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, _wrap(rec, name, short, orig, error_type))
        undo.append((cls, meth, orig))

    def uninstall():
        for target, key, value in reversed(undo):
            if isinstance(target, type):
                setattr(target, key, value)
            else:
                target[key] = value

    return uninstall


def summarize(rec):
    """Per span name: calls, inclusive seconds and self seconds, plus the
    per-span durations needed for finer statistics."""
    n = len(rec)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    stats = {}
    for i in range(n):
        s = stats.setdefault(rec.names[rec.name_id[i]], [0, 0.0, 0.0])
        s[0] += 1
        s[1] += dur[i]
        s[2] += dur[i] - child[i]
    return stats, dur


def ancestors_named(rec, idx, nid):
    """True when a span named `nid` encloses span `idx`."""
    p = rec.parent[idx]
    while p >= 0:
        if rec.name_id[p] == nid:
            return True
        p = rec.parent[p]
    return False
