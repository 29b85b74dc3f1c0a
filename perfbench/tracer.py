"""In-memory span tracer that wraps camdrive's public functions from outside.

The library is never edited. Installing the tracer replaces every binding of
a public camdrive function with a timing wrapper: the defining module's
attribute and every other module attribute that holds the same function, so
`from .geometry import extended_angle` in `mechanics` is counted too. The
one method the study writes files through, `svgplot.Canvas.write`, is
wrapped on its class. Uninstalling restores the originals.

A span is [name, start, end, parent index, op id, counts], with start and
end in CPU seconds of the process, the clock the op times use. Spans stay in
memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import process_time

MODULES = ("config", "geometry", "mechanics", "sensitivity", "optimize", "cli",
           "svgplot")
METHODS = (("svgplot", "Canvas", "write"),)


def _sweep_counts(args, result):
    grids = result.grids.values()
    return {"evaluated": result.evaluated,
            "feasible": sum(int(g.feasible.sum()) for g in grids)}


def _mask_counts(args, result):
    return {"rows_in": len(result), "kept": int(result.sum())}


# Counters read from arguments and results at the layer boundary.
COUNTERS = {
    "optimize.sweep": _sweep_counts,
    "optimize.nondominated_mask": _mask_counts,
    "optimize.hypervolume": lambda args, result: {"points": len(args[0])},
    "optimize.marching_squares": lambda args, result: {"segments": len(result)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._first = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def install(self, package="camdrive"):
        mods = [importlib.import_module(package)]
        mods += [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(package + ".") or home not in MODULES:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home}.{obj.__qualname__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for home, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{home}"), cls_name)
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{home}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def begin_op(self, op):
        self.op = op
        self._first = len(self.spans)

    def end_op(self) -> dict:
        """Per-layer totals of the op just traced: {name: {s, self_s, calls, ...}}."""
        first, self.op = self._first, None
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for s in spans[first:]:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        out: dict[str, dict] = {}
        for k, (name, t0, t1, parent, _, counts) in enumerate(spans[first:]):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            if parent < first or spans[parent][0] != name:
                row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[k]
            row["calls"] += 1
            for key, v in (counts or {}).items():
                row[key] = row.get(key, 0) + v
        return out

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")
