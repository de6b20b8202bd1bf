"""Spans around the calls into each layer of the package.

The package is not modified: the tracer replaces module attributes (and one
method) with wrappers that record a span per call.  A span is (name, start,
end, parent); a few spans also carry up to two numbers read from the call,
such as the rounds of a run or the size of an LP.  Spans live in flat arrays in
memory and are written to a file when the run ends.  Self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (span name, module, attribute): the function is wrapped in every bpmatch
# module that binds it, so calls from other layers go through the wrapper.
FUNCTIONS = [
    ("graph.parse", "bpmatch.graph", "parse_graph"),
    ("graph.validate", "bpmatch.graph", "validate"),
    ("graph.reduce", "bpmatch.graph", "reduce_trivial"),
    ("engine.run_sync", "bpmatch.engine", "run_sync"),
    ("engine.extract", "bpmatch.engine", "extract_estimate"),
    ("schedule.run_async", "bpmatch.schedule", "run_async"),
    ("schedule.coverage", "bpmatch.schedule", "coverage"),
    ("ctree.build_tree", "bpmatch.ctree", "build_tree"),
    ("ctree.dp", "bpmatch.ctree", "tree_bmatching_dp"),
    ("simplex.solve_lp", "bpmatch.simplex", "solve_lp"),
    ("oracle.brute_force", "bpmatch.oracle", "brute_force"),
    ("oracle.relaxation", "bpmatch.oracle", "solve_relaxation"),
    ("oracle.is_tight", "bpmatch.oracle", "is_tight"),
    ("oracle.check_cs", "bpmatch.oracle", "check_cs"),
    ("harness.pipeline", "bpmatch.harness", "solve_pipeline"),
    ("harness.tree_verify", "bpmatch.harness", "tree_verify"),
    ("cli.main", "bpmatch.cli", "main"),
]
METHODS = [
    ("ctree.gct", "bpmatch.ctree", "GCTBuilder", "gct"),
]


def _lp_cells(args, kwargs, result):
    A = args[0]
    return len(A) * (len(A[0]) if A else 0), 0


def _iterations(args, kwargs, result):
    return result.iterations, 0


def _rounds(args, kwargs, result):
    # rounds, and rounds x directed edges = message updates
    return result.iterations, result.iterations * 2 * args[0].m


def _forced(args, kwargs, result):
    return len(result.forced), 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.value2 = array("d")
        self._stack = [-1]
        self._restore = []

    def _id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name, t0=None):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.start.append(time.perf_counter() if t0 is None else t0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.value2.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx, t1=None):
        self.end[idx] = time.perf_counter() if t1 is None else t1
        self._stack.pop()

    def add(self, name, start, end):
        """A finished span under the current one (for work timed by the caller)."""
        self.close(self.open(name, start), end)

    def _wrap(self, name, fn, measure):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if measure is not None:
                tracer.value[idx], tracer.value2[idx] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer boundary in the loaded bpmatch modules."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "bpmatch" or k.startswith("bpmatch.")}
        tree_size = mods["bpmatch.ctree"].tree_size

        def nodes(args, kwargs, result):
            return tree_size(result), 0

        measures = {
            "simplex.solve_lp": _lp_cells,
            "engine.run_sync": _rounds,
            "schedule.run_async": _iterations,
            "graph.reduce": _forced,
            "ctree.build_tree": nodes,
            "ctree.gct": nodes,
        }
        for name, modname, attr in FUNCTIONS:
            mod = mods.get(modname)
            if mod is None:
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, measures.get(name))
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._restore.append((m, key, val))
                        setattr(m, key, wrapper)
        for name, modname, cls_name, meth in METHODS:
            cls = getattr(mods[modname], cls_name)
            original = vars(cls)[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, measures.get(name)))

    def uninstall(self):
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def summary(self):
        """Per span name: calls, total time, self time, summed values."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = {}
        for k in range(n):
            name = self.names[self.name_id[k]]
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                        "value": 0.0, "value2": 0.0})
            dur = self.end[k] - self.start[k]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - child[k]
            row["value"] += self.value[k]
            row["value2"] += self.value2[k]
        return out

    def count_under(self, name, ancestor):
        """Spans called ``name`` nested at any depth under an ``ancestor`` span."""
        want, anc = self._ids.get(name), self._ids.get(ancestor)
        if want is None or anc is None:
            return 0
        hits = 0
        for k in range(len(self.start)):
            if self.name_id[k] != want:
                continue
            p = self.parent[k]
            while p >= 0 and self.name_id[p] != anc:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def to_dict(self):
        return {"names": self.names, "name_id": list(self.name_id),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "value": list(self.value),
                "value2": list(self.value2)}

    def write(self, path, meta):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.to_dict()}, fh)
