"""Span tracer for the traced benchmark run.

install() replaces every public function of the six layer modules of
regrisk (problem, spectral, rules, accum, study, lasso) by a wrapper that
records a span: name, start, end, parent span and a few attributes. The
wrapper is put into every regrisk namespace that holds the function, so
the names `study` imports from `rules`, `lasso` and `accum` and the
re-exports of the package are traced as well. Spans stay in memory and
are written out once the run ends; layer_metrics() turns them into the
per-layer metrics. The library itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
import tracemalloc
import types

import numpy as np

LAYERS = ("problem", "spectral", "rules", "accum", "study", "lasso")

TABLE_SPANS = frozenset(
    f"rules.{name}"
    for name in ("filter_table", "prediction_weight_table",
                 "estimation_weight_table", "df_table", "gdf_table")
)
SELECT_SPANS = frozenset(
    f"rules.{name}"
    for name in ("dp_select", "psure_select", "gsure_select", "oracle_select")
)
EXPORT_SPANS = frozenset(
    ("study.write_records_csv", "study.summary_json", "study.write_summary_json")
)
MB = 1e6
# spans use the CPU time of the whole process, like the end-to-end
# metrics, so the steal of a shared host does not show in them
CLOCK = time.process_time


class NullTracer:
    """Stand-in for untraced runs: bench spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name):
        yield {}


def _table_attrs(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _sum_attrs(args, kwargs, out):
    values = args[0] if args else kwargs["values"]
    return {"terms": int(np.size(values))}


def _file_attrs(position, keyword):
    def attrs(args, kwargs, out):
        path = args[position] if len(args) > position else kwargs[keyword]
        return {"bytes": os.path.getsize(path)}
    return attrs


def _path_attrs(args, kwargs, path):
    nonzero = path.Z != 0.0
    return {
        "iterations": int(path.iterations_used),
        "columns": int(nonzero.shape[1]),
        "zero_columns": int(np.sum(~nonzero.any(axis=0))),
        "distinct_supports": int(np.unique(nonzero.T, axis=0).shape[0]),
        "unconverged": int(np.sum(~path.converged_flags)),
    }


ATTRS = {
    **{name: _table_attrs for name in TABLE_SPANS},
    "accum.neumaier_sum": _sum_attrs,
    "study.write_records_csv": _file_attrs(2, "path"),
    "study.write_summary_json": _file_attrs(1, "path"),
    "lasso.admm_all_at_once": _path_attrs,
}


class Tracer:
    """Records spans as [name, start, end, parent index, attrs].

    With track_alloc, tracemalloc runs inside study.run_study to record
    its peak allocation. That slows every Python allocation, so it is
    used in a run of its own, apart from the runs that give the times.
    """

    def __init__(self, track_alloc=False):
        self.track_alloc = track_alloc
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def _open(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(rec)
        rec[1] = CLOCK()
        return rec, stack

    @contextlib.contextmanager
    def span(self, name):
        rec, stack = self._open(name)
        attrs = {}
        try:
            yield attrs
        finally:
            rec[2] = CLOCK()
            stack.pop()
            rec[4] = attrs or None

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        track_alloc = self.track_alloc and name == "study.run_study"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = self._open(name)
            started_alloc = track_alloc and not tracemalloc.is_tracing()
            if started_alloc:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if started_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec[2] = CLOCK()
                stack.pop()
            if started_alloc:
                rec[4] = {"peak_alloc_bytes": peak}
            elif attrs_of is not None:
                rec[4] = attrs_of(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of the layer modules everywhere."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"regrisk.{layer}")
            for name, val in vars(mod).items():
                if (not name.startswith("_") and isinstance(val, types.FunctionType)
                        and val.__module__ == mod.__name__):
                    originals[id(val)] = (val, self.wrap(f"{layer}.{name}", val))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "regrisk":
                continue
            namespace = vars(mod)
            for name, val in list(namespace.items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((namespace, name, val))
                    namespace[name] = hit[1]

    def uninstall(self):
        for namespace, name, val in reversed(self._patched):
            namespace[name] = val
        self._patched.clear()

    def add_root(self, name, start, end):
        """Adopt every parentless span under a root span spanning [start, end]."""
        root = len(self.spans)
        for rec in self.spans:
            if rec[3] is None:
                rec[3] = root
        self.spans.append([name, start, end, None, None])
        return root

    def as_dicts(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for n, s, e, p, a in self.spans
        ]


def covered_length(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(spans, children, idx) -> float:
    _, s, e, _, _ = spans[idx]
    kids = [(max(spans[k][1], s), min(spans[k][2], e)) for k in children.get(idx, ())]
    return (e - s) - covered_length([iv for iv in kids if iv[1] > iv[0]])


def child_index(spans):
    children = {}
    for i, rec in enumerate(spans):
        if rec[3] is not None:
            children.setdefault(rec[3], []).append(i)
    return children


def layer_metrics(spans, root) -> dict:
    """Per-layer metrics (without trace.overhead_s) from a finished trace."""
    children = child_index(spans)

    def named(names):
        return [i for i, rec in enumerate(spans) if rec[0] in names]

    def total(idxs):
        return sum(spans[i][2] - spans[i][1] for i in idxs)

    def attr_sum(idxs, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in idxs)

    def top_ancestor(i):
        while spans[i][3] != root:
            i = spans[i][3]
        return i

    builds = named({"problem.build_problem"})
    tables = named(TABLE_SPANS)
    table_bytes = {}
    for i in tables:
        top = top_ancestor(i)
        table_bytes[top] = table_bytes.get(top, 0) + spans[i][4]["bytes"]
    sums = named({"accum.neumaier_sum"})
    runs = named({"study.run_study"})
    exports = [i for i, rec in enumerate(spans)
               if rec[0] in EXPORT_SPANS or rec[0].startswith("bench.write_")]
    solves = named({"lasso.admm_all_at_once"})
    columns = attr_sum(solves, "columns")
    gdfs = named({"lasso.lasso_gdf"})
    return {
        "problem.build_s": total(builds),
        "problem.builds": len(builds),
        "spectral.decompose_s": total(named({"spectral.decompose"})),
        "spectral.to_spectral_calls": len(named({"spectral.to_spectral"})),
        "rules.table_builds": len(tables),
        "rules.tables_s": total(tables),
        "rules.tables_mb": max(table_bytes.values(), default=0) / MB,
        "rules.select_s": total(named(SELECT_SPANS)),
        "accum.sum_calls": len(sums),
        "accum.sum_terms": attr_sum(sums, "terms"),
        "accum.sum_s": total(sums),
        "study.run_s": total(runs),
        "study.self_s": sum(self_time(spans, children, i) for i in runs),
        "study.peak_alloc_mb": max(
            (attr_sum([i], "peak_alloc_bytes") for i in runs), default=0) / MB,
        "study.export_s": total(exports),
        "study.export_mb": attr_sum(exports, "bytes") / MB,
        "lasso.solves": len(solves),
        "lasso.solve_s": total(solves),
        "lasso.iterations": attr_sum(solves, "iterations"),
        "lasso.columns": columns,
        "lasso.zero_column_share": (
            attr_sum(solves, "zero_columns") / columns if columns else 0.0),
        "lasso.gdf_calls": len(gdfs),
        "lasso.gdf_s": total(gdfs),
        "lasso.distinct_support_share": (
            attr_sum(solves, "distinct_supports") / columns if columns else 0.0),
        "lasso.unconverged_columns": attr_sum(solves, "unconverged"),
    }
