"""Spans and counters recorded around calls into the solver's modules.

Nothing inside `src/` is changed: a traced pass swaps a module attribute
for a wrapper that records a span, and restores it afterwards.  Because
`ppesolve.aps` binds its helpers by name (`from .geometry import
convex_hull`), the attributes patched are the names it calls through,
so each span sits at the boundary between two modules.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _vertex_counts(args, kwargs, result):
    w, num_signals = args[0], args[1]
    return {"vertex_enum.seed_points": w.num_vertices ** num_signals,
            "vertex_enum.points_out": result[0].num_points}


def _facet_count(args, kwargs, result):
    return {"kernels.facet_vertices": len(args[0])}


def _pa_count(args, kwargs, result):
    return {"aps.pa_vertices": result[0].num_vertices}


# (module, attribute, span name, counter hook, counters the hook fills);
# a missing module or attribute is skipped, so the metrics of a deleted
# function are absent rather than zero
PROBES = [
    ("ppesolve.aps", "solve", "aps.solve", None, ()),
    ("ppesolve.aps", "apply_B", "aps.apply_B", None, ()),
    ("ppesolve.aps", "enforceable_payoffs", "aps.enforceable_payoffs", _pa_count,
     ("aps.pa_vertices",)),
    ("ppesolve.aps", "enumerate_product", "vertex_enum.enumerate_product",
     _vertex_counts, ("vertex_enum.seed_points", "vertex_enum.points_out")),
    ("ppesolve._kernels", "adjacent_pairs", "kernels.adjacent_pairs", _facet_count,
     ("kernels.facet_vertices",)),
    ("ppesolve.aps", "convex_hull", "geometry.convex_hull", None, ()),
    ("ppesolve.aps", "rdp_simplify", "geometry.rdp_simplify", None, ()),
    ("ppesolve.aps", "intersect_polygons", "geometry.intersect_polygons", None, ()),
    ("ppesolve.aps", "hausdorff", "geometry.hausdorff", None, ()),
    ("ppesolve.reporting", "write_report_json", "reporting.write", None, ()),
    ("ppesolve.reporting", "write_trace_csv", "reporting.write", None, ()),
    ("ppesolve.reporting", "emit_svg", "reporting.write", None, ()),
]


class Tracer:
    """Spans of one pass: name, thread, start, end and parent span.

    The parent is the innermost open span on the same thread; spans
    opened on a pool thread have none.
    """

    def __init__(self):
        self.spans = []  # [name, thread id, start, end, parent index]
        self.counts = Counter()
        self.present = set()  # span names whose function exists
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                idx = len(self.spans)
                parent = stack[-1] if stack else None
                self.spans.append([name, threading.get_ident(), 0.0, 0.0, parent])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans[idx][2:4] = [t0, t1]
            if hook is not None:
                extra = hook(args, kwargs, result)
                with self._lock:
                    self.counts.update(extra)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every probe that exists, and restore it on exit."""
        saved = []
        try:
            for mod_name, attr, name, hook, counters in PROBES:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self.present.add(name)
                self.counts.update(dict.fromkeys(counters, 0))
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for name, _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.present}
        for idx, (name, _, t0, t1, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[idx]
        return out

    def dump(self, path, pass_index: int) -> None:
        """Append this pass's spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as f:
            for idx, (name, tid, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"pass": pass_index, "id": idx, "name": name,
                                    "thread": tid, "start": t0, "end": t1,
                                    "parent": parent}) + "\n")
