"""Outside-in layer trace: wraps public entry points of the xcover
modules from benchmark code, without editing them.

Each wrapped call is a span.  Spans nest on a per-thread stack; a span's
self time is its duration minus the durations of the traced spans it
called on the same thread.  Calls, total time and self time are
aggregated per span name in memory (one table per thread, merged at the
end) and written out by the caller.  ``Tracer.uninstall`` puts every
patched attribute back.
"""

from __future__ import annotations

import threading
from time import perf_counter

from xcover import diagram, dlx, dynconn, instance, solver

# (span name, owner, attribute): owner is a module or a class.
ENTRY_POINTS = (
    ("instance.parse", instance, "parse_instance"),
    ("dlx.cover", dlx.DlxMatrix, "cover"),
    ("dlx.cover", dlx.DlxMatrix, "cover_collect"),
    ("dlx.uncover", dlx.DlxMatrix, "uncover"),
    ("dlx.select", dlx.DlxMatrix, "select_column"),
    ("dlx.build", dlx.DlxMatrix, "from_rows"),
    ("solver.solve", solver, "solve"),
    ("solver.bfs", solver, "bfs_components"),
    ("solver.decompose", solver, "decompose_matrix"),
    ("dynconn.init", dynconn.ComponentSet, "__init__"),
    ("dynconn.dec", dynconn.ComponentSet, "dec_update"),
    ("dynconn.inc", dynconn.ComponentSet, "inc_update"),
    ("dynconn.partition", dynconn.ComponentSet, "partition"),
    ("dynconn.link", dynconn.EulerForest, "link"),
    ("dynconn.cut", dynconn.EulerForest, "cut"),
    ("diagram.mk", diagram.NodeStore, "mk_literal"),
    ("diagram.mk", diagram.NodeStore, "mk_decision"),
    ("diagram.mk", diagram.NodeStore, "mk_decomposable"),
    ("diagram.count", diagram.NodeStore, "count"),
    ("diagram.node_count", diagram.NodeStore, "node_count"),
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables = []           # one {name: [calls, total, self]} per thread
        self._lock = threading.Lock()
        self._saved = []            # (owner, attribute, original value)

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.table
        except AttributeError:
            loc.stack = []
            loc.table = {}
            with self._lock:
                self._tables.append(loc.table)
            return loc.stack, loc.table

    def _wrap(self, name, fn):
        state = self._state

        def span(*args, **kwargs):
            stack, table = state()
            stack.append(0.0)       # time of traced children
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - children

        return span

    def install(self):
        for name, owner, attr in ENTRY_POINTS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} summed over threads."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_s) in table.items():
                row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
        return out
