"""Exact-cover compilation engines.

Three engines share one recursive search over a dancing-links matrix,
memoized on the live-column bitset and emitting hash-consed diagram
nodes:

* ``dxz``      branches on a minimum-size column and builds a chain of
               decision nodes per interacting row; output is a ZBDD.
* ``dxd``      additionally short-circuits a single row that covers
               everything to a literal, and when the live rows fall
               into >= 2 connected components of the primal graph
               (rows adjacent iff they share a column, recomputed by
               BFS), solves the independent submatrices separately and
               joins them; output is zero-suppressed decision-DNNF.
               The join is a decomposable node unless the ZBDD chain of
               the components (each one's TOP replaced by the next
               component, see ``NodeStore.mk_join``) has strictly fewer
               reachable nodes: every ZBDD is already a decision-DNNF,
               so a join need not cost more than its chain.  On a tie
               the decomposable node stays (the worked example's root
               is still the join of its two components).
* ``dyndxd``   is dxd with the components maintained incrementally by a
               dynconn.ComponentSet instead of BFS: inside the same
               branch loop, covering a column removes that column's rows
               (and their incident edges) from the structure, and
               uncovering it restores them.

The cache key is sound because a row is live exactly when every column
it interacts is live, so the live-column set determines the subproblem;
column ids are global even inside decomposed submatrices, which lets
all components (and all worker threads) share one cache and one node
store.

``solve`` is the one entry point; ``oracle`` is accepted as a fourth
engine name and dispatches to the brute-force enumerator for
ground-truth runs.  Worker threads are spawned only at decomposition
points, each owning a freshly built submatrix (and, for dyndxd, its own
ComponentSet), with non-blocking token acquisition so no task ever
waits on the pool.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from .diagram import BOTTOM, TOP, NodeStore
from .dlx import DlxMatrix
from .dynconn import ComponentSet, _edge
from .oracle import enumerate_covers

ENGINES = ("dxz", "dxd", "dyndxd", "oracle")


class SolveTimeout(Exception):
    """Cooperative deadline exceeded."""


@dataclass
class SolveConfig:
    engine: str = "dxz"
    threads: int = 1
    spawn_threshold: int = 8    # min component rows to offload to a worker
    timeout_s: float | None = None


class SolveStats:
    """Counters shared across worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.subs = 0
        self.spawned = 0

    def hit(self):
        with self._lock:
            self.cache_hits += 1

    def miss(self):
        with self._lock:
            self.cache_misses += 1

    def add_subs(self, n):
        with self._lock:
            self.subs += n

    def add_spawned(self):
        with self._lock:
            self.spawned += 1


@dataclass
class SolveReport:
    engine: str
    threads: int
    count: int
    root: int | None
    store: NodeStore | None
    stats: SolveStats
    time_ms: float
    nodes: int = 0


class _Pool:
    """Bounded fire-and-forget worker pool.

    ``try_spawn`` either starts a thread immediately or returns None;
    callers always have the inline fallback, so there is no queue and
    no way to deadlock on token exhaustion.
    """

    def __init__(self, tokens: int):
        self._sem = threading.BoundedSemaphore(tokens)

    def try_spawn(self, fn):
        if not self._sem.acquire(blocking=False):
            return None
        fut = Future()

        def run():
            try:
                fut.set_result(fn())
            except BaseException as exc:
                fut.set_exception(exc)
            finally:
                self._sem.release()

        threading.Thread(target=run, daemon=True).start()
        return fut


class _Ctx:
    __slots__ = ("engine", "store", "cache", "stats", "pool", "deadline",
                 "cfg", "cs", "adj", "undo")

    def __init__(self, engine, store, cache, stats, pool, deadline, cfg,
                 cs=None, adj=None):
        self.engine = engine
        self.store = store
        self.cache = cache
        self.stats = stats
        self.pool = pool
        self.deadline = deadline
        self.cfg = cfg
        self.cs = cs
        self.adj = adj
        self.undo = []          # dyndxd: (rows, edges) per covered column

    def fork(self, cs):
        return _Ctx(self.engine, self.store, self.cache, self.stats,
                    self.pool, self.deadline, self.cfg, cs, self.adj)


def bfs_components(m: DlxMatrix) -> list:
    """Connected components of m's live rows (rows adjacent iff they share
    a column), each sorted, ordered by smallest row id."""
    comps = []
    seen = set()
    done_cols = set()
    for r0 in m.live_row_ids():
        if r0 in seen:
            continue
        comp = [r0]
        seen.add(r0)
        queue = [r0]
        while queue:
            r = queue.pop()
            for c in m.row_columns(r):
                if c in done_cols:
                    continue
                done_cols.add(c)
                for s in m.interacting_rows(c):
                    if s not in seen:
                        seen.add(s)
                        comp.append(s)
                        queue.append(s)
        comp.sort()
        comps.append(comp)
    return comps


def decompose_matrix(m: DlxMatrix, comps) -> list:
    """One fresh independent DlxMatrix per row component, global ids kept."""
    flat = sorted(r for comp in comps for r in comp)
    if flat != m.live_row_ids():
        raise ValueError("components do not partition the live rows")
    subs = []
    all_cols = set()
    total_cols = 0
    for comp in comps:
        cols = set()
        rows = []
        for r in comp:
            rc = m.row_columns(r)
            cols.update(rc)
            rows.append((r, rc))
        subs.append(DlxMatrix.from_rows(sorted(cols), rows))
        all_cols |= cols
        total_cols += len(cols)
    if total_cols != len(all_cols):
        raise ValueError("components share columns")
    return subs


def _row_adjacency(inst) -> dict:
    """adjacency[r] = rows sharing at least one column with r."""
    by_col = [[] for _ in range(inst.n_cols)]
    for r, (_, cols) in enumerate(inst.rows):
        for c in cols:
            by_col[c].append(r)
    adj = {r: set() for r in range(inst.n_rows)}
    for group in by_col:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _component_set(rows, adj) -> ComponentSet:
    """Components of the row graph ``adj`` restricted to ``rows``."""
    rows = set(rows)
    return ComponentSet(rows, {_edge(r, s) for r in rows for s in adj[r]
                               if s in rows})


def _components(m, ctx):
    if ctx.cs is None:
        return bfs_components(m)
    comps = [sorted(c) for c in ctx.cs.partition()
             if min(c) in m.row_first_cell]
    if sum(len(c) for c in comps) != m.live_rows:
        raise AssertionError("component structure out of sync with matrix")
    return comps


def _search(m: DlxMatrix, ctx: _Ctx) -> int:
    if ctx.deadline is not None and time.monotonic() > ctx.deadline:
        raise SolveTimeout
    if m.is_empty():
        return TOP
    key = m.live_col_mask
    node = ctx.cache.get(key)
    if node is not None:
        ctx.stats.hit()
        return node
    ctx.stats.miss()
    if ctx.engine == "dxz":
        node = _branch(m, ctx)
    else:
        r = m.single_full_row()
        if r is not None:
            node = ctx.store.mk_literal(r)
        else:
            comps = _components(m, ctx)
            if len(comps) >= 2:
                node = _decomposed(m, comps, ctx)
            else:
                node = _branch(m, ctx)
    ctx.cache[key] = node
    return node


def _branch(m: DlxMatrix, ctx: _Ctx) -> int:
    """Branch over the rows of a minimum-size column, chaining each
    satisfiable branch into a decision node."""
    if ctx.cs is None:
        cover, uncover = m.cover, m.uncover
    else:
        cover, uncover = _dyn_cover_pair(m, ctx)
    c = m.select_column()
    cover(c)
    alpha = BOTTOM
    h = m.header_of[c]
    i = m.down[h]
    while i != h:
        j = m.right[i]
        while j != i:
            cover(m.col_id[m.head[j]])
            j = m.right[j]
        beta = _search(m, ctx)
        if beta != BOTTOM:
            alpha = ctx.store.mk_decision(m.row_of[i], beta, alpha)
        j = m.left[i]
        while j != i:
            uncover(m.col_id[m.head[j]])
            j = m.left[j]
        i = m.down[i]
    uncover(c)
    return alpha


def _dyn_cover_pair(m: DlxMatrix, ctx: _Ctx):
    """cover/uncover that also drop each covered column's rows (and
    their incident edges) from ``ctx.cs`` and restore them exactly,
    from the batches kept on ``ctx.undo``."""
    cs, adj, undo = ctx.cs, ctx.adj, ctx.undo

    def cover(c):
        rows = m.cover_collect(c)
        edges = {_edge(r, s) for r in rows for s in adj[r] if s in cs}
        if rows:
            cs.dec_update(rows, edges)
        undo.append((rows, edges))

    def uncover(c):
        rows, edges = undo.pop()
        if rows:
            cs.inc_update(rows, edges)
        m.uncover(c)

    return cover, uncover


def _decomposed(m: DlxMatrix, comps, ctx: _Ctx) -> int:
    subs = decompose_matrix(m, comps)
    ctx.stats.add_subs(len(subs))
    if sum(s.live_cols for s in subs) != m.live_cols:
        # some live column interacts no live row; nothing can cover it
        return BOTTOM
    children = [None] * len(subs)
    futures = []
    for i in range(1, len(subs)):
        if ctx.pool is None or subs[i].live_rows < ctx.cfg.spawn_threshold:
            continue
        sub = subs[i]

        def task(sub=sub):
            child = ctx if ctx.cs is None else \
                ctx.fork(_component_set(sub.row_first_cell, ctx.adj))
            return _search(sub, child)

        fut = ctx.pool.try_spawn(task)
        if fut is not None:
            futures.append((i, fut))
            ctx.stats.add_spawned()
    pending = {i for i, _ in futures}
    for i, sub in enumerate(subs):
        if i not in pending:
            children[i] = _search(sub, ctx)
    for i, fut in futures:
        children[i] = fut.result()
    return ctx.store.mk_join(children)


def solve(inst, config: SolveConfig | None = None) -> SolveReport:
    """Count and compile the exact covers of an instance."""
    cfg = config if config is not None else SolveConfig()
    if cfg.engine not in ENGINES:
        raise ValueError(f"unknown engine {cfg.engine!r}")
    if cfg.threads < 1:
        raise ValueError("threads must be >= 1")
    t0 = time.perf_counter()
    deadline = time.monotonic() + cfg.timeout_s if cfg.timeout_s else None
    stats = SolveStats()
    if cfg.engine == "oracle":
        covers = enumerate_covers(inst, deadline=deadline)
        report = SolveReport(engine=cfg.engine, threads=cfg.threads,
                             count=len(covers), root=None, store=None,
                             stats=stats, time_ms=0.0)
    else:
        m = DlxMatrix.from_instance(inst)
        before = m.snapshot()
        store = NodeStore()
        pool = _Pool(cfg.threads - 1) if cfg.threads > 1 else None
        cs = adj = None
        if cfg.engine == "dyndxd":
            adj = _row_adjacency(inst)
            cs = _component_set(range(inst.n_rows), adj)
        ctx = _Ctx(cfg.engine, store, {}, stats, pool, deadline, cfg, cs, adj)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4000 + 40 * inst.n_cols))
        try:
            root = _search(m, ctx)
        finally:
            sys.setrecursionlimit(limit)
        if m._cover_stack or m.snapshot() != before:
            raise AssertionError("matrix not restored after solve")
        report = SolveReport(engine=cfg.engine, threads=cfg.threads,
                             count=store.count(root), root=root, store=store,
                             stats=stats, time_ms=0.0,
                             nodes=store.node_count(root))
    report.time_ms = (time.perf_counter() - t0) * 1000.0
    return report
