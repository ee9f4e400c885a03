"""Exact-cover compilation engines.

Three engines run one memoized depth-first search, keyed on the
live-column bitset and emitting hash-consed diagram nodes.  dxz and dxd
search row/column bitmasks (``masks.MaskTables``), where a subproblem is
a pair of ints and nothing is undone; dyndxd searches a dancing-links
matrix (``DlxMatrix``, the reference kernel):

* ``dxz``      branches on a minimum-size column and builds a chain of
               decision nodes per interacting row; output is a ZBDD.
               The column sizes live in a ``masks.ColumnCounts``,
               recounted along each edge, in place of dxd's popcounts.
* ``dxd``      additionally short-circuits a single row that covers
               everything to a literal, and when the live rows fall
               into >= 2 connected components of the primal graph
               (rows adjacent iff they share a column, found by a flood
               fill over per-row conflict masks), solves the components
               separately and joins them; output is zero-suppressed
               decision-DNNF.
               The join is a decomposable node unless the ZBDD chain of
               the components (each one's TOP replaced by the next
               component, see ``NodeStore.mk_join``) has strictly fewer
               reachable nodes: every ZBDD is already a decision-DNNF,
               so a join need not cost more than its chain.  On a tie
               the decomposable node stays (the worked example's root
               is still the join of its two components).
* ``dyndxd``   is dxd on the dancing-links matrix, with the components
               maintained incrementally by a dynconn.ComponentSet: inside
               the branch loop, covering a column removes that column's
               rows (and their incident edges) from the structure, and
               uncovering it restores them.  Each component is searched
               in a submatrix of its own (``decompose_matrix``), inline
               or on a worker, with a ComponentSet of its own.

Both kernels apply the same rules (column choice, row order, literal,
components in order of their smallest row), so dxd and dyndxd build the
same diagram with the same cache traffic, and dxz builds the diagram
that dancing links would.  ``bfs_components`` is the dancing-links
reference for the components.

The cache key is sound because a row is live exactly when every column
it interacts is live, so the live-column set determines the subproblem;
column ids are global even inside components, which lets all components
(and all worker threads) share one cache and one node store.

``solve`` is the one entry point; ``oracle`` is accepted as a fourth
engine name and dispatches to the brute-force enumerator for
ground-truth runs.  Worker threads are spawned only at decomposition
points, with non-blocking token acquisition so no task ever waits on
the pool; dxd's workers share the solve's mask tables read-only.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial

from .diagram import BOTTOM, TOP, NodeStore
from .dlx import DlxMatrix
from .dynconn import ComponentSet, _edge
from .masks import ColumnCounts, MaskTables
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
                 "cfg", "cs", "adj", "undo", "masks", "counts")

    def __init__(self, engine, store, cache, stats, pool, deadline, cfg,
                 cs=None, adj=None, masks=None):
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
        self.masks = masks      # dxz, dxd: the MaskTables of the solve
        self.counts = None      # dxz: the ColumnCounts of its one search

    def fork(self, cs):
        return _Ctx(self.engine, self.store, self.cache, self.stats,
                    self.pool, self.deadline, self.cfg, cs, self.adj)


def bfs_components(m: DlxMatrix) -> list:
    """Connected components of m's live rows (rows adjacent iff they share
    a column), each sorted, ordered by smallest row id.  No engine calls
    it: it is the dancing-links reference that ``MaskTables.components``
    and dyndxd's ``ComponentSet`` are checked against."""
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
    if len(ctx.cs) != m.live_rows:
        raise AssertionError("component structure out of sync with matrix")
    return [sorted(c) for c in ctx.cs.partition()]


def _check_deadline(ctx: _Ctx):
    if ctx.deadline is not None and time.monotonic() > ctx.deadline:
        raise SolveTimeout


def _search(m: DlxMatrix, ctx: _Ctx) -> int:
    """Compile the live part of ``m``.  dyndxd searches the matrix itself
    and restores it; dxz and dxd read its live rows into masks and leave
    it untouched."""
    if ctx.engine != "dyndxd":
        live = m.live_row_ids()
        return _mask_root(MaskTables(m.live_col_mask.bit_length(),
                                     ((r, m.row_columns(r)) for r in live)),
                          m.live_col_mask, sum(1 << r for r in live), ctx)
    _check_deadline(ctx)
    if m.is_empty():
        return TOP
    key = m.live_col_mask
    node = ctx.cache.get(key)
    if node is not None:
        ctx.stats.hit()
        return node
    ctx.stats.miss()
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
        _check_deadline(ctx)
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
    return _join([partial(_search_component, sub, ctx) for sub in subs],
                 [sub.live_rows for sub in subs], ctx)


def _search_component(sub: DlxMatrix, ctx: _Ctx) -> int:
    """dyndxd searches each component with a ComponentSet of its own."""
    return _search(sub, ctx.fork(_component_set(sub.row_first_cell, ctx.adj)))


def _join(searches, sizes, ctx: _Ctx) -> int:
    """Search each component (a zero-argument callable; ``sizes`` holds
    its row counts) and join the results.  Every component but the first
    with at least ``spawn_threshold`` rows goes to a worker if one is
    free; the rest run inline."""
    children = [None] * len(searches)
    futures = []
    if ctx.pool is not None:
        for i in range(1, len(searches)):
            if sizes[i] < ctx.cfg.spawn_threshold:
                continue
            fut = ctx.pool.try_spawn(searches[i])
            if fut is not None:
                futures.append((i, fut))
                ctx.stats.add_spawned()
    pending = {i for i, _ in futures}
    for i, search in enumerate(searches):
        if i not in pending:
            children[i] = search()
    for i, fut in futures:
        children[i] = fut.result()
    return ctx.store.mk_join(children)


def _mask_root(tables: MaskTables, cols: int, rows: int, ctx: _Ctx) -> int:
    """Search ``(cols, rows)`` of ``tables``; dxz first counts its
    columns."""
    ctx.masks = tables
    if ctx.engine == "dxz":
        ctx.counts = ColumnCounts(tables, rows)
    return _mask_search(cols, rows, ctx)


def _mask_search(cols: int, rows: int, ctx: _Ctx, via=None) -> int:
    """dxz and dxd on the subproblem ``(cols, rows)`` of ``ctx.masks``,
    reached by choosing row ``via`` (None at a root): the same rules as
    ``_search``, with nothing to undo but dxz's column counts, which
    move to this state only when it is searched."""
    _check_deadline(ctx)
    if not cols:
        return TOP
    node = ctx.cache.get(cols)
    if node is not None:
        ctx.stats.hit()
        return node
    ctx.stats.miss()
    t = ctx.masks
    counts = ctx.counts
    if counts is not None:
        log = counts.enter(via, cols, rows) if via is not None else ()
        node = _mask_branch(cols, rows, counts.select(cols), ctx)
        counts.leave(log)
    else:
        r = t.single_full_row(cols, rows)
        if r is not None:
            node = ctx.store.mk_literal(r)
        else:
            comps = t.components(rows)
            if len(comps) >= 2:
                node = _mask_decomposed(cols, comps, ctx)
            else:
                node = _mask_branch(cols, rows, t.select_column(cols, rows),
                                    ctx)
    ctx.cache[cols] = node
    return node


def _mask_branch(cols: int, rows: int, c: int, ctx: _Ctx) -> int:
    """``_branch`` on masks, over the rows of column ``c``: each child is
    a new pair of masks."""
    t = ctx.masks
    row_cols, conflict = t.row_cols, t.conflict
    alpha = BOTTOM
    todo = t.col_rows[c] & rows
    while todo:
        low = todo & -todo
        todo ^= low
        r = low.bit_length() - 1
        beta = _mask_search(cols & ~row_cols[r], rows & ~conflict[r], ctx, r)
        if beta != BOTTOM:
            alpha = ctx.store.mk_decision(r, beta, alpha)
    return alpha


def _mask_decomposed(cols: int, comps, ctx: _Ctx) -> int:
    ctx.stats.add_subs(len(comps))
    sub_cols = [ctx.masks.columns_of(rows) for rows in comps]
    if sum(c.bit_count() for c in sub_cols) != cols.bit_count():
        # some live column interacts no live row; nothing can cover it
        return BOTTOM
    return _join([partial(_mask_search, c, rows, ctx)
                  for c, rows in zip(sub_cols, comps)],
                 [rows.bit_count() for rows in comps], ctx)


def _solve_root(inst, ctx: _Ctx) -> int:
    """dxz and dxd search the instance's masks; dyndxd searches its
    dancing-links matrix and checks that it is restored afterwards."""
    if ctx.engine != "dyndxd":
        return _mask_root(MaskTables.from_instance(inst),
                          (1 << inst.n_cols) - 1, (1 << inst.n_rows) - 1, ctx)
    m = DlxMatrix.from_instance(inst)
    before = m.snapshot()
    ctx.adj = _row_adjacency(inst)
    ctx.cs = _component_set(range(inst.n_rows), ctx.adj)
    root = _search(m, ctx)
    if m._cover_stack or m.snapshot() != before:
        raise AssertionError("matrix not restored after solve")
    return root


def solve(inst, config: SolveConfig | None = None) -> SolveReport:
    """Count and compile the exact covers of an instance."""
    cfg = config if config is not None else SolveConfig()
    if cfg.engine not in ENGINES:
        raise ValueError(f"unknown engine {cfg.engine!r}")
    if cfg.threads < 1:
        raise ValueError("threads must be >= 1")
    if cfg.timeout_s is not None and cfg.timeout_s < 0:
        raise ValueError("timeout_s must be >= 0")
    t0 = time.perf_counter()
    deadline = (None if cfg.timeout_s is None
                else time.monotonic() + cfg.timeout_s)
    stats = SolveStats()
    if cfg.engine == "oracle":
        covers = enumerate_covers(inst, deadline=deadline)
        report = SolveReport(engine=cfg.engine, threads=cfg.threads,
                             count=len(covers), root=None, store=None,
                             stats=stats, time_ms=0.0)
    else:
        store = NodeStore()
        pool = _Pool(cfg.threads - 1) if cfg.threads > 1 else None
        ctx = _Ctx(cfg.engine, store, {}, stats, pool, deadline, cfg)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4000 + 40 * inst.n_cols))
        try:
            root = _solve_root(inst, ctx)
        finally:
            sys.setrecursionlimit(limit)
        report = SolveReport(engine=cfg.engine, threads=cfg.threads,
                             count=store.count(root), root=root, store=store,
                             stats=stats, time_ms=0.0,
                             nodes=store.node_count(root))
    report.time_ms = (time.perf_counter() - t0) * 1000.0
    return report
