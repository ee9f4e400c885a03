"""Exact-cover compilation engines.

Three engines run one memoized depth-first search on row/column bitmasks
(``masks.MaskTables``), keyed on the live-column bitset and emitting
hash-consed diagram nodes.  A subproblem is a pair of ints, and a child
is a new pair, so the search undoes nothing but the state an engine
keeps beside the masks:

* ``dxz``      branches on a minimum-size column and builds a chain of
               decision nodes per interacting row; output is a ZBDD.
               The column sizes live in a ``masks.ColumnCounts``,
               recounted along each edge, in place of dxd's popcounts.
               A searched state in which the row choice left a live
               column without a live row is BOTTOM at once
               (``ColumnCounts.starved``), before any recount, as
               dancing links backtracks on an empty column.
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
* ``dyndxd``   is dxd with the components maintained incrementally by a
               dynconn.ComponentSet instead of the flood fill: on
               entering a searched state, the rows that its row choice
               removed leave the set in one batch (with their incident
               edges), and come back in one batch once the state's node
               is built.  Each component is searched, inline or on a
               worker, with a ComponentSet of its own.

All three apply the rules of dancing links (column choice, row order,
literal, components in order of their smallest row), so dxd and dyndxd
build the same diagram with the same cache traffic, and each builds the
diagram that the search on a ``DlxMatrix`` would.  ``DlxMatrix``,
``bfs_components`` and ``decompose_matrix`` are that dancing-links
reference; no engine calls them.

The cache key is sound because a row is live exactly when every column
it interacts is live, so the live-column set determines the subproblem;
column ids are global even inside components, which lets all components
(and all worker threads) share one cache and one node store.

``solve`` is the one entry point; ``oracle`` is accepted as a fourth
engine name and dispatches to the brute-force enumerator for
ground-truth runs.  Worker threads are spawned only at decomposition
points, with non-blocking token acquisition so no task ever waits on
the pool; workers share the solve's mask tables read-only.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial

from .diagram import BOTTOM, TOP, NodeStore, _bits
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
                 "cfg", "cs", "adj", "masks", "counts")

    def __init__(self, engine, store, cache, stats, pool, deadline, cfg,
                 cs=None, adj=None, masks=None):
        self.engine = engine
        self.store = store
        self.cache = cache
        self.stats = stats
        self.pool = pool
        self.deadline = deadline
        self.cfg = cfg
        self.cs = cs            # dyndxd: the ComponentSet of the live rows
        self.adj = adj          # dyndxd: the row adjacency of the solve
        self.masks = masks      # the MaskTables of the solve
        self.counts = None      # dxz: the ColumnCounts of its one search

    def fork(self, cs):
        return _Ctx(self.engine, self.store, self.cache, self.stats,
                    self.pool, self.deadline, self.cfg, cs, self.adj,
                    self.masks)


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


def _check_deadline(ctx: _Ctx):
    if ctx.deadline is not None and time.monotonic() > ctx.deadline:
        raise SolveTimeout


def _search(m: DlxMatrix, ctx: _Ctx) -> int:
    """Compile the live part of ``m``, for any engine: its live rows are
    read into masks and ``m`` is left untouched.  For dyndxd, ``ctx``
    carries a ``cs`` over exactly those rows and their ``adj``."""
    live = m.live_row_ids()
    return _mask_root(MaskTables(m.live_col_mask.bit_length(),
                                 ((r, m.row_columns(r)) for r in live)),
                      m.live_col_mask, sum(1 << r for r in live), ctx)


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
    columns, only while the deadline has not passed."""
    ctx.masks = tables
    if ctx.engine == "dxz":
        _check_deadline(ctx)
        ctx.counts = ColumnCounts(tables, rows)
    return _mask_search(cols, rows, ctx)


def _mask_search(cols: int, rows: int, ctx: _Ctx, via=None) -> int:
    """Compile the subproblem ``(cols, rows)`` of ``ctx.masks``, reached
    by choosing row ``via`` (None at a root).  What a search keeps beside
    the masks (dxz's column counts, dyndxd's component set) moves to this
    state only when it is searched, and back once its node is built."""
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
        if via is not None and counts.starved(via, cols, rows):
            node = BOTTOM   # a column lost its last row: nothing covers it
        else:
            log = counts.enter(via, cols, rows) if via is not None else ()
            node = _mask_branch(cols, rows, counts.select(cols), ctx)
            counts.leave(log)
    else:
        r = t.single_full_row(cols, rows)
        if r is not None:
            node = ctx.store.mk_literal(r)
        elif ctx.cs is None:
            node = _mask_split(cols, rows, t.components(rows), ctx)
        else:
            node = _dyn_split(cols, rows, via, ctx)
    ctx.cache[cols] = node
    return node


def _dyn_split(cols: int, rows: int, via, ctx: _Ctx) -> int:
    """dyndxd's ``_mask_split``, with the components read from ``ctx.cs``:
    the rows that choosing ``via`` removed leave it in one batch, with
    their live edges, and come back in one batch once the node is
    built."""
    cs, adj = ctx.cs, ctx.adj
    if via is not None:
        gone = [r for r in _bits(ctx.masks.conflict[via]) if r in cs]
        edges = {_edge(r, s) for r in gone for s in adj[r] if s in cs}
        cs.dec_update(gone, edges)
    if len(cs) != rows.bit_count():
        raise AssertionError("component structure out of sync with search")
    comps = [sum(1 << r for r in c) for c in cs.partition()]
    node = _mask_split(cols, rows, comps, ctx)
    if via is not None:
        cs.inc_update(gone, edges)
    return node


def _mask_split(cols: int, rows: int, comps, ctx: _Ctx) -> int:
    """Join the components ``comps`` of ``rows`` if there are two or
    more, else branch on a minimum-size column."""
    if len(comps) >= 2:
        return _mask_decomposed(cols, comps, ctx)
    return _mask_branch(cols, rows, ctx.masks.select_column(cols, rows), ctx)


def _mask_branch(cols: int, rows: int, c: int, ctx: _Ctx) -> int:
    """Branch over the rows of column ``c``, chaining each satisfiable
    branch into a decision node: each child is a new pair of masks."""
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
    return _join([partial(_mask_component, c, rows, ctx)
                  for c, rows in zip(sub_cols, comps)],
                 [rows.bit_count() for rows in comps], ctx)


def _mask_component(cols: int, rows: int, ctx: _Ctx) -> int:
    """Search one component; dyndxd with a ComponentSet of its own."""
    if ctx.cs is not None:
        ctx = ctx.fork(_component_set(_bits(rows), ctx.adj))
    return _mask_search(cols, rows, ctx)


def _solve_root(inst, ctx: _Ctx) -> int:
    """Search the instance's masks; dyndxd first builds its row
    adjacency and the ComponentSet of every row, each only while the
    deadline has not passed."""
    if ctx.engine == "dyndxd":
        _check_deadline(ctx)
        ctx.adj = _row_adjacency(inst)
        _check_deadline(ctx)
        ctx.cs = _component_set(range(inst.n_rows), ctx.adj)
    return _mask_root(MaskTables.from_instance(inst),
                      (1 << inst.n_cols) - 1, (1 << inst.n_rows) - 1, ctx)


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
