"""Exact-cover compilation engines.

This docstring is the engines' contract: the rules that every engine
keeps are stated here once, and so is what each engine adds.

Three engines run one memoized depth-first search on row/column bitmasks
(``masks.MaskTables``), keyed on the live-column bitset and emitting
hash-consed diagram nodes.  A subproblem is a pair of ints, and a child
is a new pair, so the search undoes nothing but the state an engine
keeps beside the masks.  The search is one loop over an explicit stack
(``_mask_search``), so its depth is bounded by memory rather than by the
interpreter's recursion limit, which ``solve`` leaves alone.  A frame is
a searched state: a branch over the rows of its column, holding the
chain of decision nodes built so far, or a join of components, holding
their nodes so far.  It also holds what entering the state changed
beside the masks, to be undone once the state's node is built.

Every engine keeps the rules of dancing links, so dxd and dyndxd build
the same diagram with the same cache traffic, and each engine builds
the diagram that the search on a ``DlxMatrix`` would.  ``DlxMatrix``,
``bfs_components`` and ``decompose_matrix`` are that dancing-links
reference; no engine calls them.  The rules:

* **Column choice.**  A state branches on a column with the fewest live
  rows, ties to the smallest column id, and on its rows in ascending id
  order; each satisfiable row is chained into a decision node.
* **Dead ends.**  A state reached by a row in which some live column
  has no live row is not searched: it gets no frame and no cache entry,
  is not counted as a miss (``SolveStats.dead`` counts it), and its
  parent receives BOTTOM, as dancing links backtracks on an empty
  column.  The two columns that last starved a child of the same row
  (``MaskTables.starver``) are tested first, before the cache lookup,
  which could only miss; then the column choice finds the rest.  A dead
  end runs no component search.
* **Literals.**  A state with one live row that covers every live
  column is that row's literal: a cached miss with no frame and no
  column choice, whose node goes straight to its parent.
* **Cache.**  The cache holds live states only, so hits, misses and
  dead ends are what they are whatever the memo holds.  Its key, the
  live-column set, is sound because a row is live exactly when every
  column it interacts is live, so the live columns determine the
  subproblem.  Column ids are global even inside components, which lets
  all components share one cache and one node store.

What each engine adds:

* ``dxz``      output is a ZBDD.  The column sizes live in a
               ``masks.ColumnCounts``, recounted along each edge, in
               place of dxd's popcounts.  A dead end that the memo
               misses and that is entered on the counts has its column
               in bucket 0, and leaves the counts at once.  The counts
               only pay while a row choice leaves some live column out
               of its reach: the first state whose row can change every
               live count, and its whole subtree, choose the column by
               popcount (``MaskTables.select_column``), as dxd does, and
               enter nothing; the counts, untouched there, serve again
               once that state's node is built.
* ``dxd``      output is zero-suppressed decision-DNNF.  The column
               comes from ``select_column``, whose scan also finds a dead
               end's empty column.  When the live rows fall into >= 2
               connected components of the primal graph (rows adjacent
               iff they share a column, found by a flood fill over
               per-row conflict masks), it solves the components
               separately, in order of their smallest row, and joins
               them.  A state reached by a row is tested for an empty
               column before any flood fill; a live state that does not
               split branches on the column already chosen.  A root,
               reached by no row, runs the flood fill before it chooses
               a column.  A join's component, also reached by no row, is
               connected by construction and runs none.
               The join is a decomposable node unless the ZBDD chain of
               the components (each one's TOP replaced by the next
               component, see ``NodeStore.mk_join``) has strictly fewer
               reachable nodes: every ZBDD is already a decision-DNNF,
               so a join need not cost more than its chain.  On a tie
               the decomposable node stays (the worked example's root
               is still the join of its two components).
* ``dyndxd``   is dxd with the components maintained incrementally by a
               dynconn.ComponentSet instead of the flood fill, over the
               same row graph: its edges are read from the conflict
               masks, built once for every engine.  On entering a
               searched state (never a dead end), the rows that its row
               choice removed leave the set in one batch (with their
               incident edges, each given once), and come back in one
               batch once the state's node is built.  The solve
               keeps one ComponentSet, and a join and its components
               are searched against it: a join reads its components
               with ``find_cc``.

``solve`` is the one entry point; ``oracle`` is accepted as a fourth
engine name and dispatches to the brute-force enumerator for
ground-truth runs.  With ``threads > 1`` the root state alone may split
(cube and conquer): its children, the rows of its branch or the
components of its join, that hold at least ``_SPAWN_ROWS`` live rows
are dealt round-robin to the solve's process and to forked worker
processes.  A worker runs the same loop on its children from its copy of
the root state, with a cache and counters of its own, and sends back
their nodes, the nodes it interned and its counters; the parent interns
those (``NodeStore.adopt``) and builds the root's node as the loop
would.  Without ``os.fork`` the solve runs inline.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from functools import partial

from .diagram import BOTTOM, TOP, NodeStore, _bits
from .dlx import DlxMatrix
from .dynconn import ComponentSet
from .masks import ColumnCounts, MaskTables
from .oracle import enumerate_covers

ENGINES = ("dxz", "dxd", "dyndxd", "oracle")


class SolveTimeout(Exception):
    """Cooperative deadline exceeded."""


# A root child gets a worker process only with at least this many live
# rows: on a shared 2-vCPU x86-64 host a fork and reap costs 2.4-4.5 ms,
# and every root child of fewer rows that was measured searched in under
# 1 ms.
_SPAWN_ROWS = 512


@dataclass
class SolveConfig:
    engine: str = "dxz"
    threads: int = 1
    timeout_s: float | None = None


class SolveStats:
    """Search counters: cache hits and misses (a miss is a searched
    state), dead ends (states reached by a row with a live column left
    without rows, ended in their parent), components of joins and
    worker processes.  A worker process counts into a ``SolveStats`` of
    its own, which the parent adds in with its results."""

    def __init__(self):
        self.cache_hits = 0
        self.cache_misses = 0
        self.dead = 0
        self.subs = 0
        self.spawned = 0


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


class _Ctx:
    """What one search reads and writes besides its explicit stack.

    * ``engine``: "dxz", "dxd" or "dyndxd".
    * ``store``: the ``NodeStore`` the search interns its nodes into.
    * ``cache``: the node of each searched state, keyed by its column
      mask.  It holds no dead end: only the root may be cached BOTTOM
      for a column without rows.
    * ``stats``: the ``SolveStats`` the search counts into.
    * ``pool``: true while the root may still split over worker
      processes (``_split_root``).  False once the root's frame is
      pushed, when ``threads`` is 1 or ``os.fork`` is missing; None in
      the contexts that criterion 9 builds by hand.
      The slot keeps its place, fifth, because criterion 9 passes it
      positionally.
    * ``deadline``: the ``time.monotonic()`` past which the search raises
      ``SolveTimeout``, or None.
    * ``cfg``: the ``SolveConfig`` of the solve, whose ``threads``
      ``_split_root`` reads.
    * ``cs``: dyndxd only, the solve's one ComponentSet, whose edges are
      those of the row graph ``masks.conflict``; None for dxz and dxd.
      It holds the rows of the state being searched, and those of the
      components of its ancestors' joins that are not yet searched or
      were searched already; a forked worker has its own copy.
    * ``masks``: the ``MaskTables`` of the solve, set by ``_mask_root``.
    * ``counts``: dxz only, the ``ColumnCounts`` of its one search: the
      counts of the deepest state on the stack that was entered on them,
      which the states of a popcount subtree below it leave alone.
    """

    __slots__ = ("engine", "store", "cache", "stats", "pool", "deadline",
                 "cfg", "cs", "masks", "counts")

    def __init__(self, engine, store, cache, stats, pool, deadline, cfg,
                 cs=None, masks=None):
        self.engine = engine
        self.store = store
        self.cache = cache
        self.stats = stats
        self.pool = pool
        self.deadline = deadline
        self.cfg = cfg
        self.cs = cs
        self.masks = masks
        self.counts = None


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


def _component_set(conflict) -> ComponentSet:
    """The ComponentSet of every row of the row graph ``conflict``: bit s
    of ``conflict[r]`` (s != r) is the edge between rows r and s, which
    is given once, from its smaller end."""
    return ComponentSet(range(len(conflict)),
                        ((r, s) for r, m in enumerate(conflict)
                         for s in _bits(m) if s > r))


def _removed_edges(gone, conflict, cs) -> list:
    """The edges of ``cs`` at the rows ``gone``, read from the row graph
    ``conflict`` and each given once: an edge between two of them from
    the first one listed (a row's own bit is in ``done`` already)."""
    done = set()
    edges = []
    for r in gone:
        done.add(r)
        edges += [(r, s) for s in _bits(conflict[r])
                  if s in cs and s not in done]
    return edges


def _check_deadline(ctx: _Ctx):
    if ctx.deadline is not None and time.monotonic() > ctx.deadline:
        raise SolveTimeout


def _search(m: DlxMatrix, ctx: _Ctx) -> int:
    """Compile the live part of ``m``, for any engine: its live rows are
    read into masks and ``m`` is left untouched.  For dyndxd, ``ctx``
    carries a ``cs`` over exactly those rows and the edges between them
    that ``MaskTables.conflict`` gives: rows that share a column."""
    live = m.live_row_ids()
    if ctx.cs is not None and len(ctx.cs) != len(live):
        raise AssertionError("component structure out of sync with search")
    return _mask_root(MaskTables(m.live_col_mask.bit_length(),
                                 ((r, m.row_columns(r)) for r in live)),
                      m.live_col_mask, sum(1 << r for r in live), ctx)


def _mask_root(tables: MaskTables, cols: int, rows: int, ctx: _Ctx) -> int:
    """Search ``(cols, rows)`` of ``tables``; dxz first counts its
    columns, only while the deadline has not passed."""
    ctx.masks = tables
    if ctx.engine == "dxz":
        _check_deadline(ctx)
        ctx.counts = ColumnCounts(tables, rows)
    return _mask_search(cols, rows, ctx)


def _mask_search(cols: int, rows: int, ctx: _Ctx, via=None,
                 joined=False) -> int:
    """Compile the subproblem ``(cols, rows)`` of ``ctx.masks``, reached
    by choosing row ``via`` (None at a root, or with ``joined`` set, at a
    component of a join).  A frame of the stack is a list
    ``[cols, rows, undo, todo, i, node, parts]``:
    ``todo`` is a bitmask of the children not searched yet and ``i`` the
    one being searched.  A branch (``parts`` None) has the rows of its
    column as children and chains each satisfiable one into ``node`` as
    it returns.  A join replaces each of its components in ``parts`` by
    its node and runs ``mk_join`` after the last.  A literal (one live
    row, covering every live column) is tested first, for every engine:
    a cached miss with no frame, its node goes straight to its parent.
    Each state calls ``_check_deadline``, not an inlined test, so that
    tests can replace it to stop a worker or the parent at a chosen
    state; dyndxd's ``dec_update`` and ``inc_update`` call it too,
    before each cut and link of their batch.  ``undo`` is dxz's
    ``ColumnCounts`` log, or the rows and edges that dyndxd's row choice
    removed from ``ctx.cs``; the components of a join are searched
    against the same set, and each leaves it as it found it.  A join's
    component is connected by construction, so its state runs no flood
    fill and no ``find_cc`` walk.
    A state reached by row ``via`` is a dead end when a live column has
    no live row.  It is found by the memo's two columns for ``via``,
    tested before the cache, or else by the chosen column, which then
    takes the memo's first slot.  A dead end pushes no frame and leaves
    no cache entry: BOTTOM goes straight to its parent, after a dxz
    child entered on the counts has left them again.  It runs no
    component search, sets no popcount subtree and counts in
    ``stats.dead``, not in ``stats.cache_misses``.
    A dxz state whose row ``via`` reaches every live column is not
    entered on the counts: it and its subtree branch on popcounts, with
    ``undo`` None, until its frame is popped.
    While ``ctx.pool`` is set, the first frame, the root's, may split
    over worker processes (``_split_root``)."""
    t = ctx.masks
    col_rows, row_cols, conflict = t.col_rows, t.row_cols, t.conflict
    last, prev = t.starver
    store, cache, stats, counts = ctx.store, ctx.cache, ctx.stats, ctx.counts
    reach = None if counts is None else counts.reach
    cs, split = ctx.cs, ctx.pool
    check = partial(_check_deadline, ctx)   # also inside dynconn's batches
    stack = []
    uncounted = -1      # depth of dxz's first frame off its counts, or -1
    while True:
        # enter (cols, rows), reached by choosing row via (None at a root)
        _check_deadline(ctx)
        if not cols:
            node = TOP
        elif via is not None and (c := last[via]) >= 0 and (
                not col_rows[c] & rows and cols >> c & 1
                or (c := prev[via]) >= 0 and not col_rows[c] & rows
                and cols >> c & 1):
            # a column that starved an earlier child of via starves this
            # one too (in this order: shifting a wide cols costs most).
            # prev[via] is set only once last[via] is
            stats.dead += 1
            node = BOTTOM
        elif (node := cache.get(cols)) is not None:
            stats.cache_hits += 1
        else:
            node = BOTTOM
            undo = parts = None
            todo = 0
            dead = False
            if (r := t.single_full_row(cols, rows)) is not None:
                node = store.mk_literal(r)
            elif counts is not None and uncounted < 0 and (
                    via is None or (near := reach(via)) & cols != cols):
                if via is not None:
                    undo = counts.enter(near, cols, rows)
                c = counts.select(cols)
                todo = col_rows[c] & rows
                if not todo and via is not None:
                    counts.leave(undo)      # a dead child is left at once
                    dead = True
            else:
                comps = ()
                if via is not None:
                    c = t.select_column(cols, rows)
                    todo = col_rows[c] & rows
                    dead = not todo
                if dead:
                    pass        # no component search, nothing to undo
                elif counts is not None:
                    # dxz at or below a state whose row can change every
                    # live count: a branch on popcounts, entering nothing,
                    # until that state's frame is popped
                    if uncounted < 0:
                        uncounted = len(stack)
                elif joined:
                    pass        # a join's component is connected already
                elif cs is None:
                    comps = t.components(rows)
                else:
                    if via is not None:
                        gone = [r for r in _bits(conflict[via]) if r in cs]
                        undo = gone, _removed_edges(gone, conflict, cs)
                        cs.dec_update(*undo, check)
                    comps = []
                    left = rows
                    while left:
                        r = (left & -left).bit_length() - 1
                        m = sum(1 << s for s in cs.find_cc(r).vertices)
                        if m & ~left:
                            raise AssertionError(
                                "component structure out of sync with search")
                        comps.append(m)
                        left ^= m
                if len(comps) >= 2:
                    parts = [(t.columns_of(m), m) for m in comps]
                    covered = sum(c.bit_count() for c, _ in parts)
                    if covered == cols.bit_count():
                        stats.subs += len(comps)
                        todo = (1 << len(parts)) - 1
                    else:
                        parts = None    # a root's column interacts no row
                elif via is None:
                    todo = col_rows[t.select_column(cols, rows)] & rows
            if dead:
                # BOTTOM for the parent, with no frame and no cache entry;
                # c goes first in via's memo
                prev[via] = last[via]
                last[via] = c
                stats.dead += 1
            elif node != BOTTOM:        # a literal: a miss with no frame
                stats.cache_misses += 1
                cache[cols] = node
            else:
                stats.cache_misses += 1
                stack.append([cols, rows, undo, todo, -1, node, parts])
                if split:
                    ctx.pool = split = False    # only the root's may split
                    node = _split_root(stack[0], ctx)
                    if node is not None:
                        return node
                node = None
        # give node to its parent frame, and pop each frame that is done,
        # until one has a child left to search
        while stack:
            f = stack[-1]
            parts = f[6]
            if node is not None:        # else the frame was just entered
                if parts is not None:
                    parts[f[4]] = node
                elif node != BOTTOM:
                    f[5] = store.mk_decision(f[4], node, f[5])
            todo = f[3]
            if todo:
                low = todo & -todo
                f[3] = todo ^ low
                i = f[4] = low.bit_length() - 1
                if parts is None:
                    # ^ is cheaper than & ~; row i's columns are live
                    cols, rows = f[0] ^ row_cols[i], f[1]
                    rows ^= rows & conflict[i]
                    via, joined = i, False
                else:
                    (cols, rows), via, joined = parts[i], None, True
                break
            stack.pop()
            if len(stack) == uncounted:
                uncounted = -1          # the counts are the parent's again
            cols, _, undo, _, _, node, parts = f
            if parts is not None:
                node = store.mk_join(parts)
            if undo is not None:
                if counts is not None:
                    counts.leave(undo)
                else:
                    cs.inc_update(*undo, check)
            cache[cols] = node
        else:
            return node         # the stack is empty: node is the root's


def _worker_count(threads: int, qualifying: int, cpus) -> int:
    """Worker processes for a root split with ``qualifying`` children of
    ``_SPAWN_ROWS`` live rows: fewer than ``threads`` and than the
    ``cpus`` (but one on a single CPU), and fewer than the children, so
    that the parent keeps one.  Less than 1 means no split."""
    return min(threads - 1, max(1, (cpus or 1) - 1), qualifying - 1)


def _usable_cpus():
    """The CPUs this process may run on, as ``taskset`` sets them."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count()
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _split_root(frame, ctx: _Ctx):
    """Search the children of the root's ``frame`` over forked worker
    processes and return the root's node, built as the loop builds it;
    or return None, leaving the frame to the loop, when fewer than two
    children hold ``_SPAWN_ROWS`` live rows.  Those children are
    dealt round-robin to this process and the workers; this process
    also keeps the others.  Every worker is reaped before this returns,
    and killed first if it leaves by an exception."""
    cols, rows, _, todo, _, _, parts = frame
    t = ctx.masks
    if parts is not None:       # a join searches all its components
        kids = [(i, c, m, None) for i, (c, m) in enumerate(parts)]
    else:                       # (i, cols, rows, via) per child, ascending
        kids = []
        while todo:
            i = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            kids.append((i, cols & ~t.row_cols[i], rows & ~t.conflict[i], i))
    big = [k for k in kids if k[2].bit_count() >= _SPAWN_ROWS]
    n = _worker_count(ctx.cfg.threads, len(big), _usable_cpus())
    if n < 1:
        return None
    shares = [big[w::n + 1] for w in range(1, n + 1)]
    dealt = {k[0] for share in shares for k in share}
    store, stats = ctx.store, ctx.stats
    base = len(store)
    parent, prctl = os.getpid(), _prctl()
    nodes = {}
    procs = []                  # [pid, read end of its pipe or None]
    try:
        for share in shares:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    _worker(share, base, w, ctx, parent, prctl)  # exits
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            procs.append([pid, r])
        stats.spawned += n
        for i, c, m, via in kids:
            if i not in dealt:
                nodes[i] = _mask_search(c, m, ctx, via, via is None)
        for p in procs:
            with open(p[1], "rb") as f:
                p[1] = None
                data = f.read()
            if not data:
                raise RuntimeError(f"worker process {p[0]} sent no result")
            msg = pickle.loads(data)
            if isinstance(msg, BaseException):
                raise msg
            found, entries, worker = msg
            ids = store.adopt(entries, base)
            for i, node in found:
                nodes[i] = ids[node]
            for name, value in vars(worker).items():
                setattr(stats, name, getattr(stats, name) + value)
    except BaseException:
        for pid, _ in procs:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in procs:
            if fd is not None:
                os.close(fd)
            os.waitpid(pid, 0)
    if parts is not None:
        node = store.mk_join([nodes[i] for i in range(len(parts))])
    else:
        node = BOTTOM
        for i in sorted(nodes):
            node = store.mk_decision(i, nodes[i], node)
    return node


_PR_SET_PDEATHSIG = 1


def _prctl():
    """Linux's ``prctl`` through ctypes, which only a solve that forks
    imports; None where the C library has none."""
    import ctypes
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError):
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl


def _worker(kids, base: int, fd: int, ctx: _Ctx, parent: int, prctl):
    """A forked worker's life: search ``kids`` from the forked root state
    with counters of its own, pickle to ``fd`` their nodes, the nodes
    interned since the store held ``base`` and the counters (or the
    exception raised), and exit without returning.  The worker is killed
    when its ``parent`` dies, even by a signal that the parent cannot
    catch (``prctl``, where there is one); a parent that died before the
    request was made is seen in ``os.getppid``."""
    code = 1
    try:
        if prctl is not None:
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent:
            return
        try:
            ctx.stats = SolveStats()
            found = [(i, _mask_search(c, m, ctx, via, via is None))
                     for i, c, m, via in kids]
            store = ctx.store
            msg = (found, [store.entry(n) for n in range(base, len(store))],
                   ctx.stats)
        except BaseException as exc:
            msg = exc
        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as f:
            f.write(data)
        code = 0
    finally:
        os._exit(code)


def _solve_root(inst, ctx: _Ctx) -> int:
    """Search the instance's masks; dyndxd first builds the ComponentSet
    of every row from their conflict masks, only while the deadline has
    not passed."""
    tables = MaskTables.from_instance(inst)
    if ctx.engine == "dyndxd":
        _check_deadline(ctx)
        ctx.cs = _component_set(tables.conflict)
    return _mask_root(tables, (1 << inst.n_cols) - 1,
                      (1 << inst.n_rows) - 1, ctx)


def solve(inst, config: SolveConfig | None = None) -> SolveReport:
    """Count and compile the exact covers of an instance."""
    cfg = config if config is not None else SolveConfig()
    if cfg.engine not in ENGINES:
        raise ValueError(f"unknown engine {cfg.engine!r}")
    if not isinstance(cfg.threads, int) or cfg.threads < 1:
        raise ValueError("threads must be an integer >= 1")
    if cfg.timeout_s is not None and not cfg.timeout_s >= 0:   # NaN too
        raise ValueError("timeout_s must be a number >= 0")
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
        split = cfg.threads > 1 and hasattr(os, "fork")
        # no name holds the context, so its cache, masks, counts and
        # ComponentSet are freed before the post-passes run
        root = _solve_root(inst, _Ctx(cfg.engine, store, {}, stats, split,
                                      deadline, cfg))
        reach = store.reachable(root)   # one walk for count and nodes
        report = SolveReport(engine=cfg.engine, threads=cfg.threads,
                             count=store.count(root, reach), root=root,
                             store=store, stats=stats, time_ms=0.0,
                             nodes=len(reach))
    report.time_ms = (time.perf_counter() - t0) * 1000.0
    return report
