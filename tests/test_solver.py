import gc
import inspect
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import xcover
from xcover import solver
from xcover.diagram import BOTTOM, NodeStore, _bits
from xcover.dlx import DlxMatrix
from xcover.dynconn import ComponentSet
from xcover.gen import GenConfig, block_diagonal, generate
from xcover.instance import Instance, serialize_instance
from xcover.masks import ColumnCounts, MaskTables
from xcover.oracle import count_covers, enumerate_covers
from xcover.solver import (ENGINES, SolveConfig, SolveStats, SolveTimeout,
                           _Ctx, _search, _worker_count, bfs_components,
                           decompose_matrix, solve)

from conftest import (DEMO_COVERS, aztec, chorded_rings, dlx_search,
                      domino_count, dominoes, langford, pentomino_instance,
                      random_instance, row_edges)
from test_acceptance import corpus

DIAGRAM_ENGINES = ("dxz", "dxd", "dyndxd")


def run(inst, engine, **kw):
    return solve(inst, SolveConfig(engine=engine, **kw))


def traffic_of(rep):
    """A report's counters in the order of ``dlx_search``'s traffic."""
    st = rep.stats
    return st.subs, st.cache_hits, st.cache_misses, st.dead


@pytest.mark.parametrize("engine", DIAGRAM_ENGINES)
def test_demo_counts_and_members(demo, engine):
    rep = run(demo, engine)
    assert rep.count == 4
    assert rep.store.enumerate(rep.root) == DEMO_COVERS
    assert rep.nodes == rep.store.node_count(rep.root) == 7
    rep.store.validate(rep.root)
    rep.store.check_canonical()


def test_demo_engine_specific_shape(demo):
    dxz = run(demo, "dxz")
    assert dxz.store.kind(dxz.root) == "D"
    # the {4,5} submatrix is reached from both branches of column 0
    assert (dxz.stats.cache_hits, dxz.stats.cache_misses) == (1, 4)
    assert dxz.stats.subs == 0

    dxd = run(demo, "dxd")
    assert dxd.store.kind(dxd.root) == "X"
    kids = dxd.store.entry(dxd.root)[1]
    assert [dxd.store.variables(k) for k in kids] == [{0, 1, 2}, {3, 4, 5}]
    assert [dxd.store.count(k) for k in kids] == [2, 2]
    assert dxd.stats.subs == 2
    assert (dxd.stats.cache_hits, dxd.stats.cache_misses) == (0, 5)

    dyn = run(demo, "dyndxd")
    assert dyn.root == dxd.root  # same construction order, same store shape
    assert dyn.stats.subs == 2


def test_oracle_engine(demo):
    rep = run(demo, "oracle")
    assert rep.count == 4
    assert rep.root is None and rep.store is None
    assert rep.nodes == 0


def test_condemo_validation(demo, monkeypatch):
    assert ENGINES == ("dxz", "dxd", "dyndxd", "oracle")
    with pytest.raises(ValueError):
        run(demo, "dlx")
    for threads in (0, 2.5):
        with pytest.raises(ValueError):
            run(demo, "dxz", threads=threads)
    monkeypatch.setattr(solver, "_SPAWN_ROWS", 0)
    assert run(demo, "dxd", threads=2).count == 4


def test_no_cover_instance():
    inst = Instance.build(["a", "b"], [("R0", [0])])
    for engine in DIAGRAM_ENGINES:
        rep = run(inst, engine)
        assert rep.count == 0
        assert rep.root == 0  # BOTTOM
        assert rep.nodes == 1


def test_empty_column_stops_decomposition():
    # rows {0} and {2} are independent but column 1 interacts nothing
    inst = Instance.build(["a", "b", "c"], [("A", [0]), ("B", [2])])
    for engine in ("dxd", "dyndxd"):
        rep = run(inst, engine)
        assert rep.count == 0
        assert rep.stats.subs == 0  # no join is built for a dead state


def test_connected_instance_never_decomposes():
    inst = Instance.build(["a", "b"], [("R0", [0, 1]), ("R1", [0]), ("R2", [1])])
    for engine in ("dxd", "dyndxd"):
        rep = run(inst, engine)
        assert rep.count == 2
        assert rep.stats.subs == 0


# the root branches on column 0.  Choosing R0 leaves R1 and R2, two
# components, but column 4 with no row: a dead end
DEAD_END_ROWS = [[0, 2], [1], [3], [2, 4], [1, 2, 3], [0, 4]]


def test_dead_state_ends_before_its_components(monkeypatch):
    # R0's child is BOTTOM before any flood fill or dynconn batch, and
    # ends in its parent, uncached.  R5's child is live and searched
    inst = Instance.build([f"c{c}" for c in range(5)],
                          [(f"R{i}", r) for i, r in enumerate(DEAD_END_ROWS)])
    fills, batches = [], []
    components = MaskTables.components
    root_parts = MaskTables.root_parts
    dec_update = ComponentSet.dec_update

    def fill(self, rows):
        fills.append(sorted(_bits(rows)))
        return components(self, rows)

    def root_fill(self, cols, rows):
        fills.append(sorted(_bits(rows)))
        return root_parts(self, cols, rows)

    def batch(self, gone, edges, check=None):
        batches.append(sorted(gone))
        return dec_update(self, gone, edges, check)

    monkeypatch.setattr(MaskTables, "components", fill)
    monkeypatch.setattr(MaskTables, "root_parts", root_fill)
    monkeypatch.setattr(ComponentSet, "dec_update", batch)
    store, root, traffic = dlx_search(inst, decompose=True)
    assert traffic[0] == 0 and traffic[3] == 1  # no join; one dead end
    searches = {}
    for engine in ("dxd", "dyndxd"):
        fills.clear()
        batches.clear()
        rep = run(inst, engine)
        assert rep.count == 1
        assert rep.store.dump(rep.root) == store.dump(root)
        assert traffic_of(rep) == traffic
        searches[engine] = list(fills), list(batches)
    # dxd fills the root and R5's child; dyndxd fills the root and
    # removes R5's conflicts
    assert searches["dxd"] == ([[0, 1, 2, 3, 4, 5], [1, 2, 4]], [])
    assert searches["dyndxd"] == ([[0, 1, 2, 3, 4, 5]], [[0, 3, 5]])


def test_bfs_components(demo):
    m = DlxMatrix.from_instance(demo)
    assert bfs_components(m) == [[0, 1, 2], [3, 4, 5]]
    m.cover(0)  # removes rows A, B; C stays alone on columns 1,2
    assert bfs_components(m) == [[2], [3, 4, 5]]
    m.uncover(0)
    subs = decompose_matrix(m, [[0, 1, 2], [3, 4, 5]])
    assert [s.live_columns() for s in subs] == [[0, 1, 2, 3], [4, 5]]
    assert [s.live_row_ids() for s in subs] == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(ValueError):
        decompose_matrix(m, [[0, 1], [3, 4, 5]])


def test_solve_restores_matrix(demo):
    # run all engines twice to make sure nothing leaks between runs
    for engine in DIAGRAM_ENGINES:
        assert run(demo, engine).count == 4
        assert run(demo, engine).count == 4


@pytest.mark.parametrize("engine", DIAGRAM_ENGINES)
def test_timeout_raises(demo, engine):
    big = block_diagonal(demo, 4)
    with pytest.raises(SolveTimeout):
        run(big, engine, timeout_s=1e-9)


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_timeout_raises(demo, engine):
    # timeout_s=0 is a deadline that has already passed, not "no deadline"
    with pytest.raises(SolveTimeout):
        run(demo, engine, timeout_s=0)
    for timeout_s in (-1, float("nan"), "5", 10**400):
        with pytest.raises(ValueError):
            run(demo, engine, timeout_s=timeout_s)


def test_dyndxd_zero_timeout_builds_no_adjacency(demo, monkeypatch):
    # an expired deadline ends a dyndxd solve before its ComponentSet,
    # the one structure its setup adds to every engine's masks, is built
    def built(conflict):
        raise AssertionError("ComponentSet built after the deadline")

    monkeypatch.setattr("xcover.solver._component_set", built)
    with pytest.raises(SolveTimeout):
        run(demo, "dyndxd", timeout_s=0)


def test_dxz_zero_timeout_builds_no_column_counts(demo, monkeypatch):
    # an expired deadline ends a dxz solve before its column counts exist
    def built(tables, rows):
        raise AssertionError("ColumnCounts built after the deadline")

    monkeypatch.setattr("xcover.solver.ColumnCounts", built)
    with pytest.raises(SolveTimeout):
        run(demo, "dxz", timeout_s=0)


def test_dyndxd_deadline_checked_between_setup_steps(demo, monkeypatch):
    # a deadline that passes while the masks are built ends the solve
    # before the ComponentSet is built
    from_instance = MaskTables.from_instance

    def slow(inst):
        time.sleep(0.3)
        return from_instance(inst)

    def built(conflict):
        raise AssertionError("ComponentSet built after the deadline")

    monkeypatch.setattr(MaskTables, "from_instance", slow)
    monkeypatch.setattr("xcover.solver._component_set", built)
    with pytest.raises(SolveTimeout):
        run(demo, "dyndxd", timeout_s=0.1)


def test_dyndxd_setup_holds_one_row_graph(monkeypatch):
    # dyndxd's ComponentSet reads its edges from the masks' conflict rows,
    # which every engine builds: once setup is done, a solve of
    # pentomino 3x10 holds 10.4 MiB, where a second copy of the row graph
    # as a dict of sets beside the masks held 19.2 MiB
    class Stop(Exception):
        pass

    held = []

    def stop(tables, cols, rows, ctx):
        held.append(tracemalloc.get_traced_memory()[0])
        raise Stop

    inst = pentomino_instance(3, 10)
    monkeypatch.setattr(solver, "_mask_root", stop)
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            run(inst, "dyndxd")
    finally:
        tracemalloc.stop()
    assert held[0] < 14.75 * 2 ** 20


def test_timeout_with_threads(demo, monkeypatch):
    monkeypatch.setattr(solver, "_SPAWN_ROWS", 1)
    big = block_diagonal(demo, 6)
    with pytest.raises(SolveTimeout):
        run(big, "dyndxd", threads=4, timeout_s=1e-9)


# Solves in a child process, so a solve that ignores its deadline is
# killed instead of stalling the suite.
TIMEOUT_CHILD = """\
import sys, time
from xcover.instance import parse_instance
from xcover.solver import SolveConfig, SolveTimeout, solve
inst = parse_instance(sys.stdin.read())
t0 = time.monotonic()
try:
    solve(inst, SolveConfig(engine="dyndxd", timeout_s=2))
except SolveTimeout:
    print("SolveTimeout", time.monotonic() - t0)
"""


def test_dyndxd_timeout_inside_a_branch():
    # on pentomino 3x20 a single state's dynconn batch runs for seconds
    # between two deadline checks; the deadline must still end the solve
    src = str(Path(xcover.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    try:
        out = subprocess.run([sys.executable, "-c", TIMEOUT_CHILD],
                             input=serialize_instance(pentomino_instance()),
                             capture_output=True, text=True, env=env,
                             timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("dyndxd with timeout_s=2 still running after 60 s")
    assert out.returncode == 0, out.stderr
    verdict, seconds = out.stdout.split()
    assert verdict == "SolveTimeout"
    assert float(seconds) < 15


@pytest.mark.parametrize("batch", ["dec_update", "inc_update"])
def test_dyndxd_checks_the_deadline_inside_a_batch(monkeypatch, batch):
    # a dynconn batch checks the deadline before each cut and link: a
    # check that fails only inside the batch ends the solve from there.
    # Choosing AB removes every other row, cutting their spanning tree
    inst = Instance.build(["a", "b"], [("A1", [0]), ("A2", [0]),
                                       ("B1", [1]), ("B2", [1]),
                                       ("AB", [0, 1])])
    assert run(inst, "dyndxd").count == 5

    def inside_batch(ctx):
        if any(f.function == batch for f in inspect.stack(0)):
            raise SolveTimeout

    monkeypatch.setattr(solver, "_check_deadline", inside_batch)
    with pytest.raises(SolveTimeout) as exc:
        run(inst, "dyndxd")
    assert exc.traceback[-2].name == batch


def test_dyn_components_check_sync_with_matrix(demo):
    # the ComponentSet must hold exactly the matrix's live rows; an extra
    # isolated row 6 must not be hidden from the check
    cs = ComponentSet(range(7), row_edges(demo))
    ctx = _Ctx("dyndxd", NodeStore(), {}, SolveStats(), None, None,
               SolveConfig(engine="dyndxd"), cs)
    with pytest.raises(AssertionError):
        _search(DlxMatrix.from_instance(demo), ctx)
    # as many rows as the matrix, but row 6 in place of row 5
    cs = ComponentSet([0, 1, 2, 3, 4, 6],
                      [e for e in row_edges(demo) if 5 not in e])
    ctx = _Ctx("dyndxd", NodeStore(), {}, SolveStats(), None, None,
               SolveConfig(engine="dyndxd"), cs)
    with pytest.raises(AssertionError):
        _search(DlxMatrix.from_instance(demo), ctx)


@pytest.mark.parametrize("threads", [1, 2])
def test_dyndxd_builds_one_component_set(demo, monkeypatch, threads):
    # a join's components are searched against the solve's ComponentSet,
    # not against sets of their own; with threads=2 the parent keeps a
    # component of the root's join (a worker's sets are not counted here)
    built = []
    init = ComponentSet.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(ComponentSet, "__init__", counted)
    monkeypatch.setattr(solver, "_SPAWN_ROWS", 1)
    rep = run(block_diagonal(demo, 3), "dyndxd", threads=threads)
    assert rep.count == 4 ** 3 and rep.stats.subs == 6
    assert len(built) == 1


@pytest.mark.parametrize("engine, cls, name", [
    ("dxd", MaskTables, "components"),
    ("dyndxd", ComponentSet, "find_cc"),
])
def test_split_join_components_search_no_components(demo, monkeypatch,
                                                    engine, cls, name):
    # a component of the root's join is connected by construction, in the
    # root split as in the loop: the solving process finds the root's
    # parts with one root_parts call and never runs the engine's own
    # component search, as with threads=1 (a worker's calls are not
    # counted here)
    log = []
    log_calls(monkeypatch, log, (cls, name, "search"),
              (MaskTables, "root_parts", "root"))
    big = block_diagonal(demo, 3)
    ref = run(big, engine)
    assert log == ["root"]
    log.clear()
    monkeypatch.setattr(solver, "_SPAWN_ROWS", 1)
    rep = run(big, engine, threads=2)
    assert rep.stats.spawned > 0 and log == ["root"]
    assert traffic_of(rep) == traffic_of(ref)
    # node ids follow the order the processes intern in, so the diagrams
    # are compared by size and covers, not by dump
    assert rep.nodes == ref.nodes
    assert rep.store.enumerate(rep.root) == ref.store.enumerate(ref.root)


def test_dyndxd_updates_components_only_on_searched_states(monkeypatch):
    # a state found in the cache must not touch the ComponentSet: at most
    # one deletion batch per searched state
    calls = []
    dec_update = ComponentSet.dec_update

    def counted(self, *args):
        calls.append(None)
        return dec_update(self, *args)

    monkeypatch.setattr(ComponentSet, "dec_update", counted)
    inst = generate(chorded_rings(2), GenConfig(fraction=0.3, seed=1))
    rep = run(inst, "dyndxd")
    assert rep.count == count_covers(inst, cap=10 ** 4) == 1490
    assert rep.stats.cache_hits > 0
    assert 0 < len(calls) <= rep.stats.cache_misses


def test_block_diagonal_product_counts(demo):
    big = block_diagonal(demo, 10)
    for engine in ("dxd", "dyndxd"):
        rep = run(big, engine)
        assert rep.count == 4 ** 10
        assert rep.stats.subs >= 10


SEPARATION_ROWS = ([0], [0, 2, 3], [0, 2], [0], [3], [3], [0, 3],
                   [0, 1, 2, 3], [2, 3], [1])


def test_separation_family_shapes():
    # the paper's claim that decision-ZDNNF is strictly more succinct
    # than ZBDDs, on k disjoint copies of one 6-cover block: the
    # decomposable engines grow by a constant per block, the ZBDD at
    # least doubles
    rows = [(f"R{i}", r) for i, r in enumerate(SEPARATION_ROWS)]
    base = Instance.build([f"C{c}" for c in range(4)], rows)
    nodes = {engine: [] for engine in DIAGRAM_ENGINES}
    for k in range(1, 11):
        inst = block_diagonal(base, k)
        for engine in DIAGRAM_ENGINES:
            rep = run(inst, engine)
            assert rep.count == 6 ** k
            nodes[engine].append(rep.nodes)
    dxd, dxz = nodes["dxd"], nodes["dxz"]
    assert nodes["dyndxd"] == dxd
    assert dxd[1:] == list(range(20, 93, 9))           # k = 2..10
    assert all(b >= 2 * a for a, b in zip(dxz[1:], dxz[2:]))    # k = 2..9
    assert dxz[-1] == 9209


def test_sparse_families_match_their_closed_forms():
    # connected instances whose covers are counted without any engine:
    # every board up to 6x8 by its transfer matrix, Aztec diamonds and
    # Langford pairs (n = 5 and 6 have none, found by a real search)
    assert domino_count(8, 8) == 12988816
    cases = [(dominoes(m, n), domino_count(m, n))
             for m in range(1, 7) for n in range(1, 9)]
    cases += [(aztec(n), 2 ** (n * (n + 1) // 2)) for n in range(1, 6)]
    cases += [(langford(n), want)
              for n, want in zip(range(3, 9), (2, 2, 0, 0, 52, 300))]
    for inst, want in cases:
        for engine in DIAGRAM_ENGINES:
            assert run(inst, engine).count == want


def test_pentomino_dxd_search_pinned(monkeypatch):
    # of the 18,602 states that dxd reaches, 12,394 are dead ends: they
    # end in their parent, uncached, and only the 5,304 live misses are
    # searched.  dxd scans the columns of at most 7,300 states: the
    # starver memo ends most dead ends after one test.  A dead end ends
    # before its flood fill, so at most 5,400 states run one
    log = []
    log_calls(monkeypatch, log, (MaskTables, "select_column", "select"),
              (MaskTables, "components", "fill"))
    rep = run(pentomino_instance(), "dxd")
    assert (rep.count, rep.nodes, rep.stats.subs) == (8, 75, 8)
    assert (rep.stats.cache_hits, rep.stats.cache_misses,
            rep.stats.dead) == (904, 5304, 12394)
    assert log.count("select") <= 7300
    assert log.count("fill") <= 5400


@pytest.mark.parametrize("engine", ["dxd", "dyndxd"])
def test_ladder_join_components_run_no_component_search(
        demo, monkeypatch, engine):
    # block_diagonal(demo, 400) splits at the root into 800 components,
    # each connected by construction: one root_parts call finds them all
    # with their columns, and no state runs a component search or reads
    # its columns
    log = []
    log_calls(monkeypatch, log, (MaskTables, "root_parts", "root"),
              (MaskTables, "components", "fill"),
              (ComponentSet, "find_cc", "walk"),
              (MaskTables, "columns_of", "columns"))
    rep = run(block_diagonal(demo, 400), engine)
    assert rep.count == 4 ** 400 and rep.stats.subs == 800
    assert log == ["root"]


def test_pentomino_dxz_search_pinned(pentomino_dxz):
    rep = pentomino_dxz
    assert (rep.count, rep.nodes, rep.stats.subs) == (8, 75, 0)
    assert (rep.stats.cache_hits, rep.stats.cache_misses,
            rep.stats.dead) == (902, 5298, 12386)


def log_calls(monkeypatch, log, *methods):
    """Patch each ``(cls, name, tag)`` so that a call appends ``tag`` to
    ``log`` before it runs."""
    for cls, name, tag in methods:
        def logged(self, *args, _f=getattr(cls, name), _tag=tag):
            log.append(_tag)
            return _f(self, *args)

        monkeypatch.setattr(cls, name, logged)


KERNEL_CALLS = ((ColumnCounts, "enter", "enter"),
                (MaskTables, "select_column", "select_column"))


def test_pentomino_dxz_ends_starved_states_uncounted(monkeypatch):
    # below the root's children on pentomino 3x20, a chosen row reaches
    # every live column, so dxz's counts would be rewritten on nearly
    # every edge: those states branch on popcounts (select_column, which
    # also finds an empty column) and nothing is entered; the counts
    # serve only the root's 18 children, where a row choice leaves some
    # live column out of reach, 2 of them dead (their chosen column is
    # empty, and they are left at once).  The two-slot memo ends most
    # dead ends below them before any column scan
    log = []
    log_calls(monkeypatch, log, *KERNEL_CALLS)
    rep = run(pentomino_instance(), "dxz")
    assert (rep.count, rep.nodes) == (8, 75)
    assert (rep.stats.cache_hits, rep.stats.cache_misses,
            rep.stats.dead) == (902, 5298, 12386)
    assert {tag: log.count(tag) for _, _, tag in KERNEL_CALLS} == \
        {"enter": 18, "select_column": 7259}


def test_ladder_dxz_keeps_its_counts(demo, monkeypatch):
    # on block_diagonal(demo, 400) a row choice touches one block of
    # columns, so every state is entered on the counts but one, in the
    # last block, which is a literal and chooses no column
    log = []
    log_calls(monkeypatch, log, *KERNEL_CALLS)
    rep = run(block_diagonal(demo, 400), "dxz")
    assert rep.count == 4 ** 400
    assert (log.count("enter"), log.count("select_column")) == (1598, 0)


@pytest.mark.parametrize("engine", DIAGRAM_ENGINES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_row_state_is_a_literal_in_every_engine(demo, monkeypatch,
                                                    engine, k):
    # a state whose one live row covers every live column is cached as
    # that row's literal, and no column choice runs on it, in every
    # engine.  dxz meets one, F's child once only the last block's column
    # 6 is live; dxd and dyndxd two per block, one in each component
    chosen = []
    for cls, name in ((MaskTables, "select_column"), (ColumnCounts, "select")):
        def logged(self, cols, *args, _f=getattr(cls, name)):
            chosen.append(cols)
            return _f(self, cols, *args)

        monkeypatch.setattr(cls, name, logged)
    cache = {}
    ctx = _Ctx(engine, NodeStore(), cache, SolveStats(), None, None,
               SolveConfig(engine=engine))
    solver._solve_root(block_diagonal(demo, k), ctx)
    row_cols = ctx.masks.row_cols
    literals = 0
    for key, node in cache.items():
        live = [r for r, m in enumerate(row_cols) if not m & ~key]
        if len(live) == 1 and row_cols[live[0]] == key:
            assert ctx.store.entry(node) == ("L", live[0])
            assert key not in chosen
            literals += 1
    assert literals == (1 if engine == "dxz" else 2 * k)


# choosing R0 kills R6, which spans four columns, so R0's reach covers
# every live column and its child branches on popcounts; below it, R3's
# reach leaves columns out
POPCOUNT_ROWS = [[0, 2, 4], [1, 3], [1, 2], [1], [3, 5], [3, 5],
                 [2, 3, 4, 5]]


def popcount_instance() -> Instance:
    return Instance.build([f"c{c}" for c in range(6)],
                          [(f"R{i}", r) for i, r in enumerate(POPCOUNT_ROWS)])


@pytest.mark.parametrize("k", [2, 3])
def test_dxz_resumes_counts_after_a_popcount_subtree(monkeypatch, k):
    # once only the last block's columns c1, c3 and c5 are live, R1's
    # reach covers them all: its child, a dead end, is not entered on
    # the counts but ended by a popcount scan, and R3's child after it
    # is entered on the counts, which are still their parent's; the
    # diagram and cache traffic stay dlx's
    inst = block_diagonal(popcount_instance(), k)
    log = []
    log_calls(monkeypatch, log, (ColumnCounts, "enter", "E"),
              (MaskTables, "select_column", "P"))
    rep = run(inst, "dxz")
    order = "".join(log)
    assert order == {2: "EEEEEPE", 3: "EEEEEEEEEPE"}[k]
    assert "E" in order[order.index("P"):]
    store, root, traffic = dlx_search(inst, decompose=False)
    assert rep.store.dump(rep.root) == store.dump(root)
    assert traffic_of(rep) == traffic


def test_dxz_resumes_counts_after_a_popcount_frame(monkeypatch):
    # under the first block's R0, the second block's R2 leaves that
    # block's column c1 live with two rows, both in R2's reach: its child
    # branches by popcount in a frame of its own (P).  Once that frame is
    # popped, the first block's R2 child is entered on the counts again
    base = Instance.build(["c0", "c1"], [("R0", [0, 1]), ("R1", [1]),
                                         ("R2", [0]), ("R3", [1])])
    inst = block_diagonal(base, 2)
    log = []
    log_calls(monkeypatch, log, (ColumnCounts, "enter", "E"),
              (MaskTables, "select_column", "P"))
    rep = run(inst, "dxz")
    assert "".join(log) == "EPE"
    store, root, traffic = dlx_search(inst, decompose=False)
    assert rep.store.dump(rep.root) == store.dump(root)
    assert traffic_of(rep) == traffic


def exact_enter(enter):
    """``ColumnCounts.enter`` that then checks every live column's count
    against a popcount of the child's rows."""
    def checked(self, reach, cols, rows):
        log = enter(self, reach, cols, rows)
        assert all(self.size[c] == (self.col_rows[c] & rows).bit_count()
                   for c in range(len(self.size)) if cols >> c & 1)
        return log

    return checked


def test_dxz_counts_stay_exact_below_a_popcount_subtree(monkeypatch):
    # below R0's child, which branches on popcounts, R3's reach leaves
    # columns out.  Were R3's child entered on counts, column 5 would
    # keep R6 in its count.
    inst = popcount_instance()
    monkeypatch.setattr(ColumnCounts, "enter",
                        exact_enter(ColumnCounts.enter))
    rep = run(inst, "dxz")
    store, root, traffic = dlx_search(inst, decompose=False)
    assert rep.store.dump(rep.root) == store.dump(root)
    assert traffic_of(rep) == traffic


@given(st.integers(0, 10 ** 6))
def test_dxz_matches_dlx_on_random_blocks(seed):
    # block-diagonal instances mix states that are entered on counts with
    # popcount subtrees below them; both give dancing links' diagram, and
    # the counts are exact wherever a state is entered
    rng = random.Random(seed)
    inst = block_diagonal(random_instance(rng, max_rows=8, max_cols=6),
                          rng.randint(2, 4))
    with mock.patch.object(ColumnCounts, "enter",
                           exact_enter(ColumnCounts.enter)):
        rep = run(inst, "dxz")
    store, root, traffic = dlx_search(inst, decompose=False)
    assert rep.store.dump(rep.root) == store.dump(root)
    assert rep.count == store.count(root)
    assert traffic_of(rep) == traffic


@pytest.mark.parametrize("engine", DIAGRAM_ENGINES)
def test_solve_walks_its_diagram_once(demo, monkeypatch, engine):
    # count and nodes share one reachable set
    log = []
    log_calls(monkeypatch, log, (NodeStore, "reachable", "walk"))
    rep = run(block_diagonal(demo, 3), engine)
    assert log == ["walk"]
    assert (rep.count, rep.nodes) == (4 ** 3, rep.store.node_count(rep.root))


@pytest.mark.parametrize("engine", DIAGRAM_ENGINES)
def test_search_is_freed_before_the_post_passes(demo, monkeypatch, engine):
    # the search's context (its cache, masks, dxz's counts and dyndxd's
    # ComponentSet) is garbage once the root's node is built, so none is
    # live while the diagram is counted
    def live_contexts():
        return sum(isinstance(o, _Ctx) for o in gc.get_objects())

    gc.collect()
    before, live = live_contexts(), []
    count = NodeStore.count

    def counted(self, *args):
        live.append(live_contexts())
        return count(self, *args)

    monkeypatch.setattr(NodeStore, "count", counted)
    assert run(block_diagonal(demo, 3), engine).count == 4 ** 3
    assert live == [before]


def masks_agree_with_dlx(inst):
    # each engine against the same search on dancing links (conftest):
    # same rules, so the same diagram, decompositions and cache traffic
    for engine in DIAGRAM_ENGINES:
        rep = run(inst, engine)
        store, root, traffic = dlx_search(inst, decompose=engine != "dxz")
        assert rep.store.dump(rep.root) == store.dump(root)
        assert traffic_of(rep) == traffic


def test_mask_kernel_matches_dlx_on_demo(demo):
    masks_agree_with_dlx(demo)
    masks_agree_with_dlx(block_diagonal(demo, 5))


@given(st.integers(0, 10 ** 6))
def test_any_starver_memo_leaves_every_engine_unchanged(seed):
    # the memo is only checked against a child's own masks, so whatever it
    # holds, each engine builds the diagram and cache traffic of
    # dancing links and of a run with a fresh memo
    rng = random.Random(seed)
    inst = random_instance(rng)
    if rng.random() < 0.5:
        inst = block_diagonal(inst, rng.randint(2, 3))

    class Scrambled(MaskTables):
        # both slots of every row's memo start as arbitrary columns, live
        # or dead, with rows or without
        __slots__ = ()

        def __init__(self, n_cols, rows):
            super().__init__(n_cols, rows)
            self.starver = tuple([rng.randrange(-1, n_cols) for _ in slot]
                                 for slot in self.starver)

    for engine in DIAGRAM_ENGINES:
        fresh = run(inst, engine)
        with mock.patch.object(solver, "MaskTables", Scrambled):
            rep = run(inst, engine)
        store, root, traffic = dlx_search(inst, decompose=engine != "dxz")
        for r in (fresh, rep):
            assert r.store.dump(r.root) == store.dump(root)
            assert r.count == store.count(root)
            assert traffic_of(r) == traffic


def dead_keys(inst, engine):
    """The keys that a solve of ``inst`` caches, the root's aside, in
    which some column has no row whose columns lie inside the key; the
    cache is one that the test holds, in a context built by hand."""
    cache = {}
    ctx = _Ctx(engine, NodeStore(), cache, SolveStats(), None, None,
               SolveConfig(engine=engine))
    solver._solve_root(inst, ctx)
    assert cache
    row_cols = ctx.masks.row_cols
    dead = []
    for key in cache:
        covered = 0
        for m in row_cols:
            if not m & ~key:
                covered |= m
        if covered != key and key != (1 << inst.n_cols) - 1:
            dead.append(key)
    return dead


@pytest.mark.parametrize("engine", ["dxz", "dxd"])
def test_pentomino_caches_no_dead_end(engine):
    # pentomino 3x20 meets some 12,400 dead ends; each ends in its
    # parent, and the cache holds the live states only
    assert dead_keys(pentomino_instance(), engine) == []


def test_corpus_caches_no_dead_end():
    # a root may be dead (a column without rows) and is cached; no state
    # reached by a row is, nor a join's component
    for inst, _, _ in corpus():
        for engine in DIAGRAM_ENGINES:
            assert dead_keys(inst, engine) == []


# row 0 covers column 0 alone.  Its child (0b10110, 0b10100) starves on
# column 1 (row 1, its only row, is gone with column 3), and its child
# (0b01110, 0b01010) on column 2 (row 2 is gone with column 4)
STARVING_ROWS = [(0, [0]), (1, [1, 3]), (2, [2, 4]), (3, [3]), (4, [4])]


def test_alternating_starvers_end_in_the_memo(monkeypatch):
    # row 0's children starve on columns 1 and 2 in turn.  The memo keeps
    # both columns, so after the first two children each one ends in it,
    # with no column scan, no frame and no cache entry; a one-slot memo
    # would scan every child
    t = MaskTables(5, STARVING_ROWS)
    log = []
    log_calls(monkeypatch, log, (MaskTables, "select_column", "scan"))
    ctx = _Ctx("dxd", NodeStore(), {}, SolveStats(), None, None,
               SolveConfig(engine="dxd"), masks=t)
    for cols, rows in [(0b10110, 0b10100), (0b01110, 0b01010)] * 3:
        assert solver._mask_search(cols, rows, ctx, 0) == BOTTOM
    assert log == ["scan", "scan"]
    assert (t.starver[0][0], t.starver[1][0]) == (2, 1)
    st = ctx.stats
    assert (st.cache_hits, st.cache_misses, st.dead) == (0, 0, 6)
    assert ctx.cache == {} and len(ctx.store) == 2


def test_dead_child_on_the_counts_is_left_at_once():
    # dxz enters row 0's child on the counts (row 0 reaches column 0
    # only), finds column 1 empty, and leaves the counts as the parent's
    # before the child ends in its parent
    t = MaskTables(5, STARVING_ROWS)
    ctx = _Ctx("dxz", NodeStore(), {}, SolveStats(), None, None,
               SolveConfig(engine="dxz"), masks=t)
    ctx.counts = counts = ColumnCounts(t, 0b10101)
    before = (list(counts.size), list(counts.bucket))
    assert solver._mask_search(0b10110, 0b10100, ctx, 0) == BOTTOM
    assert (list(counts.size), list(counts.bucket)) == before
    assert t.starver[0][0] == 1
    assert (ctx.stats.cache_misses, ctx.stats.dead) == (0, 1)
    assert ctx.cache == {}


@given(st.integers(0, 10 ** 6))
def test_mask_kernel_matches_dlx(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    masks_agree_with_dlx(inst)
    masks_agree_with_dlx(block_diagonal(random_instance(rng, max_rows=6,
                                                        max_cols=6),
                                        rng.randint(2, 4)))


@pytest.mark.parametrize("reverse", [False, True])
def test_deep_ladder_enumerates_without_recursion(demo, reverse):
    # dxz compiles block_diagonal(demo, 400) into a ZBDD 2400 rows deep;
    # with the demo's rows reversed, dxd chains its 800 components just as
    # deep.  The first covers must come out at the interpreter's default
    # recursion limit, exact and in strict lexicographic order.
    if reverse:
        demo = Instance.build(demo.columns, demo.rows[::-1])
    big = block_diagonal(demo, 400)
    for engine in ("dxz", "dxd"):
        rep = run(big, engine)
        if reverse:
            assert rep.store.kind(rep.root) == "D"
        covers = rep.store.enumerate(rep.root, limit=10)
        assert len(covers) == 10
        assert all(a < b for a, b in zip(covers, covers[1:]))
        for cover in covers:
            cols = sorted(c for r in cover for c in big.rows[r][1])
            assert cols == list(range(big.n_cols))


def test_solve_leaves_the_recursion_limit_alone(demo, monkeypatch):
    # dxz nests 1,231 searched states on block_diagonal(demo, 400); the
    # search keeps its path on a stack of its own, so no engine sets the
    # recursion limit, and each runs 200 frames above the caller's depth
    big = block_diagonal(demo, 400)
    limit, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit

    def refuse(n):
        raise AssertionError("solve set the recursion limit")

    for engine in DIAGRAM_ENGINES:
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        try:
            assert run(big, engine).count == 4 ** 400
        finally:
            monkeypatch.undo()
        set_limit(len(inspect.stack(0)) + 200)
        try:
            assert run(big, engine).count == 4 ** 400
        finally:
            set_limit(limit)


def test_deep_ladder_enumeration_memory(demo):
    # the ladder's 2400 variables send the root through the cut pass,
    # and its 400 blocks make the family a product of segments, most of
    # which stay at their least parts: drawing 10 covers from dxd's
    # diagram peaks at about 0.23 MiB, against 8 MiB when every node
    # buffered a full partial cover per item
    big = block_diagonal(demo, 400)
    dxd = run(big, "dxd")
    gc.collect()
    tracemalloc.start()
    try:
        covers = dxd.store.enumerate(dxd.root, limit=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    dxz = run(big, "dxz")
    assert covers == dxz.store.enumerate(dxz.root, limit=10)


def test_ladder_enumeration_memory_is_per_segment(demo):
    # each of the ladder's segments buffers only its own rows: 100 covers
    # peak at about 0.8 MiB, most of it the covers themselves, where
    # copying every partial cover at every level of the chain took
    # 68 MiB (and 1000 covers more than 1 GiB)
    big = block_diagonal(demo, 400)
    drawn = []
    for engine in ("dxd", "dxz"):
        rep = run(big, engine)
        gc.collect()
        tracemalloc.start()
        try:
            drawn.append(rep.store.enumerate(rep.root, limit=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, (engine, peak)
    assert drawn[0] == drawn[1]
    assert len(drawn[0]) == 100


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_thread_count_invariance(demo, monkeypatch, threads):
    # the components of block_diagonal share no cache key, so the counts
    # match the single-threaded run exactly: no worker's counts are lost.
    # Each block is the demo beside DEAD_END_ROWS, whose search meets
    # dead ends, so every process that searches components counts some
    rows = list(demo.rows) + [(f"X{i}", [6 + c for c in r])
                              for i, r in enumerate(DEAD_END_ROWS)]
    big = block_diagonal(Instance.build([f"c{c}" for c in range(11)], rows),
                         4)
    monkeypatch.setattr(solver, "_SPAWN_ROWS", 1)
    for engine in ("dxd", "dyndxd"):
        ref = run(big, engine)
        rep = run(big, engine, threads=threads)
        assert rep.count == 4 ** 4
        assert rep.store.enumerate(rep.root, limit=5) == \
            ref.store.enumerate(ref.root, limit=5)
        assert traffic_of(rep) == traffic_of(ref)
        assert ref.stats.dead > 0
        if threads > 1:
            assert rep.stats.spawned > 0
        rep.store.check_canonical()


def test_worker_count_is_capped_by_cpus_and_children(monkeypatch):
    def no_fork():
        raise AssertionError("the worker count started a process")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    cpus = os.cpu_count()
    assert 1 <= _worker_count(10 ** 6, 10 ** 6, cpus) <= max(1, cpus - 1)
    assert _worker_count(10 ** 6, 10 ** 6, None) == 1
    assert _worker_count(10 ** 6, 10 ** 6, 1) == 1
    assert _worker_count(10 ** 6, 10 ** 6, 64) == 63
    assert _worker_count(2, 18, 64) == 1
    assert _worker_count(10 ** 6, 3, 64) == 2       # the parent keeps one
    assert _worker_count(1, 18, 64) < 1             # threads=1: no split
    assert _worker_count(8, 1, 64) < 1              # one child: no split


def test_root_split_counts_only_the_cpus_it_may_use(monkeypatch):
    # pinned to one CPU of a 64-CPU host, as by taskset, a solve forks
    # the one worker of a single CPU, not one per other host CPU
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert solver._usable_cpus() == 1
    rep = _pentomino_threads("dxd", 3)
    assert rep.stats.spawned == 1 and rep.count == 8
    monkeypatch.setattr(os, "process_cpu_count", lambda: 2, raising=False)
    assert solver._usable_cpus() == 2       # preferred where it exists
    monkeypatch.delattr(os, "process_cpu_count")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert solver._usable_cpus() == 64      # the last fallback


def _pentomino_threads(engine, threads):
    return run(pentomino_instance(), engine, threads=threads)


@pytest.mark.parametrize("engine", ["dxd", "dxz"])
def test_root_split_matches_one_process(engine):
    # pentomino 3x20's root branches over 18 rows of 899-1036 live rows:
    # they are dealt to this process and a forked worker
    ref = _pentomino_threads(engine, 1)
    rep = _pentomino_threads(engine, 2)
    assert (rep.count, rep.nodes) == (ref.count, ref.nodes) == (8, 75)
    assert rep.stats.spawned >= 1 and ref.stats.spawned == 0
    assert rep.store.enumerate(rep.root) == ref.store.enumerate(ref.root)
    # node ids differ between the two stores; interned into one store,
    # the two diagrams are the same node
    both = NodeStore()
    roots = []
    for r in (ref, rep):
        ids = both.adopt([r.store.entry(n) for n in range(2, len(r.store))], 2)
        roots.append(ids[r.root])
    assert roots[0] == roots[1]
    both.check_canonical()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_no_worker_outlives_a_failed_solve(monkeypatch, side):
    # a timeout in a worker reaches the solve; one in the parent kills
    # its worker, which would search on for 30 s; neither leaves a child
    me = os.getpid()
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def check(ctx):
        if os.getpid() != me:
            if side == "worker":
                raise SolveTimeout
            if not forked:      # a worker that would outlast the solve
                forked.append(None)
                time.sleep(30)
        elif side == "parent" and forked:
            raise SolveTimeout

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(solver, "_check_deadline", check)
    t0 = time.monotonic()
    with pytest.raises(SolveTimeout):
        _pentomino_threads("dxd", 2)
    assert time.monotonic() - t0 < 15
    assert forked
    _no_child_left()


# Solves pentomino 3x20 with threads=2; its forked worker prints its pid
# and sleeps in its first deadline check, so that it outlasts the solve.
ORPHAN_CHILD = """\
import os, sys, time
from xcover import solver
from xcover.instance import parse_instance
inst = parse_instance(sys.stdin.read())
me = os.getpid()

def check(ctx):
    if os.getpid() != me:
        os.write(1, b"%d\\n" % os.getpid())
        time.sleep(60)

solver._check_deadline = check
solver.solve(inst, solver.SolveConfig(engine="dxd", threads=2))
"""


def _proc_state(pid):
    """The state letter of ``pid`` in /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal and /proc are Linux's")
def test_worker_dies_with_a_killed_parent():
    # SIGKILL runs none of the solve's cleanup, so the worker must be
    # killed by the kernel when its parent dies, not search on as an orphan
    src = str(Path(xcover.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_CHILD],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env)
    worker = None
    try:
        proc.stdin.write(serialize_instance(pentomino_instance()).encode())
        proc.stdin.close()
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "no worker started within 60 s"
        worker = int(proc.stdout.readline())
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _proc_state(worker) not in (None, "Z") \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _proc_state(worker) in (None, "Z")
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        if worker is not None and _proc_state(worker) not in (None, "Z"):
            os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors in /proc")
def test_failed_fork_closes_its_pipe(monkeypatch):
    def failing_fork():
        raise OSError("no more processes")

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError, match="no more processes"):
        _pentomino_threads("dxd", 2)
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_no_fork_runs_inline(monkeypatch):
    ref = _pentomino_threads("dxd", 1)
    monkeypatch.delattr(os, "fork")
    rep = _pentomino_threads("dxd", 2)
    assert rep.stats.spawned == 0
    assert (rep.count, rep.nodes) == (ref.count, ref.nodes)
    assert rep.store.dump(rep.root) == ref.store.dump(ref.root)
    assert (rep.stats.cache_hits, rep.stats.cache_misses) == \
        (ref.stats.cache_hits, ref.stats.cache_misses)


def test_small_root_children_stay_inline(demo):
    # below _SPAWN_ROWS live rows a child is not worth a fork, so
    # threads=2 is threads=1, node for node
    big = block_diagonal(demo, 6)
    for engine in DIAGRAM_ENGINES:
        ref = run(big, engine)
        rep = run(big, engine, threads=2)
        assert rep.stats.spawned == 0
        assert rep.store.dump(rep.root) == ref.store.dump(ref.root)
    _no_child_left()


@given(st.integers(0, 10 ** 6))
def test_engines_agree_with_oracle(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    want = enumerate_covers(inst)
    for engine in DIAGRAM_ENGINES:
        rep = run(inst, engine)
        assert rep.count == len(want)
        assert rep.store.enumerate(rep.root) == want
        rep.store.validate(rep.root)


@given(st.integers(0, 10 ** 6))
def test_dyn_component_filtering_matches_bfs(seed):
    # instances with several blocks force nested decompositions
    rng = random.Random(seed)
    parts = []
    offset_c = 0
    offset_r = 0
    cols = []
    for _ in range(rng.randint(2, 3)):
        inst = random_instance(rng, max_rows=5, max_cols=4)
        for name, ids in inst.rows:
            parts.append((f"{name}.{offset_r}", [c + offset_c for c in ids]))
        cols.extend(f"c{offset_c + i}" for i in range(inst.n_cols))
        offset_c += inst.n_cols
        offset_r += 1
    inst = Instance.build(cols, parts)
    want = enumerate_covers(inst)
    a = run(inst, "dxd")
    b = run(inst, "dyndxd")
    assert a.count == b.count == len(want)
    assert b.store.enumerate(b.root) == want
