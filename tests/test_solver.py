import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import xcover
from xcover.diagram import NodeStore
from xcover.dlx import DlxMatrix
from xcover.gen import block_diagonal
from xcover.instance import Instance, serialize_instance
from xcover.oracle import enumerate_covers
from xcover.solver import (ENGINES, SolveConfig, SolveStats, SolveTimeout,
                           _component_set, _Ctx, _row_adjacency, _search,
                           bfs_components, decompose_matrix, solve)

from conftest import DEMO_COVERS, pentomino_instance, random_instance

DIAGRAM_ENGINES = ("dxz", "dxd", "dyndxd")


def run(inst, engine, **kw):
    return solve(inst, SolveConfig(engine=engine, **kw))


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


def test_condemo_validation(demo):
    assert ENGINES == ("dxz", "dxd", "dyndxd", "oracle")
    with pytest.raises(ValueError):
        run(demo, "dlx")
    with pytest.raises(ValueError):
        run(demo, "dxz", threads=0)


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
        assert rep.stats.subs == 2  # decomposition found, then discarded


def test_connected_instance_never_decomposes():
    inst = Instance.build(["a", "b"], [("R0", [0, 1]), ("R1", [0]), ("R2", [1])])
    for engine in ("dxd", "dyndxd"):
        rep = run(inst, engine)
        assert rep.count == 2
        assert rep.stats.subs == 0


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
    # solve() snapshots and verifies internally; run all engines twice to
    # make sure nothing leaks between runs
    for engine in DIAGRAM_ENGINES:
        assert run(demo, engine).count == 4
        assert run(demo, engine).count == 4


@pytest.mark.parametrize("engine", DIAGRAM_ENGINES)
def test_timeout_raises(demo, engine):
    big = block_diagonal(demo, 4)
    with pytest.raises(SolveTimeout):
        run(big, engine, timeout_s=1e-9)


def test_timeout_with_threads(demo):
    big = block_diagonal(demo, 6)
    with pytest.raises(SolveTimeout):
        run(big, "dyndxd", threads=4, spawn_threshold=1, timeout_s=1e-9)


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
    # on pentomino 3x20 a single branch runs dynconn batches for seconds
    # without re-entering _search; the deadline must still end the solve
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


def test_dyn_components_check_sync_with_matrix(demo):
    # the ComponentSet must hold exactly the matrix's live rows; an extra
    # isolated row 6 must not be hidden from the check
    adj = _row_adjacency(demo)
    adj[6] = set()
    cs = _component_set(range(7), adj)
    ctx = _Ctx("dyndxd", NodeStore(), {}, SolveStats(), None, None,
               SolveConfig(engine="dyndxd"), cs, adj)
    with pytest.raises(AssertionError):
        _search(DlxMatrix.from_instance(demo), ctx)


def test_block_diagonal_product_counts(demo):
    big = block_diagonal(demo, 10)
    for engine in ("dxd", "dyndxd"):
        rep = run(big, engine)
        assert rep.count == 4 ** 10
        assert rep.stats.subs >= 10


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


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_thread_count_invariance(demo, threads):
    big = block_diagonal(demo, 6)
    for engine in ("dxd", "dyndxd"):
        rep = run(big, engine, threads=threads, spawn_threshold=1)
        assert rep.count == 4 ** 6
        assert rep.store.enumerate(rep.root, limit=5) == \
            run(big, engine).store.enumerate(run(big, engine).root, limit=5)
        if threads > 1:
            assert rep.stats.spawned > 0
        rep.store.check_canonical()


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
