"""Acceptance checks, one test per numbered criterion.

Each test measures its own wall time against the criterion's budget and
appends a PASS/FAIL line to the terminal summary (see conftest).  The
shared 1000-instance corpus is built once and reused by criteria 4, 9
and 10.
"""

import random
import statistics
import time
from contextlib import contextmanager

import conftest
from conftest import DEMO_COVERS, DEMO_ROWS, random_instance, row_edges

from xcover import solver
from xcover.dlx import DlxMatrix
from xcover.diagram import NodeStore
from xcover.dynconn import ComponentSet, _edge
from xcover.gen import GenConfig, GraphInput, block_diagonal, generate
from xcover.instance import Instance
from xcover.oracle import count_covers, enumerate_covers
from xcover.solver import SolveConfig, SolveStats, _Ctx, _search, solve

DIAGRAM_ENGINES = ("dxz", "dxd", "dyndxd")
MASTER_SEED = 20260814


@contextmanager
def criterion(num, title, limit_s):
    info = {"note": ""}
    t0 = time.perf_counter()
    try:
        yield info
        dt = time.perf_counter() - t0
        assert dt < limit_s, f"took {dt:.2f}s, budget {limit_s}s"
    except BaseException as exc:
        note = f" [{info['note']}]" if info["note"] else ""
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {num:2d} FAIL  {title}: {exc}{note}")
        raise
    note = f"; {info['note']}" if info["note"] else ""
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:2d} PASS  {title} ({dt:.3f}s{note})")


def demo() -> Instance:
    return Instance.build(["1", "2", "3", "4", "5", "6"], DEMO_ROWS)


_corpus_cache = None


def corpus():
    """1000 seeded random instances with oracle cover lists and the three
    engine reports; built on first use (inside criterion 4's budget)."""
    global _corpus_cache
    if _corpus_cache is None:
        rng = random.Random(MASTER_SEED)
        items = []
        for _ in range(1000):
            inst = random_instance(rng, max_rows=12, max_cols=10,
                                   density=(0.1, 0.6))
            want = enumerate_covers(inst)
            reps = {eng: solve(inst, SolveConfig(engine=eng))
                    for eng in DIAGRAM_ENGINES}
            items.append((inst, want, reps))
        _corpus_cache = items
    return _corpus_cache


def test_criterion_01_worked_example_all_engines():
    with criterion(1, "4 covers of the worked example on all engines", 1.0):
        inst = demo()
        named = {"A D", "A E F", "B C D", "B C E F"}
        assert set(" ".join(sorted(r[0] for i in c for r in [inst.rows[i]]))
                   for c in enumerate_covers(inst)) == named
        assert solve(inst, SolveConfig(engine="oracle")).count == 4
        for eng in DIAGRAM_ENGINES:
            rep = solve(inst, SolveConfig(engine=eng))
            assert rep.count == 4
            covers = rep.store.enumerate(rep.root)
            assert covers == DEMO_COVERS
            assert {" ".join(sorted(inst.rows[i][0] for i in c))
                    for c in covers} == named


def test_criterion_02_worked_example_decomposition():
    with criterion(2, "dxd root decomposes over {A,B,C} x {D,E,F}", 1.0):
        rep = solve(demo(), SolveConfig(engine="dxd"))
        assert rep.store.kind(rep.root) == "X"
        kids = rep.store.entry(rep.root)[1]
        assert [rep.store.variables(k) for k in kids] == \
            [{0, 1, 2}, {3, 4, 5}]
        assert [rep.store.count(k) for k in kids] == [2, 2]


def test_criterion_03_dynconn_walkthrough():
    # 5-vertex graph; edges named e1..e6 in the comments
    e1, e2, e3 = (1, 2), (1, 4), (1, 3)
    e4, e5, e6 = (2, 4), (4, 5), (3, 5)
    with criterion(3, "dynconn delete/reinsert walkthrough", 1.0):
        cs = ComponentSet([1, 2, 3, 4, 5], [e1, e2, e3, e4, e5, e6])
        assert cs.partition() == [{1, 2, 3, 4, 5}]
        assert len(cs.find_cc(1).non_tree) == 2  # 6 edges, 4 in the tree
        cs.validate()

        cs.dec_update((), [e1])  # tree edge, a replacement reconnects
        assert cs.partition() == [{1, 2, 3, 4, 5}]
        assert len(cs.find_cc(1).non_tree) == 1
        cs.validate()

        cs.dec_update((), [e2])  # non-tree after the relink
        assert cs.partition() == [{1, 2, 3, 4, 5}]
        assert cs.find_cc(1).non_tree == set()
        cs.validate()

        cs.dec_update((), [e3])  # no replacement: v1 splits off
        assert cs.partition() == [{1}, {2, 3, 4, 5}]
        cs.validate()

        cs.dec_update([1], ())  # drop the singleton
        assert cs.partition() == [{2, 3, 4, 5}]
        cs.validate()

        cs.inc_update([1], ())  # reinsert the vertex
        assert cs.partition() == [{1}, {2, 3, 4, 5}]
        cs.validate()

        cs.inc_update((), [e1, e2, e3])  # e1 links, e2 and e3 go non-tree
        assert cs.partition() == [{1, 2, 3, 4, 5}]
        assert cs.find_cc(1).non_tree == {e2, e3}
        cs.validate()


def test_criterion_04_oracle_equivalence_corpus():
    with criterion(4, "1000-instance oracle equivalence", 60.0) as info:
        mismatches = 0
        for inst, want, reps in corpus():
            for eng in DIAGRAM_ENGINES:
                rep = reps[eng]
                if rep.count != len(want) or \
                        rep.store.enumerate(rep.root) != want:
                    mismatches += 1
        assert mismatches == 0
        info["note"] = "1000 instances x 3 engines vs oracle, 0 mismatches"


def test_criterion_05_dynconn_fuzz():
    with criterion(5, "200 dynconn fuzz runs vs BFS", 120.0) as info:
        total_ops = total_batches = 0
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(50, 200)
            vs = set(range(n))
            es = {_edge(a, b) for a in vs for b in vs
                  if a < b and rng.random() < 2.0 / n}
            cs = ComponentSet(vs, es)
            next_v = n
            budget = rng.randint(400, 1000)
            ops = 0
            while ops < budget:
                if es and rng.random() < 0.5:
                    kill = set(rng.sample(sorted(es),
                                          min(len(es), rng.randint(1, 10))))
                    deg = {v: 0 for v in vs}
                    for a, b in es - kill:
                        deg[a] += 1
                        deg[b] += 1
                    drop = {v for v in vs
                            if deg[v] == 0 and rng.random() < 0.3}
                    cs.dec_update(drop, kill)
                    es -= kill
                    vs -= drop
                    ops += len(kill) + len(drop)
                else:
                    fresh = {next_v + i for i in range(rng.randint(0, 2))}
                    next_v += len(fresh)
                    pool = sorted(vs | fresh)
                    new_es = set()
                    if len(pool) >= 2:
                        for _ in range(rng.randint(1, 10)):
                            a, b = rng.sample(pool, 2)
                            e = _edge(a, b)
                            if e not in es:
                                new_es.add(e)
                    cs.inc_update(fresh, new_es)
                    vs |= fresh
                    es |= new_es
                    ops += len(new_es) + len(fresh)
                total_batches += 1
                assert cs.partition() == _bfs_partition(vs, es)
            total_ops += ops
            cs.validate()
        info["note"] = f"{total_ops} ops in {total_batches} batches, 0 mismatches"


def _bfs_partition(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    parts = []
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        parts.append(comp)
    return parts


def test_criterion_06_product_law():
    with criterion(6, "block-diagonal product law, k in {2,3,5}", 5.0):
        base = demo()
        for k in (2, 3, 5):
            big = block_diagonal(base, k)
            # the brute-force enumerator needs an explicit cap over 25 rows
            assert count_covers(big, cap=4 ** k) == 4 ** k
            for eng in DIAGRAM_ENGINES:
                rep = solve(big, SolveConfig(engine=eng))
                assert rep.count == 4 ** k
                if eng != "dxz":
                    assert rep.stats.subs >= k


def _bench_graph(rng):
    """Disjoint union of 2-4 chorded rings: every vertex lies on a cycle,
    every graph component yields an independent column block."""
    edges = []
    off = 0
    for _ in range(rng.randint(2, 4)):
        k = rng.randint(3, 6)
        for i in range(k):
            edges.append((off + i, off + (i + 1) % k))
        for a in range(k):
            for b in range(a + 2, k):
                if rng.random() < 0.3:
                    edges.append((off + a, off + b))
        off += k
    return GraphInput(off, tuple(edges))


def test_criterion_07_size_comparison():
    with criterion(7, "node_count(dxd) <= node_count(dxz) when subs >= 2",
                   60.0) as info:
        rng = random.Random(MASTER_SEED)
        insts = [block_diagonal(demo(), k) for k in (2, 3, 5)]
        for i in range(80):
            inst = generate(_bench_graph(rng),
                            GenConfig(fraction=rng.choice([0.6, 0.8, 1.0]),
                                      seed=i))
            if inst.n_rows:
                insts.append(inst)
        ratios = []
        violations = []
        for inst in insts:
            dxz = solve(inst, SolveConfig(engine="dxz"))
            dxd = solve(inst, SolveConfig(engine="dxd"))
            assert dxz.count == dxd.count
            if dxd.stats.subs >= 2:
                ratios.append(dxd.nodes / dxz.nodes)
                if dxd.nodes > dxz.nodes:
                    violations.append((inst.n_rows, inst.n_cols,
                                       dxd.nodes, dxz.nodes))
        info["note"] = (
            f"{len(ratios)} decomposed instances, ratio dxd/dxz "
            f"min={min(ratios):.3f} median={statistics.median(ratios):.3f} "
            f"mean={statistics.mean(ratios):.3f} max={max(ratios):.3f}; "
            f"{len(violations)} violations")
        assert not violations, (
            f"{len(violations)}/{len(ratios)} decomposed instances have "
            f"node_count(dxd) > node_count(dxz), e.g. (rows, cols, dxd, dxz) "
            f"= {violations[0]}: a decomposable join node is pure overhead "
            f"whenever the column heuristic already visits the components "
            f"sequentially, so the inequality does not hold in general")


def test_criterion_08_parallel_determinism(monkeypatch):
    monkeypatch.setattr(solver, "_SPAWN_ROWS", 1)
    with criterion(8, "thread-count invariance on 20 instances", 60.0) as info:
        rng = random.Random(MASTER_SEED + 8)
        spawned = 0
        for i in range(20):
            base = random_instance(rng, max_rows=6, max_cols=6)
            inst = block_diagonal(base, rng.randint(2, 3))
            for eng in ("dxd", "dyndxd"):
                ref = solve(inst, SolveConfig(engine=eng))
                ref_covers = ref.store.enumerate(ref.root, limit=2000)
                for threads in (2, 4, 8):
                    rep = solve(inst, SolveConfig(engine=eng, threads=threads))
                    spawned += rep.stats.spawned
                    assert rep.count == ref.count
                    assert rep.store.enumerate(rep.root, limit=2000) == \
                        ref_covers
        info["note"] = f"threads 1/2/4/8 agree; {spawned} workers spawned"


def _search_with_snapshot(inst, engine):
    m = DlxMatrix.from_instance(inst)
    before = m.snapshot()
    cs = None
    if engine == "dyndxd":
        cs = ComponentSet(range(inst.n_rows), row_edges(inst))
    ctx = _Ctx(engine, NodeStore(), {}, SolveStats(), None, None,
               SolveConfig(engine=engine), cs)
    root = _search(m, ctx)
    assert not m._cover_stack
    assert m.snapshot() == before, "matrix changed across solve"
    return ctx.store.count(root)


def test_criterion_09_matrix_restoration():
    # solve() builds no matrix; _search reads a matrix's live rows into
    # masks, and must leave the matrix bit-for-bit as it was
    with criterion(9, "dancing-links state restored bit-for-bit", 30.0) as info:
        checked = 0
        for inst, want, _ in corpus()[:150]:
            for eng in DIAGRAM_ENGINES:
                assert _search_with_snapshot(inst, eng) == len(want)
                checked += 1
        base = demo()
        for eng in DIAGRAM_ENGINES:
            for inst in (base, block_diagonal(base, 3)):
                _search_with_snapshot(inst, eng)
                checked += 1
        info["note"] = f"{checked} direct snapshot comparisons"


def test_criterion_10_canonicity_sweep():
    with criterion(10, "diagram canonicity sweep over corpus stores",
                   60.0) as info:
        nodes = 0
        for _, _, reps in corpus():
            for rep in reps.values():
                rep.store.check_canonical()
                rep.store.validate(rep.root)
                nodes += len(rep.store)
        info["note"] = f"3000 stores, {nodes} nodes, 0 violations"
