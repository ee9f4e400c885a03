import random

import pytest

from xcover.dynconn import ComponentSet, DynConnError, SpanningForest, _edge


def path_forest(ids):
    f = SpanningForest()
    for a, b in zip(ids, ids[1:]):
        f.link(a, b)
    return f


def test_edge_normalization():
    assert _edge(3, 1) == (1, 3)
    assert _edge(1, 3) == (1, 3)
    with pytest.raises(DynConnError):
        _edge(2, 2)


def test_isolated_vertex():
    # a vertex never linked has no entry, and reading it adds none
    f = SpanningForest()
    assert f.check_tree(7) == ({7}, set())
    assert not f.tree_edge(7, 8)
    assert f.tree == {}
    f.link(7, 8)
    assert f.cut(7, 8) == {7}
    assert f.tree == {7: set(), 8: set()}
    assert f.check_tree(7) == ({7}, set())


def test_link_cut_round_trip():
    f = path_forest([0, 1, 2])
    f.link(10, 11)
    f.link(11, 12)
    f.link(12, 20)
    f.link(2, 10)
    assert f.tree_edge(10, 2) and not f.tree_edge(0, 2)
    assert f.check_tree(0) == ({0, 1, 2, 10, 11, 12, 20},
                               {(0, 1), (1, 2), (2, 10), (10, 11), (11, 12),
                                (12, 20)})
    # the smaller side comes back, whichever endpoint it holds
    assert f.cut(2, 10) == {0, 1, 2}
    assert not f.tree_edge(2, 10)
    assert f.check_tree(0) == ({0, 1, 2}, {(0, 1), (1, 2)})
    assert f.cut(11, 10) == {10}
    assert f.check_tree(11) == ({11, 12, 20}, {(11, 12), (12, 20)})
    # equal sides: u's side
    f.link(10, 11)
    assert f.cut(11, 12) == {10, 11}
    assert f.cut(12, 20) == {12}
    assert f.cut(1, 0) == {0}


def test_forest_error_contracts():
    f = path_forest([0, 1, 2])
    with pytest.raises(DynConnError):
        f.cut(0, 2)  # not a tree edge
    with pytest.raises(DynConnError):
        f.cut(0, 9)  # not a vertex
    f.link(0, 2)  # link trusts its caller; the cycle shows in the check
    with pytest.raises(AssertionError):
        f.check_tree(0)


class CountingDict(dict):
    """A dict that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


@pytest.mark.parametrize("leaf_first", [False, True])
def test_cut_reads_only_the_smaller_side(leaf_first):
    n = 10_000
    f = path_forest(list(range(n)))
    f.tree = CountingDict(f.tree)
    u, v = (n - 1, n - 2) if leaf_first else (n - 2, n - 1)
    assert f.cut(u, v) == {n - 1}
    assert f.tree.lookups <= 6
    f.tree.lookups = 0
    assert f.cut(0, 1) == {0}
    assert f.tree.lookups <= 6


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


def test_forest_random_link_cut_stress():
    rng = random.Random(2024)
    n = 30
    f = SpanningForest()
    tree_edges = set()
    want = _bfs_partition(range(n), tree_edges)
    ties = 0
    for _ in range(300):
        comp_of = {v: i for i, comp in enumerate(want) for v in comp}
        if tree_edges and rng.random() < 0.5:
            e = rng.choice(sorted(tree_edges))
            tree_edges.discard(e)
            u, v = e if rng.random() < 0.5 else e[::-1]
            split = _bfs_partition(range(n), tree_edges)
            side_u, side_v = (next(c for c in split if w in c) for w in (u, v))
            small = side_u if len(side_u) <= len(side_v) else side_v
            ties += len(side_u) == len(side_v)
            assert f.cut(u, v) == small
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if comp_of[u] == comp_of[v]:
                continue
            tree_edges.add(_edge(u, v))
            f.link(u, v)
        want = _bfs_partition(range(n), tree_edges)
        decoded = set()
        for comp in want:
            for v in comp:
                verts, edges = f.check_tree(v)
                assert verts == comp
            decoded |= edges
        assert decoded == tree_edges
    assert ties


# -- ComponentSet ----------------------------------------------------------

PATH_CHORD_VS = [1, 2, 3, 4, 5]
PATH_CHORD_ES = [(1, 2), (2, 3), (3, 4), (4, 5), (2, 4)]


def test_component_set_init():
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    assert len(cs) == 5
    assert cs.num_components() == 1
    assert cs.partition() == [{1, 2, 3, 4, 5}]
    assert 3 in cs and 9 not in cs
    comp = cs.find_cc(1)
    assert all(cs.find_cc(v) is comp for v in PATH_CHORD_VS)
    # BFS from 1 with sorted neighbors spans via (1,2),(2,3),(2,4),(4,5)
    assert comp.non_tree == {(3, 4)}
    assert cs.edges() == {_edge(a, b) for a, b in PATH_CHORD_ES}
    cs.validate()


def test_component_set_init_errors():
    with pytest.raises(DynConnError):
        ComponentSet([1, 2], [(1, 3)])
    with pytest.raises(DynConnError):
        ComponentSet([1], [(1, 1)])
    # duplicate edges collapse
    cs = ComponentSet([1, 2], [(1, 2), (2, 1)])
    assert cs.edges() == {(1, 2)}


def test_row_interaction_example():
    # interaction graph of the six-row worked example: rows sharing a column
    cs = ComponentSet(range(6), [(0, 1), (0, 2), (3, 4), (3, 5)])
    assert cs.partition() == [{0, 1, 2}, {3, 4, 5}]
    assert cs.find_cc(0) is cs.find_cc(2)
    assert cs.find_cc(0) is not cs.find_cc(3)


def test_dec_update_replacement_keeps_component():
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    cs.dec_update((), [(2, 4)])  # tree edge; chord (3,4) reconnects
    assert cs.num_components() == 1
    assert cs.find_cc(1).non_tree == set()
    assert cs.edges() == {(1, 2), (2, 3), (3, 4), (4, 5)}
    cs.validate()


def test_dec_update_split():
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    cs.dec_update((), [(2, 4), (3, 4)])
    assert cs.partition() == [{1, 2, 3}, {4, 5}]
    assert cs.find_cc(4) is cs.find_cc(5)
    cs.validate()


def test_dec_update_never_links_an_edge_of_its_batch():
    # cutting tree edge (2,4) alone would relink chord (3,4); with (3,4)
    # in the same batch the chord is dropped first and the path splits
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    linked = []
    link = cs.forest.link

    def recording_link(u, v):
        linked.append(_edge(u, v))
        return link(u, v)

    cs.forest.link = recording_link
    batch = {(2, 4), (3, 4)}
    cs.dec_update((), batch)
    assert not batch & set(linked)
    assert cs.partition() == [{1, 2, 3}, {4, 5}]
    cs.validate()


def test_dec_update_non_tree_only():
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    cs.dec_update((), [(3, 4)])
    assert cs.num_components() == 1
    assert cs.find_cc(1).non_tree == set()
    cs.validate()


def test_dec_update_vertices():
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    cs.dec_update([5], [(4, 5)])
    assert cs.partition() == [{1, 2, 3, 4}]
    assert 5 not in cs and 5 not in cs.forest.tree
    cs.validate()
    with pytest.raises(DynConnError):
        cs.dec_update([4], ())  # not isolated
    with pytest.raises(DynConnError):
        cs.dec_update((), [(4, 5)])  # edge no longer live
    with pytest.raises(DynConnError):
        cs.dec_update([9], ())


@pytest.mark.parametrize("edge", [(8, 9), (1, 9)])
def test_validate_catches_a_tree_edge_at_a_dead_vertex(edge):
    cs = ComponentSet(PATH_CHORD_VS, PATH_CHORD_ES)
    cs.forest.link(*edge)   # 9, and 8, were never live
    with pytest.raises(AssertionError):
        cs.validate()


def test_inc_update():
    cs = ComponentSet([1, 2], [(1, 2)])
    cs.inc_update([3, 4], [(2, 3)])
    assert cs.partition() == [{1, 2, 3}, {4}]
    cs.inc_update((), [(3, 4), (1, 3)])
    assert cs.partition() == [{1, 2, 3, 4}]
    assert cs.find_cc(1).non_tree == {(1, 3)}
    cs.validate()
    with pytest.raises(DynConnError):
        cs.inc_update([3], ())
    with pytest.raises(DynConnError):
        cs.inc_update((), [(1, 2)])  # tree edge already present
    with pytest.raises(DynConnError):
        cs.inc_update((), [(1, 3)])  # non-tree edge already present
    with pytest.raises(DynConnError):
        cs.inc_update((), [(1, 9)])


def test_dec_inc_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 16)
        vs = list(range(n))
        es = {_edge(a, b)
              for a in vs for b in vs
              if a < b and rng.random() < 0.25}
        cs = ComponentSet(vs, es)
        want = cs.partition()
        kill = {e for e in es if rng.random() < 0.5}
        left_deg = {v: 0 for v in vs}
        for a, b in es - kill:
            left_deg[a] += 1
            left_deg[b] += 1
        drop_vs = [v for v in vs
                   if left_deg[v] == 0 and rng.random() < 0.5
                   and all(v not in e for e in es - kill)]
        cs.dec_update(drop_vs, kill)
        cs.validate()
        cs.inc_update(drop_vs, kill)
        cs.validate()
        assert cs.partition() == want
        assert cs.edges() == es


def test_component_set_random_stress():
    for seed in range(5):
        rng = random.Random(seed)
        n = 40
        vs = set(range(n))
        es = {_edge(a, b)
              for a in vs for b in vs if a < b and rng.random() < 0.06}
        cs = ComponentSet(vs, es)
        assert cs.partition() == _bfs_partition(vs, es)
        next_v = n
        for step in range(30):
            if es and rng.random() < 0.5:
                kill = set(rng.sample(sorted(es), min(len(es), rng.randint(1, 8))))
                deg = {v: 0 for v in vs}
                for a, b in es - kill:
                    deg[a] += 1
                    deg[b] += 1
                drop = {v for v in vs if deg[v] == 0 and rng.random() < 0.3}
                cs.dec_update(drop, kill)
                es -= kill
                vs -= drop
            else:
                fresh = {next_v + i for i in range(rng.randint(0, 2))}
                next_v += len(fresh)
                pool = sorted(vs | fresh)
                new_es = set()
                for _ in range(rng.randint(1, 8)):
                    a, b = rng.sample(pool, 2)
                    e = _edge(a, b)
                    if e not in es:
                        new_es.add(e)
                cs.inc_update(fresh, new_es)
                vs |= fresh
                es |= new_es
            assert cs.partition() == _bfs_partition(vs, es)
            if step % 5 == 0:
                cs.validate()
        cs.validate()
