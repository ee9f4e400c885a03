import itertools
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from xcover import diagram
from xcover.diagram import (BOTTOM, TOP, NodeId, NodeStore, _bits,
                            _least_parts, _members, _product,
                            _segment_stream, load_dump)
from xcover.gen import block_diagonal
from xcover.instance import Instance
from xcover.oracle import enumerate_covers
from xcover.solver import SolveConfig, solve

from conftest import chain_join, pentomino_instance
from test_acceptance import corpus


def family_node(store: NodeStore, sets, n_vars, top=TOP):
    """Reference construction: compile an explicit family of subsets of
    range(n_vars), or of the ids in the list n_vars, by branching on the
    lowest variable.  Used as an independent oracle for
    count/enumerate/canonicity.  With ``top`` given, the node denotes
    the family joined with top's, top standing for TOP."""
    fam = frozenset(frozenset(s) for s in sets)
    order = range(n_vars) if isinstance(n_vars, int) else sorted(n_vars)

    def rec(f, i):
        if not f:
            return BOTTOM
        if i == len(order):
            return top  # only the empty set can remain
        v = order[i]
        pos = frozenset(s - {v} for s in f if v in s)
        neg = frozenset(s for s in f if v not in s)
        return store.mk_decision(v, rec(pos, i + 1), rec(neg, i + 1))

    return rec(fam, 0)


families = st.sets(st.frozensets(st.integers(0, 6), max_size=5), max_size=15)

# Padding: a fixed run of more rows than iter_members reads whole, so
# that its root is first split into segments.  The family's ids are odd,
# offset + 1 ... offset + 13; the run's even ids lie below them (a
# family's rows never go first), around them (below, between and
# above), from between them up (a run id can fall between two rows
# that are inserted together), or above them (a family's rows always
# go first).  Offsets 400 and 70,000 put the ids below and above
# 65,536.
PAD_ROWS = 170
PADS = {"below": range(-2 * PAD_ROWS, 0, 2),
        "around": range(-200, 2 * PAD_ROWS - 200, 2),
        "between": range(4, 4 + 2 * PAD_ROWS, 2),
        "above": range(14, 14 + 2 * PAD_ROWS, 2)}
LAYOUTS = [(offset, pad) for offset in (400, 70_000) for pad in PADS]


def padded_family(store: NodeStore, fam, offset: int, layout: str):
    """The root of ``fam`` (subsets of range(7)) moved to odd ids and
    joined to a padding run, and its members as sorted tuples."""
    ids = [offset + 2 * v + 1 for v in range(7)]
    pad = frozenset(offset + i for i in PADS[layout])
    moved = [frozenset(ids[v] for v in s) for s in fam]
    root = store.mk_join([family_node(store, moved, ids),
                          family_node(store, [pad], list(pad))])
    return root, sorted(tuple(sorted(m | pad)) for m in moved)


def test_terminate_semantics():
    s = NodeStore()
    assert s.count(BOTTOM) == 0
    assert s.count(TOP) == 1
    assert s.enumerate(BOTTOM) == []
    assert s.enumerate(TOP) == [()]
    assert s.node_count(TOP) == 1
    assert s.node_count(BOTTOM) == 1
    assert s.variables(TOP) == frozenset()


def test_literal():
    s = NodeStore()
    lit = s.mk_literal(3)
    assert s.kind(lit) == "L"
    assert s.count(lit) == 1
    assert s.enumerate(lit) == [(3,)]
    assert s.variables(lit) == {3}
    assert s.node_count(lit) == 1
    assert s.mk_literal(3) == lit  # hash-consed


@given(st.sets(st.integers(0, 3000), max_size=400))
@settings(max_examples=200, deadline=None)
@example(set(range(0, 3000, 100)))      # sparse: a step per set bit
@example(set(range(0, 3000, 2)))        # dense: a pass over every position
def test_bits_sparse_and_dense(ids):
    assert _bits(sum(1 << i for i in ids)) == ids


def test_decision_rules():
    s = NodeStore()
    lit1 = s.mk_literal(1)
    assert s.mk_decision(0, BOTTOM, lit1) == lit1
    assert s.mk_decision(0, TOP, BOTTOM) == s.mk_literal(0)
    d = s.mk_decision(0, TOP, lit1)
    assert s.entry(d) == ("D", 0, TOP, lit1)
    assert s.count(d) == 2
    assert s.enumerate(d) == [(0,), (1,)]
    assert s.node_count(d) == 3  # d, TOP, lit1
    assert s.mk_decision(0, TOP, lit1) == d
    with pytest.raises(ValueError):
        s.mk_decision(1, lit1, BOTTOM)
    with pytest.raises(ValueError):
        s.mk_decision(1, TOP, lit1)


def test_decomposable_rules():
    s = NodeStore()
    a = s.mk_literal(0)
    b = s.mk_literal(1)
    c = s.mk_literal(2)
    assert s.mk_decomposable([a, BOTTOM, b]) == BOTTOM
    assert s.mk_decomposable([]) == TOP
    assert s.mk_decomposable([TOP, TOP]) == TOP
    assert s.mk_decomposable([TOP, a]) == a
    assert s.mk_decomposable([a]) == a
    x = s.mk_decomposable([b, a])
    assert s.entry(x) == ("X", (a, b))  # children sorted
    assert s.mk_decomposable([a, s.mk_decomposable([c, b])]) == \
        s.mk_decomposable([c, b, a])  # flattening
    assert s.count(s.mk_decomposable([a, b, c])) == 1
    assert s.enumerate(s.mk_decomposable([a, b, c])) == [(0, 1, 2)]
    with pytest.raises(ValueError):
        s.mk_decomposable([a, s.mk_decision(1, TOP, a)])


def test_product_members():
    s = NodeStore()
    # antichain families (as cover families always are), interleaved vars
    fam_a = [{0, 5}, {1, 2}]
    fam_b = [{3}, {4}]
    left = family_node(s, fam_a, 6)
    right = family_node(s, fam_b, 6)
    x = s.mk_decomposable([left, right])
    combos = [sa | sb for sa in fam_a for sb in fam_b]
    want = sorted(tuple(sorted(c)) for c in combos)
    assert s.count(x) == 4
    assert s.enumerate(x) == want
    assert s.enumerate(x, limit=2) == want[:2]
    # same family compiled as a plain decision chain agrees
    assert s.enumerate(family_node(s, combos, 6)) == want
    s.validate(x)


@given(
    st.sets(st.frozensets(st.integers(0, 4), min_size=2, max_size=2),
            min_size=1, max_size=8),
    st.sets(st.frozensets(st.integers(5, 9), min_size=2, max_size=2),
            min_size=1, max_size=8),
)
def test_product_matches_cartesian(fam_a, fam_b):
    s = NodeStore()
    x = s.mk_decomposable([family_node(s, fam_a, 10), family_node(s, fam_b, 10)])
    want = sorted(tuple(sorted(a | b)) for a in fam_a for b in fam_b)
    assert s.count(x) == len(fam_a) * len(fam_b)
    assert s.enumerate(x) == want


def test_join_keeps_decomposable_unless_chain_is_smaller():
    s = NodeStore()
    a = family_node(s, [{0}, {1}], 4)           # D(0, TOP, L1)
    b = family_node(s, [{2}, {3}], 4)           # D(2, TOP, L3)
    before = len(s)
    # the chain D(0, b, D(1, b, BOTTOM)) would tie the join at 6 nodes
    x = s.mk_join([b, a])
    assert s.kind(x) == "X" and x == s.mk_decomposable([a, b])
    assert len(s) == before + 1                 # nothing but the join

    s = NodeStore()
    a = family_node(s, [{0, 1}, {1, 2}], 4)     # BOTTOM under a
    lit = s.mk_literal(3)
    before = len(s)
    ch = s.mk_join([a, lit])
    # D(3, a, BOTTOM); copying a's four nodes onto lit would tie it
    assert s.entry(ch) == ("D", 3, a, BOTTOM)
    assert len(s) == before + 1
    assert s.node_count(ch) == 6 < s.node_count(s.mk_decomposable([a, lit]))
    assert s.enumerate(ch) == [(0, 1, 3), (1, 2, 3)]
    s.validate(ch)
    s.check_canonical()


blocks = st.lists(
    st.sets(st.frozensets(st.integers(0, 3), min_size=2, max_size=2),
            min_size=1, max_size=6),
    min_size=2, max_size=4)


@given(blocks)
def test_join_chain_denotes_the_product(fams):
    s = NodeStore()
    shifted = [[frozenset(v + 4 * i for v in f) for f in fam]
               for i, fam in enumerate(fams)]
    kids = [family_node(s, fam, 4 * len(fams)) for fam in shifted]
    before = len(s)
    j = s.mk_join(kids)
    grown = len(s) - before
    x = s.mk_decomposable(kids)
    want = [()]
    for fam in shifted:
        want = [tuple(sorted(t + tuple(f))) for t in want for f in fam]
    want.sort()
    assert s.count(j) == len(want)
    assert s.enumerate(j) == s.enumerate(x) == want
    if j == x:
        assert grown == 1
    else:
        assert s.node_count(j) < s.node_count(x)
    s.validate(j)
    s.check_canonical()


def random_diagram(store, rng, variables, shared):
    """A random non-terminal diagram over some of ``variables`` (a list):
    a literal, a decision node on the first variable over diagrams of
    the others, or a decomposable node over diagrams of two parts.  Half
    the time a diagram over the same variables is taken from ``shared``
    instead of built anew."""
    key = tuple(variables)
    if key in shared and rng.random() < 0.5:
        return shared[key]
    if len(variables) == 1:
        node = store.mk_literal(variables[0])
    elif rng.random() < 0.25:
        cut = rng.randrange(1, len(variables))
        node = store.mk_decomposable([
            random_diagram(store, rng, variables[:cut], shared),
            random_diagram(store, rng, variables[cut:], shared)])
    else:
        rest = variables[1:]

        def branch():
            k = rng.randrange(len(rest) + 1)
            part = rest[:k] if rng.random() < 0.5 else rest[k:]
            return random_diagram(store, rng, part, shared) if part else TOP

        pos = branch()
        node = store.mk_decision(variables[0], pos,
                                 BOTTOM if rng.random() < 0.3 else branch())
    shared[key] = node
    return node


@given(st.integers(0, 10 ** 6))
def test_join_chain_matches_the_checked_reference(seed):
    # mk_join interns its chain's copies without mk_decision's checks:
    # id for id, it must build what the checked constructors build, with
    # the tail found by building every chain
    built = []
    for join in (NodeStore.mk_join, chain_join):
        rng = random.Random(seed)
        s = NodeStore()
        order = rng.sample(range(24), rng.randint(2, 24))
        cuts = sorted(rng.sample(range(1, len(order)),
                                 rng.randint(1, min(5, len(order) - 1))))
        kids = [random_diagram(s, rng, order[a:b], {})
                for a, b in zip([0] + cuts, cuts + [len(order)])]
        built.append((s, join(s, kids)))
    (s, j), (ref, r) = built
    assert s.dump(j) == ref.dump(r)
    assert len(s) == len(ref)
    s.check_canonical()


@given(families)
def test_family_counts_and_members(fam):
    s = NodeStore()
    root = family_node(s, fam, 7)
    assert s.count(root) == len(fam)
    assert s.enumerate(root) == sorted(tuple(sorted(t)) for t in fam)
    assert s.variables(root) == frozenset().union(*fam)
    s.validate(root)
    s.check_canonical()
    # structurally identical reconstruction lands on the same node
    assert family_node(s, fam, 7) == root


@given(families)
def test_enumerate_limit_is_prefix(fam):
    s = NodeStore()
    root = family_node(s, fam, 7)
    full = s.enumerate(root)
    for k in (0, 1, len(full) // 2, len(full)):
        assert s.enumerate(root, limit=k) == full[:k]
    assert list(s.iter_members(root)) == full


@pytest.mark.parametrize("offset,layout", LAYOUTS)
@settings(max_examples=50)
@given(families)
def test_padded_family_counts_and_members(offset, layout, fam):
    s = NodeStore()
    root, want = padded_family(s, fam, offset, layout)
    assert s.count(root) == len(fam)
    assert s.enumerate(root) == want
    for k in (0, 1, len(want) // 2):
        assert s.enumerate(root, limit=k) == want[:k]
    assert list(s.iter_members(root)) == want
    s.validate(root)


# Products that are split into segments: a few blocks on 7 rows each
# and a padding block of PAD_ROWS rows, as a family of one set.
# Separated blocks take consecutive id ranges, ascending; interleaved
# ones share a range, block i holding every k-th id from i.  The
# largest id is ``top``, small or on either side of 65,535, so that the
# segment sentinel, one more than the largest id, is checked at large
# ids too.
TOPS = (600, 0xFFFE, 0xFFFF)


def block_ids(k: int, layout: str, pad_first: bool, top: int) -> list:
    """Ids of k blocks of 7 rows and, first or last, a padding block."""
    if layout == "separated":
        ids = [list(range(7 * i, 7 * i + 7)) for i in range(k)]
    else:
        ids = [list(range(i, 7 * k, k)) for i in range(k)]
    pad = list(range(PAD_ROWS))
    if pad_first:
        ids = [pad] + [[PAD_ROWS + v for v in b] for b in ids]
    else:
        ids.append([7 * k + v for v in pad])
    shift = top - max(map(max, ids))
    return [[v + shift for v in b] for b in ids]


def laid_out(fams, layout: str, pad_first: bool, top: int) -> tuple:
    """The families of subsets of range(7) on their blocks' ids, the
    padding block's one set first or last, and each block's ids."""
    ids = block_ids(len(fams), layout, pad_first, top)
    pad = [frozenset(ids[0] if pad_first else ids[-1])]
    fams = [[frozenset(b[v] for v in s) for s in fam]
            for fam, b in zip(fams, ids[1:] if pad_first else ids)]
    return ([pad] + fams if pad_first else fams + [pad]), ids


def product_members(fams) -> list:
    want = [()]
    for fam in fams:
        want = [tuple(sorted(t + tuple(f))) for t in want for f in fam]
    return sorted(want)


def chain_node(store: NodeStore, fams, ids) -> NodeId:
    """The product of the blocks as one chain in id order: each
    block's TOP is the next block."""
    tail = TOP
    for fam, b in zip(reversed(fams), reversed(ids)):
        tail = family_node(store, fam, b, tail)
    return tail


def check_members(store: NodeStore, root: NodeId, want: list):
    assert store.count(root) == len(want)
    assert store.enumerate(root) == want
    for k in (0, 1, len(want) // 2):
        assert store.enumerate(root, limit=k) == want[:k]


@settings(max_examples=60, deadline=None)
@given(st.lists(families, min_size=1, max_size=3), st.booleans(),
       st.sampled_from(TOPS))
@example([{frozenset(), frozenset({0})}, {frozenset({1}), frozenset({1, 2})}],
         False, 0xFFFF)
def test_product_of_separated_families(fams, pad_first, top):
    # any families, the empty set and sets that contain others included:
    # a segment's part that is a prefix of another sorts after it
    fams, ids = laid_out(fams, "separated", pad_first, top)
    want = product_members(fams)
    s = NodeStore()
    check_members(s, chain_node(s, fams, ids), want)
    kids = [family_node(s, fam, b) for fam, b in zip(fams, ids)]
    check_members(s, s.mk_decomposable(kids), want)


@settings(max_examples=60, deadline=None)
@given(blocks, st.sampled_from(["separated", "interleaved"]), st.booleans(),
       st.sampled_from(TOPS))
def test_product_of_joined_blocks(fams, layout, pad_first, top):
    # cover-like blocks (every set of a block has two rows), joined by
    # mk_join, which chains them here (the padding block makes the
    # chain smaller), and as the decomposable node that mk_join keeps
    # when it does not chain; interleaved blocks share segments
    fams, ids = laid_out(fams, layout, pad_first, top)
    want = product_members(fams)
    s = NodeStore()
    kids = [family_node(s, fam, b) for fam, b in zip(fams, ids)]
    check_members(s, s.mk_join(kids), want)
    x = s.mk_decomposable(kids)
    check_members(s, x, want)
    # blocks whose rows interleave are read together, as one segment
    spans = sorted((min(set().union(*fam)), max(set().union(*fam)))
                   for fam in fams)
    reach = itertools.accumulate((hi for _, hi in spans), max)
    interleave = any(lo < hi for (lo, _), hi in zip(spans[1:], reach))
    segments = s._segments(x)
    assert len(segments) > 1
    assert any(len(heads) > 1 for heads, _ in segments) == interleave


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.lists(families, min_size=1, max_size=3),
                           st.just("separated")),
                 st.tuples(blocks, st.sampled_from(["separated",
                                                    "interleaved"]))),
       st.booleans(), st.sampled_from(TOPS), st.integers(0, 10 ** 6))
@example(([{frozenset({0})}], "separated"), False, 600, 40)  # neg is least
@example(([{frozenset({0})}], "separated"), False, 600, 101)  # inner X node
def test_least_part_is_the_first_item_of_its_segment(fams_layout, pad_first,
                                                     top, seed):
    # the products of the two tests above, with interleaved heads and
    # families that are no antichain, and a random diagram, with
    # decomposable nodes inside segments: a segment that another follows
    # starts at its least part, which its stream reads first; one call
    # finds the least parts of all of them
    fams, layout = fams_layout
    fams, ids = laid_out(fams, layout, pad_first, top)
    s = NodeStore()
    kids = [family_node(s, fam, b) for fam, b in zip(fams, ids)]
    roots = [s.mk_decomposable(kids), s.mk_join(kids)]
    if layout == "separated":
        roots.append(chain_node(s, fams, ids))
    rng = random.Random(seed)
    variables = rng.sample(range(24), rng.randint(1, 24))
    roots.append(random_diagram(s, rng, [top + 1 + v for v in variables], {}))
    for root in roots:
        if root in (BOTTOM, TOP):
            continue
        end = s._vars[root].bit_length()     # the sentinel, as read
        firsts = s._segments(root)[:-1]
        parts = _least_parts(s, firsts, end)
        assert len(parts) == len(firsts)
        for (heads, stop), part in zip(firsts, parts):
            first = next(_members(_segment_stream(s, heads, stop, end)))
            assert part + (end,) == first


class CutPass(Exception):
    pass


def test_small_roots_skip_the_cut_pass(monkeypatch, demo):
    # pentomino 3x20 has no cut, and the cut pass would add 40 % to its
    # read; a root under 160 variables is read whole without it
    pent = solve(pentomino_instance(), SolveConfig(engine="dxd"))
    ladder = solve(block_diagonal(demo, 400), SolveConfig(engine="dxd"))
    assert len(pent.store.variables(pent.root)) < 160
    assert len(ladder.store.variables(ladder.root)) >= 160

    def cut_pass(self, n):
        raise CutPass

    monkeypatch.setattr(NodeStore, "_segments", cut_pass)
    covers = pent.store.enumerate(pent.root)
    assert len(covers) == pent.count == 8
    assert covers == sorted(covers)
    with pytest.raises(CutPass):
        ladder.store.enumerate(ladder.root, limit=1)


@pytest.mark.parametrize("engine", ["dxd", "dxz"])
def test_ladder_builds_streams_for_the_segments_that_move(monkeypatch, demo,
                                                          engine):
    # 10 covers of 799 or 800 segments move only the last few: the others
    # stay at their least parts and build no stream
    rep = solve(block_diagonal(demo, 400), SolveConfig(engine=engine))
    built = []
    init = diagram._Streams.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(diagram._Streams, "__init__", counted)
    covers = rep.store.enumerate(rep.root, limit=10)
    assert len(covers) == 10 and covers == sorted(covers)
    assert len(rep.store._segments(rep.root)) >= 799
    assert len(built) <= 4


@pytest.mark.parametrize("engine", ["dxd", "dxz"])
def test_ladder_draw_cuts_once_and_walks_at_most_once(monkeypatch, demo,
                                                      engine):
    # the least parts of the ladder's 799 or 800 segments come from one
    # call: one cut pass and at most one reachability walk, where a
    # walk per segment took most of the draw
    rep = solve(block_diagonal(demo, 400), SolveConfig(engine=engine))
    calls = {"_segments": 0, "_reachable_from": 0}

    def counted(name):
        method = getattr(NodeStore, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(NodeStore, name, wrapper)

    counted("_segments")
    counted("_reachable_from")
    covers = rep.store.enumerate(rep.root, limit=10)
    assert len(covers) == 10 and covers == sorted(covers)
    assert calls["_segments"] == 1
    assert calls["_reachable_from"] <= 1


class LeastParts(Exception):
    pass


def test_one_segment_root_reads_no_least_part(monkeypatch):
    # 170 singletons {v}: the root has enough variables for the cut pass,
    # but no node below it is a cut, so it is one segment, read from the
    # start with no least part
    s = NodeStore()
    root = family_node(s, [{v} for v in range(170)], 170)
    assert len(s.variables(root)) >= 160
    assert s._segments(root) == [((root,), TOP)]

    def least_parts(*args):
        raise LeastParts

    monkeypatch.setattr(diagram, "_least_parts", least_parts)
    check_members(s, root, [(v,) for v in range(170)])


def test_terminals_are_one_segment():
    # the cut pass on a terminal gives one segment, which the product
    # reads as its family through that segment's stream alone, with no
    # chain of odometer steps: nothing for BOTTOM, the empty set for TOP
    s = NodeStore()
    for n, want in ((BOTTOM, []), (TOP, [()])):
        segments = s._segments(n)
        assert segments == [((n,), TOP)]
        members = _product(s, segments, s._vars[n].bit_length())
        assert not isinstance(members, itertools.chain)
        assert list(members) == want


def subsets_instance() -> Instance:
    """The 15 non-empty subsets of 4 columns as rows: its 15 covers are
    the partitions of the columns, and every row lies in one."""
    rows = [(f"S{m}", [c for c in range(4) if m >> c & 1])
            for m in range(1, 16)]
    return Instance.build([f"C{c}" for c in range(4)], rows)


@pytest.mark.parametrize("engine", ["dxd", "dxz", "dyndxd"])
def test_twelve_block_product_draws_in_odometer_order(engine):
    # 12 blocks of 15 covers: the first 10,000 covers cross 667
    # odometer steps, the last segment read first while its stream grows
    # and then from its finished items, the earlier segments moving;
    # the reference is the product of one block's oracle covers, offset
    # per block (a block's covers share no prefix: they are an antichain)
    base = subsets_instance()
    block = enumerate_covers(base)
    assert len(block) == 15
    assert sorted({r for c in block for r in c}) == list(range(15))
    k = 12
    rep = solve(block_diagonal(base, k), SolveConfig(engine=engine))
    assert rep.count == 15 ** k
    assert len(rep.store.variables(rep.root)) == 180
    assert len(rep.store._segments(rep.root)) >= k
    blocks = [[tuple(r + 15 * i for r in c) for c in block] for i in range(k)]
    want = [sum(p, ()) for p in itertools.islice(itertools.product(*blocks),
                                                 10_000)]
    assert rep.store.enumerate(rep.root, limit=10_000) == want


@pytest.mark.parametrize("engine", ["dxd", "dxz", "dyndxd"])
def test_first_cover_leaves_the_last_segment_growing(monkeypatch, engine):
    # drawing one cover of the 12-block product leaves the last
    # segment's stream unfinished: reading it whole up front would
    # finish it
    base = subsets_instance()
    least = enumerate_covers(base)[0]
    rep = solve(block_diagonal(base, 12), SolveConfig(engine=engine))
    built = []
    segment_stream = diagram._segment_stream

    def recorded(store, heads, stop, end):
        s = segment_stream(store, heads, stop, end)
        built.append((end, s))
        return s

    monkeypatch.setattr(diagram, "_segment_stream", recorded)
    first = next(rep.store.iter_members(rep.root))
    assert first == tuple(r + 15 * i for i in range(12) for r in least)
    tails = [s for end, s in built if end is None]
    assert len(tails) == 1
    assert not tails[0].done


def binary_prefix(pairs, rows, n: int) -> list:
    """The first n sets of the product of {a} and {b}, for each pair
    (a, b) of ascending pairs, with ``rows`` added to each: in
    lexicographic order they count in binary, the last pair fastest."""
    return [tuple(sorted([p[k >> (len(pairs) - 1 - i) & 1]
                          for i, p in enumerate(pairs)] + rows))
            for k in range(n)]


def test_join_kept_decomposable_is_a_product():
    # 85 blocks {a}, {b}: their chain would tie the join, so mk_join
    # keeps the decomposable node, and each block is a segment
    pairs = [(2 * i, 2 * i + 1) for i in range(85)]
    s = NodeStore()
    j = s.mk_join([family_node(s, [{a}, {b}], [a, b]) for a, b in pairs])
    assert s.kind(j) == "X"
    assert len(s._segments(j)) == 85
    assert s.count(j) == 2 ** 85
    assert s.enumerate(j, limit=20) == binary_prefix(pairs, [], 20)


def test_deep_product_needs_no_recursion():
    # 1200 levels, each a block {a}, {b} whose TOP is a decomposable
    # node of one more row c and the next level: 2 segments per level,
    # read at the default recursion limit
    depth = 1200
    assert sys.getrecursionlimit() < 2 * depth
    s = NodeStore()
    tail = TOP
    for i in reversed(range(depth)):
        x = s.mk_decomposable([s.mk_literal(3 * i + 2), tail])
        tail = family_node(s, [{3 * i}, {3 * i + 1}], [3 * i, 3 * i + 1], x)
    assert len(s._segments(tail)) == 2 * depth
    assert s.count(tail) == 2 ** depth
    pairs = [(3 * i, 3 * i + 1) for i in range(depth)]
    rows = [3 * i + 2 for i in range(depth)]
    assert s.enumerate(tail, limit=20) == binary_prefix(pairs, rows, 20)


def test_deep_segment_part_needs_no_recursion():
    # a segment that another follows, whose singletons {i} form one
    # negative chain longer than the recursion limit, all of them ending
    # at the next segment {k}, {k + 1}: its least part is found at the
    # default limit
    k = 1500
    assert sys.getrecursionlimit() < k
    s = NodeStore()
    nxt = family_node(s, [{k}, {k + 1}], [k, k + 1])
    root = BOTTOM
    for i in reversed(range(k)):
        root = s.mk_decision(i, nxt, root)
    segments = s._segments(root)
    assert segments == [((root,), nxt), ((nxt,), TOP)]
    assert _least_parts(s, segments[:-1], k + 2) == [(0,)]
    want = [(i, j) for i in range(k) for j in (k, k + 1)]
    check_members(s, root, want)


def test_dump_round_trip():
    s = NodeStore()
    left = family_node(s, [{0}, {1}, {0, 1}], 2)
    right = family_node(s, [{2, 3}, {4}], 5)
    root = s.mk_decomposable([left, right])
    text = s.dump(root)
    lines = text.strip().splitlines()
    assert lines[-1].split()[0] == str(root)  # root last
    s2, r2, id_map = load_dump(text)
    assert id_map[root] == r2
    assert s2.count(r2) == s.count(root)
    assert s2.enumerate(r2) == s.enumerate(root)
    s2.check_canonical()
    # renumbering settles after one round
    text2 = s2.dump(r2)
    s3, r3, _ = load_dump(text2)
    assert s3.dump(r3) == text2


def mapped_dump(text: str, id_map: dict) -> str:
    """``text``, a dump, with every node id sent through ``id_map``; a
    decomposable node's children are sorted again, as a store keeps
    them."""
    lines = []
    for line in text.splitlines():
        old, kind, *fields = line.split()
        fields = [int(f) for f in fields]
        if kind == "D":
            fields[1:] = [id_map[c] for c in fields[1:]]
        elif kind == "X":
            fields = sorted(id_map[c] for c in fields)
        lines.append(" ".join(map(str, (id_map[int(old)], kind, *fields))))
    return "\n".join(lines) + "\n"


def test_corpus_diagrams_round_trip_through_dump():
    # every engine's diagram on criterion 4's corpus, chains and
    # decomposable nodes included, survives a dump: same count, nodes
    # and covers, and the same dump up to renumbering.  export_dot
    # draws exactly the reachable nodes
    kinds = set()
    chains = 0      # diagrams of joins that all became chains
    for _, _, reps in corpus():
        for rep in reps.values():
            store, root = rep.store, rep.root
            text = store.dump(root)
            s2, r2, id_map = load_dump(text)
            assert (s2.count(r2), s2.node_count(r2)) == (rep.count, rep.nodes)
            assert s2.enumerate(r2) == store.enumerate(root)
            assert s2.dump(r2) == mapped_dump(text, id_map)
            drawn = re.findall(r"^  n(\d+) \[shape=", store.export_dot(root),
                               re.M)
            assert sorted(map(int, drawn)) == sorted(store.reachable(root))
            here = {store.kind(m) for m in store.reachable(root)}
            chains += rep.stats.subs > 0 and "X" not in here
            kinds |= here
    assert kinds == {"B", "T", "L", "D", "X"} and chains > 0


def test_dump_terminal_only():
    s = NodeStore()
    assert s.dump(TOP) == "1 T\n"
    s2, r2, _ = load_dump(s.dump(TOP))
    assert r2 == TOP
    with pytest.raises(ValueError):
        load_dump("")
    with pytest.raises(ValueError):
        load_dump("0 Q\n")


@pytest.mark.parametrize("line", [
    "2 L",              # too few fields
    "2 D 5 1",
    "2",
    "2 X 0",            # one child
    "2 L 3 4",          # a stray field
    "2 D 0 9 1",        # a child not defined before
    "2 X 7 8",
    "2 L x",            # not an integer
    "x L 3",
    "2 Q 3",            # an unknown kind
    "5 L 4",            # an id defined twice
    "2 D 3 5 0",        # a variable in its own branch
    "2 X 5 5",          # children that share a variable
    "2 L 99999999999999999999",     # a variable too large for a mask
    "2 D 99999999999999999999 1 0",
])
def test_load_dump_names_a_malformed_line(line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        load_dump("0 B\n1 T\n5 L 3\n" + line + "\n")


def test_adopt_reinterns_a_copy_appended_after_a_shared_prefix():
    s = NodeStore()
    shared = family_node(s, [{0}, {1}], 2)
    base = len(s)
    copy = NodeStore()
    copy_ids = copy.adopt([s.entry(n) for n in range(2, base)], 2)
    # a forked copy goes on from the shared prefix, as does the original
    right = family_node(copy, [{2, 3}, {4}], 5)
    root = copy.mk_decomposable([copy_ids[shared], right])
    s.mk_literal(9)         # the original appends nodes of its own meanwhile
    ids = s.adopt([copy.entry(n) for n in range(base, len(copy))], base)
    assert ids[:base] == list(range(base))
    assert s.enumerate(ids[root]) == copy.enumerate(root)
    s.check_canonical()
    # adopting the same nodes again finds them all interned
    size = len(s)
    assert s.adopt([copy.entry(n) for n in range(base, len(copy))],
                   base) == ids
    assert len(s) == size


@pytest.mark.parametrize("entries, base", [
    ([("D", 0, 5, 0)], 2),      # a child not defined before
    ([("X", (-1, 1))], 2),      # a negative id
    ([("T",)], 2),              # a terminal
    ([("L", 0)], 1),            # BOTTOM and TOP are always shared
    ([("L", 0)], 3),            # a prefix longer than the store
])
def test_adopt_rejects_what_is_not_a_node(entries, base):
    with pytest.raises(ValueError):
        NodeStore().adopt(entries, base)


def test_export_dot():
    s = NodeStore()
    lit1 = s.mk_literal(1)
    d = s.mk_decision(0, TOP, lit1)
    left = family_node(s, [{0}, {1}], 2)
    right = family_node(s, [{2}], 3)
    x = s.mk_decomposable([left, right])
    dot = s.export_dot(d)
    assert dot.startswith("digraph")
    assert "[style=dashed]" in dot
    assert 'shape=box, label="0"' not in dot  # BOTTOM unreachable from d
    named = s.export_dot(d, var_names={0: "A", 1: "B"})
    assert 'label="A"' in named and 'label="B"' in named
    assert "shape=triangle" in s.export_dot(x)


def test_check_canonical_catches_corruption():
    s = NodeStore()
    lit = s.mk_literal(0)
    s._entries.append(("L", 0))  # duplicate interning, bypassing the table
    s._vars.append(frozenset((0,)))
    with pytest.raises(AssertionError):
        s.check_canonical()
    del s._entries[-1], s._vars[-1]
    s.check_canonical()

    key = ("D", 1, BOTTOM, lit)
    bad = len(s._entries)
    s._entries.append(key)
    s._vars.append(frozenset((0, 1)))
    s._unique[key] = bad
    with pytest.raises(AssertionError):
        s.check_canonical()
    with pytest.raises(AssertionError):
        s.validate(bad)


def test_check_canonical_requires_smaller_child_ids():
    # count() reads nodes in ascending id order, so a child must precede
    # its parent; here node 3's positive branch is node 4
    s = NodeStore()
    lit = s.mk_literal(0)
    bad = len(s._entries)
    key = ("D", 1, bad + 1, lit)
    s._entries.append(key)
    s._vars.append(0b111)
    s._unique[key] = bad
    s._entries.append(("L", 2))
    s._vars.append(0b100)
    s._unique[("L", 2)] = bad + 1
    with pytest.raises(AssertionError, match="child id not smaller"):
        s.check_canonical()
    with pytest.raises(AssertionError, match="child id not smaller"):
        s.validate(bad)
