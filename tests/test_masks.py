import random

import pytest
from hypothesis import given, strategies as st

from xcover import solver
from xcover.diagram import BOTTOM
from xcover.dlx import DlxMatrix
from xcover.gen import block_diagonal
from xcover.instance import Instance
from xcover.masks import ColumnCounts, MaskTables
from xcover.solver import SolveConfig, SolveTimeout, bfs_components, solve

from conftest import pentomino_instance, random_instance


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_demo_tables(demo):
    t = MaskTables.from_instance(demo)
    assert [bits(m) for m in t.col_rows] == [[0, 1], [0, 2], [0, 2], [0, 1],
                                              [3, 5], [3, 4]]
    assert [bits(m) for m in t.row_cols] == [[0, 1, 2, 3], [0, 3], [1, 2],
                                              [4, 5], [5], [4]]
    assert [bits(m) for m in t.conflict] == [[0, 1, 2], [0, 1], [0, 2],
                                              [3, 4, 5], [3, 4], [3, 5]]
    assert [bits(c) for c in t.components(0b111111)] == [[0, 1, 2],
                                                          [3, 4, 5]]
    assert t.columns_of(0b000110) == 0b001111
    assert t.select_column(0b111111, 0b111111) == 0
    assert t.single_full_row(0b110000, 0b001000) == 3
    assert t.single_full_row(0b110000, 0b010000) is None
    assert t.single_full_row(0b110000, 0) is None


def live_states(inst, rng):
    """Random live states of inst's DlxMatrix, reached by covering random
    columns (each state is checked before the next column is covered)."""
    m = DlxMatrix.from_instance(inst)
    yield m
    while not m.is_empty():
        m.cover(rng.choice(m.live_columns()))
        yield m


@given(st.integers(0, 10 ** 6))
def test_masks_agree_with_dlx_at_random_live_states(seed):
    # the flood fill partitions the live rows exactly as bfs_components
    # does, and column choice and the single-full-row test agree with the
    # dancing-links kernel
    rng = random.Random(seed)
    inst = random_instance(rng, max_rows=14, max_cols=10)
    if rng.random() < 0.5:
        inst = block_diagonal(inst, rng.randint(2, 3))
    t = MaskTables.from_instance(inst)
    for m in live_states(inst, rng):
        cols = m.live_col_mask
        rows = sum(1 << r for r in m.live_row_ids())
        comps = t.components(rows)
        assert [bits(c) for c in comps] == bfs_components(m)
        for comp in comps:
            assert bits(t.columns_of(comp)) == sorted(
                {c for r in bits(comp) for c in m.row_columns(r)})
        assert t.single_full_row(cols, rows) == m.single_full_row()
        if cols:
            assert t.select_column(cols, rows) == m.select_column()


@given(st.integers(0, 10 ** 6))
def test_root_parts_agree_with_dlx_at_the_all_rows_state(seed):
    # at the state that holds every row, one fill over the column graph
    # gives bfs_components' parts, each with its exact columns, in order
    # of smallest row; a column that no row holds gives None.  A
    # block-diagonal instance has its rows shuffled, so the part that
    # holds row 0 need not hold column 0
    rng = random.Random(seed)
    inst = random_instance(rng, max_rows=14, max_cols=10)
    if rng.random() < 0.5:
        inst = block_diagonal(inst, rng.randint(2, 3))
        rows = list(inst.rows)
        rng.shuffle(rows)
        inst = Instance(inst.columns, tuple(rows))
    t = MaskTables.from_instance(inst)
    assert t.span() == [t.columns_of(m) for m in t.col_rows]
    m = next(live_states(inst, rng))
    cols = m.live_col_mask
    rows = sum(1 << r for r in m.live_row_ids())
    parts = t.root_parts(cols, rows)
    if not all(t.col_rows):
        assert parts is None
    else:
        assert [bits(r) for _, r in parts] == bfs_components(m)
        for c, r in parts:
            assert bits(c) == sorted(
                {c for r in bits(r) for c in m.row_columns(r)})
    # one more column, which no row holds
    wider = Instance(inst.columns + ("extra",), inst.rows)
    t = MaskTables.from_instance(wider)
    assert t.root_parts((1 << wider.n_cols) - 1, rows) is None


def test_root_parts_follow_the_smallest_row(demo):
    # demo's second block listed first: the part of row 0 holds columns
    # 4 and 5, and comes first
    flipped = Instance(demo.columns, demo.rows[3:] + demo.rows[:3])
    t = MaskTables.from_instance(flipped)
    assert [(bits(c), bits(r)) for c, r in t.root_parts(0b111111, 0b111111)] \
        == [([4, 5], [0, 1, 2]), ([0, 1, 2, 3], [3, 4, 5])]
    # a state without every row of the tables is refused, also one of
    # as many rows, with row 6 (not in the tables) in place of row 5
    for rows in (0b011111, 0b1011111):
        with pytest.raises(ValueError):
            t.root_parts(0b111111, rows)
    # row 2 in place of row 1, in a part of its own: no part reaches row 1
    with pytest.raises(ValueError):
        MaskTables(2, [(0, [0]), (1, [1])]).root_parts(0b11, 0b101)


@st.composite
def wide_states(draw):
    """A table of up to about 3,000 columns with a few live ones: often
    only at high ids, as in a ladder's component, at and next to
    multiples of 8, or just one.  With ``starve``, live columns may have
    no live row; without, every live column has one and counts tie."""
    n_cols = draw(st.integers(1, 3000))
    near8 = st.integers(0, n_cols // 8).flatmap(
        lambda k: st.sampled_from([8 * k - 1, 8 * k, 8 * k + 1]))
    anywhere = st.integers(0, n_cols - 1)
    high = st.integers(max(0, n_cols - 40), n_cols - 1)
    ids = st.one_of(anywhere, high, near8).filter(lambda c: 0 <= c < n_cols)
    live = draw(st.lists(ids, min_size=1, max_size=draw(
        st.sampled_from([1, 8, 40])), unique=True))
    n_rows = draw(st.integers(1, 12))
    starve = draw(st.booleans())
    some = st.lists(st.integers(0, n_rows - 1), min_size=0 if starve else 1,
                    max_size=6, unique=True)
    col_of = {c: draw(some) for c in live}
    rows = [(r, [c for c in live if r in col_of[c]]) for r in range(n_rows)]
    alive = (1 << n_rows) - 1
    if starve:
        alive = draw(st.integers(0, alive))
    return MaskTables(n_cols, rows), sum(1 << c for c in live), alive


@given(wide_states())
def test_select_column_is_the_smallest_minimum_on_wide_masks(state):
    # against a brute-force minimum over the sorted live columns, ties to
    # the smallest id: a live column with no live row is the first such
    # column, since none has fewer
    t, cols, rows = state
    counts = [((t.col_rows[c] & rows).bit_count(), c) for c in bits(cols)]
    assert t.select_column(cols, rows) == min(counts)[1]


def test_select_column_at_byte_edges_and_high_ids():
    # one table of 3,000 columns, column c with the one row c % 5: the
    # answer at and next to multiples of 8 and at the top id, alone and
    # paired with the top id.  Under row 4 alone, only the columns
    # c % 5 == 4 keep a row: the first column without one wins
    t = MaskTables(3000, [(r, range(r, 3000, 5)) for r in range(5)])
    for c in (0, 1, 7, 8, 9, 15, 16, 2047, 2048, 2999):
        assert t.select_column(1 << c, 0b11111) == c
        assert t.select_column(1 << c | 1 << 2999, 0b11111) == c
    assert t.select_column(1 << 2994 | 1 << 2996 | 1 << 2997, 0b10000) == 2996
    assert t.select_column(1 << 2999 | 1 << 2994, 0b10000) == 2994
    with pytest.raises(ValueError):
        t.select_column(0, 0b11111)


@given(st.integers(0, 10 ** 6))
def test_column_counts_follow_a_random_descent(seed):
    # walk down a random search path, choosing a random row of the chosen
    # column each time: at every state the counts pick the column that
    # both popcount and dancing links pick, and on the way back up each
    # leave restores the parent's counts exactly
    rng = random.Random(seed)
    inst = random_instance(rng, max_rows=14, max_cols=10)
    if rng.random() < 0.5:
        inst = block_diagonal(inst, rng.randint(2, 3))
    t = MaskTables.from_instance(inst)
    m = DlxMatrix.from_instance(inst)
    cols, rows = (1 << inst.n_cols) - 1, (1 << inst.n_rows) - 1
    counts = ColumnCounts(t, rows)
    assert counts.span == [t.columns_of(m) for m in t.col_rows]
    path = []
    while cols:
        assert all(counts.size[c] == (t.col_rows[c] & rows).bit_count()
                   for c in bits(cols))
        c = counts.select(cols)
        assert c == t.select_column(cols, rows) == m.select_column()
        choices = bits(t.col_rows[c] & rows)
        if not choices:
            break
        r = rng.choice(choices)
        assert counts.reach(r) == t.columns_of(t.conflict[r])
        saved = (list(counts.size), list(counts.bucket))
        cols, rows = cols & ~t.row_cols[r], rows & ~t.conflict[r]
        path.append((saved, counts.enter(counts.reach(r), cols, rows)))
        for d in m.row_columns(r):
            m.cover(d)
    for saved, log in reversed(path):
        counts.leave(log)
        assert (counts.size, counts.bucket) == saved


@given(st.integers(0, 10 ** 6))
def test_starved_children_along_a_random_descent(seed):
    # at each state of a random descent, every child (one per row of the
    # chosen column) is entered on the counts: their column choice is an
    # empty column exactly when a live column has no live row, by
    # popcount and by dancing links choosing a column of size 0; leaving
    # the child restores the parent's counts exactly
    rng = random.Random(seed)
    inst = random_instance(rng, max_rows=14, max_cols=10)
    if rng.random() < 0.5:
        inst = block_diagonal(inst, rng.randint(2, 3))
    t = MaskTables.from_instance(inst)
    m = DlxMatrix.from_instance(inst)
    cols, rows = (1 << inst.n_cols) - 1, (1 << inst.n_rows) - 1
    counts = ColumnCounts(t, rows)
    while cols:
        c = counts.select(cols)
        fed = []
        for r in bits(t.col_rows[c] & rows):
            child = cols & ~t.row_cols[r], rows & ~t.conflict[r]
            saved = (list(counts.size), list(counts.bucket))
            log = counts.enter(counts.reach(r), *child)
            starved = bool(child[0]) and not counts.size[counts.select(
                child[0])]
            counts.leave(log)
            assert (counts.size, counts.bucket) == saved
            assert starved == any(
                (t.col_rows[d] & child[1]).bit_count() == 0
                for d in bits(child[0]))
            covered = m.row_columns(r)
            for d in covered:
                m.cover(d)
            assert starved == (not m.is_empty() and not list(
                m.interacting_rows(m.select_column())))
            for d in reversed(covered):
                m.uncover(d)
            if not starved:
                fed.append((r, child))
        if not fed:
            break
        r, (cols, rows) = rng.choice(fed)
        counts.enter(counts.reach(r), cols, rows)
        for d in m.row_columns(r):
            m.cover(d)


def test_column_without_rows_is_chosen_first():
    # column b has no row; it is the first choice and the solve is BOTTOM
    # at its first state
    inst = Instance.build(["a", "b", "c"],
                          [("R0", [0, 2]), ("R1", [0]), ("R2", [2])])
    t = MaskTables.from_instance(inst)
    counts = ColumnCounts(t, 0b111)
    assert counts.select(0b111) == 1
    rep = solve(inst, SolveConfig(engine="dxz"))
    assert rep.root == BOTTOM
    assert (rep.stats.cache_hits, rep.stats.cache_misses) == (0, 1)
    # a column that a choice empties moves to bucket 0: choosing R1 of
    # {R0: a b, R1: a} leaves column b live with no row
    t = MaskTables(2, [(0, [0, 1]), (1, [0])])
    counts = ColumnCounts(t, 0b11)
    cols, rows = 0b11 & ~t.row_cols[1], 0b11 & ~t.conflict[1]
    assert (cols, rows) == (0b10, 0)
    counts.enter(counts.reach(1), cols, rows)
    assert counts.size[1] == 0 and counts.bucket[0] & 0b10
    assert counts.select(cols) == 1


def test_dxz_solve_after_a_timeout_is_unchanged(pentomino_dxz, monkeypatch):
    # the column counts belong to one solve: one cut short mid-search (at
    # its 5,000th deadline check, of about 18,600) leaves nothing behind
    # for the next
    inst = pentomino_instance()
    calls = []

    def check(ctx):
        calls.append(None)
        if len(calls) == 5000:
            raise SolveTimeout

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_check_deadline", check)
        with pytest.raises(SolveTimeout):
            solve(inst, SolveConfig(engine="dxz"))
    rep = solve(inst, SolveConfig(engine="dxz"))
    assert rep.store.dump(rep.root) == \
        pentomino_dxz.store.dump(pentomino_dxz.root)
    assert (rep.stats.cache_hits, rep.stats.cache_misses,
            rep.stats.dead) == (pentomino_dxz.stats.cache_hits,
                                pentomino_dxz.stats.cache_misses,
                                pentomino_dxz.stats.dead)
