import random

from hypothesis import given, strategies as st

from xcover.dlx import DlxMatrix
from xcover.gen import block_diagonal
from xcover.masks import MaskTables
from xcover.solver import bfs_components

from conftest import random_instance


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
