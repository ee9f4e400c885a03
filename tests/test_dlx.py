import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import xcover
from xcover.dlx import DlxMatrix

from conftest import DEMO_ROWS, random_instance


def demo_matrix() -> DlxMatrix:
    return DlxMatrix.from_rows(range(6), list(enumerate(r[1] for r in DEMO_ROWS)))


def test_build_shape():
    m = demo_matrix()
    # root + 6 headers + 12 one-entries
    assert len(m.left) == 19
    assert m.n_cols == 6
    assert m.live_cols == 6
    assert m.live_rows == 6
    assert m.live_col_mask == 0b111111
    assert m.live_columns() == [0, 1, 2, 3, 4, 5]
    assert m.live_row_ids() == [0, 1, 2, 3, 4, 5]
    assert [m.size[m.header_of[c]] for c in range(6)] == [2, 2, 2, 2, 2, 2]
    assert m.row_degree == {0: 4, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1}


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        DlxMatrix.from_rows([0, 0], [])
    with pytest.raises(ValueError):
        DlxMatrix.from_rows([0, 1], [(0, [0]), (0, [1])])
    with pytest.raises(ValueError):
        DlxMatrix.from_rows([0, 1], [(0, [])])
    with pytest.raises(ValueError):
        DlxMatrix.from_rows([0, 1], [(0, [2])])


def test_global_ids_survive_in_submatrix():
    m = DlxMatrix.from_rows([2, 5, 9], [(7, [2, 9]), (3, [5]), (8, [5, 9])])
    assert m.live_columns() == [2, 5, 9]
    assert m.live_row_ids() == [3, 7, 8]
    assert m.live_col_mask == (1 << 2) | (1 << 5) | (1 << 9)
    m.cover(9)
    assert m.live_row_ids() == [3]
    assert m.live_columns() == [2, 5]
    m.uncover(9)
    assert m.live_row_ids() == [3, 7, 8]


def test_walk_order():
    m = demo_matrix()
    assert list(m.interacting_rows(0)) == [0, 1]
    assert list(m.interacting_rows(5)) == [3, 4]
    assert list(m.interacting_cols(m.row_first_cell[0])) == [0, 1, 2, 3]
    assert m.row_columns(0) == [0, 1, 2, 3]
    assert m.row_columns(4) == [5]


def test_select_column_prefers_small_then_low_id():
    m = demo_matrix()
    assert m.select_column() == 0  # all ties -> lowest id
    m.cover(0)  # kills rows A, B; column 3 is now empty
    assert m.size[m.header_of[3]] == 0
    assert m.select_column() == 3
    m.uncover(0)
    m2 = DlxMatrix.from_rows([0, 1], [(0, [0]), (1, [1]), (2, [1])])
    assert m2.select_column() == 0


def test_cover_removes_rows_and_counts():
    m = demo_matrix()
    m.cover(0)
    assert m.live_cols == 5
    assert m.live_rows == 4
    assert m.live_row_ids() == [2, 3, 4, 5]
    assert not (m.live_col_mask & 1)
    for c in (1, 2, 3):
        m.cover(c)
    assert m.live_columns() == [4, 5]
    assert m.live_row_ids() == [3, 4, 5]
    assert m.single_full_row() is None
    m.cover(4)  # removes D and F
    assert m.live_row_ids() == [4]
    assert m.single_full_row() == 4
    m.cover(5)
    assert m.is_empty()
    assert m.live_rows == 0


def test_single_full_row_requires_full_degree():
    # one live row that misses a live column is not a cover
    m = DlxMatrix.from_rows([0, 1], [(0, [0])])
    assert m.live_rows == 1
    assert m.single_full_row() is None
    m2 = DlxMatrix.from_rows([0, 1], [(0, [0, 1])])
    assert m2.single_full_row() == 0


def test_cover_collect_matches_cover():
    a = demo_matrix()
    b = demo_matrix()
    assert a.cover_collect(0) == [0, 1]
    b.cover(0)
    assert a.snapshot() == b.snapshot()
    assert a.cover_collect(5) == [3, 4]


def test_uncover_is_exact_inverse():
    m = demo_matrix()
    before = m.snapshot()
    m.cover(0)
    m.cover(3)
    m.cover(1)
    m.uncover(1)
    m.uncover(3)
    m.uncover(0)
    assert m.snapshot() == before
    assert not m._cover_stack


def test_uncover_out_of_order_asserts():
    m = demo_matrix()
    m.cover(0)
    m.cover(1)
    with pytest.raises(AssertionError):
        m.uncover(0)


def test_uncover_out_of_order_raises_under_optimize():
    # python -O strips assert statements; the LIFO check must survive it
    code = ("from xcover.dlx import DlxMatrix\n"
            "m = DlxMatrix.from_rows([0, 1], [(0, [0]), (1, [1])])\n"
            "m.cover(0)\n"
            "m.cover(1)\n"
            "try:\n"
            "    m.uncover(0)\n"
            "except AssertionError:\n"
            "    print('raised')\n")
    src = str(Path(xcover.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


@given(st.integers(0, 10_000))
def test_random_cover_walks_restore(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    m = DlxMatrix.from_instance(inst)
    before = m.snapshot()
    for _ in range(rng.randint(1, 4)):
        covered = []
        while not m.is_empty() and rng.random() < 0.8:
            c = rng.choice(m.live_columns())
            m.cover(c)
            covered.append(c)
            assert m.live_rows == len(m.live_row_ids())
            assert m.live_cols == len(m.live_columns())
        for c in reversed(covered):
            m.uncover(c)
        assert m.snapshot() == before
