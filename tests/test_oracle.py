import random
import sys

import pytest

from xcover.gen import block_diagonal
from xcover.instance import Instance
from xcover.oracle import (MAX_FREE_ROWS, CoverCapExceeded, count_covers,
                           enumerate_covers)

from conftest import DEMO_COVERS, random_instance


def test_demo_covers(demo):
    assert enumerate_covers(demo) == DEMO_COVERS
    assert count_covers(demo) == 4


def test_uncoverable_column():
    inst = Instance.build(["a", "b"], [("R0", [0])])
    assert enumerate_covers(inst) == []


def test_single_row_covering_everything():
    inst = Instance.build(["a", "b", "c"], [("R0", [0, 1, 2])])
    assert enumerate_covers(inst) == [(0,)]


def test_duplicate_rows_count_separately():
    inst = Instance.build(["a"], [("R0", [0]), ("R1", [0])])
    assert enumerate_covers(inst) == [(0,), (1,)]


def test_output_is_lexicographic():
    rng = random.Random(11)
    for _ in range(50):
        covers = enumerate_covers(random_instance(rng))
        assert covers == sorted(covers)
        assert len(set(covers)) == len(covers)


def test_free_row_guard():
    rows = [(f"R{i}", [i]) for i in range(MAX_FREE_ROWS + 1)]
    inst = Instance.build([f"C{i}" for i in range(MAX_FREE_ROWS + 1)], rows)
    with pytest.raises(ValueError):
        enumerate_covers(inst)
    # an explicit cap opts in to the large search
    assert len(enumerate_covers(inst, cap=10)) == 1


def test_cap_exceeded_carries_partial():
    # k independent column pairs, each coverable 2 ways -> 2^k covers
    k = 4
    cols = [f"C{i}" for i in range(2 * k)]
    rows = []
    for i in range(k):
        rows.append((f"P{i}", [2 * i, 2 * i + 1]))
        rows.append((f"Q{i}", [2 * i]))
        rows.append((f"R{i}", [2 * i + 1]))
    inst = Instance.build(cols, rows)
    all_covers = enumerate_covers(inst, cap=100)
    assert len(all_covers) == 2 ** k
    with pytest.raises(CoverCapExceeded) as err:
        enumerate_covers(inst, cap=3)
    assert err.value.cap == 3
    assert len(err.value.partial) == 4  # raised at the first cover past the cap
    assert set(err.value.partial) <= set(all_covers)


def test_cap_is_reached_below_the_recursion_limit(demo):
    # every cover of k demo blocks takes at least 2k rows, more than the
    # interpreter's recursion limit: the search must not recurse per row
    k = sys.getrecursionlimit()
    with pytest.raises(CoverCapExceeded) as err:
        count_covers(block_diagonal(demo, k), cap=3)
    partial = err.value.partial
    assert len(partial) == 4 and partial == sorted(partial)
    # the first is rows A and D of every block
    assert partial[0] == tuple(6 * i + r for i in range(k) for r in (0, 3))


def test_deadline_raises_timeout():
    from xcover.solver import SolveTimeout

    rng = random.Random(5)
    inst = random_instance(rng, max_rows=12, max_cols=8)
    with pytest.raises(SolveTimeout):
        enumerate_covers(inst, deadline=0.0)
