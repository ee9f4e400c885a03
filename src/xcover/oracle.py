"""Brute-force exact-cover enumeration, used as ground truth in tests.

Plain backtracking over the instance, on an explicit stack: branch on
the lowest uncovered column, try every row covering it that is disjoint
from the partial cover.  No dancing links, no caching, no shared code
with the compilation engines.
"""

from __future__ import annotations

import time

MAX_FREE_ROWS = 25


class CoverCapExceeded(RuntimeError):
    """More covers than the caller's cap; ``partial`` holds those found."""

    def __init__(self, cap: int, partial):
        super().__init__(f"more than {cap} exact covers")
        self.cap = cap
        self.partial = partial


def enumerate_covers(inst, cap: int | None = None, deadline: float | None = None):
    """All exact covers of ``inst`` as sorted row-index tuples, in
    lexicographic order.

    Without ``cap`` the instance may have at most MAX_FREE_ROWS rows (the
    search is exponential).  With a cap, exceeding it raises
    :class:`CoverCapExceeded` carrying the covers found so far.
    """
    if cap is None and inst.n_rows > MAX_FREE_ROWS:
        raise ValueError(
            f"{inst.n_rows} rows; give a cap to enumerate instances over "
            f"{MAX_FREE_ROWS} rows"
        )
    n_cols = inst.n_cols
    full = (1 << n_cols) - 1
    masks = []
    for _, cols in inst.rows:
        m = 0
        for c in cols:
            m |= 1 << c
        masks.append(m)
    rows_by_col = [[] for _ in range(n_cols)]
    for i, (_, cols) in enumerate(inst.rows):
        for c in cols:
            rows_by_col[c].append(i)

    found = []
    chosen = []         # the partial cover, one row per frame
    frames = []         # (covered, rows left to try) per state on the path
    covered = 0
    while True:
        # enter the state that covers ``covered``
        if deadline is not None and time.monotonic() > deadline:
            from .solver import SolveTimeout

            raise SolveTimeout()
        if covered == full:
            found.append(tuple(sorted(chosen)))
            if cap is not None and len(found) > cap:
                raise CoverCapExceeded(cap, sorted(found))
            untried = iter(())
        else:
            c = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered column
            untried = iter([r for r in rows_by_col[c] if not masks[r] & covered])
        # take the next row of the deepest state that has one left
        while (r := next(untried, None)) is None:
            if not frames:
                return sorted(found)
            covered, untried = frames.pop()
            chosen.pop()
        frames.append((covered, untried))
        chosen.append(r)
        covered |= masks[r]


def count_covers(inst, cap: int | None = None, deadline: float | None = None) -> int:
    """Number of exact covers of ``inst`` (same guards as enumerate_covers)."""
    return len(enumerate_covers(inst, cap=cap, deadline=deadline))
