"""Row/column bitmask kernel for the dxz, dxd and dyndxd searches.

A subproblem is a pair of ints ``(cols, rows)``: bit c of ``cols`` is
set while column c is still to be covered, bit r of ``rows`` while row r
can still be chosen.  Three tables, built once per solve and only read
afterwards (a forked worker inherits them as they are), answer every
question the search asks:

* ``col_rows[c]``  the rows with a 1 in column c;
* ``row_cols[r]``  the columns of row r;
* ``conflict[r]``  the rows sharing a column with r, r included.

One more field, ``starver``, is the one the search writes: two lists,
a slot each, where ``starver[0][r]`` is the column that last left a
child of row r with no live row and ``starver[1][r]`` the one before
it, or -1.  A child of r in which either column is still live and still
has no live row is a dead end, found with a test or two instead of a
column choice; two slots catch a row whose children starve on two
columns in turn.  The memo is only ever checked against the child's
own masks, so it can make a search faster but never changes its result,
whatever it holds.

Choosing row r turns ``(cols, rows)`` into
``(cols & ~row_cols[r], rows & ~conflict[r])``.  The parent pair is left
as it was, so nothing is ever undone, and a component of the live rows
is a pair of masks too, so no submatrix is rebuilt.  A live row's
columns are always live, and ``cols`` doubles as the cache key, exactly
as ``DlxMatrix.live_col_mask`` does for the dancing-links reference.
Row and column ids are the instance's global ids.

``MaskTables.select_column`` chooses a column by popcount, one per live
column, and also finds a column left with no live row.  It visits the
live columns in ascending order and stops at the first empty one: it
shifts ``cols`` down to the byte that holds its lowest column, reads the
rest once as bytes, and takes each nonzero byte's column ids from the
256-entry table ``_BYTE_BITS``, so a narrow component high in a wide
instance costs a byte or two, and finding a column's id costs no bit
arithmetic.  A ``ColumnCounts`` keeps the column sizes of one search's
current state instead: mutable, and recounted along each edge only where
the chosen row can have changed them.  Which engine chooses its column
which way, and the rules for dead ends and literals, are stated once, in
the module docstring of ``xcover.solver``.

``ColumnCounts.span`` is built row by row, one OR per cell, from the
``(row, columns)`` pairs that ``MaskTables`` keeps as ``cells``.
"""

from __future__ import annotations

# _BYTE_BITS[v]: the offsets of the set bits of the byte value v, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if v >> i & 1)
                   for v in range(256))


class MaskTables:
    __slots__ = ("cells", "col_rows", "row_cols", "conflict", "starver")

    def __init__(self, n_cols: int, rows):
        """``rows`` yields ``(row_id, column_ids)`` pairs; every column id
        is below ``n_cols``.  Rows that are not given stay empty.  The
        pairs are kept, as ``cells``, for ``ColumnCounts``."""
        self.cells = rows = list(rows)
        n_rows = max((r for r, _ in rows), default=-1) + 1
        col_rows = [0] * n_cols
        row_cols = [0] * n_rows
        for r, cs in rows:
            bit = 1 << r
            mask = 0
            for c in cs:
                col_rows[c] |= bit
                mask |= 1 << c
            row_cols[r] = mask
        conflict = [0] * n_rows
        for r, cs in rows:
            reach = 0
            for c in cs:
                reach |= col_rows[c]
            conflict[r] = reach
        self.col_rows = col_rows
        self.row_cols = row_cols
        self.conflict = conflict
        self.starver = ([-1] * n_rows, [-1] * n_rows)

    @classmethod
    def from_instance(cls, inst) -> "MaskTables":
        return cls(inst.n_cols, enumerate(cols for _, cols in inst.rows))

    def single_full_row(self, cols: int, rows: int):
        """The row id if ``rows`` holds exactly one row and it covers
        every column of ``cols``, else None; comparing the highest
        row's columns first turns away almost every other state."""
        r = rows.bit_length() - 1
        if rows and self.row_cols[r] == cols and not rows & (rows - 1):
            return r
        return None

    def select_column(self, cols: int, rows: int) -> int:
        """Column of ``cols`` with the fewest rows in ``rows``; ties break
        to the smallest column id, and the scan stops at the first column
        with no row.  ``cols`` is shifted down to the byte that holds its
        lowest column and read once as bytes, lowest first; each nonzero
        byte gives its column ids from ``_BYTE_BITS``, so a live column
        costs its popcount and no bit arithmetic."""
        if not cols:
            raise ValueError("select_column on empty column set")
        col_rows = self.col_rows
        base = ((cols & -cols).bit_length() - 1) & ~7
        cols >>= base
        best, best_n = -1, len(self.row_cols) + 1  # above any column's count
        for byte in cols.to_bytes((cols.bit_length() + 7) >> 3, "little"):
            if byte:
                for c in _BYTE_BITS[byte]:
                    c += base
                    n = (col_rows[c] & rows).bit_count()
                    if n < best_n:
                        if not n:
                            return c
                        best, best_n = c, n
            base += 8
        return best

    def components(self, rows: int) -> list:
        """Connected components of ``rows`` (rows adjacent iff they share a
        column) as row masks, ordered by smallest row id.  A flood fill:
        each reached row adds its conflict mask, restricted to the rows
        not reached yet; it stops as soon as every row is reached.  It
        pops the frontier's highest row (``bit_length``), one wide-int
        operation cheaper than the lowest, with the same components."""
        conflict = self.conflict
        comps = []
        while rows:
            todo = rows & -rows
            unseen = rows ^ todo
            while todo and unseen:
                r = todo.bit_length() - 1
                todo ^= 1 << r
                grow = conflict[r] & unseen
                unseen ^= grow
                todo |= grow
            comps.append(rows ^ unseen)
            rows = unseen
        return comps

    def columns_of(self, rows: int) -> int:
        """The columns of the rows in ``rows``."""
        row_cols = self.row_cols
        cols = 0
        while rows:
            low = rows & -rows
            cols |= row_cols[low.bit_length() - 1]
            rows ^= low
        return cols


class ColumnCounts:
    """The live-row count of every live column of one search's current
    state, bucketed by count so that the smallest is found without a
    scan.

    * ``size[c]``    the live rows of column c;
    * ``bucket[k]``  a mask of the columns with k live rows;
    * ``span[c]``    the columns of the rows of column c.

    ``reach(r)``, the union of ``span`` over row r's columns, holds the
    only columns whose count can change when r is chosen.  Counts are
    exact for the columns of the current state; a column outside it may
    hold a stale count, which ``select`` masks out.  ``enter`` moves the
    counts to a child, ``leave`` moves them back, in LIFO order, exactly
    as they were.  The search only enters a child whose row leaves some
    live column out of its reach; below a child that it does not enter,
    it leaves the counts alone, so they are still the parent's when the
    search comes back.  A child with a live column that lost its last
    row is entered like any other: ``select`` then picks that column,
    from bucket 0.
    """

    __slots__ = ("col_rows", "row_cols", "size", "bucket", "span")

    def __init__(self, tables: MaskTables, rows: int):
        """Counts of every column of ``tables`` against the live ``rows``."""
        col_rows = tables.col_rows
        size = [(m & rows).bit_count() for m in col_rows]
        bucket = [0] * (max(size, default=0) + 1)
        for c, n in enumerate(size):
            bucket[n] |= 1 << c
        row_cols = tables.row_cols
        span = [0] * len(col_rows)
        for r, cs in tables.cells:
            m = row_cols[r]
            for c in cs:
                span[c] |= m
        self.col_rows = col_rows
        self.row_cols = row_cols
        self.size = size
        self.bucket = bucket
        self.span = span

    def reach(self, r: int) -> int:
        """The columns of the rows in ``conflict[r]``: the only columns
        whose count can change when row r is chosen."""
        span, m = self.span, self.row_cols[r]
        acc = 0
        while m:
            low = m & -m
            acc |= span[low.bit_length() - 1]
            m ^= low
        return acc

    def select(self, cols: int) -> int:
        """Column of ``cols`` with the fewest live rows; ties break to the
        smallest column id, as ``MaskTables.select_column`` does."""
        for b in self.bucket:
            b &= cols
            if b:
                return (b & -b).bit_length() - 1
        raise ValueError("select on empty column set")

    def enter(self, reach: int, cols: int, rows: int) -> list:
        """Move to ``(cols, rows)``, the child reached by choosing a row
        whose ``reach`` is given; returns the log that ``leave`` undoes,
        one ``(c, old, new)`` per changed count."""
        col_rows, size, bucket = self.col_rows, self.size, self.bucket
        log = []
        todo = reach & cols
        while todo:
            low = todo & -todo
            todo ^= low
            c = low.bit_length() - 1
            new = (col_rows[c] & rows).bit_count()
            old = size[c]
            if new != old:
                size[c] = new
                bucket[old] ^= low
                bucket[new] |= low
                log.append((c, old, new))
        return log

    def leave(self, log: list):
        """Undo ``enter``'s log: back to the parent's counts."""
        size, bucket = self.size, self.bucket
        for c, old, new in log:
            low = 1 << c
            size[c] = old
            bucket[new] ^= low
            bucket[old] |= low
