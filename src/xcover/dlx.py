"""Dancing-links incidence matrix.

Cells live in one arena addressed by integer handles; slot 0 is the root
sentinel of the circular header row, slots 1..k are the column headers,
and every later slot is a 1-entry of the matrix.  ``left``/``right``/
``up``/``down`` are parallel link arrays, ``head`` maps a cell to its
header slot, and ``size`` counts the live cells of each column.

Covering a column unlinks its header and removes every row interacting
with it from all other columns; uncovering is the exact inverse and must
be called in LIFO order with respect to cover.  Row cells keep their
horizontal links forever, so a live row can always be walked from
``row_first_cell``.

Column and row identifiers are global: submatrices extracted for
component decomposition keep the ids of the original instance, which is
what makes column-set cache keys valid across submatrices.

No engine searches this matrix: it is the reference that the bitmask
kernel (``xcover.masks``) is tested against.
"""

from __future__ import annotations


class DlxMatrix:
    __slots__ = (
        "left", "right", "up", "down", "head", "row_of",
        "size", "col_id", "header_of", "row_first_cell", "row_degree",
        "n_cols", "live_cols", "live_rows", "live_col_mask", "_cover_stack",
    )

    def __init__(self):
        self.left = [0]
        self.right = [0]
        self.up = [0]
        self.down = [0]
        self.head = [0]
        self.row_of = [-1]
        self.size = [0]
        self.col_id = [-1]
        self.header_of = {}
        self.row_first_cell = {}
        self.row_degree = {}
        self.n_cols = 0
        self.live_cols = 0
        self.live_rows = 0
        self.live_col_mask = 0
        self._cover_stack = []

    @classmethod
    def from_rows(cls, col_ids, rows) -> "DlxMatrix":
        """Build from global column ids and ``(row_id, column_ids)`` pairs."""
        m = cls()
        ids = sorted(col_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate column id")
        for c in ids:
            h = len(m.left)
            m.left.append(m.left[0])
            m.right.append(0)
            m.right[m.left[0]] = h
            m.left[0] = h
            m.up.append(h)
            m.down.append(h)
            m.head.append(h)
            m.row_of.append(-1)
            m.size.append(0)
            m.col_id.append(c)
            m.header_of[c] = h
            m.live_col_mask |= 1 << c
        m.n_cols = len(ids)
        m.live_cols = len(ids)
        for rid, cols in rows:
            if rid in m.row_first_cell:
                raise ValueError(f"duplicate row id {rid}")
            cs = sorted(cols)
            if not cs:
                raise ValueError(f"row {rid} is empty")
            first = None
            prev = None
            for c in cs:
                h = m.header_of.get(c)
                if h is None:
                    raise ValueError(f"row {rid} references unknown column {c}")
                x = len(m.left)
                # vertical: append at the bottom of column c
                m.up.append(m.up[h])
                m.down.append(h)
                m.down[m.up[h]] = x
                m.up[h] = x
                m.size[h] += 1
                m.head.append(h)
                m.row_of.append(rid)
                # horizontal: circular within the row
                if first is None:
                    m.left.append(x)
                    m.right.append(x)
                    first = x
                else:
                    m.left.append(prev)
                    m.right.append(first)
                    m.right[prev] = x
                    m.left[first] = x
                prev = x
            m.row_first_cell[rid] = first
            m.row_degree[rid] = len(cs)
            m.live_rows += 1
        return m

    @classmethod
    def from_instance(cls, inst) -> "DlxMatrix":
        return cls.from_rows(
            range(inst.n_cols),
            [(i, cols) for i, (_, cols) in enumerate(inst.rows)],
        )

    # -- state queries ----------------------------------------------------

    def is_empty(self) -> bool:
        return self.right[0] == 0

    def live_columns(self) -> list:
        """Live global column ids, in header-row order (ascending)."""
        out = []
        h = self.right[0]
        while h != 0:
            out.append(self.col_id[h])
            h = self.right[h]
        return out

    def live_row_ids(self) -> list:
        """Live global row ids, ascending."""
        seen = set()
        h = self.right[0]
        while h != 0:
            i = self.down[h]
            while i != h:
                seen.add(self.row_of[i])
                i = self.down[i]
            h = self.right[h]
        return sorted(seen)

    def interacting_rows(self, c: int):
        """Row ids of column ``c``'s live cells, in down-link order."""
        h = self.header_of[c]
        i = self.down[h]
        while i != h:
            yield self.row_of[i]
            i = self.down[i]

    def interacting_cols(self, cell: int):
        """Column ids of ``cell``'s row, starting at cell, in right-link order."""
        yield self.col_id[self.head[cell]]
        j = self.right[cell]
        while j != cell:
            yield self.col_id[self.head[j]]
            j = self.right[j]

    def row_columns(self, row_id: int) -> list:
        """All column ids of a row, ascending (valid whenever the row is live)."""
        return sorted(self.interacting_cols(self.row_first_cell[row_id]))

    def select_column(self) -> int:
        """Live column id with the fewest interacting rows; ties break to the
        smallest column id."""
        best = -1
        best_size = None
        h = self.right[0]
        while h != 0:
            s = self.size[h]
            if best_size is None or s < best_size:
                best_size = s
                best = self.col_id[h]
            h = self.right[h]
        if best < 0:
            raise ValueError("select_column on empty matrix")
        return best

    def single_full_row(self):
        """The row id if exactly one live row remains and it interacts every
        live column, else None."""
        if self.live_rows != 1:
            return None
        h = self.right[0]
        while h != 0:
            if self.size[h]:
                r = self.row_of[self.down[h]]
                return r if self.row_degree[r] == self.live_cols else None
            h = self.right[h]
        return None

    # -- cover / uncover ---------------------------------------------------

    def cover(self, c: int):
        """Remove column ``c`` and every row interacting with it."""
        left, right, up, down = self.left, self.right, self.up, self.down
        head, size = self.head, self.size
        h = self.header_of[c]
        left[right[h]] = left[h]
        right[left[h]] = right[h]
        self.live_cols -= 1
        self.live_rows -= size[h]
        self.live_col_mask &= ~(1 << c)
        self._cover_stack.append(c)
        i = down[h]
        while i != h:
            j = right[i]
            while j != i:
                up[down[j]] = up[j]
                down[up[j]] = down[j]
                size[head[j]] -= 1
                j = right[j]
            i = down[i]

    def cover_collect(self, c: int) -> list:
        """Like cover, returning the removed row ids in down-link order."""
        rows = list(self.interacting_rows(c))
        self.cover(c)
        return rows

    def uncover(self, c: int):
        """Exact inverse of cover; must mirror cover order (LIFO)."""
        if not self._cover_stack or self._cover_stack[-1] != c:
            raise AssertionError(f"uncover({c}) out of order")
        self._cover_stack.pop()
        left, right, up, down = self.left, self.right, self.up, self.down
        head, size = self.head, self.size
        h = self.header_of[c]
        i = up[h]
        while i != h:
            j = left[i]
            while j != i:
                size[head[j]] += 1
                up[down[j]] = j
                down[up[j]] = j
                j = left[j]
            i = up[i]
        left[right[h]] = h
        right[left[h]] = h
        self.live_cols += 1
        self.live_rows += size[h]
        self.live_col_mask |= 1 << c

    def snapshot(self) -> tuple:
        """Full link-level state, for restoration checks."""
        return (
            tuple(self.left), tuple(self.right), tuple(self.up),
            tuple(self.down), tuple(self.size),
            self.live_col_mask, self.live_cols, self.live_rows,
        )
