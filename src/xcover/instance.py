"""Exact-cover instances: data model, parsing, serialization.

An instance is a universe of named columns plus a family of named rows,
where each row is the set of column indices it covers.  An exact cover is
a subset of rows covering every column exactly once.

Two text formats are supported.

``xc`` (sparse, named)::

    # optional comment
    1 2 3 4 5 6
    A: 1 2 3 4
    B: 1 4

Line 1 lists the column names; every following non-blank line is
``<rowname>: <col> <col> ...`` with columns referenced by name.  Lines
whose first non-blank character is ``#`` are comments.

``matrix`` (dense 0/1)::

    2 3
    1 0 1
    0 1 0

Line 1 is ``<nrows> <ncols>``, both at least 1; names are derived as
R1..Rn and C1..Cm.

Names must be non-empty, contain no whitespace or ``:``, and must not
start with ``#`` (so that serialized files parse back unambiguously).
The integer fields of a header (here and in ``gen``'s graph files) and
of a graph edge are ASCII digits: no sign, and no other digit that
``str.isdigit`` accepts.

``Instance`` is the one check of what a valid instance is, as
``gen.GraphInput`` is of a graph.  The parsers read only syntax (the
``xc`` header's names, each row's ``:`` and the columns it names; the
matrix shape and its 0/1 cells) and map a fault that ``Instance``
raises to its line: a column's to the header's, a row's to that row's.
Every parse error names its line, and it is the first faulty line in
file order, the header first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count, islice
from operator import add, lt


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _valid_name(name: str) -> bool:
    return _valid_names((name,))


def _valid_names(names) -> bool:
    """Whether every name is valid, checked on all of them at once: joined
    by spaces, valid names split back into themselves.  A name that is
    not a ``str`` is not valid."""
    # str.split() splits on exactly the characters str.isspace() accepts
    try:
        joined = " ".join(names)
    except TypeError:
        return False
    return (joined.split() == list(names) and ":" not in joined
            and not joined.startswith("#") and " #" not in joined)


def _increasing(cols) -> bool:
    return all(map(lt, cols, cols[1:]))


def _rows_valid(rows, n: int) -> bool:
    """Whether every row is a pair of a valid, unique name and a non-empty,
    strictly increasing tuple of column indices in ``range(n)``, checked
    in whole-instance passes.  Any other outcome, an exception included,
    leaves the diagnosis to the row-by-row loop."""
    try:
        names, cols = zip(*rows, strict=True)
        if not (_valid_names(names) and len(set(names)) == len(names)
                and all(cols)):
            return False
        flat = list(chain.from_iterable(cols))
        return min(flat) >= 0 and max(flat) < n and all(map(_increasing, cols))
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class Instance:
    """Immutable exact-cover instance.

    ``rows`` holds ``(name, column_indices)`` pairs with each index tuple
    strictly increasing.  Construct unnormalized data via :meth:`build`.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("instance needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            for c, name in enumerate(self.columns):
                if self.columns.index(name) != c:   # its first repeat
                    raise ValueError(f"duplicate column name {name!r}")
        if not _valid_names(self.columns):
            for name in self.columns:
                if not _valid_name(name):
                    raise ValueError(f"bad column name {name!r}")
        if self.rows and not _rows_valid(self.rows, len(self.columns)):
            self._diagnose_rows()

    def _diagnose_rows(self):
        """Raise the error of the first faulty row, one row at a time; its
        ``row`` attribute is that row's index."""
        seen = set()
        n = len(self.columns)
        for row, (name, cols) in enumerate(self.rows):
            if not _valid_name(name):
                fault = f"bad row name {name!r}"
            elif name in seen:
                fault = f"duplicate row name {name!r}"
            elif not cols:
                fault = f"row {name!r} is empty"
            elif any(c < 0 or c >= n for c in cols):
                fault = f"row {name!r} references a column out of range"
            elif any(a >= b for a, b in zip(cols, cols[1:])):
                fault = f"row {name!r} columns not strictly increasing"
            else:
                seen.add(name)
                continue
            err = ValueError(fault)
            err.row = row
            raise err

    @classmethod
    def build(cls, columns, rows) -> "Instance":
        """Normalize (sort and deduplicate each row's columns) and validate."""
        norm = tuple((name, tuple(sorted(set(cols)))) for name, cols in rows)
        return cls(tuple(columns), norm)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def row_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.rows)

    def rows_of_column(self, c: int) -> tuple[int, ...]:
        """Indices of the rows covering column ``c``."""
        if c < 0 or c >= len(self.columns):
            raise IndexError(c)
        return tuple(i for i, (_, cols) in enumerate(self.rows) if c in cols)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _header(text: str, empty: str = "empty file"):
    """The first content line of ``text``, the header every format starts
    with: the content lines after it, its number and its text."""
    lines = _content_lines(text)
    for lineno, header in lines:
        return lines, lineno, header
    raise ParseError(1, empty)


def _digit_fields(line: str, n: int):
    """The ``n`` fields of ``line`` as integers, or None unless it has
    ``n`` fields of ASCII digits that ``int`` reads."""
    fields = line.split()
    digits = "".join(fields)
    if len(fields) == n and digits.isascii() and digits.isdigit():
        try:
            return tuple(map(int, fields))
        except ValueError:   # longer than sys.get_int_max_str_digits()
            pass
    return None


def _validated(text: str, make, *args):
    """``make(*args)``, where ``make`` is ``Instance`` or ``GraphInput``,
    with a fault it raises mapped to its line in ``text``: content line
    k + 1 holds record k (the fault's ``row`` or ``edge``), and any
    other fault is the header's, content line 0."""
    try:
        return make(*args)
    except ValueError as exc:
        k = getattr(exc, "row", getattr(exc, "edge", -1)) + 1
        lineno = next(islice(_content_lines(text), k, None))[0]
        raise ParseError(lineno, str(exc)) from None


def _parse_xc(text: str) -> Instance:
    """Read the header and the rows, and let ``Instance`` check them.  At
    the first line that does not parse, the lines before it are checked
    first: its own fault is raised only when they are valid."""
    lines, _, header = _header(text)
    columns = tuple(header.split())
    find = {name: c for c, name in enumerate(columns)}.__getitem__
    rows = []
    for lineno, line in lines:
        name, sep, refs = line.partition(":")
        if not sep:
            _validated(text, Instance, columns, tuple(rows))
            raise ParseError(lineno, "expected '<rowname>: <col> ...'")
        name = name.strip()
        try:
            rows.append((name, tuple(sorted(set(map(find, refs.split()))))))
        except KeyError as exc:
            # with a stand-in column, a fault of the row's name comes first
            rows.append((name, (0,)))
            _validated(text, Instance, columns, tuple(rows))
            raise ParseError(lineno, f"unknown column reference {exc.args[0]!r}") from None
    return _validated(text, Instance, columns, tuple(rows))


_BITS = frozenset("01")


def _ones(bits) -> tuple:
    """The positions of the "1"s among ``bits``, all "0" or "1", without
    a Python step per cell: the k-th 1 follows k earlier 1s and the 0s of
    the k + 1 gaps before it."""
    gaps = "".join(bits).split("1")[:-1]
    return tuple(map(add, accumulate(map(len, gaps)), count()))


def _parse_matrix(text: str) -> Instance:
    """Read the shape and the grid, and let ``Instance`` check them, as
    ``_parse_xc`` does."""
    lines, header_no, header = _header(text)
    shape = _digit_fields(header, 2)
    if shape is None:
        raise ParseError(header_no, "expected '<nrows> <ncols>'")
    n_rows, n_cols = shape
    rows = []

    def checked(width):
        columns = tuple(f"C{c + 1}" for c in range(width))
        return _validated(text, Instance, columns, tuple(rows))

    def fault(lineno, message):
        # the rows before ``lineno`` are checked first; before the first
        # row, one stand-in column checks the header's one fault (no
        # columns) without building n_cols names
        checked(n_cols if rows else min(n_cols, 1))
        return ParseError(lineno, message)

    if not n_rows:
        raise fault(header_no, "matrix needs at least one row")
    for lineno, line in lines:
        if len(rows) == n_rows:
            raise fault(lineno, "trailing content after matrix rows")
        bits = line.split()
        if len(bits) != n_cols or not _BITS.issuperset(bits):
            raise fault(lineno, f"expected {n_cols} 0/1 entries")
        rows.append((f"R{len(rows) + 1}", _ones(bits)))
    if len(rows) < n_rows:
        raise fault(header_no, f"expected {n_rows} matrix rows")
    return checked(n_cols)


def parse_instance(source, fmt: str = "xc") -> Instance:
    """Parse instance text (a string or an open text file) in ``fmt``."""
    text = source.read() if hasattr(source, "read") else source
    if fmt == "xc":
        return _parse_xc(text)
    if fmt == "matrix":
        return _parse_matrix(text)
    raise ValueError(f"unknown format {fmt!r}")


def serialize_instance(inst: Instance, fmt: str = "xc") -> str:
    """Render ``inst`` in ``fmt``.

    ``xc`` round-trips exactly.  ``matrix`` writes only the 0/1 grid, so a
    round trip restores names only when they already are the canonical
    R1../C1.. ones that matrix parsing derives; an instance without rows
    has no grid to write, and raises ``ValueError``.
    """
    if fmt == "xc":
        out = [" ".join(inst.columns)]
        for name, cols in inst.rows:
            out.append(f"{name}: " + " ".join(inst.columns[c] for c in cols))
        return "\n".join(out) + "\n"
    if fmt == "matrix":
        if not inst.rows:
            raise ValueError("matrix format needs at least one row")
        out = [f"{inst.n_rows} {inst.n_cols}"]
        for _, cols in inst.rows:
            marks = set(cols)
            out.append(" ".join("1" if c in marks else "0" for c in range(inst.n_cols)))
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
