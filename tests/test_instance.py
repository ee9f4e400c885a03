import random
import sys

import pytest
from hypothesis import given, strategies as st

from xcover.instance import (Instance, ParseError, _valid_name, parse_instance,
                             serialize_instance)

from conftest import DEMO_MATRIX, DEMO_XC, random_instance


def test_parse_xc_demo(demo):
    inst = parse_instance(DEMO_XC, "xc")
    assert inst == demo
    assert inst.n_cols == 6 and inst.n_rows == 6
    assert inst.rows[0] == ("A", (0, 1, 2, 3))


def test_parse_matrix_demo():
    inst = parse_instance(DEMO_MATRIX, "matrix")
    assert inst.columns == ("C1", "C2", "C3", "C4", "C5", "C6")
    assert inst.row_names == ("R1", "R2", "R3", "R4", "R5", "R6")
    assert inst.rows[0][1] == (0, 1, 2, 3)


def test_parse_accepts_file_like(demo):
    import io

    assert parse_instance(io.StringIO(DEMO_XC), "xc") == demo


def test_minimal_xc():
    inst = parse_instance("1\nA: 1\n", "xc")
    assert inst.n_cols == 1 and inst.rows == (("A", (0,)),)


def test_rows_of_column(demo):
    assert demo.rows_of_column(0) == (0, 1)
    assert demo.rows_of_column(4) == (3, 5)
    # incidence is symmetric between the row and column views
    for c in range(demo.n_cols):
        for r in demo.rows_of_column(c):
            assert c in demo.rows[r][1]


@pytest.mark.parametrize("text, lineno", [
    ("", 1),
    ("1 2\nA: 9\n", 2),          # unknown column
    ("1 2\nA: 1\nA: 2\n", 3),    # duplicate row name
    ("1 1\nA: 1\n", 1),          # duplicate column name
    ("1 2\nA:\n", 2),            # empty row
    ("1 2\njust garbage\n", 2),  # missing separator
    ("1 2\nA B: 1\n", 2),        # row name holding whitespace
    ("1 2\n: 1\n", 2),           # empty row name
    ("a:b c\nA: zz\n", 1),       # bad column name before a bad row
    ("a #b\nA B: a\n", 1),
    # the first faulty line in file order wins, the header first
    ("1 2\nA: 1\nA: 2\nB: zz\n", 3),  # a duplicate row before an unknown column
    ("1 2\nB: zz\nA: 1\nA: 2\n", 2),  # an unknown column before a duplicate row
])
def test_parse_xc_errors_carry_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_instance(text, "xc")
    assert err.value.line == lineno
    assert f"line {lineno}:" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("1 2\nA:\njunk\n", "line 2: row 'A' is empty"),
    ("1 1\nA: zz\n", "line 1: duplicate column name '1'"),
    ("1 2\nA B: zz\n", "line 2: bad row name 'A B'"),
])
def test_parse_xc_reports_the_first_faulty_line(text, message):
    # a fault that Instance finds on an earlier line beats the syntax
    # fault of a later one; within a line, a bad name beats an unknown
    # column
    with pytest.raises(ParseError) as err:
        parse_instance(text, "xc")
    assert str(err.value) == message


MATRIX_ERRORS = {
    "": "line 1: empty file",
    "0 0\n": "line 1: instance needs at least one column",
    "x\n": "line 1: expected '<nrows> <ncols>'",
    "2 2\n1 0\n": "line 1: expected 2 matrix rows",      # missing a row
    "1 2\n1 2\n": "line 2: expected 2 0/1 entries",       # non-binary
    "1 2\n1 01\n": "line 2: expected 2 0/1 entries",      # a long cell
    "1 2\n1 \u0661\n": "line 2: expected 2 0/1 entries",  # a digit, not 1
    "1 2\n1\n": "line 2: expected 2 0/1 entries",         # too few
    "1 2\n1 0 1\n": "line 2: expected 2 0/1 entries",     # too many
    "1 2\n0 0\n": "line 2: row 'R1' is empty",
    "1 2\n# c\n0 0\n": "line 3: row 'R1' is empty",
    "1 2\n1 0\nextra\n": "line 3: trailing content after matrix rows",
    # header fields are ASCII digits: no other digit str.isdigit accepts
    "1 \u00b2\n1\n": "line 1: expected '<nrows> <ncols>'",
    "# c\n1 \u0663\n1 0 1\n": "line 2: expected '<nrows> <ncols>'",
    "1 -2\n1 0\n": "line 1: expected '<nrows> <ncols>'",
    "1 " + "9" * 5000 + "\n1\n": "line 1: expected '<nrows> <ncols>'",
    # Instance's fault on an earlier line beats a later syntax fault
    "2 2\n0 0\n1 2\n": "line 2: row 'R1' is empty",
    "1 2\n0 0\nextra\n": "line 2: row 'R1' is empty",
    "2 2\n# c\n0 0\n": "line 3: row 'R1' is empty",
    "0 0\n1\n": "line 1: instance needs at least one column",
    "2 0\n": "line 1: instance needs at least one column",
    # a grid of no rows is refused before any of its columns is named
    "0 3\n": "line 1: matrix needs at least one row",
    "0 1000000\n": "line 1: matrix needs at least one row",
}


@pytest.mark.parametrize("text", list(MATRIX_ERRORS),
                         ids=lambda text: text if len(text) < 80 else "a long field")
def test_parse_matrix_errors(text):
    with pytest.raises(ParseError) as err:
        parse_instance(text, "matrix")
    assert str(err.value) == MATRIX_ERRORS[text]


def test_matrix_fault_before_a_row_builds_no_columns(monkeypatch):
    # before the first row, the header is checked against one stand-in
    # column, not against the n_cols names the header asks for
    import xcover.instance as instance
    widths = []

    def recording(columns, rows):
        widths.append(len(columns))
        return Instance(columns, rows)

    monkeypatch.setattr(instance, "Instance", recording)
    for text in ("1 1000000\n1 0\n", "2 1000000\n", "0 1000000\nx\n"):
        with pytest.raises(ParseError):
            parse_instance(text, "matrix")
    assert widths == [1, 1, 1]


def test_parse_matrix_cells():
    # any whitespace separates cells; a row's columns are its 1s, in order
    text = "3 4\n1\t0  1 0\n\n0 1 0 1\n1 1 1 1\n"
    assert [cols for _, cols in parse_instance(text, "matrix").rows] == \
        [(0, 2), (1, 3), (0, 1, 2, 3)]


def test_build_normalizes_row_columns():
    inst = Instance.build(["a", "b", "c"], [("R", [2, 0, 2])])
    assert inst.rows[0][1] == (0, 2)


def test_construction_rejects_empty_universe():
    with pytest.raises(ValueError):
        Instance((), ())


@pytest.mark.parametrize("columns, rows, message", [
    (("a", ""), (), "bad column name ''"),
    (("a", "b c"), (), "bad column name 'b c'"),
    (("a\tb",), (), r"bad column name 'a\tb'"),
    (("a\u00a0b",), (), r"bad column name 'a\xa0b'"),
    (("a\u2028b",), (), r"bad column name 'a\u2028b'"),
    (("a", "b:c"), (), "bad column name 'b:c'"),
    (("a", "#b"), (), "bad column name '#b'"),
    (("a", "b", "a"), (), "duplicate column name 'a'"),
    (("a", "b"), (("R", (0,)), ("S T", (1,))), "bad row name 'S T'"),
    (("a", "b"), (("R:", (0,)),), "bad row name 'R:'"),
    (("a", "b"), (("#R", (0,)),), "bad row name '#R'"),
    (("a", "b"), (("", (0,)),), "bad row name ''"),
    (("a", "b"), (("R", (0,)), ("R", (1,))), "duplicate row name 'R'"),
    (("a", "b"), (("R", (0,)), ("S", ())), "row 'S' is empty"),
    (("a", "b"), (("R", (-1, 0)),), "row 'R' references a column out of range"),
    (("a", "b"), (("R", (0, 2)),), "row 'R' references a column out of range"),
    (("a", "b"), (("R", (1, 0)),), "row 'R' columns not strictly increasing"),
    (("a", "b"), (("R", (1, 1)),), "row 'R' columns not strictly increasing"),
    # a name that is not a str
    ((5,), (("r", (0,)),), "bad column name 5"),
    (("a", "b"), ((5, (0,)),), "bad row name 5"),
    (("a", "b"), (("R", (0,)), (None, (1,))), "bad row name None"),
    # an unhashable column name is a bad name too
    ((["a"],), (("r", (0,)),), "bad column name ['a']"),
])
def test_construction_error_messages(columns, rows, message):
    with pytest.raises(ValueError) as err:
        Instance(columns, rows)
    assert str(err.value) == message


@pytest.mark.parametrize("rows, message", [
    # two faults in one row: the first check in the order above wins
    ((("R T", ()),), "bad row name 'R T'"),
    ((("R", (0,)), ("R", ())), "duplicate row name 'R'"),
    ((("R", (3, 0)),), "row 'R' references a column out of range"),
    # faults in two rows: the first row wins, whatever its fault
    ((("R", (1, 0)), ("S T", (0,))), "row 'R' columns not strictly increasing"),
    ((("R", (0, 5)), ("S", ())), "row 'R' references a column out of range"),
])
def test_construction_reports_the_first_fault(rows, message):
    with pytest.raises(ValueError) as err:
        Instance(("a", "b"), rows)
    assert str(err.value) == message


def test_name_rule_rejects_exactly_whitespace_and_colon():
    """The name rule agrees with ``str.isspace`` on every code point."""
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    rejected = [ch for ch in chars if not _valid_name("a" + ch)]
    assert rejected == [ch for ch in chars if ch.isspace() or ch == ":"]
    # a whole universe of valid names passes; each bad one is named
    good = [f"a{ch}" for ch in chars if not (ch.isspace() or ch == ":")]
    assert Instance(tuple(good), ()).n_cols == len(good)
    for ch in rejected:
        with pytest.raises(ValueError) as err:
            Instance(("a", "b" + ch, "c"), ())
        assert str(err.value) == f"bad column name {'b' + ch!r}"


def test_xc_round_trip_preserves_text(demo):
    text = serialize_instance(demo, "xc")
    again = parse_instance(text, "xc")
    assert again == demo
    assert serialize_instance(again, "xc") == text


def test_matrix_round_trip_from_canonical_names():
    inst = parse_instance(DEMO_MATRIX, "matrix")
    text = serialize_instance(inst, "matrix")
    assert parse_instance(text, "matrix") == inst


def test_matrix_serialization_refuses_an_instance_without_rows():
    # the matrix format has no grid of no rows, so none is written that
    # would not parse back; the xc format keeps such an instance
    inst = parse_instance("a b\n", "xc")
    assert inst.n_rows == 0
    with pytest.raises(ValueError, match="at least one row"):
        serialize_instance(inst, "matrix")
    assert parse_instance(serialize_instance(inst, "xc"), "xc") == inst


@given(st.integers(0, 10**9))
def test_random_round_trip_both_formats(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    assert parse_instance(serialize_instance(inst, "xc"), "xc") == inst
    # matrix drops names; structure must still round-trip
    dense = parse_instance(serialize_instance(inst, "matrix"), "matrix")
    assert [cols for _, cols in dense.rows] == [cols for _, cols in inst.rows]
    assert dense.n_cols == inst.n_cols
