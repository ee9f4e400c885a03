import csv
import json
import re

import pytest

from xcover.cli import main
from xcover.gen import block_diagonal
from xcover.instance import Instance, serialize_instance
from xcover.solver import SolveConfig, solve

from conftest import DEMO_MATRIX, DEMO_ROWS, DEMO_XC

JSON_KEYS = {"instance", "engine", "threads", "count", "nodes", "subs",
             "time_ms", "cache_hits", "cache_misses", "dead"}


@pytest.fixture
def demo_file(tmp_path):
    f = tmp_path / "demo.xc"
    f.write_text(DEMO_XC)
    return f


def test_count_json(demo_file, capsys):
    assert main(["count", str(demo_file), "--engine", "dxd", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert set(info) == JSON_KEYS
    assert info["instance"] == "demo.xc"
    assert info["engine"] == "dxd"
    assert info["threads"] == 1
    assert info["count"] == "4"
    assert info["nodes"] == 7
    assert info["subs"] == 2


def test_count_human_output(demo_file, capsys):
    assert main(["count", str(demo_file)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["count"] == "4"
    assert lines["engine"] == "dxz"


def test_count_matrix_sniffing(tmp_path, capsys):
    f = tmp_path / "inst"  # no suffix: detect by header
    f.write_text(DEMO_MATRIX)
    assert main(["count", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == "4"


def test_count_oracle_engine(demo_file, capsys):
    assert main(["count", str(demo_file), "--engine", "oracle", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["count"] == "4"
    assert info["nodes"] == 0


def test_exit_2_on_missing_file(tmp_path, capsys):
    assert main(["count", str(tmp_path / "nope.xc")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_on_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.xc"
    f.write_text("1 2\nA: 3\n")
    assert main(["count", str(f)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err


def test_threads_env_default(demo_file, capsys):
    # --threads is the one way to set the thread count
    assert main(["count", str(demo_file), "--threads", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["threads"] == 2


def test_compile_dot_and_enumerate(demo_file, tmp_path, capsys):
    dot = tmp_path / "demo.dot"
    rc = main(["compile", str(demo_file), "--engine", "dxd",
               "--dot", str(dot), "--enumerate", "2"])
    assert rc == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert 'label="A"' in text  # row names label the decision nodes
    out = capsys.readouterr().out.splitlines()
    assert out == ["A D", "A E F"]


def test_compile_dot_escapes_row_names(tmp_path):
    # rows named a"b and c\ label their nodes as valid DOT strings
    f = tmp_path / "quoted.xc"
    f.write_text('1 2\na"b: 1\nc\\: 2\n')
    dot = tmp_path / "quoted.dot"
    assert main(["compile", str(f), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert 'label="a\\"b"' in text and 'label="c\\\\"' in text
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"\];$', text, re.M)
    assert len(labels) == text.count("label=")
    assert {'a"b', "c\\"} <= {re.sub(r"\\(.)", r"\1", x) for x in labels}


def test_bad_matrix_and_graph_name_their_line(tmp_path, capsys):
    matrix = tmp_path / "bad.matrix"
    matrix.write_text("2 2\n1 1\n0 0\n")
    assert main(["count", str(matrix)]) == 2
    assert capsys.readouterr().err == "error: line 3: row 'R2' is empty\n"
    graph = tmp_path / "bad.graph"
    graph.write_text("# h\n2 1\n0 5\n")
    assert main(["gen", str(graph)]) == 2
    assert capsys.readouterr().err == "error: line 3: edge (0,5) out of range\n"
    # a header of non-ASCII digits is not sniffed as a matrix header
    odd = tmp_path / "odd.txt"
    odd.write_text("1 ²\n1\n")
    assert main(["count", str(odd)]) == 2
    assert capsys.readouterr().err == \
        "error: line 2: expected '<rowname>: <col> ...'\n"


def test_compile_enumerate_all_and_none(demo_file, capsys):
    assert main(["compile", str(demo_file), "--enumerate", "99"]) == 0
    assert capsys.readouterr().out.splitlines() == \
        ["A D", "A E F", "B C D", "B C E F"]
    assert main(["compile", str(demo_file)]) == 0
    assert capsys.readouterr().out == ""


def test_compile_enumerate_streams_covers(demo, tmp_path, capsys):
    # 4**400 covers: each is printed as the diagram yields it, none
    # waits for a list of the rest
    big = block_diagonal(demo, 400)
    f = tmp_path / "ladder.xc"
    f.write_text(serialize_instance(big))
    assert main(["compile", str(f), "--engine", "dxd",
                 "--enumerate", "7"]) == 0
    rep = solve(big, SolveConfig(engine="dxd"))
    want = [" ".join(sorted(big.rows[r][0] for r in cover))
            for cover in rep.store.enumerate(rep.root, 7)]
    assert capsys.readouterr().out.splitlines() == want


def test_compile_negative_enumerate_exits_2(demo_file, capsys):
    assert main(["compile", str(demo_file), "--enumerate", "-2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and "--enumerate" in err


def test_gen_roundtrip(tmp_path, capsys):
    graph = tmp_path / "toy.graph"
    graph.write_text("3 3\n0 1\n1 2\n0 2\n")
    out = tmp_path / "toy.xc"
    rc = main(["gen", str(graph), "--seed", "7", "--fraction", "1.0",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert main(["gen", str(graph), "--seed", "7", "--fraction", "1.0"]) == 0
    assert capsys.readouterr().out == text
    assert main(["count", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == "1"


def test_gen_bad_graph_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("2 1\n0 9\n")
    assert main(["gen", str(graph)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_csv(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "demo.xc").write_text(DEMO_XC)
    (d / "broken.xc").write_text("1 2\nA: 9\n")
    (d / "ignored.txt").write_text("not an instance")
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(d), "--engines", "dxz,dxd", "--csv", str(out)])
    assert rc == 0
    assert "error:" in capsys.readouterr().err  # broken.xc reported
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["instance", "engine", "threads", "count", "nodes",
                       "subs", "time_ms", "status"]
    assert rows[1][0] == "broken.xc" and rows[1][-1] == "error"
    demo_rows = [r for r in rows if r[0] == "demo.xc"]
    assert [r[1] for r in demo_rows] == ["dxz", "dxd"]
    assert all(r[3] == "4" and r[-1] == "ok" for r in demo_rows)


def test_bench_timeout_rows(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "demo.xc").write_text(DEMO_XC)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(d), "--engines", "dxz", "--timeout-s", "1e-9",
               "--csv", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1] == ["demo.xc", "dxz", "1", "", "", "", "", "TO"]


def test_bench_stdout_and_bad_engine(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "demo.xc").write_text(DEMO_XC)
    assert main(["bench", str(d)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("instance,engine,threads")
    assert out.count("\n") == 4  # header + one row per default engine
    assert main(["bench", str(d), "--engines", "warp"]) == 2


@pytest.mark.parametrize("flag", [["--threads", "0"],
                                  ["--timeout-s", "-1"],
                                  ["--timeout-s", "nan"]])
def test_bench_bad_value_exits_2_before_any_row(tmp_path, capsys, flag):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "demo.xc").write_text(DEMO_XC)
    assert main(["bench", str(d), *flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and flag[0] in err


def test_bench_continues_past_oracle_row_limit(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    demo = Instance.build(["1", "2", "3", "4", "5", "6"], DEMO_ROWS)
    (d / "a.xc").write_text(DEMO_XC)
    (d / "b.xc").write_text(serialize_instance(block_diagonal(demo, 5)))
    (d / "c.xc").write_text(DEMO_XC)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(d), "--engines", "dxz,oracle", "--csv", str(out)])
    assert rc == 0
    assert "b.xc [oracle]" in capsys.readouterr().err
    rows = {(r[0], r[1]): r for r in csv.reader(out.read_text().splitlines())}
    assert rows["b.xc", "oracle"] == ["b.xc", "oracle", "1", "", "", "", "",
                                      "error"]
    assert rows["b.xc", "dxz"][3] == str(4 ** 5)
    for eng in ("dxz", "oracle"):
        assert rows["c.xc", eng][3] == "4" and rows["c.xc", eng][-1] == "ok"


def test_bench_continues_past_undecodable_file(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a.xc").write_text(DEMO_XC)
    (d / "b.xc").write_bytes(b"\xff\xfe1 2\nA: 1\n")
    (d / "c.xc").write_text(DEMO_XC)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(d), "--engines", "dxz", "--csv", str(out)])
    assert rc == 0
    assert "b.xc" in capsys.readouterr().err
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [(r[0], r[-1]) for r in rows] == [("a.xc", "ok"), ("b.xc", "error"),
                                             ("c.xc", "ok")]
