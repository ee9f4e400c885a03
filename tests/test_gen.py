import hashlib
import random

import pytest

from conftest import chorded_rings

from xcover.gen import GenConfig, GraphInput, block_diagonal, generate, parse_graph
from xcover.instance import ParseError, serialize_instance
from xcover.oracle import count_covers
from xcover.solver import SolveConfig, solve

TRIANGLE = GraphInput(3, ((0, 1), (1, 2), (0, 2)))
K4 = GraphInput(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))


def test_graph_input_normalizes():
    g = GraphInput(3, ((2, 1), (1, 2), (0, 1)))
    assert g.edges == ((0, 1), (1, 2))
    assert g.adjacency() == {0: [1], 1: [0, 2], 2: [1]}
    with pytest.raises(ValueError):
        GraphInput(2, ((0, 2),))
    with pytest.raises(ValueError):
        GraphInput(2, ((1, 1),))
    with pytest.raises(ValueError):
        GraphInput(-1, ())


def test_gen_condemo_validation():
    with pytest.raises(ValueError):
        GenConfig(fraction=0.0)
    with pytest.raises(ValueError):
        GenConfig(fraction=1.5)
    with pytest.raises(ValueError):
        GenConfig(max_cycle_len=2)
    with pytest.raises(ValueError):
        GenConfig(max_cycles=0)
    GenConfig(fraction=1.0)


def test_parse_graph():
    g = parse_graph("# comment\n4 2\n0 1\n\n2 3\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (2, 3))


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("nope\n", 1),
    ("2 1\n", 1),
    ("2 1\n0 1\n1 0\n", 3),
    ("2 1\n0 x\n", 2),
    ("2 1\n0 5\n", 2),
    ("2 1\n1 1\n", 2),
])
def test_parse_graph_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, message", [
    # fields are ASCII digits: a sign or another digit is a syntax fault
    ("2 1\n0 \u00b2\n", "line 2: expected '<u> <v>' edge line"),
    ("2 1\n0 --1\n", "line 2: expected '<u> <v>' edge line"),
    ("2 1\n0 -1\n", "line 2: expected '<u> <v>' edge line"),
    ("5 1\n0 \u0663\n", "line 2: expected '<u> <v>' edge line"),
    ("2 \u00b9\n", "line 1: expected '<n> <m>' header"),
    # GraphInput's fault is reported at its edge's line
    ("# h\n2 1\n0 5\n", "line 3: edge (0,5) out of range"),
    ("3 3\n0 1\n\n2 2\n1 2\n", "line 4: self-loop at 2"),
    # missing edges at the header's line, surplus ones at the last line
    ("# c\n2 1\n", "line 2: expected 1 edges, found 0"),
    ("# c\n3 3\n0 1\n1 2\n", "line 2: expected 3 edges, found 2"),
    ("3 1\n0 1\n1 2\n0 2\n", "line 4: expected 1 edges, found 3"),
    # an edge's fault on an earlier line beats a later syntax fault
    ("2 2\n0 5\nx\n", "line 2: edge (0,5) out of range"),
    ("3 2\n0 5\n", "line 2: edge (0,5) out of range"),
])
def test_parse_graph_names_the_faulty_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_graph_input_tags_the_faulty_edge():
    with pytest.raises(ValueError) as err:
        GraphInput(3, ((0, 1), (1, 2), (2, 2)))
    assert err.value.edge == 2


def test_triangle_single_cycle():
    # the one anchored cycle is 0-1-2-0; its reflection is deduplicated
    inst = generate(TRIANGLE, GenConfig(fraction=1.0, seed=1))
    assert inst.columns == ("v0", "v1", "v2")
    assert inst.rows == (("S0", (0, 1, 2)),)
    assert count_covers(inst) == 1


def test_k4_cycle_census():
    inst = generate(K4, GenConfig(fraction=1.0, seed=0))
    # 3 triangles + 3 four-cycles through the anchor
    assert inst.n_rows == 6
    assert {len(cols) for _, cols in inst.rows} == {3, 4}
    trimmed = generate(K4, GenConfig(fraction=1.0, max_cycle_len=3, seed=0))
    assert trimmed.n_rows == 3
    assert all(len(cols) == 3 for _, cols in trimmed.rows)
    capped = generate(K4, GenConfig(fraction=1.0, max_cycles=2, seed=0))
    assert capped.n_rows == 2


def test_cycle_longer_than_the_recursion_limit():
    # the walk keeps one stack entry per path vertex, not one interpreter
    # frame: a 3,000-vertex ring is one cycle, one row of 3,000 columns
    n = 3000
    ring = GraphInput(n, tuple((v, (v + 1) % n) for v in range(n)))
    inst = generate(ring, GenConfig(fraction=1.0, max_cycle_len=n, seed=0))
    assert inst.n_cols == n
    assert inst.rows == (("S0", tuple(range(n))),)


def test_fraction_controls_columns():
    inst = generate(K4, GenConfig(fraction=0.5, seed=3))
    assert inst.n_cols == 2  # ceil(0.5 * 4)
    full = generate(K4, GenConfig(fraction=1.0, seed=3))
    assert full.n_cols == 4


def test_seed_determinism():
    a = generate(K4, GenConfig(fraction=0.5, seed=42))
    b = generate(K4, GenConfig(fraction=0.5, seed=42))
    assert serialize_instance(a, "xc") == serialize_instance(b, "xc")
    assert a == b


def test_edgeless_graph_has_no_rows():
    inst = generate(GraphInput(3, ()), GenConfig(seed=0))
    assert inst.n_cols == 3 and inst.n_rows == 0
    assert solve(inst, SolveConfig(engine="dxz")).count == 0


def test_components_generate_independently():
    g = GraphInput(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    inst = generate(g, GenConfig(fraction=1.0, seed=9))
    assert inst.columns == tuple(f"v{i}" for i in range(6))
    assert inst.rows == (("S0", (0, 1, 2)), ("S1", (3, 4, 5)))
    rep = solve(inst, SolveConfig(engine="dxd"))
    assert rep.count == 1
    assert rep.stats.subs == 2


def test_block_diagonal(demo):
    one = block_diagonal(demo, 1)
    assert one.n_cols == 6 and one.n_rows == 6
    assert one.columns[0] == "1#1" and one.rows[0][0] == "A#1"
    assert count_covers(one) == 4
    two = block_diagonal(demo, 2)
    assert two.n_cols == 12 and two.n_rows == 12
    assert two.rows[6][0] == "A#2"
    assert two.rows[6][1] == tuple(c + 6 for c in two.rows[0][1])
    assert count_covers(two) == 16
    with pytest.raises(ValueError):
        block_diagonal(demo, 0)


GEN_DIGEST = (
    "350f240f230837f82e7b82caa393a8f756cb2e20559315c5fb020e9fb2aec2c0")


def _random_graph(rng: random.Random) -> GraphInput:
    # sparse enough for isolated vertices and several components
    n = rng.randrange(0, 13)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randrange(len(pairs) // 3 + 1)
    return GraphInput(n, tuple(rng.sample(pairs, m)))


def test_generate_keeps_its_digest():
    # the xc text of seeded random graphs and of the benchmark's rings
    # graph; a graph of no vertex folds its error
    rng = random.Random(35)
    graphs = [GraphInput(0, ()), GraphInput(5, ()), GraphInput(7, ((4, 6),))]
    graphs += [_random_graph(rng) for _ in range(60)]
    h = hashlib.sha256()
    cases = list(enumerate(graphs))
    cases += [(s, chorded_rings(12)) for s in (1, 7)]
    for s, g in cases:
        try:
            text = serialize_instance(generate(g, GenConfig(seed=s)))
        except ValueError as err:
            text = repr(err)
        h.update(text.encode())
    assert h.hexdigest() == GEN_DIGEST
