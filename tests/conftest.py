import random
from itertools import combinations

import pytest
from hypothesis import settings

from xcover.diagram import BOTTOM, TOP, NodeStore
from xcover.dlx import DlxMatrix
from xcover.instance import Instance
from xcover.solver import (SolveConfig, bfs_components, decompose_matrix,
                           solve)

settings.register_profile("suite", deadline=None, max_examples=60)
# a longer search for one CI step: pytest --hypothesis-profile=ci
settings.register_profile("ci", settings.get_profile("suite"),
                          max_examples=1000)
settings.load_profile("suite")

# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# The six-row worked example used throughout: rows A..F over columns 1..6.
# A covers 1-4, B covers {1,4}, C covers {2,3}, D covers {5,6}, E {6}, F {5}.
# Its four exact covers are {A,D}, {A,E,F}, {B,C,D}, {B,C,E,F}.
DEMO_ROWS = [
    ("A", [0, 1, 2, 3]),
    ("B", [0, 3]),
    ("C", [1, 2]),
    ("D", [4, 5]),
    ("E", [5]),
    ("F", [4]),
]

DEMO_COVERS = [(0, 3), (0, 4, 5), (1, 2, 3), (1, 2, 4, 5)]

DEMO_XC = """\
# six columns, six subsets
1 2 3 4 5 6
A: 1 2 3 4
B: 1 4
C: 2 3
D: 5 6
E: 6
F: 5
"""

DEMO_MATRIX = """\
6 6
1 1 1 1 0 0
1 0 0 1 0 0
0 1 1 0 0 0
0 0 0 0 1 1
0 0 0 0 0 1
0 0 0 0 1 0
"""


@pytest.fixture
def demo() -> Instance:
    return Instance.build(["1", "2", "3", "4", "5", "6"], DEMO_ROWS)


def row_edges(inst: Instance) -> set:
    """The row graph of ``inst``, built from its columns: a pair
    ``(r, s)``, r < s, for every two rows that share a column."""
    return {edge for c in range(inst.n_cols)
            for edge in combinations(inst.rows_of_column(c), 2)}


def random_instance(rng: random.Random, max_rows=12, max_cols=10,
                    density=(0.1, 0.6)) -> Instance:
    n_rows = rng.randint(1, max_rows)
    n_cols = rng.randint(1, max_cols)
    p = rng.uniform(*density)
    rows = []
    for i in range(n_rows):
        cols = [c for c in range(n_cols) if rng.random() < p]
        if not cols:
            cols = [rng.randrange(n_cols)]
        rows.append((f"R{i}", cols))
    return Instance.build([f"C{c}" for c in range(n_cols)], rows)


def dlx_search(inst: Instance, decompose: bool):
    """The engines' search on dancing links: the reference that the mask
    search is compared against.  Every engine's rules (fewest rows,
    smallest column id, rows in id order, cache on the live columns, a
    single row covering every live column is a literal) and, with
    ``decompose``, dxd's too: two or more ``bfs_components`` are each
    searched in a ``decompose_matrix`` submatrix of their own and
    joined.  A branch child with a live column of size 0 is a dead end:
    BOTTOM, neither searched nor cached nor counted as a miss.  Returns
    the store, the root and ``(subs, cache hits, cache misses, dead
    ends)``; subs counts the components of the joins built, none for a
    BOTTOM state."""
    store, cache, traffic = NodeStore(), {}, [0, 0, 0, 0]

    def search(m):
        key = m.live_col_mask
        if not key:
            return TOP
        if key in cache:
            traffic[1] += 1
            return cache[key]
        traffic[2] += 1
        r = m.single_full_row()
        comps = bfs_components(m) if decompose and r is None else []
        if r is not None:
            node = store.mk_literal(r)
        elif len(comps) >= 2:
            subs = decompose_matrix(m, comps)
            if sum(s.live_cols for s in subs) != m.live_cols:
                node = BOTTOM  # a live column that no live row interacts
            else:
                traffic[0] += len(subs)
                node = store.mk_join([search(s) for s in subs])
        else:
            node = branch(m)
        cache[key] = node
        return node

    def dead(m):
        return not m.is_empty() and next(
            m.interacting_rows(m.select_column()), None) is None

    def branch(m):
        c = m.select_column()
        m.cover(c)
        alpha = BOTTOM
        for r in list(m.interacting_rows(c)):
            others = [d for d in m.row_columns(r) if d != c]
            for d in others:
                m.cover(d)
            if dead(m):
                traffic[3] += 1
            else:
                beta = search(m)
                if beta != BOTTOM:
                    alpha = store.mk_decision(r, beta, alpha)
            for d in reversed(others):
                m.uncover(d)
        m.uncover(c)
        return alpha

    root = search(DlxMatrix.from_instance(inst))
    return store, root, tuple(traffic)


def chain_join(store: NodeStore, children) -> int:
    """``NodeStore.mk_join`` by brute force: the reference for its chain.
    ``children`` are non-terminal and share no variable; decomposable
    ones are flattened into their children.  Each child in turn is tried
    as the tail: the chain is built in a copy of the store, node by node
    through the checked constructors (``_substitute``), and its
    reachable nodes are counted.  The fewest wins; on a tie, the tail
    whose copy as a chain link grew the store most, then the last.  It
    is built in ``store`` if it has fewer nodes than the decomposable
    node of the children, which is built otherwise."""
    kept = sorted(c for ch in children for c in (
        store.entry(ch)[1] if store.kind(ch) == "X" else (ch,)))

    def twin():
        copy = NodeStore()
        copy.adopt([store.entry(n) for n in range(2, len(store))], 2)
        return copy

    def build(s, t, grown):
        tail = kept[t]
        for i in reversed(range(len(kept))):
            if i != t:
                n = len(s)
                tail = _substitute(s, kept[i], tail)
                grown[i] = len(s) - n
        return tail

    grown, sizes = {}, []
    for t in range(len(kept)):
        s = twin()
        sizes.append(s.node_count(build(s, t, grown)))
    s = twin()
    join = s.node_count(s.mk_decomposable(kept))
    t = min(range(len(kept)), key=lambda t: (sizes[t], -grown[t], -t))
    if sizes[t] >= join:
        return store.mk_decomposable(kept)
    return build(store, t, {})


def _substitute(store: NodeStore, c: int, tail: int) -> int:
    """``c`` with ``tail`` in place of TOP, as one link of a join's chain:
    the nodes reached from ``c`` through decision branches are rebuilt in
    ascending id order, a decision node over its rebuilt branches, a
    literal v as ``D(v, tail, BOTTOM)`` and a decomposable node with
    ``tail`` as one more child."""
    reached, todo = set(), [c]
    while todo:
        m = todo.pop()
        if m > TOP and m not in reached:
            reached.add(m)
            if store.kind(m) == "D":
                todo += store.entry(m)[2:]
    sub = {TOP: tail, BOTTOM: BOTTOM}
    for m in sorted(reached):
        e = store.entry(m)
        if e[0] == "D":
            sub[m] = store.mk_decision(e[1], sub[e[2]], sub[e[3]])
        elif e[0] == "L":
            sub[m] = store.mk_decision(e[1], tail, BOTTOM)
        else:
            sub[m] = store.mk_decomposable(e[1] + (tail,))
    return sub[c]


# The 12 free pentominoes; placements on a height x width board are the
# rows of a classic exact-cover instance (3 x 20 has 8 covers).
PENTOMINOES = {
    "F": (".##", "##.", ".#."),
    "I": ("#####",),
    "L": ("#...", "####"),
    "N": ("##..", ".###"),
    "P": ("##", "##", "#."),
    "T": ("###", ".#.", ".#."),
    "U": ("#.#", "###"),
    "V": ("#..", "#..", "###"),
    "W": ("#..", "##.", ".##"),
    "X": (".#.", "###", ".#."),
    "Y": (".#..", "####"),
    "Z": ("##.", ".#.", ".##"),
}


def _normalize(cells):
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    return tuple(sorted((r - r0, c - c0) for r, c in cells))


def _orientations(picture):
    cells = [(r, c) for r, line in enumerate(picture)
             for c, ch in enumerate(line) if ch == "#"]
    out = set()
    for _ in range(4):
        cells = [(c, -r) for r, c in cells]
        out.add(_normalize(cells))
        out.add(_normalize([(r, -c) for r, c in cells]))
    return sorted(out)


def pentomino_instance(height=3, width=20) -> Instance:
    """One column per piece and per board cell; one row per placement."""
    columns = list(PENTOMINOES) + [f"r{r}c{c}" for r in range(height)
                                   for c in range(width)]
    rows = []
    for p, (piece, picture) in enumerate(PENTOMINOES.items()):
        for shape in _orientations(picture):
            for dr in range(height):
                for dc in range(width):
                    cells = [(r + dr, c + dc) for r, c in shape]
                    if all(r < height and c < width for r, c in cells):
                        cols = [p] + [12 + r * width + c for r, c in cells]
                        rows.append((f"{piece}{len(rows)}", cols))
    return Instance.build(columns, rows)


@pytest.fixture(scope="session")
def pentomino_dxz():
    """dxz's report on pentomino 3x20, solved once per session."""
    return solve(pentomino_instance(), SolveConfig(engine="dxz"))
