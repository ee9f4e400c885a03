import random

import pytest
from hypothesis import settings

from xcover.instance import Instance

settings.register_profile("suite", deadline=None, max_examples=60)
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
