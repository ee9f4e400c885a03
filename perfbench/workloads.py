"""Seeded workload builders and the independent references they are
checked against.

Every workload is a fixed exact-cover instance whose row order is
shuffled by the seed, within each column block.  Shuffling rows moves no column, so the column
chosen at each search state, the set of states visited, the row, column
and cell counts and the cover count are the same for every seed; only
the row ids, and with them the diagram's variable order, change.

* ``pentomino``  the 12 free pentominoes on the 3x20 board: 1236 rows x
                 72 columns, 8 covers.  Search-bound.
* ``rings``      ``xcover.gen.generate`` on 12 disjoint rings of 9
                 vertices with 6 chords each, chords drawn once by a
                 fixed generator seed.  Decomposition-bound: 12
                 independent column blocks.
* ``ladder``     ``xcover.gen.block_diagonal`` of the six-row worked
                 example, 400 copies: 2400 x 2400, 4**400 covers.
                 Interning-bound.

The references never come from the engines under test: the published
pentomino count, the brute-force oracle per column block for rings, and
the oracle on one ladder block raised to the number of blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from xcover import GenConfig, GraphInput, Instance, block_diagonal, generate
from xcover.oracle import count_covers

NAMES = ("pentomino", "rings", "ladder")


@dataclass(frozen=True)
class Workload:
    name: str
    inst: Instance
    text: str           # the instance serialized in the ``xc`` format
    reference: int      # cover count from an independent source
    enum_n: int         # covers drawn by the enumeration op


# -- pentomino ----------------------------------------------------------------

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
PENTOMINO_SHAPE = (1236, 72, 7416)   # rows, columns, cells of the 3x20 board
PENTOMINO_COVERS = 8                 # 2 tilings x 4 board symmetries


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


# -- rings --------------------------------------------------------------------

RING_COUNT = 12
RING_SIZE = 9
RING_CHORDS = 6
RING_GRAPH_SEED = 1    # fixes chord positions; never the workload seed
RING_FRACTION = 0.3


def rings_graph() -> GraphInput:
    rng = random.Random(RING_GRAPH_SEED)
    k = RING_SIZE
    chords = [(a, b) for a in range(k) for b in range(a + 2, k)
              if (a, b) != (0, k - 1)]
    edges = []
    for i in range(RING_COUNT):
        off = i * k
        edges.extend((off + a, off + (a + 1) % k) for a in range(k))
        edges.extend((off + a, off + b)
                     for a, b in rng.sample(chords, RING_CHORDS))
    return GraphInput(RING_COUNT * k, tuple(edges))


def rings_instance() -> Instance:
    return generate(rings_graph(),
                    GenConfig(fraction=RING_FRACTION, seed=RING_GRAPH_SEED))


def _block_of_column(inst: Instance) -> list:
    """A block id per column: columns are in one block when a row covers
    both (union-find)."""
    parent = list(range(inst.n_cols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for _, cols in inst.rows:
        for c in cols[1:]:
            parent[find(c)] = find(cols[0])
    return [find(c) for c in range(inst.n_cols)]


def column_blocks(inst: Instance) -> list:
    """Sub-instances on the column-connected blocks of ``inst``."""
    block = _block_of_column(inst)
    blocks = {}
    for c in range(inst.n_cols):
        blocks.setdefault(block[c], ([], []))[0].append(c)
    for name, cols in inst.rows:
        blocks[block[cols[0]]][1].append((name, cols))
    out = []
    for cols, rows in blocks.values():
        index = {c: i for i, c in enumerate(cols)}
        out.append(Instance.build(
            [inst.columns[c] for c in cols],
            [(name, [index[c] for c in rc]) for name, rc in rows]))
    return out


def blockwise_oracle_count(inst: Instance, cap=10**6) -> int:
    total = 1
    for block in column_blocks(inst):
        total *= count_covers(block, cap=cap)
    return total


# -- ladder -------------------------------------------------------------------

LADDER_BLOCKS = 400
# The six-row worked example: columns 1..6, covers {A,D} {A,E,F} {B,C,D} {B,C,E,F}.
DEMO = Instance.build(
    ["1", "2", "3", "4", "5", "6"],
    [("A", [0, 1, 2, 3]), ("B", [0, 3]), ("C", [1, 2]),
     ("D", [4, 5]), ("E", [5]), ("F", [4])])


# -- common -------------------------------------------------------------------

def shuffled(inst: Instance, seed: int) -> Instance:
    """Shuffle the rows within each column block; blocks keep their place.

    Shuffling across blocks would also move which blocks' rows come
    first, and with them which covers lead the lexicographic order:
    that changed the memory and time of drawing the first covers by
    10 % from seed to seed on rings."""
    rng = random.Random(seed)
    block = _block_of_column(inst)
    groups = {}
    for i, (_, cols) in enumerate(inst.rows):
        groups.setdefault(block[cols[0]], []).append(i)
    order = []
    for rows in groups.values():
        rng.shuffle(rows)
        order.extend(rows)
    return Instance(inst.columns, tuple(inst.rows[i] for i in order))


def to_xc(inst: Instance) -> str:
    """The ``xc`` text of ``inst``, written here rather than by the
    program so the parsed input does not depend on the code under test."""
    lines = [" ".join(inst.columns)]
    for name, cols in inst.rows:
        lines.append(name + ": " + " ".join(inst.columns[c] for c in cols))
    return "\n".join(lines) + "\n"


def cell_count(inst: Instance) -> int:
    return sum(len(cols) for _, cols in inst.rows)


def build(name: str, seed: int) -> Workload:
    if name == "pentomino":
        base = pentomino_instance()
        shape = (base.n_rows, base.n_cols, cell_count(base))
        if shape != PENTOMINO_SHAPE:
            raise RuntimeError(f"pentomino builder made {shape}, "
                               f"expected {PENTOMINO_SHAPE}")
        reference, enum_n = PENTOMINO_COVERS, PENTOMINO_COVERS
    elif name == "rings":
        base = rings_instance()
        reference, enum_n = blockwise_oracle_count(base), 10_000
    elif name == "ladder":
        base = block_diagonal(DEMO, LADDER_BLOCKS)
        reference, enum_n = count_covers(DEMO) ** LADDER_BLOCKS, 10
    else:
        raise ValueError(f"unknown workload {name!r}")
    inst = shuffled(base, seed)
    return Workload(name, inst, to_xc(inst), reference, enum_n)


def check_covers(inst: Instance, covers) -> str | None:
    """None when every cover is an exact cover of ``inst`` and the list
    is strictly lexicographically increasing, else what is wrong."""
    full = set(range(inst.n_cols))
    prev = None
    for i, cover in enumerate(covers):
        cover = tuple(cover)
        if list(cover) != sorted(set(cover)):
            return f"cover {i}: rows not strictly increasing"
        hit = []
        for r in cover:
            if not 0 <= r < inst.n_rows:
                return f"cover {i}: row {r} out of range"
            hit.extend(inst.rows[r][1])
        if len(hit) != len(full) or set(hit) != full:
            return f"cover {i}: not an exact cover"
        if prev is not None and not prev < cover:
            return f"cover {i}: not after cover {i - 1} in lexicographic order"
        prev = cover
    return None
