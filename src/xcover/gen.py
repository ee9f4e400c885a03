"""Benchmark instance generation from undirected graphs.

Per connected component of the input graph, as
``ComponentSet.partition()`` lists them (by smallest vertex), the
lowest-id vertex is the anchor and a seeded sample of
ceil(fraction * |component|) vertices are the element vertices.
Every simple cycle through the anchor that meets at least one element
vertex becomes a row covering exactly the element vertices it passes
through; the columns are all element vertices.
Cycle enumeration is a depth-first walk from the anchor, deduplicated
up to rotation (anchoring) and reflection (second vertex < last), and
truncated by both a maximum cycle length and a maximum cycle count per
component, since full enumeration is exponential.

Graph files: first content line ``<n> <m>``, then m lines ``u v`` with
0-based vertex ids; blank lines and ``#`` comments are skipped.  Every
field is ASCII digits.  ``parse_graph`` reads only this syntax, and
``GraphInput`` is the one check of a graph: the parser maps a fault of
edge k to that edge's line.  Every parse error names its line: missing
edges the header's, surplus edges the last one's.  At a line that does
not parse, the edges before it are checked first.

``block_diagonal`` builds the disjoint union of k renamed copies of an
instance; its cover count is the k-th power of the base count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dynconn import ComponentSet
from .instance import Instance, ParseError, _digit_fields, _header, _validated


@dataclass(frozen=True)
class GraphInput:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        norm = set()
        for edge, (u, v) in enumerate(self.edges):
            in_range = 0 <= u < self.n and 0 <= v < self.n
            if in_range and u != v:
                norm.add((u, v) if u < v else (v, u))
                continue
            err = ValueError(f"self-loop at {u}" if in_range
                             else f"edge ({u},{v}) out of range")
            err.edge = edge   # parse_graph reports it at this edge's line
            raise err
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def adjacency(self) -> dict:
        """Each vertex's neighbours in ascending order, as the sorted
        edges ``(u, v)``, ``u < v``, give them: a vertex's smaller
        neighbours all come before its larger ones."""
        adj = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class GenConfig:
    fraction: float = 0.30
    max_cycle_len: int = 12
    max_cycles: int = 10000
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.max_cycle_len < 3 or self.max_cycles < 1:
            raise ValueError("cycle bounds too small")


def parse_graph(text: str) -> GraphInput:
    lines, header_no, header = _header(text, "empty graph file")
    size = _digit_fields(header, 2)
    if size is None:
        raise ParseError(header_no, "expected '<n> <m>' header")
    n, m = size
    edges = []
    for lineno, line in lines:
        edge = _digit_fields(line, 2)
        if edge is None:
            _validated(text, GraphInput, n, tuple(edges))
            raise ParseError(lineno, "expected '<u> <v>' edge line")
        edges.append(edge)
    graph = _validated(text, GraphInput, n, tuple(edges))
    if len(edges) != m:
        raise ParseError(header_no if len(edges) < m else lineno,
                         f"expected {m} edges, found {len(edges)}")
    return graph


def _anchored_cycles(adj, anchor, max_len, max_cycles) -> list:
    """Simple cycles through ``anchor``, each listed once: anchored at the
    anchor and oriented so the second vertex is below the last.  A
    depth-first walk over an explicit stack, one neighbour iterator per
    path vertex, so a path may be longer than the recursion limit."""
    out = []
    path = [anchor]
    on_path = {anchor}
    stack = [iter(adj[anchor])]
    while stack:
        for w in stack[-1]:
            if len(out) >= max_cycles:
                return out
            if w == anchor:
                if len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
            elif w not in on_path and len(path) < max_len:
                path.append(w)
                on_path.add(w)
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return out


def generate(g: GraphInput, cfg: GenConfig | None = None) -> Instance:
    cfg = cfg if cfg is not None else GenConfig()
    rng = random.Random(cfg.seed)
    adj = g.adjacency()
    elements = []
    rows = []
    for comp in map(sorted, ComponentSet(range(g.n), g.edges).partition()):
        k = math.ceil(cfg.fraction * len(comp))
        chosen = set(rng.sample(comp, k))
        elements.extend(sorted(chosen))
        anchor = comp[0]
        for cyc in _anchored_cycles(adj, anchor, cfg.max_cycle_len,
                                    cfg.max_cycles):
            hit = sorted(v for v in cyc if v in chosen)
            if hit:
                rows.append(hit)
    col_index = {v: i for i, v in enumerate(elements)}
    return Instance.build(
        [f"v{v}" for v in elements],
        [(f"S{i}", [col_index[v] for v in hit]) for i, hit in enumerate(rows)],
    )


def block_diagonal(base: Instance, k: int) -> Instance:
    """Disjoint union of k renamed copies of ``base``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    columns = []
    rows = []
    for i in range(1, k + 1):
        offset = len(columns)
        columns.extend(f"{name}#{i}" for name in base.columns)
        rows.extend((f"{name}#{i}", [offset + c for c in cols])
                    for name, cols in base.rows)
    return Instance.build(columns, rows)
