"""Fully dynamic connected components over a spanning forest.

Each component keeps a spanning tree, stored as adjacency sets:
``tree[v]`` is the set of v's tree neighbours, so a link is two set
insertions, and a vertex gets its entry on its first link.  Cutting a
tree edge searches both of its sides in lockstep, one vertex at a time,
and stops as soon as one side runs out; that side is the smaller one,
found in O(its size) however large the other side is (Even and
Shiloach, "An on-line edge-deletion problem", JACM 1981).  The forest
holds tree edges only.

ComponentSet layers component bookkeeping on top, and its vertex index
is the one registry of live vertices: which vertices are live, and
which vertex lies in which component, is answered there, never by the
forest.  Each component is its spanning tree plus the hash set of its
non-tree edges.  Batched edge and vertex deletion (dec_update) drops the
batch's non-tree edges, then cuts its tree edges and scans the smaller
side's non-tree candidates for a replacement, splitting the component
when none crosses; batched insertion (inc_update) links across
components and files intra-component edges as non-tree.  Construction
is one insert batch.
"""

from __future__ import annotations


class DynConnError(Exception):
    """Contract violation in a connectivity update."""


def _edge(a, b):
    if a == b:
        raise DynConnError(f"self-loop at {a}")
    return (a, b) if a < b else (b, a)


def _walk(tree, start, seen):
    """Grow ``seen`` by the vertices of start's tree, start first,
    yielding once per vertex added, so the caller decides how far the
    search goes.  Every neighbour read but a vertex's parent is new and
    yields, so the work up to the k-th yield is O(k)."""
    seen.add(start)
    yield True
    todo = [start]
    while todo:
        for w in tree[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
                yield True


class SpanningForest:
    """Spanning trees stored as adjacency sets: ``tree[v]`` is the set of
    v's tree neighbours.  A vertex has an entry from its first link on; a
    vertex without one is alone in its tree."""

    def __init__(self):
        self.tree = {}

    def tree_edge(self, u, v) -> bool:
        return v in self.tree.get(u, ())

    def link(self, u, v):
        """Join two trees by a new tree edge {u,v}.  The caller has
        checked that u and v lie in different trees."""
        self.tree.setdefault(u, set()).add(v)
        self.tree.setdefault(v, set()).add(u)

    def cut(self, u, v) -> set:
        """Delete tree edge {u,v}; returns the vertex set of the smaller
        side, u's on a tie.

        The two sides are searched in lockstep, one vertex at a time and
        u's first, until one runs out, so the cost is O(smaller side)
        (Even and Shiloach, JACM 1981).
        """
        tree = self.tree
        if not self.tree_edge(u, v):
            raise DynConnError(f"cut({u},{v}): not a tree edge")
        tree[u].remove(v)
        tree[v].remove(u)
        side_u, side_v = set(), set()
        walk_u, walk_v = _walk(tree, u, side_u), _walk(tree, v, side_v)
        while next(walk_u, False):
            if not next(walk_v, False):
                return side_v
        return side_u

    def check_tree(self, v):
        """Verify that v's tree is symmetric and acyclic; returns its
        vertex set and its edge set."""
        tree = self.tree
        parent = {v: None}
        edges = set()
        todo = [v]
        while todo:
            x = todo.pop()
            for w in tree.get(x, ()):
                if x not in tree.get(w, ()):
                    raise AssertionError(f"tree edge {x}-{w} one-sided")
                if w == parent[x]:
                    continue
                if w in parent:
                    raise AssertionError(f"cycle through {w} in tree")
                parent[w] = x
                edges.add(_edge(x, w))
                todo.append(w)
        return set(parent), edges


# perfbench/layertrace.py patches ``EulerForest.link`` and ``.cut`` by name.
EulerForest = SpanningForest


class Component:
    """One connected component: its spanning-tree vertex set and the
    non-tree edges (the replacement candidates)."""

    __slots__ = ("vertices", "non_tree")

    def __init__(self, vertices, non_tree):
        self.vertices = vertices
        self.non_tree = non_tree


class ComponentSet:
    """Connected components of an undirected graph under batched updates."""

    def __init__(self, vertices=(), edges=()):
        self.forest = SpanningForest()
        self._comp_of = {}
        self.inc_update(set(vertices), edges)

    def __contains__(self, v) -> bool:
        return v in self._comp_of

    def __len__(self) -> int:
        return len(self._comp_of)

    def _components(self) -> set:
        """The distinct components, read from the vertex index."""
        return set(self._comp_of.values())

    def num_components(self) -> int:
        return len(self._components())

    def find_cc(self, v) -> Component:
        comp = self._comp_of.get(v)
        if comp is None:
            raise DynConnError(f"unknown vertex {v}")
        return comp

    def partition(self) -> list:
        """Vertex sets of the components, ordered by smallest member."""
        comps = sorted(self._components(), key=lambda c: min(c.vertices))
        return [set(c.vertices) for c in comps]

    def dec_update(self, removed_vertices, removed_edges, check=None):
        """Delete a batch of edges, then a batch of (now isolated) vertices.

        ``removed_edges`` must include every live edge incident to a
        removed vertex.  The batch's non-tree edges leave the candidate
        sets first, so no edge of the batch is ever relinked.  Each tree
        edge is then cut, and the smaller side's membership is checked
        against the component's non-tree edges for a replacement to
        relink, splitting the component when none crosses.
        ``check``, if given, is called before each cut; an exception it
        raises ends the batch and leaves the set unusable.
        """
        cuts = []
        for e in {_edge(a, b) for a, b in removed_edges}:
            a, b = e
            comp = self._comp_of.get(a)
            if comp is None or self._comp_of.get(b) is not comp:
                raise DynConnError(f"edge {e} not live")
            if e in comp.non_tree:
                comp.non_tree.discard(e)
            elif self.forest.tree_edge(a, b):
                cuts.append(e)
            else:
                raise DynConnError(f"edge {e} not live")
        for a, b in sorted(cuts):
            if check is not None:
                check()
            comp = self._comp_of[a]
            side = self.forest.cut(a, b)
            repl = None
            inside = set()
            for f in comp.non_tree:
                p, q = f
                pin = p in side
                if pin != (q in side):
                    repl = f
                    break
                if pin:
                    inside.add(f)
            if repl is not None:
                # still one component; classification is discarded
                comp.non_tree.discard(repl)
                self.forest.link(repl[0], repl[1])
            else:
                split = Component(side, inside)
                comp.vertices -= side
                comp.non_tree -= inside
                for w in side:
                    self._comp_of[w] = split
        for v in sorted(removed_vertices):
            if len(self.find_cc(v).vertices) != 1:
                raise DynConnError(f"vertex {v} still has live edges")
            self.forest.tree.pop(v, None)
            del self._comp_of[v]

    def inc_update(self, added_vertices, added_edges, check=None):
        """Insert a batch of fresh vertices, then a batch of edges.

        An edge across two components links their spanning trees and
        merges the smaller component into the larger; an edge within a
        component joins its non-tree set.  ``check``, if given, is
        called before each link, as in ``dec_update``.
        """
        for v in sorted(added_vertices):
            if v in self._comp_of:
                raise DynConnError(f"vertex {v} already present")
            self._comp_of[v] = Component({v}, set())
        for e in sorted({_edge(a, b) for a, b in added_edges}):
            a, b = e
            ca = self._comp_of.get(a)
            cb = self._comp_of.get(b)
            if ca is None or cb is None:
                raise DynConnError(f"edge {e} endpoint not live")
            if ca is cb:
                if e in ca.non_tree or self.forest.tree_edge(a, b):
                    raise DynConnError(f"edge {e} already present")
                ca.non_tree.add(e)
            else:
                if check is not None:
                    check()
                self.forest.link(a, b)
                small, big = (ca, cb) if len(ca.vertices) <= len(cb.vertices) else (cb, ca)
                big.vertices |= small.vertices
                big.non_tree |= small.non_tree
                for w in small.vertices:
                    self._comp_of[w] = big

    def edges(self) -> set:
        """All live edges (tree and non-tree)."""
        out = {(a, b) for a, ws in self.forest.tree.items() for b in ws if a < b}
        for comp in self._components():
            out |= comp.non_tree
        return out

    def validate(self):
        """Full structural check of every component; raises on violation."""
        seen = set()
        for comp in self._components():
            if not comp.vertices:
                raise AssertionError("empty component")
            if comp.vertices & seen:
                raise AssertionError("components overlap")
            seen |= comp.vertices
            for v in comp.vertices:
                if self._comp_of.get(v) is not comp:
                    raise AssertionError(f"vertex index wrong at {v}")
            spanned, _ = self.forest.check_tree(min(comp.vertices))
            if spanned != comp.vertices:
                raise AssertionError("tree does not span the component")
            for p, q in comp.non_tree:
                if p not in comp.vertices or q not in comp.vertices:
                    raise AssertionError("non-tree edge leaves component")
                if self.forest.tree_edge(p, q):
                    raise AssertionError("edge both tree and non-tree")
        if seen != set(self._comp_of):
            raise AssertionError("vertex index out of sync")
        # each component's check read every tree edge at its vertices
        if any(ws and v not in seen for v, ws in self.forest.tree.items()):
            raise AssertionError("tree edge at a vertex that is not live")
