"""Fully dynamic connected components via Euler-tour trees.

Each component's spanning tree T is stored as its Euler tour: the
vertex sequence of a closed walk that crosses every tree edge exactly
twice (once per direction), kept as the in-order sequence of a splay
tree whose nodes are vertex occurrences.  A tree with k vertices has a
tour of length 2k - 1 whose head and tail are the same vertex.  Cutting
a tree edge splits the tour into the two subtree tours; linking two
trees reroots both tours and concatenates them; all three are O(log n)
amortized splay work.

Two side tables make the tour operations O(1) to locate:

* ``occs[v]``: the occurrence nodes of vertex v, insertion ordered
  (any one of them serves to reach v's splay tree);
* ``edge_occ[(a,b)]``: for tree edge {a,b}, the occurrence of a that
  immediately precedes an occurrence of b, and vice versa.  Every
  non-tail occurrence starts exactly one edge crossing, so each
  occurrence appears in at most one slot, which is what keeps the
  fix-up work constant: rerooting moves one crossing's start from the
  old head to the old tail and deletes/creates one occurrence; cut
  deletes one registered occurrence together with its edge's entry.

ComponentSet layers component bookkeeping on top: each component is its
spanning tree plus the hash set of its non-tree edges.  Batched edge
and vertex deletion (dec_update) drops the batch's non-tree edges, then
cuts its tree edges and scans the smaller side's non-tree candidates for
a replacement, splitting the component when none crosses; batched
insertion (inc_update) links across components and files
intra-component edges as non-tree.  Construction is one insert batch.
"""

from __future__ import annotations


class DynConnError(Exception):
    """Contract violation in a connectivity update."""


def _edge(a, b):
    if a == b:
        raise DynConnError(f"self-loop at {a}")
    return (a, b) if a < b else (b, a)


class SplayNode:
    __slots__ = ("value", "parent", "left", "right", "size")

    def __init__(self, value):
        self.value = value
        self.parent = None
        self.left = None
        self.right = None
        self.size = 1

    def __repr__(self):
        return f"<occ {self.value}>"


def _update(x: SplayNode):
    s = 1
    if x.left is not None:
        s += x.left.size
    if x.right is not None:
        s += x.right.size
    x.size = s


def _rotate(x: SplayNode):
    p = x.parent
    g = p.parent
    if p.left is x:
        b = x.right
        x.right = p
        p.left = b
    else:
        b = x.left
        x.left = p
        p.right = b
    if b is not None:
        b.parent = p
    p.parent = x
    x.parent = g
    if g is not None:
        if g.left is p:
            g.left = x
        else:
            g.right = x
    _update(p)
    _update(x)


def _splay(x: SplayNode):
    while x.parent is not None:
        p = x.parent
        g = p.parent
        if g is None:
            _rotate(x)
        elif (g.left is p) == (p.left is x):
            _rotate(p)
            _rotate(x)
        else:
            _rotate(x)
            _rotate(x)


def _leftmost(root: SplayNode) -> SplayNode:
    n = root
    while n.left is not None:
        n = n.left
    _splay(n)
    return n


def _rightmost(root: SplayNode) -> SplayNode:
    n = root
    while n.right is not None:
        n = n.right
    _splay(n)
    return n


def _concat(a, b):
    """Join two splay trees; in-order sequence is seq(a) ++ seq(b)."""
    if a is None:
        return b
    if b is None:
        return a
    r = _rightmost(a)
    r.right = b
    b.parent = r
    _update(r)
    return r


def _tour_nodes(root: SplayNode) -> list:
    out = []
    stack = []
    cur = root
    while cur is not None or stack:
        while cur is not None:
            stack.append(cur)
            cur = cur.left
        cur = stack.pop()
        out.append(cur)
        cur = cur.right
    return out


class EulerForest:
    """A forest of Euler-tour splay trees with occurrence bookkeeping."""

    def __init__(self):
        self.occs = {}
        self.edge_occ = {}

    # -- vertex / lookup ----------------------------------------------------

    def add_vertex(self, v):
        if v in self.occs:
            raise DynConnError(f"vertex {v} already present")
        self.occs[v] = {SplayNode(v): None}

    def remove_vertex(self, v):
        """Remove an isolated vertex (its tour must be the single occurrence)."""
        root = self.root_of(v)
        if root.size != 1:
            raise DynConnError(f"vertex {v} still has tree edges")
        del self.occs[v]

    def has_vertex(self, v) -> bool:
        return v in self.occs

    def tree_edge(self, u, v) -> bool:
        return _edge(u, v) in self.edge_occ

    def root_of(self, v) -> SplayNode:
        occ = next(iter(self.occs[v]))
        _splay(occ)
        return occ

    def connected(self, u, v) -> bool:
        a = self.root_of(u)
        b = self.root_of(v)
        return a is b or a.parent is not None

    def tour_vertices(self, v) -> list:
        """The tour of v's tree as a vertex-id sequence."""
        return [n.value for n in _tour_nodes(self.root_of(v))]

    def vertex_count(self, v) -> int:
        return (self.root_of(v).size + 1) // 2

    # -- construction -------------------------------------------------------

    def build_tree(self, start, adj):
        """Install the tour of a fresh tree: ``adj`` maps each tree vertex
        to its sorted tree neighbors.  Builds a balanced splay tree over
        the Euler sequence and registers all occurrence handles."""
        seq = [start]
        parent = {start: None}
        stack = [(start, iter(adj.get(start, ())))]
        while stack:
            v, it = stack[-1]
            pushed = False
            for w in it:
                if w == parent[v]:
                    continue
                if w in parent:
                    raise DynConnError(f"cycle through {w} in tree adjacency")
                parent[w] = v
                seq.append(w)
                stack.append((w, iter(adj.get(w, ()))))
                pushed = True
                break
            if not pushed:
                stack.pop()
                if stack:
                    seq.append(stack[-1][0])
        nodes = [SplayNode(val) for val in seq]
        self._balanced(nodes, 0, len(nodes), None)
        for v in parent:
            if v in self.occs:
                raise DynConnError(f"vertex {v} already present")
        for n in nodes:
            self.occs.setdefault(n.value, {})[n] = None
        for i in range(len(nodes) - 1):
            a, b = nodes[i], nodes[i + 1]
            self.edge_occ.setdefault(_edge(a.value, b.value), {})[a.value] = a

    def _balanced(self, nodes, lo, hi, parent):
        if lo >= hi:
            return None
        mid = (lo + hi) // 2
        n = nodes[mid]
        n.parent = parent
        n.left = self._balanced(nodes, lo, mid, n)
        n.right = self._balanced(nodes, mid + 1, hi, n)
        _update(n)
        return n

    # -- tour surgery ---------------------------------------------------------

    def adjust_head(self, v) -> SplayNode:
        """Reroot v's tour so it starts (and ends) at v.

        The tour [h, ...] rotates to start at some occurrence of v; the
        old head occurrence is deleted and a closing occurrence of v is
        appended.  The only crossing whose start occurrence changes is
        the old head's (h -> successor): its handle becomes the old
        tail, which now precedes that same successor value.
        """
        root = self.root_of(v)
        head = _leftmost(root)
        if head.value == v:
            return head
        h = head.value
        # old head's crossing partner, before any restructuring
        succ = _leftmost(head.right)
        tail = _rightmost(succ)
        pivot = next(iter(self.occs[v]))
        # split [head .. pivot-1] / [pivot .. tail]
        _splay(pivot)
        left = pivot.left
        left.parent = None
        pivot.left = None
        _update(pivot)
        # drop the old head occurrence from the left part
        old_head = _leftmost(left)
        if old_head is not head or old_head.left is not None:
            raise AssertionError("old head occurrence not leftmost")
        rest = old_head.right
        if rest is not None:
            rest.parent = None
            old_head.right = None
        del self.occs[h][old_head]
        closing = SplayNode(v)
        self.occs[v][closing] = None
        root = _concat(_concat(pivot, rest), closing)
        self.edge_occ[_edge(h, succ.value)][h] = tail
        return root

    def link(self, u, v) -> SplayNode:
        """Join two trees by a new tree edge {u,v}."""
        if self.connected(u, v):
            raise DynConnError(f"link({u},{v}): already connected")
        ru = self.adjust_head(u)
        rv = self.adjust_head(v)
        _splay(ru)
        _splay(rv)
        tail_u = _rightmost(ru)
        tail_v = _rightmost(rv)
        closing = SplayNode(u)
        self.occs[u][closing] = None
        root = _concat(_concat(tail_u, tail_v), closing)
        self.edge_occ[_edge(u, v)] = {u: tail_u, v: tail_v}
        return root

    def cut(self, u, v):
        """Delete tree edge {u,v}; returns (root of u's tour, root of v's).

        With x = the u-occurrence preceding v and y = the v-occurrence
        preceding u, the far side is the tour segment strictly after the
        earlier of x,y up to and including the later; the near side is
        the remainder minus the earlier occurrence itself (whose only
        crossing was the deleted edge).
        """
        e = _edge(u, v)
        slots = self.edge_occ.pop(e, None)
        if slots is None:
            raise DynConnError(f"cut({u},{v}): not a tree edge")
        x, y = slots[u], slots[v]
        _splay(x)
        px = x.left.size if x.left is not None else 0
        _splay(y)
        py = y.left.size if y.left is not None else 0
        first, second = (x, y) if px < py else (y, x)
        _splay(first)
        mid = first.right
        mid.parent = None
        first.right = None
        _update(first)
        _splay(second)                 # second lies in mid's tree
        after = second.right
        if after is not None:
            after.parent = None
            second.right = None
            _update(second)
        far = second                   # tour (first .. second]
        prefix = first.left            # tour [head .. first) -- may be None
        if prefix is not None:
            prefix.parent = None
            first.left = None
        del self.occs[first.value][first]
        near = _concat(prefix, after)
        if second.value == u:
            return far, near
        return near, far

    # -- consistency (test support) ------------------------------------------

    def check_tree(self, v):
        """Verify tour shape, occurrence registration, and edge handles
        for v's tree; returns the decoded tree edge set."""
        root = self.root_of(v)
        nodes = _tour_nodes(root)
        seq = [n.value for n in nodes]
        verts = set(seq)
        if len(seq) != 2 * len(verts) - 1:
            raise AssertionError(f"tour length {len(seq)} for {len(verts)} vertices")
        if seq[0] != seq[-1]:
            raise AssertionError("tour head != tail")
        sizes = {}
        for n in nodes:
            want = 1 + (n.left.size if n.left else 0) + (n.right.size if n.right else 0)
            if n.size != want:
                raise AssertionError("stale size field")
            sizes[n.value] = sizes.get(n.value, 0) + 1
        for w in verts:
            reg = self.occs.get(w, {})
            ours = [n for n in nodes if n.value == w]
            if sizes[w] != len(reg) or any(n not in reg for n in ours):
                raise AssertionError(f"occurrence registry mismatch at {w}")
        crossings = {}
        for a, b in zip(nodes, nodes[1:]):
            crossings.setdefault(_edge(a.value, b.value), {})[a.value] = a
        for e, d in crossings.items():
            if len(d) != 2:
                raise AssertionError(f"edge {e} not crossed once per direction")
            if self.edge_occ.get(e) != d:
                raise AssertionError(f"stale occurrence handles for {e}")
        if len(crossings) != len(verts) - 1:
            raise AssertionError("tour does not encode a spanning tree")
        return set(crossings)


class Component:
    """One connected component: its spanning-tree vertex set and the
    non-tree edges (the replacement candidates)."""

    __slots__ = ("vertices", "non_tree")

    def __init__(self, vertices, non_tree):
        self.vertices = vertices
        self.non_tree = non_tree

    def __repr__(self):
        return f"Component({sorted(self.vertices)!r}, non_tree={sorted(self.non_tree)!r})"


class ComponentSet:
    """Connected components of an undirected graph under batched updates."""

    def __init__(self, vertices=(), edges=()):
        self.forest = EulerForest()
        self._comp_of = {}
        self._comps = set()
        vs = set(vertices)
        es = {_edge(a, b) for a, b in edges}
        for e in es:
            if e[0] not in vs or e[1] not in vs:
                raise DynConnError(f"edge {e} endpoint not a vertex")
        self.inc_update(vs, es)

    def __contains__(self, v) -> bool:
        return v in self._comp_of

    def __len__(self) -> int:
        return len(self._comp_of)

    def num_components(self) -> int:
        return len(self._comps)

    def find_cc(self, v) -> Component:
        comp = self._comp_of.get(v)
        if comp is None:
            raise DynConnError(f"unknown vertex {v}")
        return comp

    def partition(self) -> list:
        """Vertex sets of the components, ordered by smallest member."""
        comps = sorted(self._comps, key=lambda c: min(c.vertices))
        return [set(c.vertices) for c in comps]

    def dec_update(self, removed_vertices, removed_edges):
        """Delete a batch of edges, then a batch of (now isolated) vertices.

        ``removed_edges`` must include every live edge incident to a
        removed vertex.  The batch's non-tree edges leave the candidate
        sets first, so no edge of the batch is ever relinked.  Each tree
        edge is then cut, and the smaller side's membership is checked
        against the component's non-tree edges for a replacement to
        relink, splitting the component when none crosses.
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
            comp = self._comp_of[a]
            root_a, root_b = self.forest.cut(a, b)
            small = root_a if root_a.size <= root_b.size else root_b
            side = {n.value for n in _tour_nodes(small)}
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
                self._comps.add(split)
        for v in sorted(removed_vertices):
            comp = self._comp_of.get(v)
            if comp is None:
                raise DynConnError(f"unknown vertex {v}")
            if len(comp.vertices) != 1:
                raise DynConnError(f"vertex {v} still has live edges")
            self.forest.remove_vertex(v)
            self._comps.discard(comp)
            del self._comp_of[v]

    def inc_update(self, added_vertices, added_edges):
        """Insert a batch of fresh vertices, then a batch of edges.

        An edge across two components links their spanning trees and
        merges the smaller component into the larger; an edge within a
        component joins its non-tree set.
        """
        for v in sorted(added_vertices):
            if v in self._comp_of:
                raise DynConnError(f"vertex {v} already present")
            self.forest.add_vertex(v)
            comp = Component({v}, set())
            self._comps.add(comp)
            self._comp_of[v] = comp
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
                self.forest.link(a, b)
                small, big = (ca, cb) if len(ca.vertices) <= len(cb.vertices) else (cb, ca)
                big.vertices |= small.vertices
                big.non_tree |= small.non_tree
                for w in small.vertices:
                    self._comp_of[w] = big
                self._comps.discard(small)

    def edges(self) -> set:
        """All live edges (tree and non-tree)."""
        out = set(self.forest.edge_occ)
        for comp in self._comps:
            out |= comp.non_tree
        return out

    def validate(self):
        """Full structural check of every component; raises on violation."""
        seen = set()
        tree_edges = set()
        for comp in self._comps:
            if not comp.vertices:
                raise AssertionError("empty component")
            if comp.vertices & seen:
                raise AssertionError("components overlap")
            seen |= comp.vertices
            for v in comp.vertices:
                if self._comp_of.get(v) is not comp:
                    raise AssertionError(f"vertex index wrong at {v}")
            decoded = self.forest.check_tree(min(comp.vertices))
            tree_edges |= decoded
            tour_verts = set(self.forest.tour_vertices(min(comp.vertices)))
            if tour_verts != comp.vertices:
                raise AssertionError("tour does not span the component")
            for p, q in comp.non_tree:
                if p not in comp.vertices or q not in comp.vertices:
                    raise AssertionError("non-tree edge leaves component")
                if self.forest.tree_edge(p, q):
                    raise AssertionError("edge both tree and non-tree")
        if seen != set(self._comp_of):
            raise AssertionError("vertex index out of sync")
        if tree_edges != set(self.forest.edge_occ):
            raise AssertionError("orphan edge handles")
