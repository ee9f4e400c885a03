"""Zero-suppressed decision diagrams over row variables.

A node denotes a family of sets of row ids:

* ``BOTTOM``      -> the empty family
* ``TOP``         -> { {} }
* literal v       -> { {v} }
* decision (v, pos, neg)
                  -> join({{v}}, pos) union neg, with v not occurring
                     in pos or neg
* decomposable (n1, ..., nk)
                  -> the orthogonal join of the children's families;
                     children mention pairwise disjoint variables

When every decision node's positive branch avoids v everywhere below,
the diagram restricted to decision nodes is a ZBDD; allowing
decomposable conjunction nodes gives zero-suppressed decision-DNNF.
Counting and set enumeration are linear passes because branches and
children never share variables at a node.

Nodes are hash-consed in a NodeStore, so structural equality is id
equality and shared subproblems cost one node.  Construction applies
the zero-suppression rules:

* decision with pos == BOTTOM     -> neg
* decision (v, TOP, BOTTOM)       -> literal v
* decomposable: BOTTOM child kills the node, TOP children drop out,
  nested decomposables flatten, 0 children -> TOP, 1 child -> itself
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import chain, compress, islice

NodeId = int

BOTTOM: NodeId = 0
TOP: NodeId = 1

_B = "B"   # bottom
_T = "T"   # top
_L = "L"   # literal        ('L', var)
_D = "D"   # decision       ('D', var, pos, neg)
_X = "X"   # decomposable   ('X', children-tuple)


class NodeStore:
    """Arena of hash-consed diagram nodes.

    Nodes are only ever appended, so a node id stays valid for the life
    of the store.
    """

    def __init__(self):
        self._entries = [(_B,), (_T,)]
        self._vars = [0, 0]     # per node: bitmask of the variables under it
        self._unique = {(_B,): BOTTOM, (_T,): TOP}

    def __len__(self) -> int:
        return len(self._entries)

    def kind(self, n: NodeId) -> str:
        return self._entries[n][0]

    def entry(self, n: NodeId) -> tuple:
        return self._entries[n]

    def variables(self, n: NodeId) -> frozenset:
        """Set of row variables occurring anywhere under ``n``."""
        return _bits(self._vars[n])

    def _intern(self, key: tuple, mask: int) -> NodeId:
        n = self._unique.get(key)
        if n is None:
            n = len(self._entries)
            self._entries.append(key)
            self._vars.append(mask)
            self._unique[key] = n
        return n

    # -- constructors -------------------------------------------------------

    def mk_literal(self, var: int) -> NodeId:
        return self._intern((_L, var), 1 << var)

    def mk_decision(self, var: int, pos: NodeId, neg: NodeId) -> NodeId:
        if pos == BOTTOM:
            return neg
        below = self._vars[pos] | self._vars[neg]
        mask = below | 1 << var
        if mask == below:
            raise ValueError(f"decision variable {var} occurs in a branch")
        if pos == TOP and neg == BOTTOM:
            return self.mk_literal(var)
        return self._intern((_D, var, pos, neg), mask)

    def _join_children(self, children):
        """Canonical children of a decomposable node and the mask of
        their variables: ``[BOTTOM]`` if a child is BOTTOM, else the
        sorted non-TOP children with nested decomposables flattened.
        Raises ValueError if two children share a variable."""
        kept = []
        for ch in children:
            if ch == BOTTOM:
                return [BOTTOM], 0
            if ch == TOP:
                continue
            if self._entries[ch][0] == _X:
                kept.extend(self._entries[ch][1])
            else:
                kept.append(ch)
        kept.sort()
        vs = 0
        for ch in kept:
            cv = self._vars[ch]
            if vs & cv:
                raise ValueError("decomposable children share variables")
            vs |= cv
        return kept, vs

    def mk_decomposable(self, children) -> NodeId:
        kept, vs = self._join_children(children)
        if len(kept) < 2:
            return kept[0] if kept else TOP
        return self._intern((_X, tuple(kept)), vs)

    def mk_join(self, children) -> NodeId:
        """The orthogonal join of ``children``, as ``mk_decomposable``
        builds it, or as a chain when that has strictly fewer reachable
        nodes.

        The chain keeps one child, the tail, as it is.  Going from the
        last of the other children to the first, it substitutes the
        tail for TOP in the child and makes the result the new tail: a
        literal v becomes ``D(v, tail, BOTTOM)``, a decision node is
        rebuilt over its substituted branches, and a nested decomposable
        node gets ``tail`` as one more child.  The child kept is the one
        that makes the chain smallest; on a tie, the one whose copy
        would cost the most nodes, then the last one.  Both forms
        denote the same family; over decision nodes only, the chain is
        a ZBDD.  One walk per child lists, each once, the nodes its copy
        rebuilds: those reached from the child through decision branches
        (literals and decomposable nodes end a path).  It also notes
        whether a branch is TOP or BOTTOM and whether a literal or a
        nested decomposable is met; what hangs below a nested
        decomposable stays as it is, and only such a child walks it
        again (``_reachable_from``) to count it.  Sizes are reckoned
        from these counts before any node is interned, so a rejected
        chain leaves nothing in the store, and the copy reads the walked
        lists: the cost is linear in the number of nodes under the join.
        Copies of decision nodes and literals skip ``mk_decision``'s
        checks, which cannot fail: the children share no variable, no
        copy's positive branch is terminal, and every copy of ``m``
        reaches the tail, so its mask is ``vars[m] | vars[tail]``.
        """
        kept, vs = self._join_children(children)
        if len(kept) < 2:
            return kept[0] if kept else TOP
        entries = self._entries
        # Every copied node is new and distinct from all others: its
        # variables include the tail's and its own child's.  Children
        # share no node but the terminals, so sizes add up per child:
        # sizes[i] holds kept[i]'s n nodes copied and k below its nested
        # decomposables, which the copy reaches unchanged; whether those
        # reach TOP and whether the copy reaches BOTTOM; and own nodes
        # under the child as it is, and whether they reach TOP, BOTTOM.
        walks, sizes = [], []
        all_copied = tops = bottoms = own_all = 0
        own_top = own_bottom = False
        for c in kept:
            walk, seen, nested, literal = [c], {c}, [], False
            for m in walk:              # the list grows as it is read
                e = entries[m]
                if e[0] == _D:
                    for ch in e[2], e[3]:
                        if ch not in seen:
                            seen.add(ch)
                            if ch > TOP:
                                walk.append(ch)
                elif e[0] == _L:
                    literal = True      # v becomes D(v, tail, BOTTOM)
                else:
                    nested.extend(e[1])
            n = len(walk)
            top, bottom = TOP in seen, BOTTOM in seen
            if nested:
                below = self._reachable_from(nested)
                k_top, k_bottom = TOP in below, BOTTOM in below
                below -= {TOP, BOTTOM}
                k = len(below)
                own = len(below.union(walk))
                top, bottom = top or k_top, bottom or k_bottom
            else:
                k, k_top, own = 0, False, n
            copy_bottom = bottom or literal
            walks.append(walk)
            sizes.append((n, k, k_top, copy_bottom, own, top, bottom))
            all_copied += n + k
            tops += k_top
            bottoms += copy_bottom
            own_all += own
            own_top = own_top or top
            own_bottom = own_bottom or bottom
        # the tail, kept[-best]: least chain size, then most copied, then last
        best_size, _, best = min(
            (all_copied - n - k + own + (top or tops > k_top)
             + (bottom or bottoms > copy_bottom), -n, -i)
            for i, (n, k, k_top, copy_bottom, own, top, bottom)
            in enumerate(sizes))
        del sizes
        join_size = 1 + own_all + own_top + own_bottom
        if best_size >= join_size:
            return self._intern((_X, tuple(kept)), vs)
        tail = kept.pop(-best)          # the tail child is kept as it is
        del walks[-best]
        var, unique = self._vars, self._unique
        while kept:                     # each walk is freed once copied
            c, walk = kept.pop(), walks.pop()
            sub = {TOP: tail, BOTTOM: BOTTOM}
            mask = var[tail]
            for m in sorted(walk):      # children have smaller ids
                e = entries[m]
                if e[0] == _D:
                    key = (_D, e[1], sub[e[2]], sub[e[3]])
                elif e[0] == _L:
                    key = (_D, e[1], tail, BOTTOM)
                else:
                    sub[m] = self.mk_decomposable(e[1] + (tail,))
                    continue
                node = sub[m] = unique.setdefault(key, len(entries))
                if node == len(entries):    # new; ``_intern`` inlined
                    entries.append(key)
                    var.append(var[m] | mask)
            tail = sub[c]
        return tail

    def adopt(self, entries, base: int) -> list:
        """Intern ``entries``, the nodes another store appended after its
        first ``base`` ids, which both stores share (as a forked copy
        does), and return ``ids``: ``ids[n]`` is the id here of that
        store's node ``n``.  Each entry is rebuilt by the constructors,
        so the nodes are checked and shared as if built here.  Raises
        ValueError on an entry that is not a node over earlier ids."""
        if not 2 <= base <= len(self._entries):
            raise ValueError(f"base {base} is not a shared prefix")
        ids = list(range(base))
        for e in entries:
            if e[0] == _D and 0 <= e[2] < len(ids) and 0 <= e[3] < len(ids):
                ids.append(self.mk_decision(e[1], ids[e[2]], ids[e[3]]))
            elif e[0] == _L:
                ids.append(self.mk_literal(e[1]))
            elif e[0] == _X and all(0 <= c < len(ids) for c in e[1]):
                ids.append(self.mk_decomposable([ids[c] for c in e[1]]))
            else:
                raise ValueError(f"not a node over earlier ids: {e!r}")
        return ids

    # -- queries ------------------------------------------------------------

    def count(self, n: NodeId, reach: set | None = None) -> int:
        """Number of sets in the family of ``n`` (exact bignum).
        ``reach``, if given, is ``reachable(n)``, which is then not
        walked again.

        One pass in ascending id order: interning is append-only, so
        every child has a smaller id than its parent."""
        memo = {BOTTOM: 0, TOP: 1}
        for m in sorted(self.reachable(n) if reach is None else reach):
            e = self._entries[m]
            if e[0] == _L:
                memo[m] = 1
            elif e[0] == _D:
                memo[m] = memo[e[2]] + memo[e[3]]
            elif e[0] == _X:
                p = 1
                for ch in e[1]:
                    p *= memo[ch]
                memo[m] = p
        return memo[n]

    def reachable(self, n: NodeId) -> set:
        """Ids of all nodes under ``n``, terminals included."""
        return self._reachable_from([n])

    def _reachable_from(self, roots) -> set:
        """Ids of the nodes under ``roots``, terminals included."""
        seen = set()
        stack = list(roots)
        while stack:
            m = stack.pop()
            if m in seen:
                continue
            seen.add(m)
            e = self._entries[m]
            if e[0] == _D:
                stack.append(e[2])
                stack.append(e[3])
            elif e[0] == _X:
                stack.extend(e[1])
        return seen

    def node_count(self, n: NodeId) -> int:
        """Number of distinct nodes reachable from ``n``, terminals
        included; node_count(TOP) == 1."""
        return len(self.reachable(n))

    def iter_members(self, n: NodeId):
        """Yield the sets of the family of ``n`` as sorted tuples of row
        ids, in lexicographic order.

        The order guarantee assumes every node's family is an antichain
        (no member contains another), which holds for any diagram built
        by the cover engines: all members of a node cover the same
        column set, and rows are non-empty.  Hand-built diagrams that
        break this still yield every member exactly once, but possibly
        out of order.

        A root with ``_CUT_VARS`` (160) variables or more is first split
        into segments whose variables follow one another
        (``_segments``): then the family is their product, and
        lexicographic order is odometer order over the segments' own
        sorted families (``_product``).  Each segment buffers only its
        own part of a set, so a chain of k blocks holds O(k) parts, not
        a full partial set per node and item.  The segments before the
        last start at their least parts, which one call finds for all of
        them (``_least_parts``), and each builds its stream only when the
        odometer first moves it.  Sets leave the product through C
        iterators, one ``map`` per odometer step over the last segment's
        items (its item list, once that stream is done), chained by
        ``itertools.chain``: Python code runs once per step, not once per
        set.  A smaller root is one segment, with no cut pass, read
        through its stream alone; a product of one segment has no least
        part.
        """
        mask = self._vars[n]
        segments = (self._segments(n) if mask.bit_count() >= _CUT_VARS
                    else [((n,), TOP)])
        return _product(self, segments, mask.bit_length())

    def _segments(self, n: NodeId) -> list:
        """Split the family of ``n`` into a product of segments whose
        variables follow one another: per segment, the nodes it reads
        as a chain (one, or children of a decomposable node whose
        variable ranges interleave) and the node that stands for its
        TOP, where the next segment starts.

        A node ``h`` ends the segment of ``m`` when every path from
        ``m`` to TOP passes through it (BOTTOM edges aside), its
        variables all exceed those of ``m`` above it, and its family
        holds no empty set, so that every set in a later segment adds
        rows.  A decomposable node splits into runs of children at the
        gaps between their variable ranges (``_runs``), the runs from
        the last one without the empty set on read as one.  One pass in
        ascending id order, as in ``count``, finds each node's immediate
        post-dominator towards TOP by walking the post-dominator chains
        of its two branches to where they meet; a literal's and a
        decomposable node's is TOP, since its children share no node.
        A node with no such cut below it is one segment.  The pass reads
        every id up to ``n``, which costs less than sorting the
        reachable ones; no reachable node reads an unreachable one."""
        entries, var = self._entries, self._vars
        ipdom = [TOP] * (n + 1)
        empty = [False, True] + [False] * (n - 1)   # holds the empty set
        for m in range(2, n + 1):
            e = entries[m]
            if e[0] == _D:
                a, b = e[2], e[3]
                if b != BOTTOM:
                    empty[m] = empty[b]
                    while a != b:       # a post-dominator has a smaller id
                        if a > b:
                            a = ipdom[a]
                        else:
                            b = ipdom[b]
                ipdom[m] = a
            elif e[0] == _X:
                empty[m] = all(empty[c] for c in e[1])
        out = []
        todo = [(n,)]
        while todo:
            heads = todo.pop()
            m = heads[0]
            if len(heads) > 1:
                out.append((heads, TOP))
                continue
            if entries[m][0] == _X:
                runs = _runs(entries[m][1], var)
                j = len(runs) - 1
                while j and all(empty[c] for c in runs[j]):
                    j -= 1
                todo.extend(reversed(runs[:j] + [sum(runs[j:], ())]))
                continue
            h = ipdom[m]
            while h != TOP and (empty[h] or
                                var[m] & ~var[h] >= var[h] & -var[h]):
                h = ipdom[h]
            out.append((heads, h))
            if h != TOP:
                todo.append((h,))
        return out

    def enumerate(self, n: NodeId, limit=None) -> list:
        if limit is not None and limit <= 0:
            return []
        return list(islice(self.iter_members(n), limit))

    def validate(self, n: NodeId):
        """Check structural invariants under ``n``; raises on violation."""
        for m in self.reachable(n):
            self._check_node(m)

    def check_canonical(self):
        """Scan the whole store (not just one root) for canonicity:
        unique table bijective and every node well formed (see
        ``_check_node``).  Raises AssertionError on violation."""
        if len(self._unique) != len(self._entries):
            raise AssertionError("unique table out of sync with arena")
        seen = set()
        for m, e in enumerate(self._entries):
            if e in seen:
                raise AssertionError(f"duplicate structural node {e}")
            seen.add(e)
            if self._unique.get(e) != m:
                raise AssertionError(f"unique table misses node {m}")
            self._check_node(m)

    def _check_node(self, m: NodeId):
        """Node ``m``'s invariants: children have smaller ids; a decision
        has a non-BOTTOM positive branch and its variable occurs in
        neither branch; a decomposable node has >= 2 sorted children,
        none terminal or decomposable, on pairwise disjoint variables;
        the variable set is the union of what lies below."""
        e = self._entries[m]
        if e[0] == _D:
            _, v, pos, neg = e
            if pos == BOTTOM:
                raise AssertionError(f"node {m}: positive branch is BOTTOM")
            if pos >= m or neg >= m:
                raise AssertionError(f"node {m}: child id not smaller")
            below = self._vars[pos] | self._vars[neg]
            if below >> v & 1:
                raise AssertionError(f"node {m}: {v} occurs in a branch")
            if self._vars[m] != below | 1 << v:
                raise AssertionError(f"node {m}: stale variable set")
        elif e[0] == _X:
            ch = e[1]
            if len(ch) < 2 or list(ch) != sorted(ch):
                raise AssertionError(f"node {m}: malformed decomposable")
            if ch[-1] >= m:
                raise AssertionError(f"node {m}: child id not smaller")
            vs = 0
            for c in ch:
                if c in (BOTTOM, TOP) or self._entries[c][0] == _X:
                    raise AssertionError(f"node {m}: non-canonical child {c}")
                if vs & self._vars[c]:
                    raise AssertionError(f"node {m}: children share variables")
                vs |= self._vars[c]
            if self._vars[m] != vs:
                raise AssertionError(f"node {m}: stale variable set")

    # -- serialization ------------------------------------------------------

    def dump(self, n: NodeId) -> str:
        """Textual form of the diagram under ``n``, children before
        parents, root last.  Lines: ``id B|T``, ``id L <var>``,
        ``id D <var> <pos> <neg>``, ``id X <child>...``."""
        order = []
        seen = set()
        stack = [(n, False)]
        while stack:
            m, done = stack.pop()
            if done:
                order.append(m)
                continue
            if m in seen:
                continue
            seen.add(m)
            stack.append((m, True))
            e = self._entries[m]
            kids = e[2:] if e[0] == _D else e[1] if e[0] == _X else ()
            stack.extend((ch, False) for ch in reversed(kids))
        lines = []
        for m in order:
            e = self._entries[m]
            fields = e[1] if e[0] == _X else e[1:]
            lines.append(" ".join(map(str, (m, e[0], *fields))))
        return "\n".join(lines) + "\n"

    def export_dot(self, n: NodeId, var_names=None) -> str:
        """Graphviz source.  Decision nodes show their variable with a
        solid edge to the positive branch and a dashed edge to the
        negative; decomposable nodes are triangles; terminals boxes.
        A label escapes ``\\`` and ``"``, so any name stays one DOT
        string."""
        def name(v):
            text = str(var_names[v]) if var_names is not None else str(v)
            return text.replace("\\", "\\\\").replace('"', '\\"')
        # a literal or decision is an oval labelled with its variable
        shapes = {_B: 'box, label="0"', _T: 'box, label="1"',
                  _X: 'triangle, label="&#x2294;"'}
        lines = ["digraph diagram {"]
        for m in sorted(self.reachable(n)):
            e = self._entries[m]
            shape = shapes.get(e[0]) or f'oval, label="{name(e[1])}"'
            lines.append(f"  n{m} [shape={shape}];")
            kids = e[2:] if e[0] == _D else e[1] if e[0] == _X else ()
            for i, ch in enumerate(kids):
                dashed = " [style=dashed]" if e[0] == _D and i else ""
                lines.append(f"  n{m} -> n{ch}{dashed};")
        lines.append("}")
        return "\n".join(lines) + "\n"


_FIELDS = {_B: 0, _T: 0, _L: 1, _D: 3}   # numbers after the kind; X: >= 2


def load_dump(text: str):
    """Rebuild a diagram from NodeStore.dump output.

    Returns ``(store, root, id_map)`` where id_map sends dumped ids to
    ids in the fresh store.  Raises ValueError naming the first line
    that is malformed: an unknown kind, a wrong number of fields, a
    field that is not an integer, an id defined twice, a child not
    defined on an earlier line, or a node that breaks the diagram's
    rules.
    """
    store = NodeStore()
    id_map = {}
    root = None
    for raw in text.splitlines():
        if not raw.strip():
            continue
        try:
            old, kind, *fields = raw.split()
            old, args = int(old), [int(f) for f in fields]
            if old in id_map:
                raise ValueError("id defined twice")
            if kind == _X and len(args) >= 2:
                new = store.mk_decomposable([id_map[a] for a in args])
            elif len(args) != _FIELDS.get(kind):
                raise ValueError("unknown kind or wrong number of fields")
            elif kind == _L:
                new = store.mk_literal(args[0])
            elif kind == _D:
                new = store.mk_decision(
                    args[0], id_map[args[1]], id_map[args[2]])
            else:
                new = BOTTOM if kind == _B else TOP
        except (KeyError, OverflowError, ValueError) as err:
            raise ValueError(f"bad dump line: {raw!r}") from err
        id_map[old] = new
        root = new
    if root is None:
        raise ValueError("empty dump")
    return store, root, id_map


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> frozenset:
    """Positions of the set bits of ``mask``."""
    if mask.bit_count() * 8 < mask.bit_length():
        # sparse, as a dyndxd component's rows among all rows: one step
        # per set bit beats a pass over every position
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(out)
    digits = bin(mask)[:1:-1].encode().translate(_ZERO_ONE)   # LSB first
    return frozenset(compress(range(len(digits)), digits))


# Roots with at least this many variables are split into segments at
# cut nodes (``NodeStore._segments``) before they are read; a smaller one
# is one segment.  The cut pass reads every node id up to the root: run
# on every root, it took reading the 8 dxd covers of pentomino 3x20 (68
# variables, no cut) from 129 to 150 us (seed 7, in process).
_CUT_VARS = 160


class _Stream:
    """Lazy, memoized, lexicographically sorted view of a node's family.

    One stream exists per node and context per reader (``_Streams``
    builds them on first use): one reader for the last segment of a
    product (``_product``), and one per moved segment before it.
    Readers of the same stream share its growing ``items`` buffer, so
    diamonds in the diagram are expanded once.  Items are sets of the
    family as sorted tuples of row ids.  A decision node merges the arms
    of its negative chain (``_Decision``).  A decomposable node is read
    as the chain of its children that ``NodeStore.mk_join`` would build,
    without building it: each child is read with the chain of the
    children after it standing for its TOP, which is the context.  Order is
    preserved under inserting a decision variable because distinct sets
    of a family are never related by prefix order here: the families
    denoted by diagram nodes built from exact covers are antichains
    (each set covers the same column set, so none strictly contains
    another), and in a segment that another follows, every item ends in
    the sentinel that stands for the segment's end, so no item is a
    prefix of another.

    A stream grows by ``step``, which appends one item, marks the stream
    done, or returns the unfinished child stream that must first grow by
    one item.  ``_grow`` serves those demands from an explicit stack, so
    neither building nor growing streams recurses, and a diagram of any
    depth (a ZBDD chain over thousands of rows, say) enumerates at the
    interpreter's default recursion limit.  This base class is a
    finished stream (TOP or BOTTOM).
    """

    __slots__ = ("items", "done")

    def __init__(self, items=()):
        self.items = list(items)
        self.done = True


class _Streams(dict):
    """The streams of one enumeration call, keyed by node id, or by node
    id and the stream that stands for its TOP."""

    def __init__(self, store: NodeStore):
        super().__init__()
        self.entries = store._entries

    def stream(self, n: NodeId, tail: _Stream | None = None) -> _Stream:
        if tail is None:
            key = n
        elif n == TOP:
            return tail
        else:
            key = (n, tail)
        s = self.get(key)
        if s is None:
            e = self.entries[n]
            if e[0] == _X:
                s = tail
                for c in reversed(e[1]):
                    s = self.stream(c, s)
            elif e[0] == _D:
                s = _Decision(self, *self._arms(e), tail)
            elif e[0] == _L:
                s = _Decision(self, [(e[1],)], [TOP], tail)
            else:
                s = _Stream(((),) if e[0] == _T else ())
            self[key] = s
        return s

    def _arms(self, e) -> tuple:
        """The arms of decision entry ``e``: per arm, the variables it
        inserts, sorted (None if none), and the node it reads."""
        entries = self.entries
        adds, srcs = [], []
        while True:
            # a decision whose negative branch is BOTTOM, or a literal,
            # only inserts its variable: read past it
            vs = (e[1],)
            src = e[2]
            f = entries[src]
            while f[0] == _D and f[3] == BOTTOM:
                vs += (f[1],)
                src = f[2]
                f = entries[src]
            if f[0] == _L:
                vs += (f[1],)
                src = TOP
            adds.append(tuple(sorted(vs)))
            srcs.append(src)
            last = e[3]
            e = entries[last]
            if e[0] != _D:
                break
        if e[0] == _L:
            adds.append((e[1],))
            srcs.append(TOP)
        elif last != BOTTOM:
            adds.append(None)
            srcs.append(last)
        return adds, srcs


def _grow(s: _Stream):
    """Append one item to the unfinished stream ``s``, or finish it."""
    stack = []
    while True:
        child = s.step()
        if child is not None:
            stack.append(s)
            s = child
        elif stack:
            s = stack.pop()
        else:
            return


def _runs(children, var) -> list:
    """The children of a decomposable node in runs, ordered by their
    variables: a child whose lowest variable lies below the highest
    variable of the children before it joins their run."""
    runs = []
    seen = 0
    for c in sorted(children, key=lambda c: var[c] & -var[c]):
        if var[c] & -var[c] > seen:
            runs.append((c,))
        else:
            runs[-1] += (c,)
        seen |= var[c]
    return runs


class _EndAt:
    """A store's entries as one segment reads them: the node that ends
    the segment looks like a leaf, so no arm reads past it
    (``_Streams._arms``)."""

    __slots__ = ("entries", "end")

    def __init__(self, entries, end: NodeId):
        self.entries = entries
        self.end = end

    def __getitem__(self, m: NodeId) -> tuple:
        return _LEAF if m == self.end else self.entries[m]


_LEAF = ("E",)      # neither a decision nor a literal


def _product(store: NodeStore, segments: list, end: int):
    """An iterator over the sets of a family that is the product of
    ``segments`` (``NodeStore._segments``), in lexicographic order.

    A segment that another follows reads its end as one sentinel row
    ``end``, which exceeds every row id.  Every later segment adds rows
    above the segment's, so a part that is a proper prefix of another
    must sort after it, as it does with the sentinel.  Sets then come
    from an odometer over the segments' sorted parts, the last segment
    varying fastest (``_steps``): the parts of the earlier segments,
    sentinels stripped, are joined once per step into a head, and each
    step hands over its sets as one ``map`` that appends each item of
    the last segment to that head.  The steps are chained in C, so the
    generator runs once per step, not once per set.  A product of one
    segment is that segment's stream, read from the start, with no
    chain."""
    *firsts, (heads, _) = segments
    tail = _segment_stream(store, heads, TOP, None)
    if not firsts:
        return _members(tail)
    return chain.from_iterable(_steps(store, firsts, tail, end))


def _steps(store: NodeStore, firsts: list, tail: _Stream, end: int):
    """Yield, per odometer step of ``_product``, an iterator over the
    step's sets: the step's head followed by each item of ``tail``.
    While ``tail`` still grows (the first step), its items come from
    ``_members``, which grows it only as far as they are drawn; once it
    is done, straight from its item list.

    The odometer moves the earlier segments seldom, so each starts at
    its least part, which one call finds for all of them
    (``_least_parts``), and its stream, read by a ``_Streams`` of its
    own, is built only when the odometer first asks it for a second
    part.  Drawing 10 covers of the 400-block ladder builds 3 or 4
    streams for its 799 or 800 segments."""
    least = _least_parts(store, firsts, end)
    parts = list(least)
    streams = [None] * len(least)
    at = [0] * len(least)
    while True:
        head = tuple(chain.from_iterable(parts))
        yield map(head.__add__, tail.items if tail.done else _members(tail))
        i = len(least) - 1
        while True:
            s = streams[i]
            if s is None:
                s = streams[i] = _segment_stream(store, *firsts[i], end)
            if _fill(s, at[i] + 1):
                break
            at[i] = 0
            parts[i] = least[i]
            if i == 0:
                return
            i -= 1
        k = at[i] = at[i] + 1
        parts[i] = s.items[k][:-1]


def _segment_stream(store: NodeStore, heads, stop: NodeId, end) -> _Stream:
    """The sorted stream of one segment, read by a ``_Streams`` of its
    own: with ``end`` given, ``stop`` stands for its TOP and reads as the
    sentinel item ``(end,)``."""
    reader = _Streams(store)
    if end is not None:
        reader[stop] = _Stream(((end,),))
        if stop != TOP:
            reader.entries = _EndAt(reader.entries, stop)
    s = None
    for h in reversed(heads):
        s = reader.stream(h, s)
    return s


def _least_parts(store: NodeStore, segments: list, end: int) -> list:
    """The least part of each of ``segments``, all but a product's last
    (``NodeStore._segments``): the first item of its stream
    (``_segment_stream``), sentinel stripped, found with no stream.

    With the sentinel, every part ends in ``end``, so no part is a
    prefix of another, and of two distinct parts X and Y, X sorts first
    exactly when ``min(X ^ Y)`` (as sets) lies in X, for any family.
    Inserting a variable that neither holds leaves ``X ^ Y`` alone, so
    a decision node's least part is the lesser of its variable inserted
    into its positive branch's and its negative branch's.  Over families
    on disjoint variables the union of the least parts is the least
    union, so a decomposable node's, and several heads', is their sorted
    union, the sentinel once.

    One loop over the segments, with no recursion: each walks its nodes
    from its heads, not past its stop, and reads them in ascending id
    order, children first, as in ``NodeStore.count``.  Its stop, and
    TOP, read as the sentinel ``(end,)``; a segment whose stop is
    another node never reads TOP.  Each node lies in one segment, so no
    node is read twice.  A segment's dict is freed once its part is
    taken: one dict for all segments would hold a part per node at once,
    which on the 400-block ladder is most of the enumeration's peak."""
    entries = store._entries
    sentinel = (end,)
    parts = []
    nodes = []
    for heads, stop in segments:
        least = {BOTTOM: None, TOP: sentinel, stop: sentinel}
        nodes[:] = heads
        for m in nodes:                 # grows as it goes: the walk
            e = entries[m]
            for c in e[2:] if e[0] == _D else e[1] if e[0] == _X else ():
                if c not in least:
                    least[c] = None
                    nodes.append(c)
        nodes.sort()
        for m in nodes:
            e = entries[m]
            if e[0] == _X:
                least[m] = tuple(sorted({v for c in e[1] for v in least[c]}))
                continue
            v = e[1]
            t = least[e[2]] if e[0] == _D else sentinel
            if v < t[0]:
                t = (v,) + t
            else:
                i = bisect_left(t, v)
                t = t[:i] + (v,) + t[i:]
            if e[0] == _D and e[3] != BOTTOM and least[e[3]] < t:
                t = least[e[3]]
            least[m] = t
        parts.append(least[heads[0]][:-1] if len(heads) == 1 else
                     tuple(sorted({v for h in heads for v in least[h]}))[:-1])
    return parts


def _fill(s: _Stream, k: int) -> bool:
    """Grow ``s`` until it holds item ``k``; False if it never will."""
    while len(s.items) <= k:
        if s.done:
            return False
        _grow(s)
    return True


def _members(root: _Stream):
    """Yield the items of ``root`` in order, growing it only as far as
    they are drawn.  A product reads its last segment through this
    generator only on the first odometer step, while that stream still
    grows (``_steps``); a finished stream is read from its item list."""
    i = 0
    while _fill(root, i):
        yield root.items[i]
        i += 1


class _Decision(_Stream):
    """Merge of the arms of a decision node.

    Following negative branches from the node down to the first
    non-decision node, each decision node v contributes its positive
    stream with v inserted into every set, and the node reached last
    contributes its own stream.  A heap holds the next item of every
    arm, so a set found deep in a long negative chain is not copied
    through each node of the chain.  An arm reads past a run of
    decisions whose negative branch is BOTTOM, and a literal, since
    those only insert their variables, and so skips the buffers their
    own streams would fill.

    An arm's variables are sorted into each item it yields, one
    ``sorted`` call per item over the arm's sorted variables and the
    item: a single run when they all come first, else a merge of two.
    """

    __slots__ = ("streams", "tail", "vars", "arms", "next", "heap", "pending")

    def __init__(self, streams, adds, arms, tail):
        self.items = []
        self.done = False
        self.streams = streams
        self.tail = tail        # the stream standing for TOP, or None
        self.vars = adds        # per arm: sorted variables, or None
        self.arms = arms        # per arm: its stream, once resolved
        self.next = None        # per arm: index of its next item
        self.heap = []
        self.pending = None     # arms whose next item is not in the heap

    def step(self):
        arms = self.arms
        pending = self.pending
        if pending is None:
            stream, tail = self.streams.stream, self.tail
            arms = self.arms = [stream(src, tail) for src in arms]
            self.streams = self.tail = None
            self.next = [0] * len(arms)
            pending = self.pending = list(range(len(arms)))
        heap = self.heap
        while pending:
            a = pending[-1]
            s = arms[a]
            k = self.next[a]
            if k < len(s.items):
                t = s.items[k]
                vs = self.vars[a]
                if vs is not None:      # merge the arm's variables into t
                    t = tuple(sorted(vs + t))
                pending.pop()
                if not pending:     # push the last one and pop the least
                    t, a = heapq.heappushpop(heap, (t, a))
                    break
                heapq.heappush(heap, (t, a))
            elif not s.done:
                return s
            else:
                pending.pop()
        else:                   # no arm was left to refill the heap
            if not heap:
                self.done = True
                self.arms = self.next = self.heap = None
                return None
            t, a = heapq.heappop(heap)
        self.items.append(t)
        self.next[a] += 1
        pending.append(a)
        return None
