"""The engines' outputs on criterion 4's corpus, pinned as one digest,
and on two workload-scale instances, pinned as another.

A change that claims to leave the search's results alone (a speed-up, a
refactor) must keep these digests.  The corpus digest covers count,
node count, diagram ``dump``, cache hits and misses and dead ends of
dxz, dxd and dyndxd on each of the 1000 seeded instances.  The workload
digest covers the same fields of dxz and dxd on pentomino 3x20 (72
columns, 1236 rows) and on ``block_diagonal(demo, 400)`` (2400
columns), where a column mask spans hundreds of bytes.  ``subs`` is
left out: it counts the joins built, which an engine may build fewer of
without changing any diagram.

The chain digest covers the ladder with each block's rows reversed, as
the benchmark's shuffled ladder has them in some blocks: there the root
joins its 800 components as a chain (``NodeStore.mk_join``), 4,799
store nodes for a 2,402-node diagram, where the ladder in row order
keeps the decomposable node.  It folds in the store's size too, with
the same fields of dxd and dyndxd.
"""

import hashlib

from conftest import pentomino_instance
from test_acceptance import DIAGRAM_ENGINES, corpus

from xcover.gen import block_diagonal
from xcover.instance import Instance
from xcover.solver import SolveConfig, solve

CORPUS_DIGEST = (
    "454f7d239ec06f139353ef196b79ddaa517436a214e78940f3fe5eb7e70a3eb1")
WORKLOAD_DIGEST = (
    "3cd0309e4613df0bf1de299bdee7c7c98e38e7267ac6b985c31a86b473c9eee9")
CHAIN_DIGEST = (
    "b0a0035530246d195cb1d0ab592f1212b4bb5a8335c44c89c346276bef677aac")


def _fold(h, rep):
    h.update(repr((rep.count, rep.nodes, rep.store.dump(rep.root),
                   rep.stats.cache_hits, rep.stats.cache_misses,
                   rep.stats.dead)).encode())


def test_corpus_outputs_keep_their_digest():
    h = hashlib.sha256()
    for _, _, reps in corpus():
        for eng in DIAGRAM_ENGINES:
            _fold(h, reps[eng])
    assert h.hexdigest() == CORPUS_DIGEST


def test_workload_outputs_keep_their_digest(demo):
    h = hashlib.sha256()
    for inst in (pentomino_instance(), block_diagonal(demo, 400)):
        for eng in ("dxz", "dxd"):
            _fold(h, solve(inst, SolveConfig(engine=eng)))
    assert h.hexdigest() == WORKLOAD_DIGEST


def test_ladder_chain_outputs_keep_their_digest(demo):
    inst = block_diagonal(Instance.build(demo.columns, demo.rows[::-1]), 400)
    h = hashlib.sha256()
    for eng in ("dxd", "dyndxd"):
        rep = solve(inst, SolveConfig(engine=eng))
        _fold(h, rep)
        h.update(repr(len(rep.store)).encode())
        assert (rep.nodes, len(rep.store)) == (2402, 4799)
    assert h.hexdigest() == CHAIN_DIGEST
