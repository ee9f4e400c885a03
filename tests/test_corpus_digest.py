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
"""

import hashlib

from conftest import pentomino_instance
from test_acceptance import DIAGRAM_ENGINES, corpus

from xcover.gen import block_diagonal
from xcover.solver import SolveConfig, solve

CORPUS_DIGEST = (
    "454f7d239ec06f139353ef196b79ddaa517436a214e78940f3fe5eb7e70a3eb1")
WORKLOAD_DIGEST = (
    "3cd0309e4613df0bf1de299bdee7c7c98e38e7267ac6b985c31a86b473c9eee9")


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
