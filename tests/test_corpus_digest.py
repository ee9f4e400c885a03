"""The engines' outputs on criterion 4's corpus, pinned as one digest.

A change that claims to leave the search's results alone (a speed-up, a
refactor) must keep this digest.  It covers count, node count, diagram
``dump`` and cache hits and misses of dxz, dxd and dyndxd on each of the
1000 seeded instances.  ``subs`` is left out: it counts the joins built,
which an engine may build fewer of without changing any diagram.
"""

import hashlib

from test_acceptance import DIAGRAM_ENGINES, corpus

CORPUS_DIGEST = (
    "942aa5455c7df4f04cdfebdae1eccf8a2d6a0f8643d905120599b44463bdc18b")


def test_corpus_outputs_keep_their_digest():
    h = hashlib.sha256()
    for _, _, reps in corpus():
        for eng in DIAGRAM_ENGINES:
            rep = reps[eng]
            h.update(repr((rep.count, rep.nodes, rep.store.dump(rep.root),
                           rep.stats.cache_hits,
                           rep.stats.cache_misses)).encode())
    assert h.hexdigest() == CORPUS_DIGEST
