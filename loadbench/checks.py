"""Answer checking, run after the timed window.

* Answers are compared with an in-process engine on the very image the
  server published, answering through the pure-Python ``stdlib`` kernel
  (the repository's reference kernel).
* A fixed-size seeded sample is also compared with a constrained BFS
  over the graph, which shares no code with the index.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.baselines.online import ConstrainedBFS
from repro.serve import attach_image

#: Answers per run also checked against a constrained BFS.
BFS_SAMPLE = 32


def stdlib_answers(segment: str, queries: Sequence) -> List[float]:
    attached = attach_image(segment, backend="stdlib")
    try:
        return attached.engine.distance_many(list(queries))
    finally:
        attached.close()


def check_answers(segment: str, graph, records, seed: int) -> List[str]:
    """Every recorded answer against the stdlib kernel on the served
    image, and a BFS sample against the graph."""
    queries = [r[0] for r in records]
    expected = stdlib_answers(segment, queries)
    errors = [
        f"{q}: served {r[1]!r}, stdlib kernel {e!r}"
        for r, q, e in zip(records, queries, expected)
        if r[1] != e
    ]
    bfs = ConstrainedBFS(graph)
    for query, answer in _sample(records, seed):
        truth = bfs.distance(*query)
        if answer != truth:
            errors.append(f"{query}: served {answer!r}, BFS {truth!r}")
    return errors


def _sample(records, seed: int):
    rng = random.Random(seed)
    return rng.sample(records, min(BFS_SAMPLE, len(records)))
