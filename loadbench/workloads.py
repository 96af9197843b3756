"""The benchmark's workloads and the inputs each one draws from its seed.

Both processes import this module: the server to know which graph to
build, the client (``run.py``) to generate the queries it sends.  The
server never sees the seed; it receives only what is sent.

* ``lone`` -- one connection, batch-1 uniform queries on FLA at scale 10
  (2,703 vertices; the label image is larger than a core's L2).  Every
  fixed per-request cost is paid once per query: the batching window,
  the frame codec, the pool round trip and the batch-1 kernel path.
* ``bulk`` -- the same graph; two connections each keep two frames of
  1,024 uniform queries in flight.  Frames exceed the batcher's
  ``max_batch``, so nothing waits for the window and the cost is per
  query on a CPU-bound server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Set, Tuple

Query = Tuple[int, int, float]
Edge = Tuple[int, int, float]

#: The dataset every workload serves, at the workload's scale.
DATASET = "FLA"


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    #: Open connections; each keeps ``depth`` requests in flight.
    connections: int = 1
    depth: int = 1
    #: Queries per request (one QUERY frame).
    frame: int = 1
    #: Warm-up requests, the last step of every set-up.
    warmup: int = 64
    #: Requests sent after set-up, untimed, to bring the server to its
    #: steady state before the window (``bulk``: a full answer cache).
    prefill: int = 0


WORKLOADS: Dict[str, Workload] = {
    "lone": Workload("lone", 10.0, warmup=200),
    "bulk": Workload(
        "bulk", 10.0, connections=2, depth=2, frame=1024, warmup=8,
        prefill=72,
    ),
}

#: Smoke mode: the same shapes on graphs of about a hundred
#: vertices, so a full pass with answer checking takes seconds.
SMOKE: Dict[str, Workload] = {
    "lone": replace(WORKLOADS["lone"], scale=0.5, warmup=16),
    "bulk": replace(
        WORKLOADS["bulk"], scale=0.5, frame=256, warmup=2, prefill=4
    ),
}


def workload(name: str, smoke: bool = False) -> Workload:
    table = SMOKE if smoke else WORKLOADS
    if name not in table:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(table)}"
        )
    return table[name]


def load_graph(spec: Workload):
    """The workload's graph, built deterministically from the dataset
    suite at the workload's scale (``REPRO_SCALE`` is ignored)."""
    from repro.workloads import datasets

    return datasets.load(DATASET, scale=spec.scale)


class UniformQueries:
    """An endless seeded stream of uniform ``(s, t, w)`` queries with
    ``w`` drawn from the graph's quality levels."""

    def __init__(self, graph, seed: int) -> None:
        self._rng = random.Random(seed)
        self._n = graph.num_vertices
        self._levels = graph.distinct_qualities()

    def take(self, count: int) -> List[Query]:
        rng, n, levels = self._rng, self._n, self._levels
        return [
            (rng.randrange(n), rng.randrange(n), rng.choice(levels))
            for _ in range(count)
        ]


def new_edges(graph, seed: int, count: int) -> List[Edge]:
    """``count`` seeded edges that are new to ``graph`` and to each
    other, so each one is an insertion (never an upgrade of an existing
    edge, never a deletion)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    levels = graph.distinct_qualities()
    taken: Set[Tuple[int, int]] = set()
    edges: List[Edge] = []
    while len(edges) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in taken or graph.has_edge(u, v):
            continue
        taken.add(key)
        edges.append((u, v, rng.choice(levels)))
    return edges
