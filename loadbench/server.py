"""The benchmark's server process.

Builds one workload's index from its dataset, publishes it to shared
memory behind the worker pool, puts the answer cache and the TCP front
door in front, and serves until told to stop.  Every serving setting is
the library default: 2 pool workers, the ``auto`` kernel, a 65,536-entry
answer cache, ``max_batch=128``, ``max_wait_us=500`` and trace sampling
1 in 64.  ``run.py`` starts it as::

    python3 loadbench/server.py --workload lone --prefix wcbench123 [--traced]

It speaks JSON lines: events on stdout, commands on stdin.

* ``{"event": "ready", ...}`` once the front door listens, with the
  port, segment name, worker pids and the set-up timings.
* ``{"cmd": "stats"}`` answers the front door, cache and pool counters,
  the time spent in garbage collection (traced runs) and a summary of
  the traces finished since the previous ``stats``.
* ``{"cmd": "collect"}`` runs a full garbage collection and answers
  ``{"event": "collected"}``.  ``run.py`` sends it just before a timed
  window, so every window starts at the same point of the collector's
  cycle: collections of the server's large heaps pause it for hundreds
  of milliseconds, and how many land in a window would otherwise depend
  on where the set-up left the cycle.
* ``{"cmd": "stop"}`` (or end of input) shuts everything down and
  answers ``{"event": "stopped"}``.

``--traced`` keeps every finished trace (a larger trace ring) so the
traced run can summarise all of its force-sampled requests, and times
every garbage collection; nothing else changes.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time

from workloads import load_graph, workload

from repro.core import WCIndexBuilder
from repro.obs import Telemetry
from repro.serve import (
    AnswerCache,
    CachingClient,
    NetServerThread,
    PoolClient,
    QueryServer,
)

#: Finished traces a traced run keeps (one per force-sampled request).
TRACED_RING = 1 << 16


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def p50(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, spec, prefix: str, traced: bool) -> None:
        self.timings = {}
        started = time.perf_counter()
        graph = load_graph(spec)
        self.num_vertices = graph.num_vertices
        index = WCIndexBuilder(graph, "hybrid", query_kernel="linear").build()
        self.timings["build_s"] = time.perf_counter() - started
        mark = time.perf_counter()
        frozen = index.freeze()
        del index
        self.timings["freeze_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        self.server = QueryServer(frozen, segment_name=f"{prefix}g0")
        self.timings["pool_start_s"] = time.perf_counter() - mark
        self.entries = frozen.entry_count()
        self.cache = self.server.attach_cache(AnswerCache(frozen))
        telemetry = Telemetry(trace_capacity=TRACED_RING) if traced else None
        self.front = NetServerThread(
            CachingClient(PoolClient(self.server), self.cache),
            telemetry=telemetry,
        )
        self.front.start()
        self.telemetry = self.front.server.telemetry
        self._traces_seen = 0
        self.gc_seconds = 0.0
        self._forced = False
        if traced:
            gc.callbacks.append(self._time_collection)

    def _time_collection(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif not self._forced:
            self.gc_seconds += time.perf_counter() - self._gc_started

    def collect(self) -> dict:
        """A full collection outside the program's own cycle (not
        counted in ``gc_s``)."""
        self._forced = True
        try:
            gc.collect()
        finally:
            self._forced = False
        return {"event": "collected"}

    def ready(self) -> dict:
        return {
            "event": "ready",
            "port": self.front.address[1],
            "segment": self.server.image_name,
            "workers": [w["pid"] for w in self.server.worker_states()],
            "kernel": self.server.kernel_backend,
            "vertices": self.num_vertices,
            "entries": self.entries,
            "image_bytes": self.server.image_bytes,
            "timings": self.timings,
        }

    def stats(self) -> dict:
        sampled = int(self.telemetry.traces_sampled.value)
        fresh = min(sampled - self._traces_seen, len(self.telemetry.traces))
        self._traces_seen = sampled
        traces = self.telemetry.traces.recent(fresh) if fresh > 0 else []
        supervisor = self.server.supervisor
        return {
            "event": "stats",
            "net": self.front.server.stats.snapshot(),
            "cache": self.cache.snapshot(),
            "dispatch": self.server.dispatch_snapshot(),
            "restarts": sum(supervisor.restart_counts) if supervisor else 0,
            "gc_s": self.gc_seconds,
            "traces": summarize(traces),
        }

    def close(self) -> None:
        self.front.stop()
        self.server.close()


def summarize(traces) -> dict:
    """Median span durations (microseconds) over finished traces.

    ``wait`` is admission to the backend call (queue wait plus batch
    coalescing); ``self`` is the front door's own share of a request,
    its total minus that wait and the backend call."""
    wait, self_, kernel, lookup, pool, chunk, chunks = [], [], [], [], [], [], []
    hits = 0
    for trace in traces:
        spans = {}
        for span in trace.spans:
            spans.setdefault(span.name, []).append(span)
        if "cache-lookup" in spans:
            lookup.append(spans["cache-lookup"][0].duration_s)
        if trace.meta.get("cache_hit"):
            hits += 1
            continue
        if "kernel" not in spans:
            continue
        waited = sum(
            s.duration_s
            for name in ("queue-wait", "batch-coalesce")
            for s in spans.get(name, ())
        )
        backend = spans["kernel"][0].duration_s
        wait.append(waited)
        kernel.append(backend)
        self_.append(max(0.0, (trace.total_s or 0.0) - waited - backend))
        if "pool-dispatch" in spans:
            dispatch = spans["pool-dispatch"][0]
            pool.append(dispatch.duration_s)
            chunk.append(dispatch.meta.get("chunk_size", 0))
            chunks.append(dispatch.meta.get("chunks", 0))
    return {
        "count": len(traces),
        "cache_hits": hits,
        "wait_us": p50(wait) * 1e6,
        "self_us": p50(self_) * 1e6,
        "kernel_us": p50(kernel) * 1e6,
        "lookup_us": p50(lookup) * 1e6,
        "pool_us": p50(pool) * 1e6,
        "pool_calls": len(pool),
        "chunk_size": p50(chunk),
        "chunks": p50(chunks),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--prefix", required=True, help="shm segment prefix")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bench = Bench(workload(args.workload, args.smoke), args.prefix, args.traced)
    try:
        emit(bench.ready())
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "stop":
                break
            if command["cmd"] == "stats":
                emit(bench.stats())
            elif command["cmd"] == "collect":
                emit(bench.collect())
            else:
                raise ValueError(f"unknown command {command['cmd']!r}")
    finally:
        bench.close()
    emit({"event": "stopped"})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
