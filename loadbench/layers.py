"""Per-layer metrics of the traced run.

Each number is either timed here, around a call into one layer's public
functions on the image the server published, or read from what the
server reports for its own layers (front-door, cache and pool counters,
and the span trees of requests the traced window force-samples).
Which end-to-end metric each one should move is recorded in README.md.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Sequence

from workloads import new_edges

from repro.core.kernels import available_backends, resolve_backend
from repro.live import KIND_INSERT, live_index
from repro.serve import attach_image, protocol

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
METRICS = [
    ("construction.build_s", "s"),
    ("construction.freeze_s", "s"),
    ("construction.entries", "count"),
    ("construction.bytes_per_entry", "B"),
    ("pool.start_s", "s"),
    ("kernel.us_per_query", "us"),
    ("kernel.us_per_query.stdlib", "us"),
    ("kernel.us_per_query.numpy", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("net.batch_queries_mean", "count"),
    ("net.wait_us_p50", "us"),
    ("net.self_us_p50", "us"),
    ("net.shed", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us_p50", "us"),
    ("pool.call_us_p50", "us"),
    ("pool.ipc_us_p50", "us"),
    ("pool.redispatches", "count"),
    ("pool.restarts", "count"),
    ("live.repair_ms", "ms"),
    ("live.freeze_ms", "ms"),
    ("live.dirty_fraction", "ratio"),
    ("proc.server_cpu_us_per_query", "us"),
    ("proc.worker_cpu_us_per_query", "us"),
    ("proc.driver_cpu_us_per_query", "us"),
    ("proc.server_gc_ms_per_s", "ms"),
    ("ledger.residual_pct", "%"),
    ("trace.qps", "1/s"),
]

#: Queries each kernel replay answers.
REPLAY_QUERIES = 2048
#: Seconds each codec replay runs.
CODEC_SECONDS = 0.2
#: New edges the live replay inserts, one at a time.  On the road graph
#: one insertion repairs about half the labels and takes seconds.
LIVE_INSERTS = 2


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def kernel_us_per_query(segment: str, backend: str, queries, batch: int) -> float:
    """Replay ``queries`` through ``backend`` at ``batch`` queries per
    call on the published image; microseconds per query.  An untimed
    first pass builds the backend's lazy per-image state, which the
    pool's long-lived workers hold already."""
    queries = list(queries)[:REPLAY_QUERIES]
    attached = attach_image(segment, backend=backend)
    try:
        engine = attached.engine
        calls = [queries[at:at + batch] for at in range(0, len(queries), batch)]
        for call in calls:
            engine.distance_many(call)
        started = time.perf_counter()
        for call in calls:
            engine.distance_many(call)
        elapsed = time.perf_counter() - started
    finally:
        attached.close()
    return elapsed / len(queries) * 1e6


def kernel_call_us(segment: str, queries, batch: int, calls: int) -> float:
    """Microseconds the ``auto`` kernel spends on ``calls`` consecutive
    calls of ``batch`` queries: what one pool worker computes for one
    pool call."""
    backend = resolve_backend(None).name
    return kernel_us_per_query(segment, backend, queries, batch) * batch * calls


def codec_us(queries: Sequence, answers: Sequence[float]) -> Dict[str, float]:
    """Per-frame encode and decode time of one request and its answer
    (the QUERY frame both ways, the ANSWER frame both ways)."""
    encode, decode = [], []
    stop = time.perf_counter() + CODEC_SECONDS
    while time.perf_counter() < stop:
        t0 = time.perf_counter()
        query_frame = protocol.encode_query(1, queries, trace_id=7)
        answer_frame = protocol.encode_answer(1, answers)
        t1 = time.perf_counter()
        (query,) = protocol.FrameDecoder().feed(query_frame)
        protocol.decode_query(query.payload)
        (answer,) = protocol.FrameDecoder().feed(answer_frame)
        protocol.decode_answer(answer.payload)
        t2 = time.perf_counter()
        encode.append(t1 - t0)
        decode.append(t2 - t1)
    return {"encode": _median(encode) * 1e6, "decode": _median(decode) * 1e6}


def live_replay(segment: str, graph, seed: int) -> Dict[str, float]:
    """Insert ``LIVE_INSERTS`` new edges, one at a time, into a live
    index adopted from the published image, timing each repair and the
    refreeze after it: the work ``LivePublisher`` does before it swaps
    the image.  ``graph`` is mutated."""
    attached = attach_image(segment, backend="stdlib")
    try:
        live = live_index(graph, index=attached.engine.thaw())
    finally:
        attached.close()
    repair, freeze, dirty = [], [], []
    for u, v, quality in new_edges(graph, seed, LIVE_INSERTS):
        t0 = time.perf_counter()
        touched = live.apply([(KIND_INSERT, u, v, float(quality))])
        t1 = time.perf_counter()
        live.freeze()
        t2 = time.perf_counter()
        repair.append(t1 - t0)
        freeze.append(t2 - t1)
        dirty.append(len(touched) / graph.num_vertices)
    return {
        "repair_ms": _median(repair) * 1e3,
        "freeze_ms": _median(freeze) * 1e3,
        "dirty_fraction": _median(dirty),
    }


def diff(after: dict, before: dict) -> dict:
    """Front-door, cache and pool counters accumulated between two
    ``stats`` replies."""
    net_a, net_b = after["net"], before["net"]
    batches = net_a["batch_sizes"]["batches"] - net_b["batch_sizes"]["batches"]
    queries = (
        net_a["batch_sizes"]["batches"] * net_a["batch_sizes"]["mean_size"]
        - net_b["batch_sizes"]["batches"] * net_b["batch_sizes"]["mean_size"]
    )
    cache_a, cache_b = after["cache"], before["cache"]
    hits = cache_a["hits"] - cache_b["hits"]
    misses = cache_a["misses"] - cache_b["misses"]
    return {
        "batch_mean": queries / batches if batches else 0.0,
        "shed": net_a["queries"]["shed"] - net_b["queries"]["shed"],
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "redispatches": (
            after["dispatch"]["redispatches"] - before["dispatch"]["redispatches"]
        ),
        "restarts": after["restarts"] - before["restarts"],
        "gc_s": after["gc_s"] - before["gc_s"],
    }


def measure(
    *,
    spec,
    ready: dict,
    graph,
    seed: int,
    window,
    before: dict,
    after: dict,
    cpu: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, whose ``window``
    force-sampled every request.  ``graph`` is the served graph; the
    live replay mutates it."""
    timings = ready["timings"]
    segment = ready["segment"]
    spans = after["traces"]
    counters = diff(after, before)
    queries = [r[0] for r in window.records]
    answers = [r[1] for r in window.records]
    batch = spec.frame
    backends = available_backends()
    kernel = {
        name: kernel_us_per_query(segment, name, queries, batch)
        for name in ("stdlib", "numpy") if name in backends
    }
    auto = resolve_backend(None).name
    codec = codec_us(queries[:batch], answers[:batch])
    workers = len(ready["workers"])
    chunk = max(1, int(spans["chunk_size"]))
    per_worker = max(1, -(-int(spans["chunks"]) // workers))
    ipc = spans["pool_us"] - kernel_call_us(segment, queries, chunk, per_worker)
    served = window.answered
    layer_sum = (
        codec["encode"] + codec["decode"] + spans["wait_us"] + spans["self_us"]
        + spans["lookup_us"] + spans["pool_us"]
    )
    client_p50 = window.p50_us()
    live = live_replay(segment, graph, seed)
    values = {
        "construction.build_s": timings["build_s"],
        "construction.freeze_s": timings.get("freeze_s", 0.0),
        "construction.entries": ready["entries"],
        "construction.bytes_per_entry": ready["image_bytes"] / ready["entries"],
        "pool.start_s": timings["pool_start_s"],
        "kernel.us_per_query": kernel[auto],
        "kernel.us_per_query.stdlib": kernel["stdlib"],
        "kernel.us_per_query.numpy": kernel.get("numpy", 0.0),
        "protocol.encode_us": codec["encode"],
        "protocol.decode_us": codec["decode"],
        "net.batch_queries_mean": counters["batch_mean"],
        "net.wait_us_p50": spans["wait_us"],
        "net.self_us_p50": spans["self_us"],
        "net.shed": counters["shed"],
        "cache.hit_ratio": counters["hit_ratio"],
        "cache.lookup_us_p50": spans["lookup_us"],
        "pool.call_us_p50": spans["pool_us"],
        "pool.ipc_us_p50": ipc if spans["pool_calls"] else 0.0,
        "pool.redispatches": counters["redispatches"],
        "pool.restarts": counters["restarts"],
        "live.repair_ms": live["repair_ms"],
        "live.freeze_ms": live["freeze_ms"],
        "live.dirty_fraction": live["dirty_fraction"],
        "proc.server_cpu_us_per_query": cpu["server"] / served * 1e6,
        "proc.worker_cpu_us_per_query": cpu["workers"] / served * 1e6,
        "proc.driver_cpu_us_per_query": cpu["client"] / served * 1e6,
        "proc.server_gc_ms_per_s": counters["gc_s"] / window.seconds * 1e3,
        # Only the lone workload's requests pass every layer once, so
        # only there do the layer medians add up to a request.
        "ledger.residual_pct": (
            (client_p50 - layer_sum) / client_p50 * 100.0
            if spec.name == "lone" else 0.0
        ),
        # Tracing overhead is the untraced run's ``qps`` over this.
        "trace.qps": window.qps,
    }
    return {name: values[name] for name, _ in METRICS}
