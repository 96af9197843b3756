"""Closed-loop load: one connection of batch-1 reads, or pipelined frames.

Every loop runs for a fixed number of seconds (or requests, for warm-up)
and records client-observed latency per request.  A :class:`Meter`
samples the server's memory once a second between requests.
"""

from __future__ import annotations

import selectors
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from procs import BenchError, pss_mb

from repro.obs.trace import new_trace_id
from repro.serve import NetClient, ServeError, protocol

MEM_INTERVAL_S = 1.0


class Meter:
    """Peak PSS of the server's processes, sampled between requests."""

    def __init__(self, pids) -> None:
        self.pids = list(pids)
        self.peak_mb = 0.0
        self._next = 0.0

    def tick(self, now: float) -> None:
        if now >= self._next:
            self.peak_mb = max(self.peak_mb, pss_mb(self.pids))
            self._next = now + MEM_INTERVAL_S


@dataclass
class Window:
    seconds: float = 0.0
    answered: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    #: ``(query, answer)`` of every answer to be checked.
    records: List[tuple] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.answered / self.seconds

    @property
    def attempted(self) -> int:
        return self.answered + self.failed

    def p50_us(self) -> float:
        return statistics.median(self.latencies) * 1e6

    def p99_us(self) -> float:
        ordered = sorted(self.latencies)
        return ordered[int(0.99 * (len(ordered) - 1))] * 1e6


def reads(
    client: NetClient,
    stream,
    *,
    seconds: float = 0.0,
    count: int = 0,
    sampled: bool = False,
    meter: Optional[Meter] = None,
) -> Window:
    """One connection, one query per request, each sent when the last
    is answered; for ``seconds`` or, if given, ``count`` requests."""
    window = Window()
    call = client.distance_many_sampled if sampled else client.distance_many
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    while True:
        now = clock()
        if (window.answered + window.failed >= count) if count else now >= deadline:
            break
        if meter is not None:
            meter.tick(now)
        query = stream.take(1)[0]
        sent = clock()
        try:
            result = call([query])
        except ServeError:  # shed, timed out or failed: counted, not fatal
            window.failed += 1
            continue
        window.latencies.append(clock() - sent)
        window.answered += 1
        answers = result[0] if sampled else result
        window.records.append((query, answers[0]))
    window.seconds = clock() - started
    return window


def frames(stream, size: int):
    """Endless ``(index, queries)`` frames of ``size`` stream queries."""
    index = 0
    while True:
        yield index, stream.take(size)
        index += 1


class _Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = protocol.FrameDecoder()
        self.sock.sendall(
            protocol.encode_hello(
                {"peer": "loadbench", "protocol": protocol.PROTOCOL_VERSION}
            )
        )
        hello = self.receive()
        if [f.msg_type for f in hello] != [protocol.MSG_HELLO]:
            raise BenchError("server did not answer HELLO")
        #: request id -> (sent at, frame index, queries)
        self.outstanding = {}

    def receive(self):
        while True:
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchError("server closed a connection")
            got = self.decoder.feed(data)
            if got:
                return got


def pipelined(
    port: int,
    stream,
    *,
    size: int,
    connections: int,
    depth: int,
    seconds: float = 0.0,
    count: int = 0,
    sampled: bool = False,
    keep=lambda index: False,
    meter: Optional[Meter] = None,
) -> Window:
    """``connections`` sockets, each keeping ``depth`` frames of ``size``
    queries in flight: a frame is sent whenever one is answered.  Runs
    for ``seconds`` or, if given, until ``count`` frames are answered;
    frames still in flight at the end are drained and not counted.
    ``keep(index)`` selects frames whose answers are recorded."""
    window = Window()
    source = frames(stream, size)
    conns = [_Connection(port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    clock = time.perf_counter

    def send(conn) -> None:
        index, queries = next(source)
        request_id = index % protocol.CONNECTION_SCOPE
        payload = protocol.encode_query(
            request_id,
            queries,
            trace_id=new_trace_id() if sampled else 0,
            flags=protocol.FLAG_SAMPLE if sampled else 0,
        )
        conn.outstanding[request_id] = (clock(), index, queries)
        conn.sock.sendall(payload)

    try:
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        started = clock()
        deadline = started + seconds
        for conn in conns:
            for _ in range(depth):
                send(conn)
        done = False
        while not done:
            now = clock()
            if not count and now >= deadline:
                break
            if meter is not None:
                meter.tick(now)
            for key, _ in selector.select(timeout=1.0 if count else deadline - now):
                conn = key.data
                for frame in conn.receive():
                    _settle(window, conn, frame, clock(), keep)
                    if count and window.answered >= count * size:
                        done = True
                    if not done:
                        send(conn)
        window.seconds = clock() - started
        for conn in conns:  # drain what is still in flight, uncounted
            while conn.outstanding:
                for frame in conn.receive():
                    _settle(Window(), conn, frame, clock(), keep)
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return window


def _settle(window: Window, conn, frame, now: float, keep) -> None:
    if frame.msg_type == protocol.MSG_ANSWER:
        request_id, answers = protocol.decode_answer(frame.payload)
        sent, index, queries = conn.outstanding.pop(request_id)
        window.latencies.append(now - sent)
        window.answered += len(answers)
        if keep(index):
            window.records.extend(zip(queries, answers))
        return
    if frame.msg_type == protocol.MSG_ERROR:
        request_id, code, message = protocol.decode_error(frame.payload)
        if request_id not in conn.outstanding:
            raise BenchError(f"connection error from server: {message}")
        _, _, queries = conn.outstanding.pop(request_id)
        window.failed += len(queries)
        return
    raise BenchError(f"unexpected {protocol.MSG_NAMES[frame.msg_type]} frame")
