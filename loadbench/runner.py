"""One benchmark run: set-ups, the timed windows, checks and the result.

``run.py`` parses the command line and puts the repository's ``src``
on the import path before importing this module.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import layers
from checks import check_answers
from load import Meter, pipelined, reads
from procs import Server, box_ticks, check_clean, cpu_seconds
from workloads import DATASET, UniformQueries, load_graph, workload

from repro.serve import NetClient

ROOT = Path(__file__).resolve().parent.parent

#: Complete set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: One frame in this many of ``bulk`` has its answers checked.
CHECK_EVERY = 32
#: Offset between the window's query seed and the warm-up's.
WARMUP_SEED = 7919


def provenance(spec, ready: dict, load_start, ticks_start) -> dict:
    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain", "--untracked-files=no")
    steal, total = box_ticks()
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "repro_scale": spec.scale,
        "dataset": DATASET,
        "vertices": ready["vertices"],
        "entries": ready["entries"],
        "image_bytes": ready["image_bytes"],
        "kernel": ready["kernel"],
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        # Share of CPU time the hypervisor gave to others during the run:
        # runs slow down together when it rises.
        "steal_share": (steal - ticks_start[0]) / max(1, total - ticks_start[1]),
    }


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.spec = workload(args.workload, args.smoke)
        self.graph = load_graph(self.spec)
        self.server = None
        self.clients = []

    def run(self) -> int:
        check_clean("start")
        load_start, ticks_start = os.getloadavg(), box_ticks()
        try:
            setups = 1 if self.args.trace or self.args.smoke else SETUPS
            setup_s = []
            for attempt in range(setups):
                if attempt:
                    self._stop()
                started = time.perf_counter()
                self._start(f"s{attempt}")
                setup_s.append(time.perf_counter() - started)
            if self.args.trace:
                result = self._traced()
            else:
                result = self._untraced(setup_s)
            ready = self.server.ready
            self._stop()
        finally:
            if self.server is not None:
                for client in self.clients:
                    client.close()
                self.server.kill()
        check_clean("end")
        print(json.dumps({
            "workload": self.spec.name,
            "seed": self.args.seed,
            "provenance": provenance(self.spec, ready, load_start, ticks_start),
            "detail": result.pop("detail"),
        }))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # -- server lifecycle ----------------------------------------------
    def _start(self, tag: str) -> None:
        """Start a server and warm it up: the first requests after this
        are the timed ones."""
        spec, seed = self.spec, self.args.seed
        self.server = Server(
            ROOT, spec.name, tag, smoke=self.args.smoke, traced=bool(self.args.trace)
        )
        port = self.server.ready["port"]
        if spec.frame > 1:
            pipelined(
                port, UniformQueries(self.graph, seed + WARMUP_SEED),
                size=spec.frame, connections=spec.connections,
                depth=spec.depth, count=spec.warmup,
            )
            return
        client = NetClient("127.0.0.1", port)
        self.clients = [client]
        reads(client, UniformQueries(self.graph, seed + WARMUP_SEED), count=spec.warmup)

    def _stop(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        self.server.stop()
        self.server = None
        check_clean("a set-up's end")

    # -- the timed windows ---------------------------------------------
    def _load(self):
        """The workload's query stream, after the untimed requests that
        bring the server to its steady state."""
        spec, seed = self.spec, self.args.seed
        if spec.prefill:
            pipelined(
                self.server.ready["port"],
                UniformQueries(self.graph, seed + 2 * WARMUP_SEED),
                size=spec.frame, connections=spec.connections,
                depth=spec.depth, count=spec.prefill,
            )
        return UniformQueries(self.graph, seed)

    def _window(self, stream, seconds, *, sampled=False, meter=None):
        spec = self.spec
        self.server.request({"cmd": "collect"}, "collected")
        if spec.frame > 1:
            return pipelined(
                self.server.ready["port"], stream, size=spec.frame,
                connections=spec.connections, depth=spec.depth,
                seconds=seconds, sampled=sampled,
                keep=lambda index: index % CHECK_EVERY == 0, meter=meter,
            )
        return reads(
            self.clients[0], stream, seconds=seconds, sampled=sampled, meter=meter
        )

    def _check(self, records) -> list:
        return check_answers(
            self.server.ready["segment"], self.graph, records, self.args.seed
        )

    def _untraced(self, setup_s) -> dict:
        stream = self._load()
        meter = Meter(self.server.pids)
        before = self.server.request({"cmd": "stats"}, "stats")
        window = self._window(stream, self.args.seconds, meter=meter)
        counters = layers.diff(self.server.request({"cmd": "stats"}, "stats"), before)
        errors = self._check(window.records)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "qps": (window.qps, "1/s"),
            "p50_us": (window.p50_us(), "us"),
            "mem_mb": (meter.peak_mb, "MiB"),
            "answered_ratio": (window.answered / window.attempted, "ratio"),
        }
        detail = {
            "setups_s": setup_s,
            "window_s": window.seconds,
            "lat.p99_us": window.p99_us(),
            "lat.samples": len(window.latencies),
            "checked_answers": len(window.records),
            "errors": errors[:10],
            "counters": counters,
        }
        return self._result(window, errors, metrics, detail)

    def _traced(self) -> dict:
        stream = self._load()
        before = self.server.request({"cmd": "stats"}, "stats")
        pids = self.server.pids
        cpu = (cpu_seconds(pids[:1]), cpu_seconds(pids[1:]), time.process_time())
        window = self._window(stream, self.args.seconds, sampled=True)
        cpu = {
            "server": cpu_seconds(pids[:1]) - cpu[0],
            "workers": cpu_seconds(pids[1:]) - cpu[1],
            "client": time.process_time() - cpu[2],
        }
        after = self.server.request({"cmd": "stats"}, "stats")
        values = layers.measure(
            spec=self.spec, ready=self.server.ready,
            graph=load_graph(self.spec), seed=self.args.seed, window=window, before=before, after=after,
            cpu=cpu,
        )
        errors = self._check(window.records)
        units = dict(layers.METRICS)
        metrics = {name: (value, units[name]) for name, value in values.items()}
        detail = {
            "traces": after["traces"],
            "checked_answers": len(window.records),
            "errors": errors[:10],
        }
        return self._result(window, errors, metrics, detail)

    def _result(self, window, errors, metrics, detail) -> dict:
        # A failed or shed request fails the run as a wrong answer does:
        # at library defaults every request must be answered.
        return {
            "correct": not errors and not window.failed,
            "attempted": window.attempted,
            "failed": window.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
            "detail": detail,
        }
