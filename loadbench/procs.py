"""The server process handle, run hygiene and /proc readers."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
SERVER_SCRIPT = HERE / "server.py"
SHM = Path("/dev/shm")
#: Every shared-memory segment the benchmark's servers publish starts so.
SEGMENT_PREFIX = "wcbench"

_TICK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """A run that cannot produce a valid result."""


def own_segments() -> List[str]:
    return sorted(p.name for p in SHM.iterdir() if p.name.startswith(SEGMENT_PREFIX))


def _argv(pid: int) -> List[str]:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return []
    return raw.decode("utf-8", "replace").split("\0")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state is
    index 0, ppid 1, utime 11, stime 12), or None once the pid is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def own_processes() -> List[int]:
    """Live processes running this checkout's server script (the server
    and its forked pool workers)."""
    marker = str(SERVER_SCRIPT)
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and marker in _argv(int(entry.name)):
            if alive(int(entry.name)):
                found.append(int(entry.name))
    return found


def descendants(root: int) -> Set[int]:
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry.name))
    found, stack = set(), [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def check_clean(when: str) -> None:
    """A run starts and ends with no server process and no segment."""
    segments, processes = own_segments(), own_processes()
    if segments or processes:
        raise BenchError(
            f"not clean at {when}: segments {segments}, processes {processes}"
        )


def box_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs since boot: the time a
    hypervisor ran something else while this box's CPUs wanted to run."""
    cpu = Path("/proc/stat").read_text().split("\n", 1)[0]
    ticks = [int(field) for field in cpu.split()[1:]]
    return ticks[7], sum(ticks)


def cpu_seconds(pids: Iterable[int]) -> float:
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICK


def pss_mb(pids: Iterable[int]) -> float:
    """Proportional set size summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class Server:
    """One benchmark server process, talked to over JSON lines.

    A reader thread queues the server's events, so that a wait for one
    can time out."""

    START_TIMEOUT = 120.0

    def __init__(self, root: Path, name: str, tag: str, *, smoke: bool, traced: bool):
        self.prefix = f"{SEGMENT_PREFIX}{os.getpid()}{tag}"
        command = [
            sys.executable, str(SERVER_SCRIPT),
            "--workload", name, "--prefix", self.prefix,
        ]
        if smoke:
            command.append("--smoke")
        if traced:
            command.append("--traced")
        # One malloc arena: with glibc's default of one per thread, the
        # peak memory of identical bulk runs varied by a quarter.
        env = dict(os.environ, PYTHONPATH=str(root / "src"), MALLOC_ARENA_MAX="1")
        self.events: "queue.Queue" = queue.Queue()
        self.proc = subprocess.Popen(
            command,
            cwd=str(root),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.family: Set[int] = set()
        try:
            self.ready = self.wait("ready", self.START_TIMEOUT)
        except BaseException:
            # No caller holds this handle yet, so nobody else can end it.
            self.kill()
            raise
        self.pids = [self.proc.pid] + list(self.ready["workers"])
        self.family = {self.proc.pid} | descendants(self.proc.pid)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.events.put(json.loads(line))
        self.events.put(None)

    def wait(self, name: str, timeout: float) -> dict:
        try:
            event = self.events.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"server silent for {timeout:.0f}s") from None
        if event is None or event.get("event") != name:
            raise BenchError(f"server sent {event!r} while waiting for {name!r}")
        return event

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def request(self, command: dict, reply: str, timeout: float = 60.0) -> dict:
        self.send(command)
        return self.wait(reply, timeout)

    def stop(self) -> None:
        """Stop cleanly and wait until the server and every process it
        started have ended."""
        self.family |= descendants(self.proc.pid)
        self.request({"cmd": "stop"}, "stopped")
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=5)
        self._await_family()

    def kill(self) -> None:
        """Failure path: end the server's process group (the server, its
        pool workers and their helpers), wait for it and sweep its
        segments."""
        if self.proc.poll() is None:
            self.family |= descendants(self.proc.pid)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._await_family()
        for name in own_segments():
            if name.startswith(self.prefix):
                (SHM / name).unlink(missing_ok=True)

    def _await_family(self) -> None:
        deadline = time.monotonic() + 10.0
        while any(alive(pid) for pid in self.family):
            if time.monotonic() > deadline:
                raise BenchError(
                    f"server processes outlived it: "
                    f"{[pid for pid in self.family if alive(pid)]}"
                )
            time.sleep(0.02)
