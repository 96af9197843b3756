"""End-to-end benchmark of the WC-INDEX serving stack.

Run from the repository root::

    python3 loadbench/run.py --workload lone --seed 1 --seconds 10 --trace 0
    python3 loadbench/run.py --workload bulk --seed 1 --seconds 10 --trace 1
    python3 loadbench/run.py --workload lone --smoke       # seconds, tiny graph

The server runs in its own process (``server.py``) with the library's
serving defaults; this process generates every query from
``--seed`` and is the only client, with at most two connections.  All
loads are closed loops.  See README.md for the workloads, metrics and
their steadiness.

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
several complete set-ups), throughput, median latency, peak memory and
the share of requests answered.  ``--trace 1`` sets up once, runs one
window whose every request is force-sampled, and prints the per-layer
metrics.  Both check every answer they can (outside the timed window),
start and end with no server process or shared-memory segment of their
own, and print a provenance line before the result, which is the last
line of standard output.  The exit code is 0 only for a complete run in
which every request was answered and every checked answer is right.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graphs, one set-up: a full checked pass in seconds",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"loadbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from runner import Run
    from procs import BenchError, check_clean

    try:
        return Run(args).run()
    except BenchError as exc:
        print(f"loadbench: {exc}", file=sys.stderr)
        try:
            check_clean("exit")
        except BenchError as leak:
            print(f"loadbench: {leak}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
