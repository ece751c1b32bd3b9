"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload end to end against the program as users run
it and prints the end-to-end metrics; ``--trace 1`` runs the traced replay
(see ``layers.py``) and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Diagnostics go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORK, BenchError, check_layout, reset_work, result_line  # noqa: E402

WORKLOADS = ("sweep", "serve-bulk", "serve-durable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        check_layout()
        reset_work()
        if args.trace:
            import layers

            correct, tally, metrics, notes = layers.run(args.workload, args.seed, args.seconds)
        elif args.workload == "sweep":
            import sweep

            correct, tally, metrics, notes = sweep.run(args.seed, args.seconds)
        else:
            import serve

            correct, tally, metrics, notes = serve.run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(result_line(correct, tally.attempted, tally.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
