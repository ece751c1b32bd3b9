"""Repeat mode: run each workload N times and compare metrics with their bounds.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py --runs 10                 # one set, all workloads
    python3 perfbench/repeat.py --runs 10 --sets 2        # two sets, compared

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
with another seed: 1..N, then N+1..2N for a second set.  For every
end-to-end metric the table gives the median, the quartiles
(``statistics.quantiles(n=4)``), the inter-quartile spread as a share of the
median, and the metric's bound from ``BENCHMARK.json``.  With ``--sets 2``
it adds the second set's spread and how far its median moved from the
first set's, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, quartiles, relative_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = [1 + s * args.runs + k for k in range(args.runs)]
            results = []
            for seed in seeds:
                result = run_once(workload, seed, args.seconds)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
                results.append(result)
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        print(f"\n{workload}: {args.runs} runs x {args.sets} sets, failed share {sorted(shares)}")
        print(f"{'metric':18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} "
              f"{'bound':>6}" + (f" {'spread2':>7} {'moved':>7}" if args.sets == 2 else ""))
        for m in metrics:
            values = [[r["metrics"][m["name"]]["value"] for r in results] for results in sets]
            q1, med, q3 = quartiles(values[0])
            spread = relative_spread(values[0])
            line = (f"{m['name']:18} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                    f"{spread:7.3f} {m['bound']:6.2f}")
            if spread > m["bound"]:
                ok = False
                line += "  SPREAD>BOUND"
            if args.sets == 2:
                moved = worse_by(quartiles(values[0])[1], quartiles(values[1])[1], m["better"])
                spread2 = relative_spread(values[1])
                line += f" {spread2:7.3f} {moved:7.3f}"
                if spread2 > m["bound"]:
                    ok = False
                    line += "  SPREAD2>BOUND"
                if moved > m["bound"]:
                    ok = False
                    line += "  MOVED>BOUND"
            print(line)
        if not all(r["correct"] for results in sets for r in results) or len(shares) != 1:
            ok = False
            print("  outputs incorrect or failed share differs between runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
