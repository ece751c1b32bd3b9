"""The ``sweep`` workload: the ``repro sweep`` CLI with two cluster workers.

A run repeats the same sweep command until ``--seconds`` have passed (at
least twice) and reports per-command medians.  The grid is fixed; the seed
picks the sweep's master seed, from which every trial's randomness derives.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from common import WORK, BenchError, Tally, metric, peak_rss_mb, run_program

PROTOCOLS = ("adaptive", "threshold", "greedy", "left", "memory", "weighted-adaptive")
N_BINS = 1000
BALLS = (40_000, 80_000, 120_000)
TRIALS = 6
WORKERS = 2
SETUP_LAUNCHES = 7
MIN_COMMANDS = 2
#: Summary-row statistics recomputed from the JSONL rows.
SUMMARY_KEYS = ("allocation_time", "probes_per_ball", "max_load", "gap", "quadratic_potential")
_SUMMARY_LINE = re.compile(
    r"(\d+) rows from (\d+) shards \((\d+) resumed, (\d+) retried, "
    r"(\d+) worker deaths, (\d+) hangs\)"
)


def master_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 2]).integers(1, 2**31 - 1))


def cells() -> list[tuple[str, int]]:
    """(protocol, n_balls) per shard, in the CLI's shard order."""
    return [(p, m) for p in PROTOCOLS for m in BALLS]


def balls_per_command() -> int:
    return sum(m for _, m in cells()) * TRIALS


def sweep_args(seed: int, out: str, protocols=PROTOCOLS, balls=BALLS, trials=TRIALS):
    return [
        "sweep",
        "--workers", str(WORKERS),
        "--protocols", ",".join(protocols),
        "--n-bins", str(N_BINS),
        "--balls", ",".join(str(m) for m in balls),
        "--trials", str(trials),
        "--seed", str(master_seed(seed)),
        "--scale", "1",
        "--out", out,
        "--json",
    ]


def setup_args(seed: int, out: str) -> list[str]:
    """The same command on a one-cell, one-trial grid."""
    return sweep_args(seed, out, protocols=PROTOCOLS[:1], balls=(1000,), trials=1)


def summary_counts(stderr_text: str) -> dict[str, int]:
    match = _SUMMARY_LINE.search(stderr_text)
    if match is None:
        raise BenchError("repro sweep printed no summary line")
    rows, shards, resumed, retried, deaths, hangs = map(int, match.groups())
    return {"rows": rows, "shards": shards, "retries": retried, "deaths": deaths, "hangs": hangs}


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check(rows: list[dict], summary: list[dict]) -> list[str]:
    """Check the rows against the grid, the paper's bounds and the summary."""
    errors: list[str] = []
    grid = cells()
    expected = {(s, t) for s in range(len(grid)) for t in range(TRIALS)}
    keys = [(int(r["shard"]), int(r["trial"])) for r in rows]
    if len(rows) != len(expected) or set(keys) != expected:
        return [f"{len(rows)} rows with {len(set(keys))} distinct (shard, trial); "
                f"expected exactly {len(expected)}"]
    by_shard: dict[int, list[dict]] = {}
    for row in rows:
        shard = int(row["shard"])
        by_shard.setdefault(shard, []).append(row)
        protocol, m = grid[shard]
        loads = row["loads"]
        tag = f"shard {shard} trial {row['trial']}"
        if row["protocol"] != protocol or row["n_balls"] != m or len(loads) != N_BINS:
            errors.append(f"{tag}: row is not the ({protocol}, {m}) cell")
            continue
        if sum(loads) != m:
            errors.append(f"{tag}: loads sum to {sum(loads)}, not {m}")
        if row["allocation_time"] < m:
            errors.append(f"{tag}: {row['allocation_time']} probes for {m} balls")
        if protocol in ("adaptive", "threshold"):
            bound = math.ceil(m / N_BINS) + 1
            if max(loads) > bound:
                errors.append(f"{tag}: max load {max(loads)} exceeds ceil(m/n)+1 = {bound}")
        if protocol == "weighted-adaptive":
            weights = row["weights"]
            total, w_max = math.fsum(weights), max(weights)
            bound = total / N_BINS + 2 * w_max
            if len(weights) != m or max(row["weighted_loads"]) > bound * (1 + 1e-12):
                errors.append(f"{tag}: weighted max load exceeds W/n + 2 w_max = {bound}")
    if len(summary) != len(grid):
        errors.append(f"summary has {len(summary)} rows for {len(grid)} cells")
        return errors
    for shard, (protocol, m) in enumerate(grid):
        cell = summary[shard]
        if cell["protocol"] != protocol or cell["n_balls"] != m:
            errors.append(f"summary row {shard} is not the ({protocol}, {m}) cell")
            continue
        for key in SUMMARY_KEYS:
            mean = math.fsum(r[key] for r in by_shard[shard]) / TRIALS
            if not math.isclose(mean, cell[f"{key}_mean"], rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"cell {shard} {key}: rows give {mean}, "
                              f"summary {cell[f'{key}_mean']}")
    return errors


def run_command(seed: int, out: str):
    """One full sweep; returns (wall s, outputs).

    ``outputs`` is (peak RSS MiB, counts, rows, summary), or the command's
    stderr when it exited non-zero: then every trial row of the command
    counts as a failed operation.
    """
    wall, code, stdout, stderr = run_program(*sweep_args(seed, out))
    if code != 0:
        return wall, stderr
    return wall, (peak_rss_mb(stderr), summary_counts(stderr), read_rows(out), json.loads(stdout))


def setup_launch(seed: int, out: str) -> float:
    wall, code, _, stderr = run_program(*setup_args(seed, out))
    if code != 0:
        raise BenchError(f"repro sweep (one-cell set-up) exited {code}:\n{stderr}")
    return wall


def run(seed: int, seconds: float):
    """Repeat the sweep for ``seconds`` (at least ``MIN_COMMANDS`` times).

    The ``SETUP_LAUNCHES`` one-cell launches are interleaved with the full
    commands, one before each, the rest after the last: their median then
    samples the host over the whole run, not over a burst at its start.
    """
    out = str(WORK / "sweep.jsonl")
    rows_per_command = len(cells()) * TRIALS
    tally = Tally()
    setups, walls, rss, errors, failures = [], [], [], [], []
    elapsed, commands = 0.0, 0
    while elapsed < seconds or commands < MIN_COMMANDS:
        if len(setups) < SETUP_LAUNCHES:
            setups.append(setup_launch(seed, out))
        wall, outputs = run_command(seed, out)
        elapsed += wall
        commands += 1
        if isinstance(outputs, str):
            tally.fail(rows_per_command)
            failures.append(f"command {commands} failed:\n{outputs}")
            continue
        peak, _, rows, summary = outputs
        walls.append(wall)
        rss.append(peak)
        errors += check(rows, summary)
        for _ in range(rows_per_command):
            tally.ok()
    while len(setups) < SETUP_LAUNCHES:
        setups.append(setup_launch(seed, out))
    if not walls:
        raise BenchError(f"all {commands} sweep commands failed "
                         f"({tally.attempted} rows attempted, {tally.failed} failed):\n"
                         + failures[-1])
    wall = float(np.median(walls))
    metrics = {
        "setup_s": metric(float(np.median(setups)), "s"),
        "balls_per_s": metric(balls_per_command() / wall, "1/s"),
        # A sweep has no per-request tail: its user waits for the whole
        # command.  With fewer than forty commands per run both latency
        # names carry the median command time.
        "latency_p50_ms": metric(wall * 1e3, "ms"),
        "latency_p999_ms": metric(wall * 1e3, "ms"),
        "peak_rss_mb": metric(float(np.median(rss)), "MiB"),
    }
    notes = [f"sweep: {commands} commands of {balls_per_command()} balls, "
             f"walls {walls}, set-ups {setups}"]
    return not errors, tally, metrics, errors[:10] + failures[:3] + notes
