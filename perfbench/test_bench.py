"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

import pytest

import serve
import sweep
from common import (
    BenchError,
    Spans,
    Tally,
    quartiles,
    relative_spread,
    result_line,
    samples_needed,
    tail_percentile,
)


def test_p999_needs_ten_samples_beyond():
    assert samples_needed(0.999) == 10_000
    values = list(range(10_000))
    # Nearest rank 9990 (value 9989) leaves exactly ten samples above it.
    assert tail_percentile(values, 0.999) == 9989
    assert sum(v > 9989 for v in values) == 10
    with pytest.raises(ValueError, match="10 are needed"):
        tail_percentile(values[:-1], 0.999)


def test_every_percentile_below_the_max_needs_ten_beyond():
    assert tail_percentile(list(range(20)), 0.5) == 9
    assert tail_percentile([3, 1, 2], 1.0) == 3
    with pytest.raises(ValueError):
        tail_percentile([3, 1, 2], 0.5)
    with pytest.raises(ValueError):
        tail_percentile([], 0.5)


def test_failures_count_as_attempted_but_not_as_latency():
    tally = Tally()
    for _ in range(10_000):
        tally.ok(1.0)
    tally.ok()  # untimed success (warm-up)
    tally.fail()
    tally.fail(5)
    assert (tally.attempted, tally.failed) == (10_007, 6)
    assert len(tally.latencies) == 10_000
    # A failure has no round trip: whatever their share, the tail is taken
    # over the successful operations and stays defined.
    assert tail_percentile(tally.latencies, 0.999) == 1.0


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)


def test_result_line_has_exactly_the_contract_keys():
    line = json.loads(result_line(True, 3, 1, {"x": {"value": 1.5, "unit": "s"}}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["attempted"], line["failed"]) == (3, 1)


def test_spans_record_parents_and_self_time():
    spans = Spans(True)
    with spans.span("outer", trace="t"):
        time.sleep(0.002)
        with spans.span("inner", trace="t"):
            time.sleep(0.002)
    inner, outer = spans.records
    assert inner[1] == "inner" and inner[4] == outer[0]
    totals = spans.self_seconds()
    outer_s = (outer[3] - outer[2]) / 1e9
    assert totals["outer"] + totals["inner"] == pytest.approx(outer_s)
    off = Spans(False)
    with off.span("outer"):
        off.add("x", 0, 1)
    assert off.records == []


def _sweep_outputs():
    """Rows and summary that a correct sweep would produce (loads only)."""
    rows, summary = [], []
    n = sweep.N_BINS
    for shard, (protocol, m) in enumerate(sweep.cells()):
        loads = [m // n] * n
        for k in range(m - sum(loads)):
            loads[k] += 1
        cell = []
        for trial in range(sweep.TRIALS):
            row = {
                "shard": shard, "trial": trial, "protocol": protocol, "n_balls": m,
                "loads": loads, "allocation_time": m + trial, "probes_per_ball": 1 + trial / m,
                "max_load": max(loads), "gap": max(loads) - min(loads),
                "quadratic_potential": 0.0,
            }
            if protocol == "weighted-adaptive":
                row["weights"] = [1.0] * m
                row["weighted_loads"] = [float(x) for x in loads]
            cell.append(row)
        rows += cell
        means = {f"{k}_mean": sum(r[k] for r in cell) / len(cell) for k in sweep.SUMMARY_KEYS}
        summary.append({"protocol": protocol, "n_balls": m, **means})
    return rows, summary


def test_sweep_check_accepts_correct_outputs():
    rows, summary = _sweep_outputs()
    assert sweep.check(rows, summary) == []


def test_sweep_check_flags_each_kind_of_fault():
    rows, summary = _sweep_outputs()
    assert sweep.check(rows[:-1] + [dict(rows[0])], summary)  # duplicate (shard, trial)
    rows, summary = _sweep_outputs()
    rows[0] = dict(rows[0], loads=[0] * sweep.N_BINS)  # balls lost
    assert any("loads sum" in e for e in sweep.check(rows, summary))
    rows, summary = _sweep_outputs()
    overloaded = list(rows[0]["loads"])
    overloaded[0] += 5
    overloaded[1] -= 5
    rows[0] = dict(rows[0], loads=overloaded)  # adaptive above ceil(m/n)+1
    assert any("exceeds" in e for e in sweep.check(rows, summary))
    rows, summary = _sweep_outputs()
    summary[1] = dict(summary[1], gap_mean=summary[1]["gap_mean"] + 1)
    assert any("summary" in e for e in sweep.check(rows, summary))


def _fake_sweep_program(fail_commands):
    """A stand-in for ``run_program``: set-up launches succeed, and the full
    commands whose 1-based numbers are in ``fail_commands`` exit 1."""
    rows, summary = _sweep_outputs()
    commands = []

    def run_program(*args):
        if args[args.index("--trials") + 1] == "1":
            return 1.0, 0, "", ""
        commands.append(args)
        if len(commands) in fail_commands:
            return 2.0, 1, "", "worker crashed"
        out = Path(args[args.index("--out") + 1])
        out.write_text("".join(json.dumps(r) + "\n" for r in rows))
        stderr = (f"{len(rows)} rows from {len(summary)} shards (0 resumed, 0 retried, "
                  "0 worker deaths, 0 hangs)\nperfbench-vmhwm-kb 2048\n")
        return 2.0, 0, json.dumps(summary), stderr

    return run_program


def test_failed_sweep_command_counts_its_rows_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(sweep, "WORK", tmp_path)
    monkeypatch.setattr(sweep, "run_program", _fake_sweep_program({1}))
    correct, tally, metrics, _ = sweep.run(seed=1, seconds=0.1)
    rows = len(sweep.cells()) * sweep.TRIALS
    assert correct
    assert (tally.attempted, tally.failed) == (2 * rows, rows)
    assert metrics["balls_per_s"]["value"] == sweep.balls_per_command() / 2.0
    assert metrics["setup_s"]["value"] == 1.0

    monkeypatch.setattr(sweep, "run_program", _fake_sweep_program({1, 2}))
    with pytest.raises(BenchError, match=f"{2 * rows} rows attempted, {2 * rows} failed"):
        sweep.run(seed=1, seconds=0.1)


class _FlakyService:
    """A stand-in connection that answers every third submit with an error."""

    def __init__(self) -> None:
        self.replies = []

    def send(self, data: bytes) -> None:
        message = json.loads(data)
        i = message["id"]
        if message["type"] == "checkpoint":
            self.replies.append({"type": "checkpoint", "id": i})
            return
        kind = "error" if i % 3 == 2 else "result"
        self.replies.append(
            {"type": kind, "id": i, "assignments": [0] * len(message["sizes"])}
        )

    def recv(self) -> dict:
        return self.replies.pop(0)

    def request(self, message: dict) -> dict:
        return {"type": "stats", "stats": {}}


def test_failed_submits_are_counted_and_leave_the_tail_defined(monkeypatch):
    monkeypatch.setattr(serve, "WARMUP_S", 0.0)
    inputs = serve.make_inputs("serve-bulk", 1)
    result = serve.drive(_FlakyService(), inputs, 0.0, Spans(False), 30)
    tally = result.tally
    assert tally.failed == sum(1 for i in range(tally.attempted) if i % 3 == 2) > 0
    # Only successful submits are timed (those drained after the measured
    # phase are not), so the failures leave every percentile finite.
    assert 30 <= len(tally.latencies) <= tally.attempted - tally.failed
    assert tail_percentile(tally.latencies, 0.5) < float("inf")
    assert all(a is None for i, a in enumerate(result.assignments) if i % 3 == 2)
    assert tally.attempted % inputs.round_ops == 0


def test_serve_durable_sends_whole_rounds_closed_by_a_checkpoint(monkeypatch):
    monkeypatch.setattr(serve, "WARMUP_S", 0.0)
    inputs = dataclasses.replace(serve.make_inputs("serve-durable", 1), round_ops=64)
    service = _FlakyService()
    result = serve.drive(service, inputs, 0.0, Spans(False), 30)
    tally = result.tally
    rounds, rest = divmod(tally.attempted, 64)
    assert rest == 0 and rounds >= 2
    checkpoints = [i for i in range(tally.attempted) if inputs.is_checkpoint(i)]
    assert checkpoints == [64 * r - 1 for r in range(1, rounds + 1)]
    # Checkpoints succeed and carry no assignments; the flaky submits fail.
    assert all(result.assignments[i] is None for i in checkpoints)
    submits = [i for i in range(tally.attempted) if not inputs.is_checkpoint(i)]
    assert tally.failed == sum(1 for i in submits if i % 3 == 2)
    assert result.round_rates and min(result.round_rates) > 0
