"""The traced run (``--trace 1``): per-layer metrics from spans and replays.

The run has two parts, and every traced run reports every per-layer metric
whichever ``--workload`` it was given:

1. Each workload runs end to end once more with the benchmark's own spans
   recorded around every call into the program (each submit round trip,
   each ``repro sweep`` command).  The given workload runs for the full
   ``--seconds``; its throughput is reported as ``trace.balls_per_s`` so the
   tracing overhead shows against the untraced run's ``balls_per_s``.  The
   other two run briefly, for the service's ``stats`` and the sweep's
   summary line.
2. The workloads' inputs are replayed in this process through the layers'
   public functions (``experiments.run_trials``, ``cluster.JsonlWriter``,
   ``scheduler.Dispatcher.dispatch_batch``, ``service.framing``,
   ``DispatchService`` ...), each call inside a span.

All spans are kept in memory and written once, at the end, to
``perfbench/.out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import asyncio
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import serve
import sweep
from common import (
    OUT,
    WORK,
    BenchError,
    Spans,
    Tally,
    import_program,
    metric,
    program_env,
)

#: Seconds of measured load for the workloads other than the one given.
SHORT_S = 3.0
IMPORT_LAUNCHES = 3
SPAWN_REPEATS = 5
CHECKPOINT_REPEATS = 3
#: Jobs pushed through each in-process engine / service measurement.
ENGINE_JOBS = 2_000_000
INPROCESS_SUBMITS = 4000
RECORD_REPEATS = 20_000
TELEMETRY_REPEATS = 5000

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------- #
# Part 1: traced end-to-end sessions
# ---------------------------------------------------------------------- #
def traced_serve(workload: str, seed: int, seconds: float, spans: Spans, tally: Tally):
    inputs = serve.make_inputs(workload, seed)
    with spans.span(f"workload.{workload}", trace=workload):
        _, result, _, checkpoint_path = serve.session(inputs, seconds, spans, 0, workload)
    errors = serve.check(inputs, result, checkpoint_path)
    tally.attempted += result.tally.attempted
    tally.failed += result.tally.failed
    return inputs, result, errors


def traced_sweep(seed: int, seconds: float, spans: Spans, tally: Tally):
    out = str(WORK / "sweep.jsonl")
    rows_per_command = len(sweep.cells()) * sweep.TRIALS
    walls, errors, retries, elapsed = [], [], 0, 0.0
    with spans.span("workload.sweep", trace="sweep"):
        while elapsed < seconds or not walls:
            with spans.span("cluster.sweep_command", trace="sweep"):
                wall, outputs = sweep.run_command(seed, out)
            elapsed += wall
            if isinstance(outputs, str):
                tally.fail(rows_per_command)
                if elapsed >= seconds and not walls:
                    raise BenchError(f"every traced sweep command failed:\n{outputs}")
                continue
            _, counts, rows, summary = outputs
            walls.append(wall)
            retries += counts["retries"]
            errors += sweep.check(rows, summary)
            tally.attempted += rows_per_command
    return sweep.balls_per_command() * len(walls) / sum(walls), retries, errors


# ---------------------------------------------------------------------- #
# Part 2: replays through the layers
# ---------------------------------------------------------------------- #
def import_times(spans: Spans) -> tuple[float, float]:
    """(cumulative ``import repro``, self time of every ``scipy`` module), s."""
    repro_s, scipy_s = [], []
    for _ in range(IMPORT_LAUNCHES):
        with spans.span("import.repro", trace="import"):
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import repro"],
                env=program_env(),
                capture_output=True,
                timeout=120,
            )
        if done.returncode != 0:
            raise BenchError(f"import repro failed:\n{done.stderr.decode()}")
        cumulative, scipy_self = None, 0
        for line in done.stderr.decode().splitlines():
            match = _IMPORTTIME.match(line)
            if match is None:
                continue
            own, total, _, name = match.groups()
            if name == "repro":
                cumulative = int(total)
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(own)
        if cumulative is None:
            raise BenchError("-X importtime reported no 'repro' module")
        repro_s.append(cumulative / 1e6)
        scipy_s.append(scipy_self / 1e6)
    return _median(repro_s), _median(scipy_s)


def cluster_spawn(spans: Spans) -> float:
    from repro.cluster import MultiprocessingTransport

    transport = MultiprocessingTransport()
    times = []
    for k in range(SPAWN_REPEATS):
        start = time.perf_counter()
        with spans.span("cluster.spawn", trace="spawn"):
            handle = transport.spawn(k)
            handle.close()  # sends "stop" and waits for the worker to exit
        times.append(time.perf_counter() - start)
    transport.shutdown()
    return _median(times)


def sweep_layers(seed: int, spans: Spans) -> dict:
    from repro.cluster import JsonlWriter, iter_jsonl, run_cluster_sweep
    from repro.experiments.config import SweepConfig
    from repro.experiments.runner import run_trials, summarize_shard_records

    specs = SweepConfig(
        protocols=sweep.PROTOCOLS,
        n_bins=sweep.N_BINS,
        ball_grid=sweep.BALLS,
        trials=sweep.TRIALS,
        seed=sweep.master_seed(seed),
    ).specs()
    metrics: dict = {}
    rows: list[dict] = []
    seconds: dict[str, float] = {}
    balls: dict[str, int] = {}
    for shard, spec in enumerate(specs):
        start = time.perf_counter()
        with spans.span(f"experiments.run_trials.{spec.protocol}", trace=f"shard-{shard}"):
            records = run_trials(spec, as_records=True)
        seconds[spec.protocol] = seconds.get(spec.protocol, 0.0) + time.perf_counter() - start
        balls[spec.protocol] = balls.get(spec.protocol, 0) + spec.n_balls * spec.trials
        for trial, record in enumerate(records):
            record["shard"], record["trial"] = shard, trial
        rows += records
    for protocol in sweep.PROTOCOLS:
        metrics[f"experiments.run_trials.{protocol}.balls_per_s"] = metric(
            balls[protocol] / seconds[protocol], "1/s"
        )
    for protocol in ("adaptive", "threshold"):
        mine = [r for r in rows if r["protocol"] == protocol]
        metrics[f"core.{protocol}.probes_per_ball"] = metric(
            sum(r["allocation_time"] for r in mine) / sum(r["n_balls"] for r in mine), "probes"
        )

    path = WORK / "layers.jsonl"
    start = time.perf_counter()
    with spans.span("cluster.row_write", trace="rows"):
        with JsonlWriter(str(path)) as writer:
            for shard, spec in enumerate(specs):
                with spans.span(f"cluster.row_write.{spec.protocol}", trace=f"shard-{shard}"):
                    for row in rows[shard * spec.trials:(shard + 1) * spec.trials]:
                        writer.write(row)
    metrics["cluster.row_write_s"] = metric(time.perf_counter() - start, "s")
    metrics["cluster.row_bytes_per_trial"] = metric(os.path.getsize(path) / len(rows), "B")
    start = time.perf_counter()
    with spans.span("cluster.row_read", trace="rows"):
        back = list(iter_jsonl(str(path)))
    metrics["cluster.row_read_s"] = metric(time.perf_counter() - start, "s")
    if len(back) != len(rows):
        raise BenchError(f"iter_jsonl read {len(back)} of {len(rows)} rows")

    start = time.perf_counter()
    with spans.span("experiments.summarize", trace="rows"):
        summary = summarize_shard_records(specs, back)
    metrics["experiments.summarize_s"] = metric(time.perf_counter() - start, "s")
    errors = sweep.check(back, summary)

    start = time.perf_counter()
    with spans.span("cluster.run_cluster_sweep.in_process", trace="in-process"):
        in_process = run_cluster_sweep(specs, workers=0, out=str(WORK / "inproc.jsonl"))
    metrics["cluster.in_process_balls_per_s"] = metric(
        sweep.balls_per_command() / (time.perf_counter() - start), "1/s"
    )
    if len(in_process) != len(rows):
        errors.append(f"in-process sweep gave {len(in_process)} rows, expected {len(rows)}")
    return metrics, errors


def dispatch_us_per_job(policy: str, batches, spans: Spans, seed: int) -> float:
    """Mean µs per job of ``Dispatcher.dispatch_batch`` over ``batches``."""
    from repro.scheduler import Dispatcher

    dispatcher = Dispatcher(1000, policy=policy, seed=seed)
    jobs = 0
    start = time.perf_counter()
    with spans.span(f"scheduler.dispatch_batch.{policy}", trace="engine"):
        for sizes in batches:
            dispatcher.dispatch_batch(sizes)
            jobs += sizes.size
    return (time.perf_counter() - start) / jobs * 1e6


def framing(inputs: serve.ServeInputs, spans: Spans) -> tuple[float, float, float]:
    """Server-side codec cost on serve-bulk frames: (encode, decode) µs/job, B/job."""
    from repro.scheduler import Dispatcher
    from repro.service.framing import decode_frame, encode_frame

    dispatcher = Dispatcher(inputs.n_servers, policy=inputs.policy, seed=inputs.server_seed)
    count = 2000
    submits = [inputs.frame(i) for i in range(count)]
    results = [
        {"type": "result", "id": i, "assignments": dispatcher.dispatch_batch(inputs.sizes(i)).tolist()}
        for i in range(count)
    ]
    jobs = sum(inputs.sizes(i).size for i in range(count))
    start = time.perf_counter()
    with spans.span("service.framing.decode", trace="codec"):
        for frame in submits:
            decode_frame(frame)
    decode = (time.perf_counter() - start) / jobs * 1e6
    start = time.perf_counter()
    with spans.span("service.framing.encode", trace="codec"):
        encoded = [encode_frame(r) for r in results]
    encode = (time.perf_counter() - start) / jobs * 1e6
    wire = sum(map(len, submits)) + sum(map(len, encoded))
    return encode, decode, wire / jobs


async def _inprocess(inputs: serve.ServeInputs, spans: Spans) -> float:
    from repro.scheduler import Dispatcher
    from repro.service import DispatchService

    service = DispatchService(
        Dispatcher(inputs.n_servers, policy=inputs.policy, seed=inputs.server_seed)
    )
    await service.start()
    jobs = 0
    next_id = 0
    pending: set[asyncio.Task] = set()
    start = time.perf_counter()
    with spans.span("service.inprocess", trace="inprocess"):
        while next_id < INPROCESS_SUBMITS or pending:
            while len(pending) < inputs.window and next_id < INPROCESS_SUBMITS:
                pending.add(asyncio.ensure_future(service.submit(inputs.sizes(next_id))))
                next_id += 1
            done, pending = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            jobs += sum(task.result().size for task in done)
    elapsed = time.perf_counter() - start
    await service.stop()
    return jobs / elapsed


async def _checkpoint(inputs: serve.ServeInputs, spans: Spans) -> dict:
    """Checkpoint cost with the request log filled by serve-durable's submits."""
    from repro.scheduler import Dispatcher
    from repro.service import DispatchService

    path = str(WORK / "layers.ckpt.json")
    service = DispatchService(
        Dispatcher(inputs.n_servers, policy=inputs.policy, seed=inputs.server_seed),
        checkpoint_path=path,
    )
    await service.start()
    for i in range(service.request_log.capacity):
        assigned = service.dispatcher.dispatch_batch(inputs.sizes(i))
        service.request_log.record(f"b{inputs.seed}-{i}", assigned)
    with_file, in_memory, state_dict = [], [], []
    for _ in range(CHECKPOINT_REPEATS):
        service.checkpoint_path = path
        start = time.perf_counter()
        with spans.span("service.checkpoint", trace="checkpoint"):
            await service.checkpoint()
        with_file.append(time.perf_counter() - start)
        service.checkpoint_path = None
        start = time.perf_counter()
        with spans.span("service.checkpoint.no_file", trace="checkpoint"):
            await service.checkpoint()
        in_memory.append(time.perf_counter() - start)
        start = time.perf_counter()
        with spans.span("scheduler.state_dict", trace="checkpoint"):
            service.dispatcher.state_dict()
        state_dict.append(time.perf_counter() - start)
    await service.stop()
    return {
        "service.checkpoint_ms": metric(_median(with_file) * 1e3, "ms"),
        "scheduler.state_dict_ms": metric(_median(state_dict) * 1e3, "ms"),
        "service.checkpoint_encode_ms": metric(
            (_median(with_file) - _median(in_memory)) * 1e3, "ms"
        ),
        "service.checkpoint_bytes": metric(os.path.getsize(path), "B"),
    }


def service_layers(bulk, durable, bulk_balls_per_s: float, spans: Spans) -> dict:
    from repro.service.requests import RequestLog
    from repro.service.telemetry import ServiceTelemetry

    bulk_inputs, bulk_stats = bulk
    durable_inputs, durable_stats = durable
    metrics: dict = {}
    bulk_batch = max(1, round(bulk_stats["mean_batch_jobs"]))
    ones = np.ones(bulk_batch)
    engine = dispatch_us_per_job(
        "adaptive", [ones] * max(1, ENGINE_JOBS // bulk_batch), spans, bulk_inputs.server_seed
    )
    metrics["scheduler.dispatch_batch.adaptive.us_per_job"] = metric(engine, "us")
    durable_batch = max(1, round(durable_stats["mean_batch_jobs"]))
    durable_sizes = np.concatenate(durable_inputs.pool)
    batches = [
        durable_sizes[i:i + durable_batch]
        for i in range(0, durable_sizes.size - durable_batch + 1, durable_batch)
    ]
    metrics["scheduler.dispatch_batch.weighted.us_per_job"] = metric(
        dispatch_us_per_job("weighted", batches, spans, durable_inputs.server_seed), "us"
    )
    encode, decode, wire = framing(bulk_inputs, spans)
    metrics["service.framing.encode_us_per_job"] = metric(encode, "us")
    metrics["service.framing.decode_us_per_job"] = metric(decode, "us")
    metrics["service.framing.bytes_per_job"] = metric(wire, "B")
    metrics["service.inprocess_balls_per_s"] = metric(
        asyncio.run(_inprocess(bulk_inputs, spans)), "1/s"
    )
    metrics["service.mean_batch_jobs"] = metric(bulk_stats["mean_batch_jobs"], "jobs")
    metrics["service.job_latency_p50_ms"] = metric(bulk_stats["job_latency_p50"] * 1e3, "ms")
    metrics["service.batch_latency_p50_ms"] = metric(
        bulk_stats["batch_latency_p50"] * 1e3, "ms"
    )
    metrics["service.unattributed_us_per_job"] = metric(
        1e6 / bulk_balls_per_s - engine - encode - decode, "us"
    )

    log = RequestLog()
    assigned = [np.arange(s.size) % 1000 for s in durable_inputs.pool]
    start = time.perf_counter()
    with spans.span("service.requests.record", trace="requests"):
        for i in range(RECORD_REPEATS):
            log.record(f"r{i}", assigned[i % len(assigned)])
    metrics["service.requests.record_us"] = metric(
        (time.perf_counter() - start) / RECORD_REPEATS * 1e6, "us"
    )
    telemetry = ServiceTelemetry()
    latencies = np.full(durable_batch, 1e-3)
    start = time.perf_counter()
    with spans.span("service.telemetry.record_batch", trace="telemetry"):
        for _ in range(TELEMETRY_REPEATS):
            telemetry.record_batch(latencies, 1e-4)
    metrics["service.telemetry.record_batch_us"] = metric(
        (time.perf_counter() - start) / TELEMETRY_REPEATS * 1e6, "us"
    )
    metrics.update(asyncio.run(_checkpoint(durable_inputs, spans)))
    return metrics


# ---------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float):
    spans = Spans(True)
    tally = Tally()
    errors: list[str] = []
    metrics: dict = {}

    def length(name: str) -> float:
        return seconds if name == workload else SHORT_S

    live = {}
    for name in ("serve-bulk", "serve-durable"):
        inputs, result, problems = traced_serve(name, seed, length(name), spans, tally)
        errors += problems
        live[name] = (inputs, result.stats, statistics.median(result.round_rates))
    sweep_rate, retries, problems = traced_sweep(seed, length("sweep"), spans, tally)
    errors += problems
    rates = {"sweep": sweep_rate, **{name: live[name][2] for name in live}}
    metrics["trace.balls_per_s"] = metric(rates[workload], "1/s")
    metrics["cluster.shard_retries"] = metric(retries, "count")

    repro_s, scipy_s = import_times(spans)
    metrics["import.repro_s"] = metric(repro_s, "s")
    metrics["import.scipy_s"] = metric(scipy_s, "s")
    import_program()
    metrics["cluster.spawn_s"] = metric(cluster_spawn(spans), "s")
    sweep_metrics, problems = sweep_layers(seed, spans)
    metrics.update(sweep_metrics)
    errors += problems
    metrics.update(
        service_layers(
            live["serve-bulk"][:2], live["serve-durable"][:2], rates["serve-bulk"], spans
        )
    )
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    spans.write(path)
    notes = [f"traced: {len(spans.records)} spans written to {path}"]
    own = sorted(spans.self_seconds().items(), key=lambda item: -item[1])
    notes += [f"self time {seconds:9.3f} s  {name}" for name, seconds in own[:15]]
    return not errors, tally, metrics, errors[:10] + notes
