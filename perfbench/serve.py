"""The ``serve-bulk`` and ``serve-durable`` workloads: ``repro serve`` over TCP.

Each run launches ``repro serve`` in its own process and drives it from this
process over one TCP connection as a closed loop: ``window`` operations are
in flight at all times, and the next one is written as soon as a reply
arrives.  A submit's latency runs from writing its frame to reading its
reply.  Operations come in whole rounds of ``round_ops``; for
``serve-durable`` the last operation of a round is a ``checkpoint`` request,
so every job carries the same share of checkpoint cost however fast the
host runs.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import re
import socket
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    WORK,
    BenchError,
    Program,
    Spans,
    Tally,
    import_program,
    metric,
    peak_rss_mb,
    samples_needed,
    tail_percentile,
)

#: Fresh services per run.
SESSIONS = 3
#: Seconds of load before the measured phase (request log and batch sizes
#: reach their steady state); the warm-up ends with the first round to end
#: after it.
WARMUP_S = 1.0
#: Latency quantile reported as ``latency_p999_ms``.
TAIL_Q = 0.999
#: The measured phase runs at least this long past ``--seconds`` to collect
#: enough samples for the tail before giving up.
MAX_EXTRA_S = 60.0
READY_TIMEOUT_S = 60.0


@dataclass
class ServeInputs:
    """Everything one serve run sends, derived from the workload seed."""

    workload: str
    policy: str
    n_servers: int
    server_seed: int
    window: int
    #: Job-size vectors; submit ``i`` carries ``pool[i % len(pool)]``.
    pool: list[np.ndarray]
    pool_json: list[bytes] = field(repr=False)
    request_ids: bool
    #: Whether the last operation of every round is a ``checkpoint`` request.
    checkpoint: bool
    #: Operations per round; a run sends whole rounds only.
    round_ops: int
    seed: int

    def is_checkpoint(self, i: int) -> bool:
        return self.checkpoint and (i + 1) % self.round_ops == 0

    def frame(self, i: int) -> bytes:
        if self.is_checkpoint(i):
            return b'{"type":"checkpoint","id":%d}\n' % i
        sizes = self.pool_json[i % len(self.pool_json)]
        if self.request_ids:
            return b'{"type":"submit","id":%d,"request_id":"b%d-%d","sizes":%s}\n' % (
                i,
                self.seed,
                i,
                sizes,
            )
        return b'{"type":"submit","id":%d,"sizes":%s}\n' % (i, sizes)

    def sizes(self, i: int) -> np.ndarray:
        return self.pool[i % len(self.pool)]

    def serve_args(self, checkpoint_path: str | None) -> list[str]:
        args = [
            "serve",
            "--policy", self.policy,
            "--n-servers", str(self.n_servers),
            "--seed", str(self.server_seed),
            "--port", "0",
        ]
        if self.checkpoint:
            args += ["--checkpoint", checkpoint_path]
        return args


def make_inputs(workload: str, seed: int) -> ServeInputs:
    rng = np.random.default_rng([seed, 0 if workload == "serve-bulk" else 1])
    server_seed = int(rng.integers(1, 2**31 - 1))
    if workload == "serve-bulk":
        # Unit jobs in submits of 500, so the engine and large frames
        # dominate; one vector serves every submit.
        pool = [np.ones(500)]
        return ServeInputs(
            workload, "adaptive", 1000, server_seed, 50, pool,
            [json.dumps(p.tolist(), separators=(",", ":")).encode() for p in pool],
            request_ids=False, checkpoint=False, round_ops=100, seed=seed,
        )
    if workload == "serve-durable":
        # Heavy-tailed (Pareto, shape 1.5, scale 1) sizes in submits of 100,
        # each with a request id, so the request log fills to its 4096-entry
        # bound.  A round is 4095 submits and one checkpoint: one snapshot
        # (~2 MB) per request-log generation.
        pool = list(1.0 + rng.pareto(1.5, size=(4096, 100)))
        return ServeInputs(
            workload, "weighted", 1000, server_seed, 32, pool,
            [json.dumps(p.tolist(), separators=(",", ":")).encode() for p in pool],
            request_ids=True, checkpoint=True, round_ops=4096, seed=seed,
        )
    raise BenchError(f"unknown serve workload {workload!r}")


_CHECKPOINT_REPLY = re.compile(rb'\{"type":"checkpoint","id":(-?\d+),')


class Connection:
    """Blocking newline-delimited JSON exchange on one TCP connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb", buffering=1 << 20)

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self) -> dict:
        line = self.rfile.readline()
        if not line.endswith(b"\n"):
            raise BenchError("service closed the connection")
        # A checkpoint reply carries the whole snapshot (~2 MB), which the
        # checks read from the file instead.  Decoding it here would add the
        # client's own time to the submits answered after it.
        head = _CHECKPOINT_REPLY.match(line)
        if head is not None:
            return {"type": "checkpoint", "id": int(head.group(1))}
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.send(json.dumps(message).encode() + b"\n")
        return self.recv()

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _address(line: str) -> tuple[str, int]:
    # "repro service listening on HOST:PORT (...)"
    hostport = line.split("listening on ", 1)[1].split()[0]
    host, port = hostport.rsplit(":", 1)
    return host, int(port)


def launch(inputs: ServeInputs, checkpoint_path: str | None):
    """Start ``repro serve``; return (program, connection, seconds to first stats)."""
    start = time.perf_counter()
    program = Program(*inputs.serve_args(checkpoint_path))
    try:
        line = program.wait_for_line("listening on", READY_TIMEOUT_S)
        conn = Connection(_address(line))
        reply = conn.request({"type": "stats", "id": -1})
        ready = time.perf_counter() - start
        if reply.get("type") != "stats":
            raise BenchError(f"unexpected reply to stats: {reply}")
    except BaseException:
        program.proc.kill()
        program.finish()
        raise
    return program, conn, ready


def stop(program: Program, conn: Connection) -> float:
    """Shut the service down cleanly; return its peak RSS in MiB."""
    try:
        reply = conn.request({"type": "shutdown", "id": -2})
        if reply.get("type") != "stopped":
            raise BenchError(f"unexpected reply to shutdown: {reply}")
    finally:
        conn.close()
        code = program.finish()
    if code != 0:
        raise BenchError(f"repro serve exited {code}:\n{program.stderr_text()}")
    return peak_rss_mb(program.stderr_text())


@dataclass
class DriveResult:
    tally: Tally
    assignments: list[np.ndarray]
    #: Jobs answered per second in each round of the measured phase.
    round_rates: list[float]
    stats: dict


def drive(
    conn: Connection, inputs: ServeInputs, seconds: float, spans: Spans, need: int
) -> DriveResult:
    """Closed-loop load in whole rounds of ``inputs.round_ops`` operations.

    The measured phase runs from the reply to the last operation of the
    first round that ends after ``WARMUP_S`` to the reply to the last
    operation of the last round.  Rounds keep starting until ``seconds``
    have been measured and ``need`` successful submits timed; then the
    operations still in flight are drained.  Timed submits are those sent
    and answered within the measured phase.  An error reply counts as a
    failed operation.
    """
    clock = time.perf_counter_ns
    sent_at: dict[int, int] = {}
    # Per operation: (sent, answered) in ns, and the reply's outcome.
    times: list[tuple[int, int]] = []
    ok: list[bool] = []
    assignments: list[np.ndarray] = []
    next_id = 0
    stop_at = None  # id of the first operation never sent
    warm_until = clock() + int(WARMUP_S * 1e9)
    measure_from = measure_until = give_up = None
    timed = 0  # submits answered so far that were sent in the measured phase

    def send_next() -> None:
        nonlocal next_id, stop_at
        if next_id % inputs.round_ops == 0 and measure_from is not None:
            now = clock()
            # Replies still in flight may land after the phase ends, so
            # keep a window's worth of timed submits in hand.
            if now >= measure_until and timed >= need + inputs.window:
                stop_at = next_id
                return
            if now >= give_up:
                raise BenchError(
                    f"only {timed} successful timed submits in "
                    f"{(now - measure_from) / 1e9:.0f} s; {need} are needed "
                    f"({next_id} sent, {ok.count(False)} failed)"
                )
        sent_at[next_id] = clock()
        conn.send(inputs.frame(next_id))
        times.append((0, 0))
        ok.append(False)
        assignments.append(None)
        next_id += 1

    for _ in range(inputs.window):
        send_next()
    while sent_at:
        reply = conn.recv()
        now = clock()
        i = reply.get("id")
        if i not in sent_at:
            raise BenchError(f"reply for unknown request id {i!r}")
        sent = sent_at.pop(i)
        times[i] = (sent, now)
        checkpoint = inputs.is_checkpoint(i)
        spans.add("service.checkpoint_request" if checkpoint else "service.submit",
                  sent, now, trace=f"op-{i}")
        if checkpoint:
            ok[i] = reply.get("type") == "checkpoint"
        elif reply.get("type") == "result":
            ok[i] = True
            assignments[i] = np.asarray(reply["assignments"], dtype=np.int32)
            if measure_from is not None and sent >= measure_from:
                timed += 1
        if measure_from is None and (i + 1) % inputs.round_ops == 0 and now >= warm_until:
            measure_from = now
            measure_until = now + int(seconds * 1e9)
            give_up = measure_until + int(MAX_EXTRA_S * 1e9)
        if stop_at is None:
            send_next()

    measured_end = times[stop_at - 1][1]
    # Each measured round runs from one round's last reply to the next's.
    bounds = sorted(
        times[i][1] for i in range(inputs.round_ops - 1, stop_at, inputs.round_ops)
        if times[i][1] >= measure_from
    )
    round_jobs = [0] * (len(bounds) - 1)
    tally = Tally()
    for i, (sent, answered) in enumerate(times):
        if not ok[i]:
            tally.fail()
            continue
        if assignments[i] is None:  # a checkpoint
            tally.ok()
            continue
        in_phase = measure_from < answered <= measured_end
        tally.ok((answered - sent) / 1e6 if in_phase and sent >= measure_from else None)
        if in_phase:
            round_jobs[bisect.bisect_left(bounds, answered) - 1] += assignments[i].size
    round_rates = [
        jobs / ((end - start) / 1e9) for jobs, start, end in zip(round_jobs, bounds, bounds[1:])
    ]
    stats = conn.request({"type": "stats", "id": -3})
    if stats.get("type") != "stats":
        raise BenchError(f"unexpected reply to stats: {stats}")
    return DriveResult(tally, assignments, round_rates, stats["stats"])


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #
def check(inputs: ServeInputs, result: DriveResult, checkpoint_path: str | None) -> list[str]:
    """Check the replies against the paper's bounds and an offline replay."""
    import_program()
    from repro.scheduler import Dispatcher

    errors: list[str] = []
    n = inputs.n_servers
    sent = len(result.assignments)
    for i, assigned in enumerate(result.assignments):
        if assigned is None:
            continue  # failed submit, already counted
        if assigned.size != inputs.sizes(i).size:
            errors.append(f"submit {i}: {assigned.size} assignments for "
                          f"{inputs.sizes(i).size} jobs")
        elif assigned.size and (assigned.min() < 0 or assigned.max() >= n):
            errors.append(f"submit {i}: assignment outside [0, {n})")
    if errors:
        return errors[:5]
    done = [i for i in range(sent) if result.assignments[i] is not None]
    jobs_sent = sum(inputs.sizes(i).size for i in done)
    if result.stats["jobs_dispatched"] != jobs_sent:
        errors.append(f"stats reports {result.stats['jobs_dispatched']} jobs "
                      f"dispatched, {jobs_sent} were sent")

    # A fresh dispatcher fed the same jobs in the same order must reproduce
    # every assignment (batch boundaries never change assignments).  The
    # replay and the bound checks walk the submits in chunks to stay small.
    replay = Dispatcher(n, policy=inputs.policy, seed=inputs.server_seed)
    counts = np.zeros(n, dtype=np.int64)
    work = np.zeros(n)
    total, w_max = 0.0, 0.0
    chunk = 512
    for lo in range(0, len(done), chunk):
        ids = done[lo:lo + chunk]
        served = np.concatenate([result.assignments[i] for i in ids])
        sizes = np.concatenate([inputs.sizes(i) for i in ids])
        expected = replay.dispatch_batch(sizes)
        if not np.array_equal(expected, served):
            first = int(np.flatnonzero(expected != served)[0])
            errors.append(f"replay differs from the service at job {first} "
                          f"of the chunk starting at submit {ids[0]}")
            break
        counts += np.bincount(served, minlength=n)
        work += np.bincount(served, weights=sizes, minlength=n)
        total += math.fsum(sizes)
        w_max = max(w_max, float(sizes.max()))
    if inputs.policy == "adaptive":
        bound = math.ceil(jobs_sent / n) + 1
        if counts.max() > bound:
            errors.append(f"adaptive max count {counts.max()} exceeds ceil(J/n)+1 = {bound}")
    else:
        bound = total / n + 2.0 * w_max
        if work.max() > bound * (1 + 1e-12):
            errors.append(f"weighted max work {work.max()} exceeds W/n + 2 w_max = {bound}")

    if inputs.checkpoint:
        from repro.service import DispatchService

        restored = DispatchService.from_checkpoint(checkpoint_path)
        held = int(restored.dispatcher.job_counts.sum())
        dispatched = int(restored.dispatcher.jobs_dispatched)
        if held != dispatched:
            errors.append(f"checkpoint job counts sum to {held}, "
                          f"jobs_dispatched is {dispatched}")
        if dispatched > jobs_sent:
            errors.append(f"checkpoint holds {dispatched} jobs, only {jobs_sent} were sent")
    return errors


# ---------------------------------------------------------------------- #
# Workload entry points
# ---------------------------------------------------------------------- #
def session(inputs: ServeInputs, seconds: float, spans: Spans, need: int, tag: str):
    """Cold-launch the service, drive it, stop it.

    Returns (seconds to first ``stats`` reply, drive result, peak RSS MiB,
    checkpoint path).
    """
    checkpoint_path = str(WORK / f"{inputs.workload}.{tag}.ckpt.json")
    with spans.span("service.launch", trace=tag):
        program, conn, ready = launch(inputs, checkpoint_path)
    # The client keeps every reply; cyclic GC passes over them would stall
    # it and show up as service latency.  It creates no cycles.
    gc.disable()
    try:
        with spans.span("service.drive", trace=tag):
            result = drive(conn, inputs, seconds, spans, need)
    finally:
        gc.enable()
        rss = stop(program, conn)
    return ready, result, rss, checkpoint_path


def run(workload: str, seed: int, seconds: float) -> tuple[bool, Tally, dict, list[str]]:
    """``SESSIONS`` fresh services, each measured for a share of ``seconds``.

    ``balls_per_s`` is the median over every measured round of the run;
    each other metric is the median over the sessions.  A burst of host
    noise slows a few rounds, or one session, and the medians keep it from
    setting the run's figure.
    """
    inputs = make_inputs(workload, seed)
    tally = Tally()
    errors: list[str] = []
    per_session: dict[str, list[float]] = {}
    round_rates: list[float] = []
    notes = []
    for k in range(SESSIONS):
        ready, result, rss, checkpoint_path = session(
            inputs, seconds / SESSIONS, Spans(False), samples_needed(TAIL_Q), f"s{k}"
        )
        errors += check(inputs, result, checkpoint_path)
        tally.attempted += result.tally.attempted
        tally.failed += result.tally.failed
        lat = result.tally.latencies
        round_rates += result.round_rates
        for name, value in (
            ("setup_s", ready),
            ("latency_p50_ms", tail_percentile(lat, 0.5)),
            ("latency_p999_ms", tail_percentile(lat, TAIL_Q)),
            ("peak_rss_mb", rss),
        ):
            per_session.setdefault(name, []).append(value)
        notes.append(f"{workload} session {k}: {len(lat)} timed submits, "
                     f"{len(result.round_rates)} measured rounds, "
                     f"{result.tally.attempted} sent")
    units = {"setup_s": "s", "balls_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p999_ms": "ms", "peak_rss_mb": "MiB"}
    per_session["balls_per_s"] = round_rates
    metrics = {
        name: metric(statistics.median(per_session[name]), unit)
        for name, unit in units.items()
    }
    return not errors, tally, metrics, errors + notes
