"""Shared pieces of the benchmark: paths, program launches, statistics, spans.

Nothing here imports :mod:`repro`; the program under test is always run from
the checkout's own ``src/`` tree, either in a child interpreter (end-to-end
workloads) or, for the traced per-layer replay, in this process after
:func:`import_program` has put ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch files of one run (JSONL outputs, checkpoints); removed at exit.
WORK = HERE / ".work"
#: Span files of traced runs; kept after the run.
OUT = HERE / ".out"

#: Every child interpreter of the program reports its peak resident set
#: (``VmHWM``) on stderr when it exits, through this bootstrap, which then
#: runs the ``repro`` console entry point (``repro.experiments.cli:main``).
_BOOTSTRAP = (
    "import atexit, sys\n"
    "def _hwm():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        for line in fh:\n"
    "            if line.startswith('VmHWM:'):\n"
    "                sys.stderr.write('perfbench-vmhwm-kb %s\\n' % line.split()[1])\n"
    "                sys.stderr.flush()\n"
    "atexit.register(_hwm)\n"
    "from repro.experiments.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
_HWM_TAG = "perfbench-vmhwm-kb "


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, launch failure, timeout)."""


def check_layout() -> None:
    """Refuse to run outside a checkout that holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program() -> None:
    """Make ``import repro`` in this process load the checkout's ``src/``."""
    check_layout()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def reset_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


def program_argv(*args: str) -> list[str]:
    """The command line that runs ``repro <args>`` from the checkout."""
    return [sys.executable, "-c", _BOOTSTRAP, *args]


def peak_rss_mb(stderr_text: str) -> float:
    """The ``VmHWM`` the bootstrap printed, in MiB."""
    for line in reversed(stderr_text.splitlines()):
        if line.startswith(_HWM_TAG):
            return int(line[len(_HWM_TAG):]) / 1024.0
    raise BenchError("program exited without reporting its peak RSS")


class Program:
    """One running ``repro`` process whose stderr is collected by a thread.

    Used for ``repro serve``: :meth:`wait_for_line` blocks until a stderr
    line contains a marker (the listening address).  The caller must call
    :meth:`finish` (in a ``finally``); it waits for the exit and kills the
    process only if it outlives the timeout.
    """

    def __init__(self, *args: str) -> None:
        self.proc = subprocess.Popen(
            program_argv(*args),
            cwd=str(ROOT),
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self._lines: list[str] = []
        self._changed = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stderr:
            with self._changed:
                self._lines.append(raw.decode("utf-8", "replace").rstrip("\n"))
                self._changed.notify_all()
        with self._changed:
            self._lines.append(None)  # EOF marker
            self._changed.notify_all()

    def wait_for_line(self, marker: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        seen = 0
        with self._changed:
            while True:
                while seen < len(self._lines):
                    line = self._lines[seen]
                    seen += 1
                    if line is None:
                        raise BenchError(
                            "program exited before printing %r:\n%s"
                            % (marker, self.stderr_text())
                        )
                    if marker in line:
                        return line
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError(f"program did not print {marker!r} in {timeout} s")
                self._changed.wait(remaining)

    def stderr_text(self) -> str:
        return "\n".join(line for line in self._lines if line is not None)

    def finish(self, timeout: float = 30.0) -> int:
        """Wait for the process to exit (killing it after ``timeout``)."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10.0)
        self.proc.stderr.close()
        return code


def run_program(*args: str, timeout: float = 170.0) -> tuple[float, int, str, str]:
    """Run ``repro <args>`` to completion.

    Returns (wall seconds, exit code, stdout, stderr); the caller decides
    what a non-zero exit means (a failed operation, or a failed set-up).
    """
    start = time.perf_counter()
    try:
        done = subprocess.run(
            program_argv(*args),
            cwd=str(ROOT),
            env=program_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repro {args[0]} timed out after {timeout} s") from exc
    wall = time.perf_counter() - start
    stdout = done.stdout.decode("utf-8", "replace")
    stderr = done.stderr.decode("utf-8", "replace")
    return wall, done.returncode, stdout, stderr


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail_percentile(samples, q: float) -> float:
    """The nearest-rank ``q``-quantile, refusing a tail with too few samples.

    At least :data:`TAIL_MIN_BEYOND` samples must lie beyond the reported
    rank, so p99.9 needs at least 10,000 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if q < 1.0 and beyond < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{100 * q:g} of {n} samples has {beyond} beyond it; "
            f"{TAIL_MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`tail_percentile` accepts ``q``."""
    n = TAIL_MIN_BEYOND
    while n - math.ceil(q * n) < TAIL_MIN_BEYOND:
        n += 1
    return n


class Tally:
    """Attempted/failed operation counts plus the latency samples.

    Latencies are those of successful operations only: a failure has no
    round trip to time, and it is reported through ``failed``, so any share
    of failures leaves the percentiles defined.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []

    def ok(self, latency: float | None = None) -> None:
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)

    def fail(self, count: int = 1) -> None:
        self.attempted += count
        self.failed += count


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise BenchError(f"metric value {value!r} is not finite")
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Spans:
    """In-memory span recorder for the benchmark's calls into the program.

    A span is ``(id, name, start_ns, end_ns, parent_id, trace)``; ``trace``
    groups the spans of one request or workload.  Disabled recorders hand
    out a ``nullcontext`` so untraced runs pay nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def _record(self, name: str, trace: str):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append((span_id, name, start, end, parent, trace))

    def span(self, name: str, trace: str = ""):
        return self._record(name, trace) if self.enabled else nullcontext()

    def add(self, name: str, start_ns: int, end_ns: int, trace: str = "") -> None:
        """Record a span measured elsewhere (e.g. a request's round trip)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.records.append((self._next, name, start_ns, end_ns, parent, trace))
            self._next += 1

    def self_seconds(self) -> dict[str, float]:
        """Each span name's total self time: duration minus its children's."""
        child_ns: dict[int, int] = {}
        for _, _, start, end, parent, _ in self.records:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.records:
            own = (end - start) - child_ns.get(span_id, 0)
            totals[name] = totals.get(name, 0.0) + own / 1e9
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, trace in self.records:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "trace": trace,
                        }
                    )
                    + "\n"
                )
