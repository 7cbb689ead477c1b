"""Pieces every workload shares: spans, timing summaries, host-speed scaling,
memory, scores.

Nothing here imports ``repro``; the workloads drive the library only
through its public entry points and record spans around those calls.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class Spans:
    """In-memory spans recorded around the benchmark's calls into layers.

    A span is ``(id, parent, trace, name, start, end)``; the parent is the
    span open when it began (``-1`` for a root) and spans of one loop
    iteration share a trace id.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._open: list[int] = []
        self.trace = 0

    def new_trace(self) -> int:
        self.trace += 1
        return self.trace

    def begin(self, name: str) -> int:
        sid = len(self.records)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        self.records.append([sid, parent, self.trace, name, time.perf_counter(), 0.0])
        return sid

    def end(self, sid: int) -> None:
        self.records[sid][5] = time.perf_counter()
        self._open.pop()

    def self_times(self, trace: int | None = None) -> dict[str, float]:
        """Seconds per span name: duration minus the time of child spans."""
        children = [0.0] * len(self.records)
        for _sid, parent, _trace, _name, start, end in self.records:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = {}
        for sid, _parent, span_trace, name, start, end in self.records:
            if trace is None or span_trace == trace:
                totals[name] = totals.get(name, 0.0) + (end - start) - children[sid]
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "trace", "name", "start", "end")
        with path.open("w") as handle:
            json.dump([dict(zip(keys, record)) for record in self.records], handle)


def freeze_inputs() -> None:
    """Move everything alive now, the generated inputs included, out of
    the collector's reach, so collections walk only what runs allocate."""
    gc.collect()
    gc.freeze()


def between_passes() -> None:
    """Collect the previous pass's garbage before the next clock starts.

    A pass drops a whole pipeline or result set at once; without this
    the collector frees that pile inside the next pass.
    """
    gc.collect()


def stop_child_processes() -> None:
    """Join every child process and stop multiprocessing's resource tracker.

    The tracker is a helper process that ``multiprocessing`` starts the
    first time shared memory is created; it exits only when it reads end
    of file, so without this it outlives the benchmark by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def rate(per_pass: int, seconds: list[float]) -> float:
    """Tuples per second over passes of ``per_pass`` tuples, total over total."""
    total = sum(seconds)
    return per_pass * len(seconds) / total if total else float("nan")


#: Time of :func:`reference_task` on the reference host; scaled timings
#: read as if measured there.
REFERENCE_TASK_S = 0.005


def reference_task() -> None:
    """A fixed pure-Python job of dictionary stores and small allocations.

    Its time tracks the host's speed for this interpreter: on a shared
    machine it slows in step with the workloads (see METRICS.md).
    """
    table = {}
    for i in range(30000):
        table[i & 1023] = (i, str(i & 255))


class HostClock:
    """Measures the host's speed around each timed piece of work.

    A shared machine can change speed by 2x within seconds and by tens
    of percent from one minute to the next.  Timing :func:`reference_task` just
    before and just after a piece gives a factor that scales the piece's
    wall time to the reference host, cancelling the drift.  The
    collector is off while the task runs, so its time does not depend on
    how many objects the workload keeps alive.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_task()
        seconds = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.probes.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        """Scale for work timed between two probes."""
        return REFERENCE_TASK_S / (0.5 * (before + after))


class Timings:
    """Wall-clock timings, each also scaled by the host factor around it."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float, factor: float) -> None:
        self.wall.append(seconds)
        self.scaled.append(seconds * factor)

    def extend(self, seconds: list[float], factor: float) -> None:
        for value in seconds:
            self.add(value, factor)


def tail_percentile(n: int, target: float) -> float:
    """The highest ladder percentile at or below ``target`` that leaves at
    least ``TAIL_MIN_BEYOND`` of ``n`` samples beyond it.

    The target is fixed per workload so that a run of the usual length
    keeps the same percentile from run to run.
    """
    for p in TAIL_LADDER:
        if p <= target and n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def interval_summary(low, high, truth, confidence) -> dict[str, float]:
    """Mean Gneiting-Raftery interval score, coverage and mean width.

    Score of ``[l, u]`` at level ``1 - a`` against truth ``x``:
    ``(u - l) + (2/a)(l - x)[x < l] + (2/a)(x - u)[x > u]``.
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    truth = np.broadcast_to(np.asarray(truth, dtype=float), low.shape)
    alpha = 1.0 - np.broadcast_to(np.asarray(confidence, dtype=float), low.shape)
    width = high - low
    below = np.clip(low - truth, 0.0, None)
    above = np.clip(truth - high, 0.0, None)
    score = width + (2.0 / alpha) * (below + above)
    return {
        "score": float(score.mean()),
        "coverage": float(((low <= truth) & (truth <= high)).mean()),
        "width": float(width.mean()),
    }


def reset_peak_rss() -> bool:
    """Reset the process's RSS high-water mark; False where not allowed."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def status_kb(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


class PeakMemory:
    """Highest RSS the timed passes reach above a baseline, in MB.

    :meth:`before_pass` runs with the pass's inputs built and earlier
    garbage collected: it resets the high-water mark and, without a
    fixed baseline, reads ``VmRSS`` as the pass's own baseline, so inputs
    built between passes stay out of the figure.  :meth:`after_pass`
    reads ``VmHWM`` as soon as the pass returns, before its output is
    analysed.  A fixed baseline, taken after all input generation,
    counts what the workload keeps from pass to pass as well.
    """

    def __init__(self, baseline_kb: int | None = None) -> None:
        self.fixed_kb = baseline_kb
        self.hwm_reset = True
        self.peak_mb = 0.0
        self._base_kb = 0

    def before_pass(self) -> None:
        self.hwm_reset = reset_peak_rss() and self.hwm_reset
        self._base_kb = status_kb("VmRSS") if self.fixed_kb is None else self.fixed_kb

    def after_pass(self) -> None:
        self.peak_mb = max(self.peak_mb, (status_kb("VmHWM") - self._base_kb) / 1024.0)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int, **sizes) -> dict[str, object]:
    """Where and on what a record was measured.

    ``commit`` is None outside a git checkout; ``src_sha256`` identifies
    the measured source tree either way.
    """
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        **sizes,
    }


class Scores:
    """Interval score, coverage, mean width and draws, one entry per pass."""

    def __init__(self) -> None:
        self.score: list[float] = []
        self.coverage: list[float] = []
        self.width: list[float] = []
        self.draws: list[float] = []

    def add(self, summary: dict[str, float], draws: float) -> None:
        self.score.append(summary["score"])
        self.coverage.append(summary["coverage"])
        self.width.append(summary["width"])
        self.draws.append(draws)

    def report_layers(self, record: "Record") -> None:
        record.metric("accuracy.draws_per_tuple", median(self.draws))
        record.metric("accuracy.coverage", median(self.coverage))
        record.metric("accuracy.ci_width_mean", median(self.width))


def wall_limit(seconds: float) -> float:
    """Deadline for a timed loop; calls that keep failing add no timed seconds."""
    return time.monotonic() + 4 * seconds + 60


def report_end_to_end(
    record: "Record",
    per_pass: int,
    passes: Timings,
    latencies: Timings,
    tail_target: float,
    setup: Timings,
    memory: PeakMemory,
    scores: Scores,
    clock: HostClock,
) -> None:
    """The end-to-end metrics from host-scaled timings; the same figures
    in wall-clock time go to the record's ``wall_clock``."""
    percentile = tail_percentile(len(latencies.scaled), tail_target)

    def figures(view: str) -> dict[str, float]:
        calls = getattr(latencies, view)
        return {
            "throughput_tps": rate(per_pass, getattr(passes, view)),
            "batch_latency_p50_ms": 1e3 * median(calls),
            "batch_latency_tail_ms": 1e3 * float(np.percentile(calls, percentile)),
            "setup_s": median(getattr(setup, view)),
        }

    for name, value in figures("scaled").items():
        record.metric(name, value)
    record.extra["wall_clock"] = {
        **figures("wall"), "reference_task_ms": 1e3 * median(clock.probes)
    }
    record.extra["batch_latency_tail"] = {"percentile": percentile, "samples": len(latencies.scaled)}
    record.metric("peak_rss_mb", memory.peak_mb)
    record.metric("interval_score", median(scores.score))


def report_trace_overhead(record: "Record", per_pass: int, rates: dict[bool, Timings]) -> None:
    """Throughput lost by traced passes against untraced ones."""
    traced, bare = (rate(per_pass, rates[key].scaled) for key in (True, False))
    record.metric("trace.overhead_share", 1.0 - traced / bare)


class Record:
    """One workload run: metrics, checks and failure accounting."""

    def __init__(
        self, workload: str, seed: int, trace: bool, units: dict[str, str]
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.units = units
        self.metrics: dict[str, dict[str, object]] = {}
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.extra: dict[str, object] = {}

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": float(value), "unit": self.units[name]}

    def succeeded(self, count: int) -> None:
        """Count ``count`` operations that completed."""
        self.attempted += count

    def operation(self, ok: bool, error: BaseException | None = None) -> None:
        """Count one attempted operation of the workload."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error is not None and len(self.errors) < 20:
                self.errors.append(f"{type(error).__name__}: {error}")

    def check(self, name: str, ok: bool) -> None:
        """An output check; a failed one is a failed operation."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.operation(bool(ok))

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "errors": self.errors,
            "metrics": self.metrics,
            **self.extra,
        }
