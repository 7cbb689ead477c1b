"""Disabled-observer overhead + export validity on the Fig 5(c) workload.

Each operator hook in :class:`Operator` begins with one ``is None``
check on its observer handle, and the run loops with one check on the
pipeline's observers.  For each kind of observer — metrics, trace and
telemetry (``docs/OBSERVABILITY.md``, ``docs/TRACING.md``,
``docs/MONITORING.md``) — this benchmark verifies:

1. With nothing attached, the hooks cost less than 5% of throughput
   against the bare (hook-free) execution paths.  Runs are interleaved
   (bare, shipped, bare, shipped, ...) and best-of-N so a load spike
   hits both variants equally, and a ratio below the floor re-measures
   with more rounds up to ``ATTEMPTS`` times, so only a reproducible
   regression fails.  An informational pass then measures throughput
   with that kind attached (allowed to cost more than 5%).
2. Pipeline output is byte-identical with the observer attached vs not.
3. An exported trace passes the Chrome trace-event schema check, and
   the frame series and an alert log over it export as strict JSON.

Results land in ``benchmarks/results/{obs,trace,slo}_overhead.txt`` and
``BENCH_trace_overhead.json`` / ``BENCH_slo_overhead.json``.
``OBS_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import json
import os
import pickle
import types

import pytest

from benchmarks.conftest import save_result
from repro.experiments.fig5_throughput import (
    WINDOW_SIZE,
    _AnalyticAccuracy,
    _LearnGaussian,
    _make_stream,
)
from repro.obs.alerts import AlertLog
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import parse_rule
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.obs.trace import TraceConfig, Tracer
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    SlidingGaussianAverage,
)
from repro.streams.throughput import measure_throughput

SMOKE = os.environ.get("OBS_SMOKE", "") not in ("", "0")
N_ITEMS = 2000 if SMOKE else 6000
ROUNDS = 4 if SMOKE else 5
ATTEMPTS = 3
MAX_OVERHEAD = 0.05
FRAME_INTERVAL = 256

RULES = [
    parse_rule("ci_width p95 <= 10.0"),
    parse_rule("de_facto_n p5 >= 2"),
]

#: Per kind: stream seeds of the overhead gate and of the on/off check.
SEEDS = {
    "metrics": (11, 12),
    "trace": (21, 22),
    "telemetry": (31, 32),
}


def _bare_receive(self, tup):
    self.process(tup)


def _bare_receive_many(self, tuples):
    self.process_many(tuples)


def _bare_emit(self, tup):
    if self._downstream is not None:
        self._downstream.receive(tup)


def _bare_emit_many(self, tuples):
    if self._downstream is not None and tuples:
        self._downstream.receive_many(tuples)


def _bare_flush(self):
    self.on_flush()
    if self._downstream is not None:
        self._downstream.flush()


def _strip(pipeline: Pipeline) -> Pipeline:
    """Rebind every hook to its uninstrumented body (pre-hooks semantics)."""
    for op in pipeline.operators:
        op.receive = types.MethodType(_bare_receive, op)
        op.receive_many = types.MethodType(_bare_receive_many, op)
        op.emit = types.MethodType(_bare_emit, op)
        op.emit_many = types.MethodType(_bare_emit_many, op)
        op.flush = types.MethodType(_bare_flush, op)
    return pipeline


def _fig5c_pipeline(sink=CountingSink, **observer) -> Pipeline:
    return Pipeline(
        [
            _LearnGaussian("points", "value"),
            SlidingGaussianAverage("value", WINDOW_SIZE),
            _AnalyticAccuracy("avg"),
            sink(),
        ],
        **observer,
    )


def _bare_pipeline() -> Pipeline:
    return _strip(_fig5c_pipeline())


def _observer(kind: str, frame_interval: int = FRAME_INTERVAL):
    """A fresh observer of ``kind``, as ``Pipeline`` and
    ``measure_throughput`` keywords."""
    if kind == "metrics":
        return {"registry": MetricsRegistry()}
    if kind == "trace":
        return {"tracer": Tracer(TraceConfig())}
    return {"telemetry": TelemetryRecorder(TelemetryConfig(frame_interval))}


def _measure_disabled(tuples) -> tuple[float, float]:
    def measure(rounds: int) -> tuple[float, float]:
        bare = 0.0
        shipped = 0.0
        for _ in range(rounds):
            bare = max(
                bare, measure_throughput(_bare_pipeline, tuples, repeats=1)
            )
            shipped = max(
                shipped,
                measure_throughput(_fig5c_pipeline, tuples, repeats=1),
            )
        return bare, shipped

    measure(1)  # warm caches so neither variant pays the cold start
    bare, shipped = measure(ROUNDS)
    for attempt in range(1, ATTEMPTS):
        if shipped / bare >= 1.0 - MAX_OVERHEAD:
            break
        more_bare, more_shipped = measure(ROUNDS * (attempt + 1))
        bare = max(bare, more_bare)
        shipped = max(shipped, more_shipped)
    return bare, shipped


def _record(results_dir, kind, bare, shipped, attached, observer) -> None:
    ratio = shipped / bare
    if kind == "metrics":
        save_result(
            results_dir,
            "obs_overhead",
            "Observability disabled-mode overhead (Fig 5(c) analytic)\n"
            f"  bare hooks:         {int(bare):>8} tuples/s\n"
            f"  instrumented (off): {int(shipped):>8} tuples/s\n"
            f"  registry attached:  {int(attached):>8} tuples/s\n"
            f"  ratio:              {ratio:>8.3f} "
            f"(floor {1 - MAX_OVERHEAD})",
        )
        return
    if kind == "trace":
        tracer = observer["tracer"]
        save_result(
            results_dir,
            "trace_overhead",
            "Tracing disabled-mode overhead (Fig 5(c) analytic)\n"
            f"  bare hooks:       {int(bare):>8} tuples/s\n"
            f"  no tracer:        {int(shipped):>8} tuples/s\n"
            f"  tracer attached:  {int(attached):>8} tuples/s "
            f"({len(tracer)} spans, {len(tracer.provenance)} records)\n"
            f"  ratio:            {ratio:>8.3f} (floor {1 - MAX_OVERHEAD})",
        )
        record = {
            "bare_tuples_per_sec": bare,
            "untraced_tuples_per_sec": shipped,
            "traced_tuples_per_sec": attached,
        }
        name = "BENCH_trace_overhead.json"
    else:
        recorder = observer["telemetry"]
        log = AlertLog()
        log.evaluate(recorder.series, RULES)
        save_result(
            results_dir,
            "slo_overhead",
            "SLO telemetry disabled-mode overhead (Fig 5(c) analytic)\n"
            f"  bare hooks:        {int(bare):>8} tuples/s\n"
            f"  no telemetry:      {int(shipped):>8} tuples/s\n"
            f"  recorder attached: {int(attached):>8} tuples/s "
            f"({len(recorder.series)} frames, {len(log)} transitions)\n"
            f"  ratio:             {ratio:>8.3f} "
            f"(floor {1 - MAX_OVERHEAD})",
        )
        record = {
            "frame_interval": FRAME_INTERVAL,
            "bare_tuples_per_sec": bare,
            "silent_tuples_per_sec": shipped,
            "recorded_tuples_per_sec": attached,
        }
        name = "BENCH_slo_overhead.json"
    (results_dir / name).write_text(
        json.dumps(
            {
                "workload": "fig5c-analytic",
                "n_items": N_ITEMS,
                "smoke": SMOKE,
                **record,
                "disabled_overhead_ratio": ratio,
                "max_overhead": MAX_OVERHEAD,
            },
            indent=2,
        )
        + "\n"
    )


@pytest.mark.parametrize("kind", list(SEEDS))
def test_disabled_observer_overhead_under_5_percent(
    benchmark, results_dir, kind
):
    tuples = _make_stream(N_ITEMS, seed=SEEDS[kind][0])
    bare, shipped = benchmark.pedantic(
        _measure_disabled, args=(tuples,), rounds=1, iterations=1
    )
    observer = _observer(kind)
    attached = measure_throughput(
        _fig5c_pipeline, tuples, repeats=1, **observer
    )
    _record(results_dir, kind, bare, shipped, attached, observer)
    ratio = shipped / bare
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"disabled-mode {kind} costs {(1 - ratio):.1%} of throughput "
        f"(budget {MAX_OVERHEAD:.0%}): {int(bare)} -> {int(shipped)} "
        "tuples/s"
    )


def test_disabled_mode_sink_identical():
    """Same tuples reach the sink with the hooks present or stripped."""
    tuples = _make_stream(500, seed=12)
    bare = _bare_pipeline()
    shipped = _fig5c_pipeline()
    bare.run(tuples)
    shipped.run(tuples)
    assert bare.sink.count == shipped.sink.count


@pytest.mark.parametrize("kind", list(SEEDS))
def test_output_byte_identical_with_observer_on_vs_off(kind):
    tuples = _make_stream(600, seed=SEEDS[kind][1])
    plain = _fig5c_pipeline(sink=CollectSink)
    observed = _fig5c_pipeline(
        sink=CollectSink, **_observer(kind, frame_interval=128)
    )
    plain.run(tuples)
    observed.run(tuples)
    assert [pickle.dumps(t) for t in plain.sink.results] == [
        pickle.dumps(t) for t in observed.sink.results
    ]


def test_exported_trace_passes_schema_check(tmp_path):
    tuples = _make_stream(600, seed=23)
    tracer = Tracer(TraceConfig())
    pipeline = _fig5c_pipeline()
    pipeline.attach_trace(tracer)
    pipeline.run_batched(tuples, batch_size=128)
    text = write_chrome_trace(tracer, str(tmp_path / "fig5c.trace.json"))
    obj = validate_chrome_trace(text)
    complete = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(tracer.spans)


def test_frame_and_alert_exports_stay_strict(tmp_path):
    tuples = _make_stream(600, seed=33)
    recorder = TelemetryRecorder(TelemetryConfig(frame_interval=128))
    pipeline = _fig5c_pipeline()
    pipeline.attach_telemetry(recorder)
    pipeline.run_batched(tuples, batch_size=128)
    assert len(recorder.series) >= 4
    frames_text = recorder.to_json(indent=2)
    json.loads(frames_text, parse_constant=lambda lit: 1 / 0)
    log = AlertLog()
    log.evaluate(recorder.series, RULES)
    jsonl = log.to_jsonl()
    for line in jsonl.splitlines():
        json.loads(line, parse_constant=lambda lit: 1 / 0)
    out = tmp_path / "slo_alerts.jsonl"
    out.write_text(jsonl)
    assert out.read_text() == jsonl
