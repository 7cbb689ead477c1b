"""Opt-in observability for the stream engine (metrics + tracing).

Attach a :class:`MetricsRegistry` to a pipeline and every operator
records tuples in/out, wall time, batch sizes, and — for
accuracy-producing operators — emitted confidence-interval widths and
de facto sample sizes::

    from repro.obs import MetricsRegistry
    from repro.streams.engine import Pipeline

    registry = MetricsRegistry()
    pipeline = Pipeline([...], registry=registry)
    pipeline.run(source)
    registry.snapshot()            # structured dict
    registry.render_prometheus()   # text exposition format
    registry.to_json(indent=2)     # strict JSON

Attach a :class:`Tracer` the same way for per-stage/per-batch spans and
per-result accuracy provenance, exportable to Perfetto::

    from repro.obs import Tracer, explain, write_chrome_trace

    tracer = Tracer()
    pipeline = Pipeline([...], tracer=tracer)
    sink = pipeline.run(source)
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev
    print(explain(sink.results[-1], tracer))   # one result's lineage

Attach a :class:`TelemetryRecorder` for SLO telemetry: fixed-interval
frame series over every registry metric (keyed by stream position, not
wall clock), declarative SLO rules with multi-window burn-rate
evaluation, and a deterministic alert log::

    from repro.obs import AlertLog, TelemetryRecorder, parse_rule

    telemetry = TelemetryRecorder()
    pipeline = Pipeline([...], telemetry=telemetry)
    pipeline.run(source)
    rules = [parse_rule("ci_width p95 <= 0.5")]
    log = AlertLog()
    log.evaluate(telemetry.series, rules)
    print(log.to_jsonl())

With none attached the hooks reduce to one attribute check per call
and pipeline output is unchanged — see docs/OBSERVABILITY.md,
docs/TRACING.md and docs/MONITORING.md for the model and the overhead
guarantees.
"""

from repro.obs.alerts import AlertEvent, AlertLog, render_health_table
from repro.obs.export import (
    chrome_trace_events,
    render_trace_tree,
    spans_to_json,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.instrument import (
    BATCH_SIZE_BUCKETS,
    DRAWS_USED_BUCKETS,
    INTERVAL_WIDTH_BUCKETS,
    SAMPLE_SIZE_BUCKETS,
    SYNOPSIS_ERROR_BUCKETS,
    OperatorMetrics,
    OperatorObserver,
    operator_rows,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    exponential_buckets,
    gauge_folds_by_sum,
    linear_buckets,
    prometheus_sample,
)
from repro.obs.provenance import (
    ProvenanceRecord,
    ProvenanceRecorder,
    explain,
    lineage_from_operands,
)
from repro.obs.slo import (
    DriftEvent,
    FrameVerdict,
    RuleEvaluation,
    SloRule,
    detect_drift,
    evaluate_rule,
    evaluate_rules,
    frame_signal,
    parse_rule,
)
from repro.obs.timeseries import (
    Frame,
    FrameSeries,
    TelemetryConfig,
    TelemetryRecorder,
)
from repro.obs.trace import Span, TraceConfig, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "OperatorMetrics",
    "OperatorObserver",
    "operator_rows",
    "exponential_buckets",
    "linear_buckets",
    "gauge_folds_by_sum",
    "prometheus_sample",
    "BATCH_SIZE_BUCKETS",
    "INTERVAL_WIDTH_BUCKETS",
    "SAMPLE_SIZE_BUCKETS",
    "SYNOPSIS_ERROR_BUCKETS",
    "DRAWS_USED_BUCKETS",
    "TelemetryConfig",
    "TelemetryRecorder",
    "Frame",
    "FrameSeries",
    "SloRule",
    "parse_rule",
    "frame_signal",
    "FrameVerdict",
    "RuleEvaluation",
    "evaluate_rule",
    "evaluate_rules",
    "DriftEvent",
    "detect_drift",
    "AlertEvent",
    "AlertLog",
    "render_health_table",
    "TraceConfig",
    "Span",
    "Tracer",
    "ProvenanceRecord",
    "ProvenanceRecorder",
    "lineage_from_operands",
    "explain",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_to_json",
    "render_trace_tree",
    "validate_chrome_trace",
]
