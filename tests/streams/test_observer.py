"""The single observer path: one attach state per pipeline, one handle
per operator, the telemetry registry guard and rolling-state binding."""

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.obs.trace import Tracer
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import (
    CollectSink,
    SlidingGaussianAverage,
)
from repro.streams.tuples import UncertainTuple


def _tuples(n=24):
    return [
        UncertainTuple(
            {
                "x": DfSized(GaussianDistribution(float(i % 7), 1.0), 20),
                "key": i % 3,
            }
        )
        for i in range(n)
    ]


def _pipeline(**observers):
    return Pipeline(
        [SlidingGaussianAverage("x", 4), CollectSink()], **observers
    )


class TestTelemetryRegistryGuard:
    def test_different_registry_raises_instead_of_replacing(self):
        registry = MetricsRegistry()
        pipeline = _pipeline()
        pipeline.attach_metrics(registry)
        with pytest.raises(ObservabilityError, match="registry"):
            pipeline.attach_telemetry(TelemetryRecorder())
        assert pipeline.registry is registry
        assert pipeline.telemetry is None
        pipeline.run(_tuples())
        assert registry.get(
            "pipeline.00.SlidingGaussianAverage.tuples_in"
        ).value == 24

    def test_constructor_rejects_mismatched_recorder(self):
        with pytest.raises(ObservabilityError, match="registry"):
            _pipeline(
                registry=MetricsRegistry(), telemetry=TelemetryRecorder()
            )

    def test_adopts_recorder_registry_when_none_attached(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=8))
        pipeline = _pipeline()
        pipeline.attach_telemetry(recorder)
        assert pipeline.registry is recorder.registry
        pipeline.run(_tuples())
        assert len(recorder.series) == 3

    def test_detach_metrics_also_stops_telemetry(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=8))
        pipeline = _pipeline(telemetry=recorder)
        pipeline.detach_metrics()
        assert pipeline.telemetry is None
        pipeline.run(_tuples())
        assert len(recorder.series) == 0


class TestOneHandlePerOperator:
    def test_metrics_and_trace_share_one_handle(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        pipeline = _pipeline(registry=registry, tracer=tracer)
        pipeline.run_batched(_tuples(), 8)
        head = pipeline.operators[0]
        handle = head._observer
        assert handle.tracer is tracer
        assert handle.tuples_in is registry.get(
            "pipeline.00.SlidingGaussianAverage.tuples_in"
        )
        stage = next(s for s in tracer.spans if s.kind == "stage")
        assert stage.attrs["tuples_in"] == 24
        assert stage.attrs["calls"] == stage.attrs["batches"] == 3

    def test_stage_spans_count_one_run_only(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        pipeline = _pipeline(registry=registry, tracer=tracer)
        pipeline.run(_tuples())
        pipeline.run(_tuples(10))
        stages = [s for s in tracer.spans if s.kind == "stage"]
        assert [s.attrs["tuples_in"] for s in stages[::2]] == [24, 10]
        assert registry.get(
            "pipeline.00.SlidingGaussianAverage.tuples_in"
        ).value == 34

    def test_trace_only_records_no_registry_metrics(self):
        tracer = Tracer()
        pipeline = _pipeline(tracer=tracer)
        pipeline.run(_tuples())
        assert pipeline.registry is None
        assert pipeline.operators[0]._observer.interval_widths is None
        assert len(tracer.provenance) == 24

    def test_later_attach_keeps_the_prefix(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        pipeline = _pipeline()
        pipeline.attach_metrics(registry, prefix="fig")
        pipeline.attach_trace(tracer)
        pipeline.run(_tuples())
        assert pipeline.prefix == "fig"
        assert tracer.spans[0].name == "fig.run"
        assert registry.get("fig.tuples").value == 24

    def test_detach_all_leaves_no_handle(self):
        pipeline = _pipeline(registry=MetricsRegistry(), tracer=Tracer())
        pipeline.detach_metrics()
        assert pipeline.operators[0]._observer.interval_widths is None
        pipeline.detach_trace()
        assert all(op._observer is None for op in pipeline.operators)


class TestRollingStateBinding:
    def test_grouped_aggregate_binds_groups_created_after_attach(self):
        registry = MetricsRegistry()
        op = GroupedAggregate("key", "x", 4, resum_interval=2)
        pipeline = Pipeline([op, CollectSink()])
        pipeline.attach_metrics(registry, prefix="g")
        pipeline.run(_tuples(60))
        states = list(op.rolling_states())
        assert len(states) == 3
        assert all(s.resums_counter is not None for s in states)
        assert registry.get("g.00.GroupedAggregate.rolling.resums").value > 0
        pipeline.detach_metrics()
        assert all(s.resums_counter is None for s in op.rolling_states())

    def test_trace_only_attach_unbinds_rolling_states(self):
        op = SlidingGaussianAverage("x", 4)
        op.attach(MetricsRegistry())
        assert op._stats.resums_counter is not None
        op.attach(tracer=Tracer())
        assert op._stats.resums_counter is None
