"""Metrics, tracing and telemetry attached together to a sharded run.

With a fixed seed and pinned ``n_shards``, the merged registry, span set
and frame series are each identical at 1, 2 and 4 workers, and each
equals the run with only that kind attached: the shard merge folds
metrics, then telemetry, then spans, and no kind perturbs another.
"""

import json

import numpy as np
import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.obs.export import spans_to_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.obs.trace import TraceConfig, Tracer
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    SlidingGaussianAverage,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple

N_SHARDS = 4
WORKER_COUNTS = (1, 2, 4)
SEED = 5
BATCH_SIZE = 8
KINDS = ("metrics", "trace", "telemetry")


def _tuples(n=96, seed=1):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "reading": DfSized(
                    GaussianDistribution(
                        float(rng.normal(50.0, 10.0)),
                        float(rng.uniform(1.0, 9.0)),
                    ),
                    int(rng.integers(10, 40)),
                ),
                "seq": i,
            }
        )
        for i in range(n)
    ]


# Module-level so the pristine pipeline pickles into spawn workers.
def _pipeline():
    return Pipeline(
        [
            SlidingGaussianAverage("reading", window_size=10),
            WindowAggregate("reading", 6, agg="avg", output="smooth"),
            CollectSink(),
        ]
    )


def _registry_view(registry):
    """The snapshot minus wall-clock timer seconds."""
    view = {}
    for name, state in registry.snapshot().items():
        if state["type"] == "timer":
            state = {"type": "timer", "count": state["count"]}
        view[name] = state
    return json.dumps(view, sort_keys=True)


def _views(workers, kinds, tuples):
    pipeline = _pipeline()
    if "metrics" in kinds:
        pipeline.attach_metrics(MetricsRegistry(), prefix="obs")
    if "trace" in kinds:
        pipeline.attach_trace(Tracer(TraceConfig(seed=SEED)), prefix="obs")
    if "telemetry" in kinds:
        pipeline.attach_telemetry(
            TelemetryRecorder(
                TelemetryConfig(frame_interval=8), pipeline.registry
            ),
            prefix="obs",
        )
    pipeline.run_sharded(
        tuples,
        n_workers=workers,
        n_shards=N_SHARDS,
        seed=SEED,
        batch_size=BATCH_SIZE,
    )
    views = {}
    if "metrics" in kinds:
        views["metrics"] = _registry_view(pipeline.registry)
    if "trace" in kinds:
        views["trace"] = spans_to_json(pipeline.tracer, deterministic=True)
    if "telemetry" in kinds:
        views["telemetry"] = pipeline.telemetry.to_json(deterministic=True)
    return views


@pytest.fixture(scope="module")
def all_kinds():
    tuples = _tuples()
    return {
        workers: _views(workers, KINDS, tuples) for workers in WORKER_COUNTS
    }


class TestAllObserversSharded:
    def test_every_view_is_populated(self, all_kinds):
        views = all_kinds[1]
        registry = json.loads(views["metrics"])
        assert registry["obs.tuples"]["value"] == 96
        assert registry["obs.runs"]["value"] == N_SHARDS
        spans = json.loads(views["trace"])["spans"]
        assert {span["shard"] for span in spans} == {
            f"shard{i}" for i in range(N_SHARDS)
        }
        assert len(json.loads(views["telemetry"])["frames"]) > 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_at_1_2_4_workers(self, all_kinds, kind):
        for workers in WORKER_COUNTS[1:]:
            assert all_kinds[workers][kind] == all_kinds[1][kind], (
                f"merged {kind} view diverged at {workers} workers"
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_the_run_with_only_that_kind(self, all_kinds, kind):
        alone = _views(1, (kind,), _tuples())
        assert alone[kind] == all_kinds[1][kind]
