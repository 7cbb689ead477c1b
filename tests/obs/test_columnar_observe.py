"""Accuracy metrics read from columns equal the per-row observations.

The batched accuracy stages emit an ``AccuracyColumn``; the observer
feeds its interval-width, sample-size and draws histograms from the
column arrays instead of materializing each emitted tuple.  The
registry must end exactly where the per-row path leaves it, so a
columnar run and a tuple-list run of the same chain snapshot alike
(timer seconds aside).
"""

import numpy as np
import pytest

from repro.experiments.fig5_throughput import (
    _AnalyticAccuracy,
    _BootstrapAccuracy,
    _LearnGaussian,
)
from repro.obs.metrics import MetricsRegistry
from repro.streams.columnar import ColumnarBatch
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, SlidingGaussianAverage
from repro.streams.tuples import UncertainTuple


def _stream(n: int, seed: int = 8) -> list[UncertainTuple]:
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple({"item": i, "points": rng.normal(100.0, 10.0, 20)})
        for i in range(n)
    ]


def _chain(kind: str) -> list:
    accuracy = (
        _AnalyticAccuracy("avg")
        if kind == "analytic"
        else _BootstrapAccuracy("avg", resamples=20, seed=4)
    )
    return [
        _LearnGaussian("points", "value"),
        SlidingGaussianAverage("value", 50),
        accuracy,
        CollectSink(),
    ]


def _without_seconds(snapshot: dict) -> dict:
    return {
        name: {
            key: value
            for key, value in state.items()
            if not key.endswith("seconds")
        }
        for name, state in snapshot.items()
    }


def _run(kind: str, columnar: bool) -> tuple[dict, list]:
    registry = MetricsRegistry()
    pipeline = Pipeline(_chain(kind), registry=registry)
    tuples = _stream(300)
    for a in range(0, len(tuples), 64):
        chunk = tuples[a:a + 64]
        pipeline.push_many(
            ColumnarBatch.from_tuples(chunk) if columnar else chunk
        )
    pipeline.head.flush()
    return _without_seconds(registry.snapshot()), pipeline.sink.results


@pytest.mark.parametrize("kind", ["analytic", "bootstrap"])
def test_columnar_registry_equals_tuple_list_registry(kind):
    columnar, columnar_rows = _run(kind, True)
    tuples, tuple_rows = _run(kind, False)
    assert columnar == tuples
    widths = [
        state for name, state in columnar.items()
        if name.endswith("Accuracy.interval_width")
    ]
    assert widths and widths[0]["count"] == 300
    assert [r.value("accuracy") for r in columnar_rows] == [
        r.value("accuracy") for r in tuple_rows
    ]
