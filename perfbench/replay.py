"""Stage-by-stage replay of a pipeline for per-layer self times.

Each stage runs as a one-stage :class:`~repro.Pipeline` fed the previous
stage's outputs, with a :class:`Capture` operator behind it.  A span
wraps every call into the stage; the capture records its own child
span, so the stage's self time excludes the hand-off.
"""

from __future__ import annotations

from repro import Pipeline
from repro.streams.operators import Operator

from perfbench.common import Spans


class Capture(Operator):
    """Terminal operator that keeps whatever the stage under test emits."""

    def __init__(self, spans: Spans) -> None:
        super().__init__()
        self.spans = spans
        self.outputs: list = []

    def process(self, tup) -> None:
        sid = self.spans.begin("replay.capture")
        self.outputs.append(tup)
        self.spans.end(sid)

    def process_many(self, tuples) -> None:
        sid = self.spans.begin("replay.capture")
        self.outputs.append(tuples)
        self.spans.end(sid)


def replay(
    spans: Spans, stages: list[tuple[str, Operator]], inputs: list, batched: bool = True
) -> tuple[dict[str, float], list[list]]:
    """Run ``stages`` one at a time; the last one is fed but not captured.

    ``inputs`` are batches (``push_many``) or tuples (``push``).  Returns
    the self seconds of each stage in this replay, and what every stage
    but the last emitted.
    """
    trace = spans.new_trace()
    emitted = []
    for index, (name, op) in enumerate(stages):
        capture = Capture(spans) if index < len(stages) - 1 else None
        pipeline = Pipeline([op] if capture is None else [op, capture])
        call = pipeline.push_many if batched else pipeline.push
        for item in inputs:
            sid = spans.begin(name)
            call(item)
            spans.end(sid)
        sid = spans.begin(name)
        pipeline.head.flush()
        spans.end(sid)
        if capture is not None:
            inputs = capture.outputs
            emitted.append(inputs)
    seconds = spans.self_times(trace)
    return {name: seconds.get(name, 0.0) for name, _ in stages}, emitted
