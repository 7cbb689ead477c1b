"""Pipeline assembly and execution.

A :class:`Pipeline` chains operators into a linear push pipeline, runs a
tuple source through it, and flushes buffered state at end-of-stream.

Passing a :class:`~repro.obs.metrics.MetricsRegistry` (``registry=`` or
:meth:`Pipeline.attach_metrics`) turns on per-operator observability:
each operator records tuples in/out, wall time, batch sizes, and —
for accuracy-producing operators — emitted confidence-interval widths;
the pipeline itself records runs, tuples pushed, and end-to-end wall
time.  A :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.timeseries.TelemetryRecorder` attach the same way.
With none attached the execution paths are unchanged.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterable, Iterator, Sequence
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ObservabilityError, StreamError
from repro.obs.instrument import OperatorObserver
from repro.obs.metrics import Counter, MetricsRegistry, Timer
from repro.obs.timeseries import TelemetryRecorder
from repro.obs.trace import Tracer
from repro.streams.columnar import ColumnarBatch, as_columnar
from repro.streams.operators import CollectSink, CountingSink, Operator
from repro.streams.tuples import UncertainTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.config import ParallelConfig
    from repro.parallel.pool import WorkerPool

__all__ = ["Pipeline"]


class Pipeline:
    """A linear chain of operators ending in a sink.

    The last operator is conventionally a sink (:class:`CollectSink` or
    :class:`CountingSink`), but any operator chain works — tuples emitted
    by the final operator simply vanish if it has no terminal behaviour.

    Observability state is one set of fields — :attr:`registry`,
    :attr:`tracer`, :attr:`telemetry` and one name :attr:`prefix` —
    behind one attach path: every ``attach_*``/``detach_*`` call sets
    its field and rebinds each operator's single
    :class:`~repro.obs.instrument.OperatorObserver`.
    """

    def __init__(
        self,
        operators: Sequence[Operator],
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        telemetry: TelemetryRecorder | None = None,
    ) -> None:
        if not operators:
            raise StreamError("pipeline needs at least one operator")
        self.operators = list(operators)
        for upstream, downstream in zip(self.operators, self.operators[1:]):
            upstream.connect(downstream)
        self.prefix = "pipeline"
        self._observe(registry, tracer, telemetry)

    def _observe(
        self,
        registry: MetricsRegistry | None,
        tracer: Tracer | None,
        telemetry: TelemetryRecorder | None,
        prefix: str | None = None,
    ) -> None:
        """Set the whole observer state and rebind every operator.

        The one attach path: the constructor, every ``attach_*`` /
        ``detach_*``, :meth:`pristine`, sharded workers and
        :func:`~repro.streams.throughput.measure_throughput` go through
        it.  Telemetry rides on metrics: with no ``registry``, the
        recorder's is attached.  ``prefix=None`` keeps the current
        prefix.
        """
        if telemetry is not None and registry is None:
            registry = telemetry.registry
        if telemetry is not None and telemetry.registry is not registry:
            raise ObservabilityError(
                "telemetry recorder must wrap the pipeline's metrics "
                "registry (build it with TelemetryRecorder(config, "
                "registry=...) or detach the other registry first)"
            )
        self.registry: MetricsRegistry | None = registry
        self.tracer: Tracer | None = tracer
        self.telemetry: TelemetryRecorder | None = telemetry
        if prefix is not None:
            self.prefix = prefix
        prefix = self.prefix
        self._observers: list[OperatorObserver] = []
        for index, op in enumerate(self.operators):
            if registry is None and tracer is None:
                op.detach()
                continue
            name = f"{prefix}.{index:02d}.{type(op).__name__.lstrip('_')}"
            self._observers.append(op.attach(registry, tracer, name, index))
        self._run_metrics: tuple[Counter, Counter, Timer] | None = None
        if registry is not None:
            self._run_metrics = (
                registry.counter(
                    f"{prefix}.runs", "completed run()/run_batched() calls"
                ),
                registry.counter(
                    f"{prefix}.tuples",
                    "source tuples pushed into the pipeline",
                ),
                registry.timer(
                    f"{prefix}.run_seconds", "end-to-end wall time per run"
                ),
            )

    def attach_metrics(
        self, registry: MetricsRegistry, prefix: str | None = None
    ) -> MetricsRegistry:
        """Record this pipeline's execution into ``registry``.

        Operators get metric names ``{prefix}.{index:02d}.{ClassName}.*``
        (default prefix ``pipeline``) so a registry shared across
        pipelines (or across configurations of the same experiment)
        keeps every stage distinguishable.
        """
        self._observe(registry, self.tracer, self.telemetry, prefix)
        return registry

    def detach_metrics(self) -> None:
        """Stop recording metrics (and the telemetry riding on them)."""
        self._observe(None, self.tracer, None)

    def attach_trace(
        self, tracer: Tracer, prefix: str | None = None
    ) -> Tracer:
        """Record this pipeline's spans into ``tracer``.

        Stage spans get the same ``{prefix}.{index:02d}.{ClassName}``
        names as metrics, so traces and metric tables line up.
        """
        self._observe(self.registry, tracer, self.telemetry, prefix)
        return tracer

    def detach_trace(self) -> None:
        """Stop recording spans on this pipeline and its operators."""
        self._observe(self.registry, None, self.telemetry)

    def attach_telemetry(
        self, recorder: TelemetryRecorder, prefix: str | None = None
    ) -> TelemetryRecorder:
        """Cut frame-series telemetry from this pipeline's execution.

        Telemetry rides on metrics: with no registry attached, the
        recorder's registry is attached; a *different* registry already
        attached raises :class:`~repro.errors.ObservabilityError`
        rather than being silently replaced.  The run loop then
        advances the recorder's stream position per pushed tuple/batch
        and finalizes the trailing frame at end-of-run.
        """
        self._observe(self.registry, self.tracer, recorder, prefix)
        return recorder

    def detach_telemetry(self) -> None:
        """Stop cutting frames (the metrics registry stays attached)."""
        self._observe(self.registry, self.tracer, None)

    def pristine(self) -> "Pipeline":
        """A deep, observer-detached copy of this pipeline.

        Sharded execution clones the pipeline once per shard; the clone
        carries whatever operator state this pipeline currently holds
        (call :meth:`run_sharded` on a freshly built pipeline so shards
        start from empty windows) and this pipeline's :attr:`prefix`,
        but never shares metrics objects, the registry, the tracer or
        the recorder with the original.
        """
        attached = (self.registry, self.tracer, self.telemetry)
        self._observe(None, None, None)
        try:
            return copy.deepcopy(self)
        finally:
            self._observe(*attached)

    def reseed(self, seed: int | np.random.SeedSequence) -> None:
        """Re-seed every operator's internal randomness deterministically.

        Operator ``i`` receives spawn child ``i`` of the root
        :class:`~numpy.random.SeedSequence`; stateless operators ignore
        it (the default :meth:`Operator.reseed` is a no-op).
        """
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        for op, child in zip(self.operators, root.spawn(len(self.operators))):
            op.reseed(child)

    @property
    def head(self) -> Operator:
        return self.operators[0]

    @property
    def sink(self) -> Operator:
        return self.operators[-1]

    def push(self, tup: UncertainTuple) -> None:
        """Feed one tuple into the pipeline."""
        self.head.receive(tup)

    def run(self, source: Iterable[UncertainTuple]) -> Operator:
        """Push every tuple from the source, flush, and return the sink."""
        return self._run("run", source, self.head.receive, batched=False)

    def push_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Feed a batch of tuples into the pipeline."""
        if tuples:
            self.head.receive_many(tuples)

    def run_batched(
        self,
        source: Iterable[UncertainTuple],
        batch_size: int = 256,
    ) -> Operator:
        """Like :meth:`run`, but push tuples in batches of ``batch_size``.

        Batch-aware operators (``process_many``) amortize per-tuple
        dispatch and vectorize accuracy computation across the batch;
        every operator falls back to per-tuple processing otherwise, so
        the sink contents are identical to :meth:`run` for any pipeline.

        Uniform-layout sequence sources are columnarized up front
        (:class:`~repro.streams.columnar.ColumnarBatch`) so batches are
        zero-copy column slices and batch-aware operators consume
        columns directly; non-uniform layouts and plain iterables keep
        the tuple-list batching.
        """
        if batch_size < 1:
            raise StreamError(f"batch size must be >= 1, got {batch_size}")
        batches = _batches(source, batch_size)
        return self._run(
            "run_batched", batches, self.head.receive_many, batched=True
        )

    def _run(
        self,
        mode: str,
        items: Iterable,
        push: Callable[[object], None],
        batched: bool,
    ) -> Operator:
        """The run loop behind :meth:`run` and :meth:`run_batched`.

        With observers attached, the one instrumented branch opens the
        run span and every stage span, advances telemetry per pushed
        tuple/batch, then records the run metrics, finalizes the
        trailing frame and closes the spans — in that order, so the
        last frame includes the run counters.
        """
        if self.registry is None and self.tracer is None:
            for item in items:
                push(item)
            self.head.flush()
            return self.sink
        tracer = self.tracer
        telemetry = self.telemetry
        run_span = None
        if tracer is not None:
            run_span = tracer.begin(f"{self.prefix}.{mode}", kind="run")
            for observer in self._observers:
                observer.start_stage(run_span)
        count = 0
        start = perf_counter()
        for item in items:
            push(item)
            pushed = len(item) if batched else 1
            count += pushed
            if telemetry is not None:
                telemetry.advance(pushed)
        self.head.flush()
        if self._run_metrics is not None:
            runs, tuples, seconds = self._run_metrics
            seconds.record(perf_counter() - start)
            tuples.inc(count)
            runs.inc()
        if telemetry is not None:
            telemetry.finalize()
        if run_span is not None:
            for observer in self._observers:
                observer.end_stage()
            tracer.end(run_span, tuples=count)
        return self.sink

    def run_sharded(
        self,
        source: Iterable[UncertainTuple],
        n_workers: int | None = None,
        partition_by: str | Callable[[UncertainTuple], object] | None = None,
        n_shards: int | None = None,
        batch_size: int = 256,
        seed: int | np.random.SeedSequence | None = None,
        merge: str = "auto",
        config: "ParallelConfig | None" = None,
        pool: "WorkerPool | None" = None,
    ) -> Operator:
        """Partition the source, run shards in worker processes, merge.

        The input is hash-partitioned into ``n_shards`` sub-streams
        (``partition_by`` names an attribute or is a key callable;
        ``None`` partitions round-robin), each shard runs through a
        pristine clone of this pipeline via :meth:`run_batched` in a
        worker process, and the per-shard sinks — plus per-worker
        snapshots of whatever observers are attached — are merged back
        into *this* pipeline's sink and observers deterministically.

        ``n_shards`` defaults to the resolved worker count; pin it
        explicitly to make results invariant while the worker count
        varies.  With ``n_workers <= 1`` (or when the pool cannot
        start) the identical shard decomposition runs in-process, so a
        fixed ``seed`` produces identical sink contents at any worker
        count.  See ``docs/PARALLELISM.md`` for the full contract and
        the sink merge semantics (``merge`` in ``{"auto",
        "interleave", "concat"}``).

        Only :class:`CollectSink` / :class:`CountingSink` terminals can
        be merged; other sinks raise :class:`StreamError`.
        """
        from repro.parallel.sharded import run_sharded as _run_sharded

        sink = self.sink
        if not isinstance(sink, (CollectSink, CountingSink)):
            raise StreamError(
                f"run_sharded needs a CollectSink or CountingSink "
                f"terminal operator; got {type(sink).__name__}"
            )
        result = _run_sharded(
            self,
            source,
            n_workers=n_workers,
            partition_by=partition_by,
            n_shards=n_shards,
            batch_size=batch_size,
            seed=seed,
            merge=merge,
            config=config,
            pool=pool,
        )
        if isinstance(sink, CountingSink):
            sink.count += result.merged_count()
        else:
            # process_many stores the merged chunk as received, keeping
            # a columnar merge columnar in the parent sink.
            sink.process_many(result.merged_results())
        result.merge_observers(self.registry, self.tracer, self.telemetry)
        return sink


def _batches(
    source: Iterable[UncertainTuple], batch_size: int
) -> Iterator[Sequence[UncertainTuple]]:
    """``source`` in batches of ``batch_size``: zero-copy column slices
    for a columnarizable sequence, tuple lists otherwise."""
    if isinstance(source, Sequence):
        columnar = as_columnar(source)
        if columnar is not None:
            source = columnar
    if isinstance(source, ColumnarBatch):
        total = len(source)
        for a in range(0, total, batch_size):
            yield source.slice(a, min(a + batch_size, total))
        return
    batch: list[UncertainTuple] = []
    for tup in source:
        batch.append(tup)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
