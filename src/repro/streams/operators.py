"""Push-based stream operators.

Operators form a linear pipeline (fan-in/fan-out are expressed by running
several pipelines over the same source).  Each operator receives a tuple,
does its work, and pushes zero or more tuples downstream; ``flush``
propagates end-of-stream so windowed operators can drain.

The two filters embody the paper's two predicate styles:

* :class:`ProbabilisticFilter` — classic probability-threshold semantics:
  the tuple's membership probability is multiplied by P[predicate].
* :class:`SignificanceFilter` — the paper's significance predicates with
  coupled error-rate control (§IV): TRUE keeps the tuple, FALSE drops it,
  and UNSURE is kept or dropped by policy.
"""

from __future__ import annotations

import abc
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from time import perf_counter

import numpy as np

from repro.core.analytic import accuracy_from_moments
from repro.core.coupled import ThreeValued, coupled_tests
from repro.core.dfsample import DfSized
from repro.core.predicates import SignificancePredicate
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.obs.instrument import OperatorObserver
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.streams.columnar import (
    EXACT_SIZE,
    ColumnarBatch,
    GaussianDfColumn,
    _infer_column,
    as_columnar,
    gaussian_column_of,
)
from repro.streams.rolling import DEFAULT_RESUM_INTERVAL, RollingWindowStats
from repro.streams.tuples import UncertainTuple
from repro.streams.windows import CountWindow

__all__ = [
    "Operator",
    "Select",
    "Project",
    "Derive",
    "ProbabilisticFilter",
    "SignificanceFilter",
    "SlidingGaussianAverage",
    "WindowAggregate",
    "TimeWindowAggregate",
    "RollingLearnOperator",
    "CollectSink",
    "CountingSink",
]


class Operator(abc.ABC):
    """Base class: process tuples, push results to the downstream operator.

    Entry points (:meth:`receive`, :meth:`receive_many`, :meth:`emit`,
    :meth:`emit_many`, :meth:`flush`) double as observability hooks:
    while an :class:`~repro.obs.instrument.OperatorObserver` is attached
    (via :meth:`attach`, usually through ``Pipeline(registry=...,
    tracer=...)``) they record tuples in/out, wall time per call, batch
    sizes and — with a tracer — stage/batch spans and provenance.  With
    nothing attached each hook is a single ``is None`` check, so the
    uninstrumented hot path is unchanged.

    Subclasses implement :meth:`process` (one tuple) and may override
    :meth:`process_many` (one batch) — not the ``receive*`` entry points,
    which own the instrumentation.
    """

    #: Attribute whose accuracy the operator reports on emitted tuples
    #: (an :class:`~repro.core.accuracy.AccuracyInfo` or a
    #: :class:`~repro.core.dfsample.DfSized`).  ``None`` disables the
    #: interval-width/sample-size histograms.
    accuracy_attribute: str | None = None

    #: Set by operators holding drift-guarded rolling state
    #: (:mod:`repro.streams.rolling`): registers the per-operator
    #: ``rolling.resums`` counter and ``rolling.drift`` histogram, which
    #: :meth:`attach` binds to every state in :meth:`rolling_states`.
    rolling_metrics: bool = False

    #: Set by operators with meaningful retained state: registers the
    #: per-operator ``state.bytes`` gauge, sampled from
    #: :meth:`state_bytes` on every :meth:`flush` (opt-in, like
    #: ``rolling_metrics``, so stateless operators pay nothing).
    memory_metrics: bool = False

    def __init__(self) -> None:
        self._downstream: Operator | None = None
        self._observer: OperatorObserver | None = None

    def connect(self, downstream: "Operator") -> "Operator":
        """Attach (and return) the downstream operator, enabling chaining."""
        self._downstream = downstream
        return downstream

    def attach(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        name: str | None = None,
        index: int = 0,
    ) -> OperatorObserver:
        """Start recording metrics into ``registry`` and/or spans into
        ``tracer`` under stage ``name`` / ``index``."""
        if name is None:
            name = type(self).__name__.lstrip("_")
        self._observer = OperatorObserver(
            name,
            index,
            self.accuracy_attribute,
            registry,
            tracer,
            rolling=self.rolling_metrics,
            memory=self.memory_metrics,
        )
        for state in self.rolling_states():
            self._bind_rolling(state)
        return self._observer

    def detach(self) -> None:
        """Stop recording (recorded values and spans are kept) and unbind
        the rolling states, so that copies of a detached operator never
        drag registry objects into worker processes."""
        self._observer = None
        for state in self.rolling_states():
            self._bind_rolling(state)

    def attach_metrics(
        self, registry: MetricsRegistry, name: str | None = None
    ) -> OperatorObserver:
        """Shorthand for :meth:`attach` with a registry only."""
        return self.attach(registry, name=name)

    def rolling_states(self) -> Iterable:
        """The drift-guarded rolling states this operator holds.

        Operators with ``rolling_metrics = True`` return each state that
        has ``set_metrics``; :meth:`attach` binds them and
        :meth:`detach` unbinds them.
        """
        return ()

    def _bind_rolling(self, state) -> None:
        """Bind one rolling state to the attached drift-guard metrics,
        or unbind it when there are none."""
        observer = self._observer
        if observer is None or observer.rolling_resums is None:
            state.set_metrics(None, None)
        else:
            state.set_metrics(
                observer.rolling_resums, observer.rolling_drift
            )

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object] | None:
        """Accuracy lineage of one *emitted* tuple, for provenance.

        Accuracy-producing operators override this to report the named
        input sample sizes behind the emitted accuracy attribute and the
        Lemma-3 minimum that became the de facto size (usually via
        :func:`~repro.obs.provenance.lineage_from_operands`).  Must be a
        pure function of the emitted tuple — never of operator state —
        so the per-tuple and batched paths record identical lineage.
        """
        return None

    def reseed(self, seed: object) -> None:
        """Replace internal randomness from a ``numpy`` seed sequence.

        Sharded execution calls this with a distinct
        ``np.random.SeedSequence`` per operator per shard
        (:meth:`Pipeline.reseed`).  Operators holding a generator should
        override it with ``self._rng = np.random.default_rng(seed)``;
        the default is a no-op because most operators are deterministic.
        """

    def emit(self, tup: UncertainTuple) -> None:
        observer = self._observer
        if observer is not None:
            observer.emitted(self, (tup,))
        if self._downstream is not None:
            self._downstream.receive(tup)

    def emit_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Push a whole batch downstream (batch-aware operators)."""
        if not tuples:
            return
        observer = self._observer
        if observer is not None:
            observer.emitted(self, tuples)
        if self._downstream is not None:
            self._downstream.receive_many(tuples)

    def receive(self, tup: UncertainTuple) -> None:
        observer = self._observer
        if observer is None:
            self.process(tup)
            return
        observer.tuples_in.inc()
        start = perf_counter()
        try:
            self.process(tup)
        finally:
            observer.process_seconds.record(perf_counter() - start)

    def receive_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Handle a batch of tuples (``Pipeline.run_batched``)."""
        observer = self._observer
        if observer is None:
            self.process_many(tuples)
            return
        span = observer.begin_batch(len(tuples))
        out_before = observer.tuples_out.value
        start = perf_counter()
        try:
            self.process_many(tuples)
        finally:
            observer.batch_seconds.record(perf_counter() - start)
            if span is not None:
                observer.tracer.end(
                    span, emitted=observer.tuples_out.value - out_before
                )

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Batch-processing hook behind :meth:`receive_many`.

        The default falls back to per-tuple :meth:`process`, but collects
        everything the operator emits and hands it downstream as one
        batch, so batch-aware operators further down the chain still see
        batches.  Operators are order-preserving, hence the sink contents
        are identical to the per-tuple path.
        """
        downstream = self._downstream
        if downstream is None:
            for tup in tuples:
                self.process(tup)
            return
        collector = _BatchCollector()
        self._downstream = collector
        try:
            for tup in tuples:
                self.process(tup)
        finally:
            self._downstream = downstream
        if collector.batch:
            downstream.receive_many(collector.batch)

    @abc.abstractmethod
    def process(self, tup: UncertainTuple) -> None:
        """Handle one input tuple (call :meth:`emit` for each output)."""

    def flush(self) -> None:
        """Propagate end-of-stream; override ``on_flush`` to drain state."""
        observer = self._observer
        if observer is None:
            self.on_flush()
        else:
            start = perf_counter()
            try:
                self.on_flush()
            finally:
                observer.flush_seconds.record(perf_counter() - start)
            if observer.memory:
                retained = self.state_bytes()
                if retained is not None:
                    observer.record_state_bytes(retained)
        if self._downstream is not None:
            self._downstream.flush()

    def on_flush(self) -> None:
        """Hook for subclasses with buffered state."""

    def state_bytes(self) -> int | None:
        """Approximate bytes of retained operator state, or ``None``.

        Operators with ``memory_metrics = True`` override this; the
        value is sampled into the ``{op}.state.bytes`` gauge on every
        :meth:`flush` (not per tuple — sizing state can be O(state)).
        """
        return None


class _BatchCollector(Operator):
    """Internal sink that buffers emitted tuples during a batch step."""

    def __init__(self) -> None:
        super().__init__()
        self.batch: list[UncertainTuple] = []

    def process(self, tup: UncertainTuple) -> None:
        self.batch.append(tup)


class Select(Operator):
    """Keeps tuples for which ``predicate(tuple)`` is truthy."""

    def __init__(self, predicate: Callable[[UncertainTuple], bool]) -> None:
        super().__init__()
        self.predicate = predicate

    def process(self, tup: UncertainTuple) -> None:
        if self.predicate(tup):
            self.emit(tup)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        predicate = self.predicate
        if isinstance(tuples, ColumnarBatch):
            # The predicate is a black box, so rows materialize for the
            # test — but survivors stay columnar downstream.
            kept = [i for i, tup in enumerate(tuples) if predicate(tup)]
            if len(kept) == len(tuples):
                self.emit_many(tuples)
            else:
                self.emit_many(tuples.take(kept))
            return
        self.emit_many([tup for tup in tuples if predicate(tup)])


class Project(Operator):
    """Keeps only the named attributes."""

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__()
        if not names:
            raise StreamError("projection needs at least one attribute")
        self.names = tuple(names)

    def process(self, tup: UncertainTuple) -> None:
        projected = {name: tup.value(name) for name in self.names}
        self.emit(tup.with_attributes(projected))

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        names = self.names
        if isinstance(tuples, ColumnarBatch) and all(
            name in tuples.names for name in names
        ):
            self.emit_many(tuples.project(names))
            return
        # Missing attributes raise the canonical per-tuple SchemaError.
        self.emit_many(
            [
                tup.with_attributes(
                    {name: tup.value(name) for name in names}
                )
                for tup in tuples
            ]
        )


class Derive(Operator):
    """Adds a computed attribute ``name = fn(tuple)``."""

    def __init__(
        self, name: str, fn: Callable[[UncertainTuple], object]
    ) -> None:
        super().__init__()
        self.name = name
        self.fn = fn

    def process(self, tup: UncertainTuple) -> None:
        self.emit(tup.with_value(self.name, self.fn(tup)))

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        fn = self.fn
        if isinstance(tuples, ColumnarBatch):
            values = [fn(tup) for tup in tuples]
            self.emit_many(
                tuples.with_column(self.name, _infer_column(values))
            )
            return
        name = self.name
        self.emit_many([tup.with_value(name, fn(tup)) for tup in tuples])


class ProbabilisticFilter(Operator):
    """Probability-threshold filtering (possible-world semantics).

    ``probability_fn(tuple)`` returns P[predicate holds] for the tuple; the
    output tuple's membership probability is scaled by it.  Tuples whose
    resulting probability falls below ``threshold`` are dropped (the
    default threshold 0 keeps every tuple with positive probability —
    plain possible-world semantics).
    """

    def __init__(
        self,
        probability_fn: Callable[[UncertainTuple], float],
        threshold: float = 0.0,
    ) -> None:
        super().__init__()
        if not 0.0 <= threshold <= 1.0:
            raise StreamError(
                f"probability threshold must be in [0,1], got {threshold}"
            )
        self.probability_fn = probability_fn
        self.threshold = threshold

    def process(self, tup: UncertainTuple) -> None:
        q = float(self.probability_fn(tup))
        if not 0.0 <= q <= 1.0:
            raise StreamError(
                f"predicate probability must be in [0,1], got {q}"
            )
        scaled = tup.scaled(q)
        if scaled.probability > self.threshold:
            self.emit(scaled)


class SignificanceFilter(Operator):
    """Filters by a significance predicate with coupled error-rate control.

    ``predicate_factory(tuple)`` binds the test to the tuple's fields; the
    coupled decision keeps TRUE tuples, drops FALSE ones, and treats UNSURE
    per ``keep_unsure``.  Decisions are counted for observability.
    """

    def __init__(
        self,
        predicate_factory: Callable[[UncertainTuple], SignificancePredicate],
        alpha1: float = 0.05,
        alpha2: float = 0.05,
        keep_unsure: bool = False,
    ) -> None:
        super().__init__()
        self.predicate_factory = predicate_factory
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.keep_unsure = keep_unsure
        self.decisions: Counter[ThreeValued] = Counter()

    def process(self, tup: UncertainTuple) -> None:
        predicate = self.predicate_factory(tup)
        outcome = coupled_tests(predicate, self.alpha1, self.alpha2)
        self.decisions[outcome.value] += 1
        keep = outcome.value is ThreeValued.TRUE or (
            outcome.value is ThreeValued.UNSURE and self.keep_unsure
        )
        if keep:
            self.emit(tup)


class SlidingGaussianAverage(Operator):
    """Count-based sliding-window AVG over a Gaussian attribute (§V-C).

    Maintains compensated running sums of the window members' means and
    variances (:class:`~repro.streams.rolling.RollingWindowStats`), so
    each arrival costs O(1) with drift-guarded accuracy; the result
    attribute is the exact Gaussian of the average of independent
    Gaussians, tagged with the window's minimum input sample size
    (Lemma 3: the d.f. sample size of the AVG).
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        window_size: int,
        output: str = "avg",
        emit_partial: bool = True,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__()
        if window_size < 1:
            raise StreamError(f"window size must be >= 1, got {window_size}")
        self.attribute = attribute
        self.window_size = window_size
        self.output = output
        self.accuracy_attribute = output
        self.emit_partial = emit_partial
        self._stats = RollingWindowStats(resum_interval)

    def rolling_states(self) -> Iterable:
        return (self._stats,)

    def _skipped(self, slides: int) -> int:
        """Leading slides of a run of ``slides`` left below a full window
        (dropped when ``emit_partial`` is off); call before sliding."""
        if self.emit_partial:
            return 0
        return min(slides, max(0, self.window_size - self._stats.count - 1))

    def process(self, tup: UncertainTuple) -> None:
        # The scalar path is the batched kernel on a length-1 run.
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        if not isinstance(dist, GaussianDistribution):
            raise StreamError(
                f"SlidingGaussianAverage needs Gaussian attributes, got "
                f"{type(dist).__name__}"
            )
        skipped = self._skipped(1)
        mus, variances, dfs = self._stats.slide(
            (dist.mu,), (dist.sigma2,), (field.sample_size,), self.window_size
        )
        if not skipped:
            avg = GaussianDistribution(mus[0], variances[0])
            self.emit(tup.with_value(self.output, DfSized(avg, dfs[0])))

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        column = gaussian_column_of(tuples, self.attribute)
        if column is None:
            # Tuple lists (and non-Gaussian columns) slide per tuple.
            super().process_many(tuples)
            return
        skipped = self._skipped(len(column))
        mus, variances, dfs = self._stats.slide(
            *column.moments(), self.window_size
        )
        out_mu = np.array(mus[skipped:], dtype=np.float64)
        out_var = np.array(variances[skipped:], dtype=np.float64)
        bad = ~(np.isfinite(out_mu) & np.isfinite(out_var)) | (out_var < 0.0)
        for i in np.flatnonzero(bad):  # canonical per-row error
            GaussianDistribution(float(out_mu[i]), float(out_var[i]))
        dfs = dfs[skipped:]
        if None in dfs:
            dfs = [EXACT_SIZE if n is None else n for n in dfs]
        batch = tuples.slice(skipped, len(tuples)) if skipped else tuples
        self.emit_many(
            batch.with_column(
                self.output,
                GaussianDfColumn(
                    out_mu, out_var, np.array(dfs, dtype=np.int64)
                ),
            )
        )

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


def _window_lineage(
    tup: UncertainTuple, attribute: str, output: str
) -> dict[str, object]:
    """Lineage of a windowed aggregate from the *emitted* tuple alone.

    The emitted tuple still carries the newest window member under
    ``attribute`` and the aggregate under ``output``, whose Lemma-3
    ``sample_size`` is the window's minimum — so the de facto size is
    readable without touching operator state (which would be stale for
    all but the last tuple of a batched ``emit_many``).
    """
    out = tup.attributes.get(output)
    df_size = out.sample_size if isinstance(out, DfSized) else None
    field = tup.attributes.get(attribute)
    newest = field.sample_size if isinstance(field, DfSized) else None
    return {
        "kind": "window",
        "inputs": {attribute: newest},
        "df_size": df_size,
        "min_input": (
            attribute
            if df_size is not None and newest == df_size
            else None
        ),
    }


_SCALAR_AGGS = ("avg", "sum", "count", "min", "max")


def _aggregate_value(stats: RollingWindowStats, agg: str) -> object:
    """Aggregate value of one window from its rolling statistics.

    Shared by :class:`WindowAggregate`, :class:`TimeWindowAggregate`,
    and :class:`~repro.streams.groupby.GroupedAggregate` — the moment
    algebra (sum/avg propagate mean and variance under independence,
    with the window's Lemma-3 minimum sample size) is identical across
    the three, only the eviction policy differs.
    """
    k = stats.count
    if agg == "count":
        return float(k)
    if agg == "min":
        return stats.min_mean
    if agg == "max":
        return stats.max_mean
    df_size = stats.df_size
    if agg == "sum":
        return DfSized(
            GaussianDistribution(stats.mean_sum, stats.var_sum), df_size
        )
    return DfSized(
        GaussianDistribution(stats.mean_sum / k, stats.var_sum / (k * k)),
        df_size,
    )


class WindowAggregate(Operator):
    """Generic count-based sliding aggregate over attribute means.

    Works on any distribution-valued or numeric attribute by aggregating
    the per-tuple expected values.  ``avg``/``sum`` additionally propagate
    variance (independence assumption), emitting a Gaussian approximation
    justified by the CLT for wide windows; ``min``/``max``/``count`` emit
    deterministic values.

    Every slide is O(1) amortized: sums are compensated running sums
    with a drift guard, ``min``/``max`` use monotonic deques, and the
    Lemma-3 minimum sample size is tracked by counter
    (:mod:`repro.streams.rolling`) — no per-tuple list rebuilds.
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        window_size: int,
        agg: str = "avg",
        output: str | None = None,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__()
        if agg not in _SCALAR_AGGS:
            raise StreamError(
                f"unknown aggregate {agg!r}; expected one of {_SCALAR_AGGS}"
            )
        if window_size < 1:
            raise StreamError(f"window size must be >= 1, got {window_size}")
        self.attribute = attribute
        self.window_size = window_size
        self.agg = agg
        self.output = output if output is not None else agg
        self.accuracy_attribute = self.output
        self._stats = RollingWindowStats(
            resum_interval, track_extrema=agg in ("min", "max")
        )

    def rolling_states(self) -> Iterable:
        return (self._stats,)

    def _slide(
        self, mean: float, variance: float, size: int | None
    ) -> object:
        """Slide the window by one member; the aggregate value after it."""
        stats = self._stats
        stats.push(mean, variance, size)
        if stats.count > self.window_size:
            stats.evict_oldest()
        return _aggregate_value(stats, self.agg)

    def process(self, tup: UncertainTuple) -> None:
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        value = self._slide(dist.mean(), dist.variance(), field.sample_size)
        self.emit(tup.with_value(self.output, value))

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        column = gaussian_column_of(tuples, self.attribute)
        if column is None:
            super().process_many(tuples)
            return
        # Gaussian mean()/variance() are mu/sigma2, so the columns feed
        # the rolling sums directly, in order.
        outputs = [self._slide(*row) for row in zip(*column.moments())]
        self.emit_many(
            tuples.with_column(self.output, _infer_column(outputs))
        )

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


class CollectSink(Operator):
    """Terminal operator collecting every tuple it receives.

    Batches arrive either as tuple lists or as
    :class:`~repro.streams.columnar.ColumnarBatch` blocks; both are
    stored as received, so a columnar pipeline never materializes
    per-tuple objects just to be collected.  :attr:`results` flattens to
    ``list[UncertainTuple]`` on demand (and stays a plain mutable list
    for callers that extend it, e.g. the sharded merge);
    :meth:`columnar_result` hands back the column blocks for transport.
    """

    def __init__(self) -> None:
        super().__init__()
        self._chunks: list[object] = []
        self._flat: list[UncertainTuple] = []
        self._flat_count = 0

    @property
    def results(self) -> list[UncertainTuple]:
        """Everything collected so far, as materialized tuples."""
        flat = self._flat
        chunks = self._chunks
        for i in range(self._flat_count, len(chunks)):
            chunk = chunks[i]
            if isinstance(chunk, UncertainTuple):
                flat.append(chunk)
            else:
                flat.extend(chunk)
        self._flat_count = len(chunks)
        return flat

    def columnar_result(self) -> "ColumnarBatch | None":
        """Collected tuples as one columnar batch, if representable."""
        chunks = self._chunks
        if chunks and all(
            isinstance(chunk, ColumnarBatch) for chunk in chunks
        ):
            try:
                return ColumnarBatch.concat(chunks)
            except StreamError:
                pass
        return as_columnar(self.results)

    def process(self, tup: UncertainTuple) -> None:
        self._chunks.append(tup)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        if isinstance(tuples, ColumnarBatch):
            self._chunks.append(tuples)
        else:
            self._chunks.append(list(tuples))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterable[UncertainTuple]:
        return iter(self.results)


class CountingSink(Operator):
    """Terminal operator that only counts tuples (throughput benchmarks)."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def process(self, tup: UncertainTuple) -> None:
        self.count += 1

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        self.count += len(tuples)


class TimeWindowAggregate(Operator):
    """Time-based sliding aggregate over attribute means.

    Keeps the tuples whose timestamps fall within ``duration`` of the
    newest arrival and emits the updated aggregate per arrival.  Tuples
    must carry non-decreasing timestamps.  Moment propagation matches
    :class:`WindowAggregate` (sum/avg emit Gaussian approximations with
    the window's minimum sample size; count/min/max are deterministic),
    as does the cost model: O(1) amortized per slide on the rolling
    kernels of :mod:`repro.streams.rolling`.
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        duration: float,
        agg: str = "avg",
        output: str | None = None,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__()
        if agg not in _SCALAR_AGGS:
            raise StreamError(
                f"unknown aggregate {agg!r}; expected one of {_SCALAR_AGGS}"
            )
        if duration <= 0:
            raise StreamError(f"duration must be > 0, got {duration}")
        self.attribute = attribute
        self.duration = duration
        self.agg = agg
        self.output = output if output is not None else agg
        self.accuracy_attribute = self.output
        self._stats = RollingWindowStats(
            resum_interval, track_extrema=agg in ("min", "max")
        )

    def rolling_states(self) -> Iterable:
        return (self._stats,)

    def _slide(
        self, mean: float, variance: float, size: int | None, ts: float
    ) -> object:
        """Slide the window to timestamp ``ts``; the aggregate after it."""
        stats = self._stats
        newest = stats.newest_timestamp
        if newest is not None and ts < newest:
            raise StreamError(
                f"timestamps must be non-decreasing: {ts} after {newest}"
            )
        stats.push(mean, variance, size, timestamp=ts)
        stats.evict_expired(ts - self.duration)
        return _aggregate_value(stats, self.agg)

    def process(self, tup: UncertainTuple) -> None:
        if tup.timestamp is None:
            raise StreamError(
                "TimeWindowAggregate needs timestamped tuples"
            )
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        value = self._slide(
            dist.mean(), dist.variance(), field.sample_size, tup.timestamp
        )
        self.emit(tup.with_value(self.output, value))

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        column = gaussian_column_of(tuples, self.attribute)
        if column is None or not isinstance(tuples.timestamps, np.ndarray):
            super().process_many(tuples)
            return
        outputs = [
            self._slide(*row)
            for row in zip(*column.moments(), tuples.timestamps.tolist())
        ]
        self.emit_many(
            tuples.with_column(self.output, _infer_column(outputs))
        )

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


class RollingLearnOperator(Operator):
    """Sliding-window distribution learning in O(1) amortized per slide.

    Consumes raw numeric observations and maintains a learner fit over
    the most recent ``window_size`` of them through the incremental
    hooks (:meth:`~repro.learning.base.Learner.partial_add` /
    :meth:`~repro.learning.base.Learner.partial_evict`): each slide
    updates sufficient statistics instead of refitting from scratch.
    Per emitted tuple the ``output`` attribute carries the learned
    distribution (a :class:`~repro.core.dfsample.DfSized` whose sample
    size is the window fill ``k``) and ``accuracy_output`` carries the
    Lemma 1/2 accuracy (:class:`~repro.core.accuracy.AccuracyInfo`) of
    that fit at ``confidence``.

    ``learner`` is a registry name (resolved through
    :func:`~repro.learning.registry.make_rolling_learner`, which rejects
    learners without incremental support) or a learner instance with
    ``supports_partial``.  When the learner is ``partial_vectorizable``,
    batches take the vectorized Theorem-1 path
    (:func:`~repro.core.analytic.accuracy_from_moments`) — element-wise
    identical to the per-tuple path.
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        window_size: int,
        learner: object = "gaussian",
        output: str = "learned",
        accuracy_output: str | None = "accuracy",
        confidence: float = 0.95,
        emit_partial: bool = True,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
        **learner_kwargs: object,
    ) -> None:
        super().__init__()
        if window_size < 2:
            raise StreamError(
                f"rolling learning needs window size >= 2, got {window_size}"
            )
        if not 0.0 < confidence < 1.0:
            raise StreamError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if isinstance(learner, str):
            from repro.learning.registry import make_rolling_learner

            learner = make_rolling_learner(learner, **learner_kwargs)
        else:
            if learner_kwargs:
                raise StreamError(
                    "learner keyword arguments need a learner name, "
                    "not an instance"
                )
            if not getattr(learner, "supports_partial", False):
                raise StreamError(
                    f"{type(learner).__name__} does not support "
                    f"incremental (partial_add/partial_evict) learning"
                )
        self.attribute = attribute
        self.window_size = window_size
        self.learner = learner
        self.output = output
        self.accuracy_output = accuracy_output
        self.accuracy_attribute = (
            accuracy_output if accuracy_output is not None else output
        )
        self.confidence = confidence
        self.emit_partial = emit_partial
        # Self-evicting learners (bounded-memory sketch synopses) expire
        # their own oldest content, so the operator keeps a fill counter
        # instead of an O(window) value buffer — the buffer would defeat
        # the whole memory bound.
        self._window: CountWindow[float] | None = (
            None
            if getattr(learner, "partial_self_evicting", False)
            else CountWindow(window_size)
        )
        self._fill = 0
        self._state = learner.partial_begin(resum_interval)

    def rolling_states(self) -> Iterable:
        return (self._state,)

    def _slide(self, tup: UncertainTuple) -> int | None:
        """Add the observation, evict the expired one; emit fill or None."""
        value = tup.value(self.attribute)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StreamError(
                f"RollingLearnOperator needs raw numeric observations, "
                f"attribute {self.attribute!r} is {type(value).__name__}"
            )
        value = float(value)
        self.learner.partial_add(self._state, value)
        if self._window is not None:
            evicted = self._window.add(value)
            if evicted is not None:
                self.learner.partial_evict(self._state, evicted)
            k = len(self._window)
            full = self._window.is_full
        else:
            if self._fill >= self.window_size:
                self.learner.partial_evict(self._state, None)
            else:
                self._fill += 1
            k = self._fill
            full = k >= self.window_size
        if k < 2:
            return None
        if not self.emit_partial and not full:
            return None
        return k

    def _advance(self, tup: UncertainTuple) -> UncertainTuple | None:
        k = self._slide(tup)
        if k is None:
            return None
        learned = DfSized(self.learner.partial_distribution(self._state), k)
        out = tup.with_value(self.output, learned)
        if self.accuracy_output is not None:
            accuracy = self.learner.partial_accuracy(
                self._state, self.confidence
            )
            out = out.with_value(self.accuracy_output, accuracy)
        return out

    def process(self, tup: UncertainTuple) -> None:
        out = self._advance(tup)
        if out is not None:
            self.emit(out)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        if self.accuracy_output is None or not self.learner.partial_vectorizable:
            super().process_many(tuples)
            return
        # Vectorized path: collect the per-slide moments, then build all
        # accuracy infos in one Theorem-1 pass (element-wise identical
        # to the scalar path — same memoized quantiles, same FP order).
        staged: list[UncertainTuple] = []
        moments: list[tuple[float, float, int]] = []
        for tup in tuples:
            k = self._slide(tup)
            if k is None:
                continue
            learned = DfSized(self.learner.partial_distribution(self._state), k)
            staged.append(tup.with_value(self.output, learned))
            moments.append(self.learner.partial_moments(self._state))
        if staged:
            infos = accuracy_from_moments(*zip(*moments), self.confidence)
            self.emit_many(
                [
                    tup.with_value(self.accuracy_output, info)
                    for tup, info in zip(staged, infos)
                ]
            )

    def state_bytes(self) -> int:
        """Learner state plus (for buffering learners) the value window."""
        total = getattr(self._state, "nbytes", 0) or 0
        if self._window is not None:
            # deque of boxed floats: ~88 bytes per buffered observation.
            total += 64 + len(self._window) * 88
        return total

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        learned = tup.attributes.get(self.output)
        fill = (
            learned.sample_size if isinstance(learned, DfSized) else None
        )
        return {
            "kind": "learned-window",
            "inputs": {self.attribute: fill},
            "df_size": fill,
            "min_input": self.attribute,
            "window_fill": fill,
        }
