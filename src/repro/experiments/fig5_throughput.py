"""Figures 5(c) and 5(f): stream throughput impact (§V-C, §V-D).

The workload follows the paper: for each stream item 20 raw data points
are generated and a Gaussian is learned from them; the query is a
count-based sliding-window AVG with window size 1000, whose result is
again a Gaussian.  We measure maximum throughput (tuples/second) for:

* 5(c): query processing only; + analytical accuracy info (Lemma 2 on the
  window result); + bootstrap accuracy info.
* 5(f): no significance predicate; + coupled mTest; + coupled mdTest
  (current window mean vs previous result's); + coupled pTest
  (P[avg > c] > 0.8).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.adaptive import (
    DEFAULT_GROWTH,
    DEFAULT_INITIAL_RESAMPLES,
    adaptive_bootstrap_accuracy_info,
    resample_schedule,
    width_calibration,
)
from repro.core.analytic import distribution_accuracy, moment_intervals
from repro.core.bootstrap import (
    _resample_statistics,
    bootstrap_accuracy_info,
    bootstrap_intervals,
    percentile_intervals,
)
from repro.core.coupled import coupled_tests
from repro.core.predicates import FieldStats, MdTest, MTest, PTest
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.harness import render_table
from repro.learning.gaussian_learner import GaussianLearner
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import lineage_from_operands
from repro.obs.timeseries import TelemetryRecorder
from repro.obs.trace import Tracer
from repro.streams.columnar import (
    AccuracyColumn,
    ArrayColumn,
    ColumnarBatch,
    GaussianDfColumn,
    ObjectColumn,
    gaussian_column_of,
)
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CountingSink,
    Operator,
    SlidingGaussianAverage,
)
from repro.streams.throughput import measure_throughput
from repro.streams.tuples import UncertainTuple

__all__ = ["ThroughputResult", "run_fig5c", "run_fig5f"]

RAW_POINTS_PER_ITEM = 20
WINDOW_SIZE = 1000
# Batch size for the vectorized execution path (Pipeline.run_batched).
BATCH_SIZE = 256
# Shard count for the process-pool path (Pipeline.run_sharded).  Pinned
# independently of the worker count so sharded results are identical
# whether 1, 2, or 4 workers execute the shards (the determinism
# contract of repro.parallel); 4 matches the headline 4-worker setup.
N_SHARDS = 4


@dataclasses.dataclass
class ThroughputResult:
    """Throughput (tuples/second) per configuration, in listed order."""

    label: str
    throughputs: dict[str, float]

    def render(self) -> str:
        rows = [[name, int(tput)] for name, tput in self.throughputs.items()]
        return render_table(
            ["configuration", "tuples/second"], rows, title=self.label
        )

    def relative(self) -> dict[str, float]:
        """Throughput normalised by the first (baseline) configuration."""
        baseline = next(iter(self.throughputs.values()))
        return {
            name: tput / baseline for name, tput in self.throughputs.items()
        }


def _make_stream(
    n_items: int, seed: int, mean: float = 100.0, std: float = 10.0
) -> list[UncertainTuple]:
    """Stream items carrying 20 raw data points each (paper §V-C).

    Learning the Gaussian from the raw points is *query-processing work*
    ("the query processor learns a Gaussian distribution from them"), so
    it happens inside the pipeline, not here.
    """
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {"item": i, "points": rng.normal(mean, std, RAW_POINTS_PER_ITEM)}
        )
        for i in range(n_items)
    ]


class _LearnGaussian(Operator):
    """Learns a Gaussian attribute from each tuple's raw points (QP step)."""

    def __init__(self, points_attribute: str, output: str) -> None:
        super().__init__()
        self.points_attribute = points_attribute
        self.output = output
        self._learner = GaussianLearner()

    def process(self, tup: UncertainTuple) -> None:
        points = tup.value(self.points_attribute)
        fitted = self._learner.learn(points)  # type: ignore[arg-type]
        self.emit(tup.with_value(self.output, fitted.as_dfsized()))

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # The raw points of a columnar batch sit in one (batch, k)
        # matrix: learn every row in two NumPy reductions, emit columns.
        # Anything else learns per tuple.
        column = (
            tuples.column(self.points_attribute)
            if isinstance(tuples, ColumnarBatch)
            else None
        )
        if not isinstance(column, ArrayColumn) or column.matrix.shape[1] < 2:
            super().process_many(tuples)
            return
        matrix = column.matrix
        mus = matrix.mean(axis=1)
        sigma2s = matrix.var(axis=1, ddof=1)
        if not (np.isfinite(mus).all() and np.isfinite(sigma2s).all()):
            for i in range(len(mus)):  # canonical per-row error
                GaussianDistribution(float(mus[i]), float(sigma2s[i]))
        sizes = np.full(len(mus), matrix.shape[1], dtype=np.int64)
        self.emit_many(
            tuples.with_column(
                self.output, GaussianDfColumn(mus, sigma2s, sizes)
            )
        )


class _AnalyticAccuracy(Operator):
    """Attaches analytic accuracy info to the window-average field."""

    accuracy_attribute = "accuracy"

    def __init__(self, attribute: str, confidence: float = 0.9) -> None:
        super().__init__()
        self.attribute = attribute
        self.confidence = confidence

    def process(self, tup: UncertainTuple) -> None:
        field = tup.dfsized(self.attribute)
        if field.sample_size is not None and field.sample_size >= 2:
            tup = tup.with_value(
                "accuracy",
                distribution_accuracy(
                    field.distribution, field.sample_size, self.confidence
                ),
            )
        self.emit(tup)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Vectorized Theorem 1 when every row of a columnar batch is
        # eligible: one Lemma-2 pass over the (mu, sigma2, n) columns,
        # accuracy as interval arrays.  Anything else goes per tuple.
        column = gaussian_column_of(tuples, self.attribute)
        if column is None or not len(column) or (column.sizes < 2).any():
            super().process_many(tuples)
            return
        mean_lo, mean_hi, var_lo, var_hi, sizes = moment_intervals(
            column.mu, column.sigma2, column.sizes, self.confidence
        )
        accuracy = AccuracyColumn.from_bounds(
            mean_lo, mean_hi, var_lo, var_hi, sizes, self.confidence
        )
        self.emit_many(tuples.with_column("accuracy", accuracy))

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        # Theorem 1 over the window average: the de facto size of the
        # result is the Lemma-3 min over the named operands (here one).
        return lineage_from_operands(
            {self.attribute: tup.attributes.get(self.attribute)}
        )


class _BootstrapAccuracy(Operator):
    """Attaches bootstrap accuracy info to the window-average field.

    With a width target (``target_ci_width`` / ``target_relative_width``)
    the fixed ``resamples`` budget becomes a cap and draws escalate
    adaptively (:mod:`repro.core.adaptive`).  Two slide-to-slide reuse
    layers ride on top, mirroring how the rolling layer reuses window
    aggregates:

    * **warm start** — consecutive window slides need nearly the same
      budget, so each tuple's schedule starts one growth step below the
      previous tuple's stopping point instead of back at ``r0``;
    * **identical-parameter cache** — a slide that leaves the window
      result (mu, sigma2, n) bit-identical reuses the previous
      AccuracyInfo outright, drawing nothing.

    Both layers evolve deterministically with the input stream, so the
    pinned-shard determinism contract (identical sharded output at any
    worker count) is preserved.
    """

    accuracy_attribute = "accuracy"

    def __init__(
        self,
        attribute: str,
        confidence: float = 0.9,
        resamples: int = 20,
        seed: int = 0,
        target_ci_width: float | None = None,
        target_relative_width: float | None = None,
        initial_resamples: int = DEFAULT_INITIAL_RESAMPLES,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        super().__init__()
        self.attribute = attribute
        self.confidence = confidence
        self.resamples = resamples
        self.target_ci_width = target_ci_width
        self.target_relative_width = target_relative_width
        self.initial_resamples = initial_resamples
        self.growth = growth
        self._rng = np.random.default_rng(seed)
        self._warm_r = initial_resamples
        self._cache_key: tuple[float, float, int] | None = None
        self._cache_info: AccuracyInfo | None = None

    def reseed(self, seed: object) -> None:
        self._rng = np.random.default_rng(seed)
        self._warm_r = self.initial_resamples
        self._cache_key = None
        self._cache_info = None

    @property
    def adaptive(self) -> bool:
        return (
            self.target_ci_width is not None
            or self.target_relative_width is not None
        )

    def _start_resamples(self) -> int:
        # One growth step below the previous stopping point: re-probes a
        # cheaper budget when the stream gets easier, yet reaches the
        # previous budget again after a single escalation.
        return max(
            self.initial_resamples, math.ceil(self._warm_r / self.growth)
        )

    def process(self, tup: UncertainTuple) -> None:
        field = tup.dfsized(self.attribute)
        if field.sample_size is not None and field.sample_size >= 2:
            n = field.sample_size
            if self.adaptive:
                dist = field.distribution
                key = None
                if isinstance(dist, GaussianDistribution):
                    key = (dist.mu, dist.sigma2, n)
                if key is not None and key == self._cache_key:
                    info = self._cache_info
                    assert info is not None
                else:
                    info = adaptive_bootstrap_accuracy_info(
                        lambda count: dist.sample(self._rng, count),
                        n,
                        self.confidence,
                        target_ci_width=self.target_ci_width,
                        target_relative_width=self.target_relative_width,
                        max_resamples=self.resamples,
                        initial_resamples=self._start_resamples(),
                        growth=self.growth,
                    )
                    self._warm_r = max(
                        self.initial_resamples, info.draws_used // n
                    )
                    self._cache_key = key
                    self._cache_info = info
            else:
                values = field.distribution.sample(
                    self._rng, self.resamples * n
                )
                info = bootstrap_accuracy_info(values, n, self.confidence)
            tup = tup.with_value("accuracy", info)
        self.emit(tup)

    def _adaptive_batch(
        self, mus: np.ndarray, sigma2s: np.ndarray, n: int
    ) -> list[AccuracyInfo]:
        """Vectorized escalation over a group of Gaussian output fields.

        All rows draw together round by round; a row leaves the active
        set as soon as its calibrated interval width meets the target,
        and only the surviving rows pay for the next round.  Statistics
        accumulated in earlier rounds are carried forward, never
        recomputed.  The adaptive mode draws in a different RNG order
        than the per-tuple path (rounds are batched across rows), so
        its values differ from ``process()`` while following the same
        schedule and stopping semantics.
        """
        k = mus.size
        stds = np.sqrt(sigma2s)
        results: list[AccuracyInfo | None] = [None] * k
        active = np.arange(k)
        # Identical-parameter slides reuse the cached record directly.
        if self._cache_key is not None and self._cache_key[2] == n:
            mu0, sigma20 = self._cache_key[0], self._cache_key[1]
            hit = (mus == mu0) & (sigma2s == sigma20)
            if hit.any():
                for i in np.flatnonzero(hit):
                    results[i] = self._cache_info
                active = np.flatnonzero(~hit)
        schedule = resample_schedule(
            self._start_resamples(), self.growth, self.resamples
        )
        acc_means: np.ndarray | None = None
        acc_vars: np.ndarray | None = None
        prev_r = 0
        rounds = 0
        for r_total in schedule:
            if not active.size:
                break
            delta_r = r_total - prev_r
            if delta_r <= 0:
                continue
            block = self._rng.normal(
                mus[active][:, None],
                stds[active][:, None],
                (active.size, delta_r * n),
            )
            m_new, v_new, _ = _resample_statistics(
                block.reshape(active.size * delta_r, n), None
            )
            m_new = m_new.reshape(active.size, delta_r)
            v_new = v_new.reshape(active.size, delta_r)
            acc_means = (
                m_new
                if acc_means is None
                else np.concatenate([acc_means, m_new], axis=1)
            )
            acc_vars = (
                v_new
                if acc_vars is None
                else np.concatenate([acc_vars, v_new], axis=1)
            )
            prev_r = r_total
            rounds += 1
            mean_lo, mean_hi = percentile_intervals(
                acc_means.T, self.confidence
            )
            var_lo, var_hi = percentile_intervals(acc_vars.T, self.confidence)
            factor = width_calibration(r_total, self.confidence)
            done = np.ones(active.size, dtype=bool)
            if r_total != schedule[-1]:
                widths = (mean_hi - mean_lo) * factor
                if self.target_ci_width is not None:
                    done &= widths <= self.target_ci_width
                if self.target_relative_width is not None:
                    scale = np.abs((mean_lo + mean_hi) / 2.0)
                    done &= (scale > 0.0) & (
                        widths <= self.target_relative_width * scale
                    )
                    var_widths = (var_hi - var_lo) * factor
                    var_scale = np.abs((var_lo + var_hi) / 2.0)
                    done &= (var_scale > 0.0) & (
                        var_widths <= self.target_relative_width * var_scale
                    )
            for j in np.flatnonzero(done):
                row = int(active[j])
                results[row] = AccuracyInfo.from_bounds(
                    float(mean_lo[j]), float(mean_hi[j]),
                    float(var_lo[j]), float(var_hi[j]),
                    self.confidence, n, "bootstrap",
                    r_total * n, 0, r_total * n, rounds,
                )
            keep = ~done
            active = active[keep]
            acc_means = acc_means[keep]
            acc_vars = acc_vars[keep]
        if k:
            self._warm_r = max(
                self.initial_resamples, results[-1].draws_used // n
            )
            self._cache_key = (float(mus[-1]), float(sigma2s[-1]), n)
            self._cache_info = results[-1]
        return results  # type: ignore[return-value]

    def _fixed_column(
        self,
        column: GaussianDfColumn,
        groups: list[tuple[int, np.ndarray]],
    ) -> AccuracyColumn:
        """Fixed-budget bootstrap of each size group into one column.

        Every batch yields the same column kind whatever its sizes, so
        shards emit one schema and their outputs merge as columns.
        """
        out = None
        for n, idx in groups:
            m = self.resamples * n
            matrix = self._rng.normal(
                column.mu[idx][:, None],
                np.sqrt(column.sigma2[idx])[:, None],
                (idx.size, m),
            )
            mean_lo, mean_hi, var_lo, var_hi, used, dropped = (
                bootstrap_intervals(matrix, n, self.confidence)
            )
            part = AccuracyColumn.from_bounds(
                mean_lo, mean_hi, var_lo, var_hi, n, self.confidence,
                "bootstrap", used, dropped, m, 1,
            )
            if len(groups) == 1:
                return part
            if out is None:
                out = AccuracyColumn.allocate(len(column), part)
            part.scatter(out, idx)
        return out

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Vectorized BOOTSTRAP-ACCURACY-INFO when every row of a columnar
        # batch is eligible: rows are grouped by sample size, each group
        # draws one broadcast (rows, m) normal matrix and gets its chunk
        # statistics and percentile intervals in one pass.  Anything
        # else goes per tuple.
        column = gaussian_column_of(tuples, self.attribute)
        if column is None or not len(column) or (column.sizes < 2).any():
            super().process_many(tuples)
            return
        by_n: dict[int, list[int]] = {}
        for i, n in enumerate(column.sizes.tolist()):
            by_n.setdefault(n, []).append(i)
        groups = [
            (n, np.asarray(indices, dtype=np.intp))
            for n, indices in by_n.items()
        ]
        if self.adaptive:
            infos_out: list[object] = [None] * len(column)
            for n, idx in groups:
                infos = self._adaptive_batch(
                    column.mu[idx], column.sigma2[idx], n
                )
                for info, i in zip(infos, idx.tolist()):
                    infos_out[i] = info
            accuracy: object = ObjectColumn(infos_out)
        else:
            accuracy = self._fixed_column(column, groups)
        self.emit_many(tuples.with_column("accuracy", accuracy))

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        lineage = lineage_from_operands(
            {self.attribute: tup.attributes.get(self.attribute)}
        )
        lineage["resamples"] = self.resamples
        if self.target_ci_width is not None:
            lineage["target_ci_width"] = self.target_ci_width
        if self.target_relative_width is not None:
            lineage["target_relative_width"] = self.target_relative_width
        return lineage


def _slug(name: str) -> str:
    """Configuration label -> metric-name segment."""
    return (
        name.lower()
        .replace("(", "")
        .replace(")", "")
        .replace(" ", "_")
    )


def _measure_all(
    label: str,
    configurations: "dict[str, tuple]",
    tuples: Sequence[UncertainTuple],
    repeats: int,
    registry: MetricsRegistry | None,
    figure: str,
    shard_seed: int = 0,
    tracer: Tracer | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> ThroughputResult:
    """Measure every configuration; with a registry, also record the
    per-stage breakdown of each one under ``{figure}.{config slug}``.

    A configuration value is ``(factory, batch_size)`` for the serial
    paths or ``(factory, batch_size, n_workers)`` for the sharded
    process-pool path (always ``N_SHARDS`` shards, seeded with
    ``shard_seed`` so the sharded runs are reproducible).
    """
    throughputs = {}
    for name, spec in configurations.items():
        factory, batch_size = spec[0], spec[1]
        workers = spec[2] if len(spec) > 2 else None
        throughputs[name] = measure_throughput(
            factory,
            tuples,
            repeats,
            batch_size=batch_size,
            registry=registry,
            metrics_prefix=f"{figure}.{_slug(name)}",
            n_workers=workers,
            n_shards=N_SHARDS if workers is not None else None,
            shard_seed=shard_seed if workers is not None else None,
            tracer=tracer,
            telemetry=telemetry,
            # Batched and sharded configurations run end-to-end columnar
            # (converted once, outside the timed region); the per-tuple
            # baseline keeps the tuple-list layout.
            layout="columnar" if batch_size is not None else "tuple",
        )
    return ThroughputResult(label, throughputs)


def run_fig5c(
    seed: int = 0,
    n_items: int = 4000,
    repeats: int = 3,
    batch_size: int = BATCH_SIZE,
    registry: MetricsRegistry | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryRecorder | None = None,
    target_ci_width: float | None = None,
    target_relative_width: float | None = None,
) -> ThroughputResult:
    """Figure 5(c): accuracy-computation overhead on stream throughput.

    Each configuration is measured twice: on the per-tuple path
    (``Pipeline.run``) and on the vectorized batched path
    (``Pipeline.run_batched``, suffix "(batched)").  ``workers`` adds a
    third round on the sharded process-pool path
    (``Pipeline.run_sharded`` with ``N_SHARDS`` shards, suffix
    "(sharded xW)").  ``registry`` additionally collects a per-stage
    breakdown (tuples in/out, wall time, interval widths) from one
    instrumented pass per configuration, under metric prefix
    ``fig5c.{configuration}``.

    A width target (``target_ci_width`` / ``target_relative_width``)
    adds "bootstrap adaptive" configurations that run the same
    bootstrap stage with early-stopping draws, for a direct
    fixed-vs-adaptive throughput comparison.
    """
    tuples = _make_stream(n_items, seed)

    def base() -> list[Operator]:
        return [
            _LearnGaussian("points", "value"),
            SlidingGaussianAverage("value", WINDOW_SIZE),
        ]

    def qp_only() -> Pipeline:
        return Pipeline(base() + [CountingSink()])

    def with_analytic() -> Pipeline:
        return Pipeline(base() + [_AnalyticAccuracy("avg"), CountingSink()])

    def with_bootstrap() -> Pipeline:
        return Pipeline(
            base() + [_BootstrapAccuracy("avg", seed=seed), CountingSink()]
        )

    def with_adaptive() -> Pipeline:
        return Pipeline(
            base()
            + [
                _BootstrapAccuracy(
                    "avg",
                    seed=seed,
                    target_ci_width=target_ci_width,
                    target_relative_width=target_relative_width,
                ),
                CountingSink(),
            ]
        )

    adaptive = target_ci_width is not None or target_relative_width is not None
    configurations: dict[str, tuple] = {
        "QP only": (qp_only, None),
        "analytic": (with_analytic, None),
        "bootstrap": (with_bootstrap, None),
    }
    if adaptive:
        configurations["bootstrap adaptive"] = (with_adaptive, None)
    configurations["QP only (batched)"] = (qp_only, batch_size)
    configurations["analytic (batched)"] = (with_analytic, batch_size)
    configurations["bootstrap (batched)"] = (with_bootstrap, batch_size)
    if adaptive:
        configurations["bootstrap adaptive (batched)"] = (
            with_adaptive, batch_size,
        )
    if workers is not None:
        suffix = f"(sharded x{workers})"
        configurations[f"QP only {suffix}"] = (qp_only, batch_size, workers)
        configurations[f"analytic {suffix}"] = (
            with_analytic, batch_size, workers,
        )
        configurations[f"bootstrap {suffix}"] = (
            with_bootstrap, batch_size, workers,
        )
        if adaptive:
            configurations[f"bootstrap adaptive {suffix}"] = (
                with_adaptive, batch_size, workers,
            )
    return _measure_all(
        "Figure 5(c): throughput with accuracy computation",
        configurations,
        tuples,
        repeats,
        registry,
        "fig5c",
        shard_seed=seed,
        tracer=tracer,
        telemetry=telemetry,
    )


class _CoupledMTest(Operator):
    """Coupled mTest on the window average against a constant."""

    def __init__(self, attribute: str, constant: float) -> None:
        super().__init__()
        self.attribute = attribute
        self.constant = constant

    def process(self, tup: UncertainTuple) -> None:
        field = tup.dfsized(self.attribute)
        if field.sample_size is not None:
            stats = FieldStats.from_dfsized(field)
            coupled_tests(MTest(stats, ">", self.constant, 0.05), 0.05, 0.05)
        self.emit(tup)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Columnar: run the coupled test per row straight off the
        # (mu, sigma2, n) columns; the batch passes through untouched.
        column = gaussian_column_of(tuples, self.attribute)
        if column is None:
            super().process_many(tuples)
            return
        for mu, sigma2, n in zip(*column.moments()):
            if n is not None:
                stats = FieldStats(mu, float(np.sqrt(sigma2)), n)
                coupled_tests(
                    MTest(stats, ">", self.constant, 0.05), 0.05, 0.05
                )
        self.emit_many(tuples)


class _CoupledMdTest(Operator):
    """Coupled mdTest: current window average vs the previous one."""

    def __init__(self, attribute: str) -> None:
        super().__init__()
        self.attribute = attribute
        self._previous: FieldStats | None = None

    def process(self, tup: UncertainTuple) -> None:
        field = tup.dfsized(self.attribute)
        if field.sample_size is not None:
            stats = FieldStats.from_dfsized(field)
            if self._previous is not None:
                coupled_tests(
                    MdTest(stats, self._previous, ">", 0.0, 0.05), 0.05, 0.05
                )
            self._previous = stats
        self.emit(tup)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Columnar: same per-row test chain (each row's stats become the
        # next row's "previous"), reading moments off the columns.
        column = gaussian_column_of(tuples, self.attribute)
        if column is None:
            super().process_many(tuples)
            return
        previous = self._previous
        for mu, sigma2, n in zip(*column.moments()):
            if n is None:
                continue
            stats = FieldStats(mu, float(np.sqrt(sigma2)), n)
            if previous is not None:
                coupled_tests(
                    MdTest(stats, previous, ">", 0.0, 0.05), 0.05, 0.05
                )
            previous = stats
        self._previous = previous
        self.emit_many(tuples)


class _CoupledPTest(Operator):
    """Coupled pTest: P[avg > constant] above a probability threshold."""

    def __init__(
        self, attribute: str, constant: float, tau: float = 0.8
    ) -> None:
        super().__init__()
        self.attribute = attribute
        self.constant = constant
        self.tau = tau

    def process(self, tup: UncertainTuple) -> None:
        field = tup.dfsized(self.attribute)
        if field.sample_size is not None:
            p_hat = field.distribution.prob_greater(self.constant)
            coupled_tests(
                PTest(p_hat, field.sample_size, self.tau, ">", 0.05),
                0.05, 0.05,
            )
        self.emit(tup)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Columnar: per-row pTest off the columns; batch passes through.
        column = gaussian_column_of(tuples, self.attribute)
        if column is None:
            super().process_many(tuples)
            return
        for mu, sigma2, n in zip(*column.moments()):
            if n is not None:
                p_hat = GaussianDistribution(mu, sigma2).prob_greater(
                    self.constant
                )
                coupled_tests(
                    PTest(p_hat, n, self.tau, ">", 0.05), 0.05, 0.05
                )
        self.emit_many(tuples)


def run_fig5f(
    seed: int = 0,
    n_items: int = 4000,
    repeats: int = 3,
    batch_size: int = BATCH_SIZE,
    registry: MetricsRegistry | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> ThroughputResult:
    """Figure 5(f): significance-predicate overhead on stream throughput.

    As in :func:`run_fig5c`, every configuration is measured on both the
    per-tuple and the batched execution path — plus the sharded
    process-pool path when ``workers`` is given — with an optional
    per-stage metrics breakdown under ``fig5f.{configuration}``.
    """
    tuples = _make_stream(n_items, seed)

    def base() -> list[Operator]:
        return [
            _LearnGaussian("points", "value"),
            SlidingGaussianAverage("value", WINDOW_SIZE),
        ]

    def no_pred() -> Pipeline:
        return Pipeline(base() + [CountingSink()])

    def with_mtest() -> Pipeline:
        return Pipeline(base() + [_CoupledMTest("avg", 99.0), CountingSink()])

    def with_mdtest() -> Pipeline:
        return Pipeline(base() + [_CoupledMdTest("avg"), CountingSink()])

    def with_ptest() -> Pipeline:
        return Pipeline(
            base() + [_CoupledPTest("avg", 99.0, 0.8), CountingSink()]
        )

    configurations: dict[str, tuple] = {
        "no predicate": (no_pred, None),
        "mTest": (with_mtest, None),
        "mdTest": (with_mdtest, None),
        "pTest": (with_ptest, None),
        "no predicate (batched)": (no_pred, batch_size),
        "mTest (batched)": (with_mtest, batch_size),
        "mdTest (batched)": (with_mdtest, batch_size),
        "pTest (batched)": (with_ptest, batch_size),
    }
    if workers is not None:
        suffix = f"(sharded x{workers})"
        configurations[f"no predicate {suffix}"] = (
            no_pred, batch_size, workers,
        )
        configurations[f"mTest {suffix}"] = (with_mtest, batch_size, workers)
        configurations[f"mdTest {suffix}"] = (with_mdtest, batch_size, workers)
        configurations[f"pTest {suffix}"] = (with_ptest, batch_size, workers)
    return _measure_all(
        "Figure 5(f): throughput with significance predicates",
        configurations,
        tuples,
        repeats,
        registry,
        "fig5f",
        shard_seed=seed,
        tracer=tracer,
        telemetry=telemetry,
    )
