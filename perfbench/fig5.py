"""The Fig 5(c) workloads (paper §V-C).

Each stream item carries 20 raw points drawn around a known mean of
100; the chain learns a Gaussian per item, averages a sliding window
of 1000, attaches accuracy and collects the result.  These are the
stage classes the repository's Fig 5(c) experiment measures; the
library has no accuracy operator of its own yet.

* ``fig5-analytic``: analytic accuracy, batched, one process.  Every
  pass is a fresh pipeline over one input block, 256 tuples per
  ``as_columnar`` + ``push_many`` call, ending with a flush.
* ``fig5-bootstrap-sharded``: bootstrap accuracy (20 resamples) through
  ``Pipeline.run_sharded`` on a long-lived pool, 4 pinned shards and a
  fixed shard seed; one call per input block.
"""

from __future__ import annotations

import pickle
import resource
import time
import warnings
from time import perf_counter

import numpy as np

from repro import (
    CollectSink,
    MetricsRegistry,
    ParallelConfig,
    Pipeline,
    SlidingGaussianAverage,
    UncertainTuple,
    WorkerPool,
    accuracy_from_moments,
    available_cpus,
    bootstrap_accuracy_batch,
)
from repro.experiments.fig5_throughput import (
    _AnalyticAccuracy,
    _BootstrapAccuracy,
    _LearnGaussian,
)
from repro.obs import TelemetryRecorder, Tracer
from repro.parallel import partition_indices, run_sharded
from repro.streams.columnar import ColumnarBatch, as_columnar

from perfbench.common import (
    HostClock,
    PeakMemory,
    Record,
    Scores,
    Spans,
    Timings,
    between_passes,
    freeze_inputs,
    interval_summary,
    median,
    provenance,
    rate,
    report_end_to_end,
    report_trace_overhead,
    wall_limit,
)
from perfbench.replay import replay

RAW_POINTS = 20
TRUE_MEAN = 100.0
POINT_STD = 10.0
WINDOW = 1000
BATCH = 256
RESAMPLES = 20

ANALYTIC_PASS = 16384
#: Percentile aimed at for the batch-latency tail: a run of the usual
#: length leaves about 60 samples beyond it (20 for the sharded calls).
ANALYTIC_TAIL = 99.0
SCALAR_PREFIX = 4096
SCALAR_REPS = 3

SHARDED_CALL = 8192
SHARDED_SETUP_REPS = 5
SHARDED_TAIL = 75.0
SHARDS = 4
SHARD_SEED = 5
WARM_TUPLES = 1024
EQUIVALENCE_PREFIX = 2048
SPREAD_SEEDS = 4
KERNEL_ROWS = 4096

REPLAY_REPS = 3
LAYER_ROUNDS = 5


def stream_block(seed: int, index: int, size: int) -> list[UncertainTuple]:
    """Items ``[index * size, (index + 1) * size)``, drawn from ``(seed, index)``.

    Each item carries 20 raw points from N(100, 10^2).  Every pass
    ingests a new block, built before its clock starts: windows of 1000
    items are strongly correlated, so the interval score needs much data.
    """
    points = np.random.default_rng([seed, index]).normal(
        TRUE_MEAN, POINT_STD, (size, RAW_POINTS)
    )
    base = index * size
    return [UncertainTuple({"item": base + i, "points": points[i]}) for i in range(size)]


def analytic_chain() -> list:
    return [
        _LearnGaussian("points", "value"),
        SlidingGaussianAverage("value", WINDOW),
        _AnalyticAccuracy("avg"),
        CollectSink(),
    ]


def bootstrap_chain() -> list:
    return [
        _LearnGaussian("points", "value"),
        SlidingGaussianAverage("value", WINDOW),
        _BootstrapAccuracy("avg", resamples=RESAMPLES),
        CollectSink(),
    ]


def columnar(chunk: list):
    batch = as_columnar(chunk)
    return chunk if batch is None else batch


def outputs(rows) -> dict[str, np.ndarray]:
    """Window averages and mean intervals of a collected result, in order."""
    if isinstance(rows, CollectSink):
        rows = rows.columnar_result()
    elif not isinstance(rows, ColumnarBatch):
        rows = as_columnar(rows)
    avg = rows.gaussian_column("avg")
    infos = rows.column("accuracy").values()
    return {
        "item": np.asarray(rows.column("item").values()),
        "mu": avg.mu,
        "sigma2": avg.sigma2,
        "n": avg.sizes,
        "low": np.array([info.mean.low for info in infos]),
        "high": np.array([info.mean.high for info in infos]),
        "confidence": np.array([info.mean.confidence for info in infos]),
        "draws": np.array([info.draws_used for info in infos], dtype=float),
    }


def same_outputs(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[key], b[key]) for key in ("item", "mu", "low", "high"))


def row_agreement(a: list, b: list) -> float:
    """Share of rows whose pickles are byte-identical, position by position."""
    equal = sum(pickle.dumps(x) == pickle.dumps(y) for x, y in zip(a, b))
    return equal / max(len(a), len(b), 1)


def timed(spans: Spans, name: str, fn, *args):
    sid = spans.begin(name)
    start = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - start
    spans.end(sid)
    return seconds, result


def summarise(out: dict) -> tuple[dict[str, float], float]:
    """Interval summary against the true mean, and draws per tuple."""
    summary = interval_summary(out["low"], out["high"], TRUE_MEAN, out["confidence"])
    return summary, float(out["draws"].mean())


# -- fig5-analytic ----------------------------------------------------------


def _analytic_pass(block: list, latencies: list, spans: Spans | None):
    pipeline = Pipeline(analytic_chain())
    push = pipeline.push_many
    start = perf_counter()
    for a in range(0, len(block), BATCH):
        chunk = block[a:a + BATCH]
        if spans is None:
            t0 = perf_counter()
            push(columnar(chunk))
            latencies.append(perf_counter() - t0)
        else:
            root = spans.begin("fig5.batch")
            sid = spans.begin("streams.columnar")
            batch = columnar(chunk)
            spans.end(sid)
            sid = spans.begin("pipeline.push_many")
            push(batch)
            spans.end(sid)
            spans.end(root)
    pipeline.head.flush()
    return perf_counter() - start, pipeline.sink


def _analytic_setup(warm: list) -> float:
    start = perf_counter()
    pipeline = Pipeline(analytic_chain())
    pipeline.push_many(columnar(warm))
    pipeline.head.flush()
    return perf_counter() - start


def run_analytic(seed: int, seconds: float, trace: bool, units: dict) -> tuple[Record, Spans]:
    record = Record("fig5-analytic", seed, trace, units)
    first_block = stream_block(seed, 0, ANALYTIC_PASS)
    freeze_inputs()
    # Each pass builds its own block, so each pass has its own baseline.
    memory = PeakMemory()

    spans = Spans()
    clock = HostClock()
    setup, latencies = Timings(), Timings()
    rates = {False: Timings(), True: Timings()}
    scores = Scores()
    first_out = None
    timed_seconds, passes, limit = 0.0, 0, wall_limit(seconds)
    batches_per_pass = -(-ANALYTIC_PASS // BATCH)
    while timed_seconds < seconds and time.monotonic() < limit:
        traced = trace and passes % 2 == 1
        block = first_block if passes == 0 else stream_block(seed, passes, ANALYTIC_PASS)
        passes += 1
        before = clock.probe()
        # One set-up per pass, so set-up time samples the same machine
        # conditions as the passes do.
        setup_seconds = _analytic_setup(block[:BATCH])
        between_passes()
        if traced:
            spans.new_trace()
        else:
            memory.before_pass()
        calls: list[float] = []
        try:
            secs, sink = _analytic_pass(block, calls, spans if traced else None)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            record.operation(False, exc)
            continue
        if not traced:
            memory.after_pass()
        factor = clock.factor(before, clock.probe())
        setup.add(setup_seconds, factor)
        latencies.extend(calls, factor)
        record.succeeded(batches_per_pass)
        timed_seconds += secs
        rates[traced].add(secs, factor)
        out = outputs(sink)
        record.check("row_per_tuple", len(out["mu"]) == ANALYTIC_PASS)
        first_out = first_out or out
        scores.add(*summarise(out))
        del block, sink, out
    report_end_to_end(
        record, ANALYTIC_PASS, rates[False], latencies, ANALYTIC_TAIL, setup, memory, scores, clock
    )

    between_passes()
    _, sink = _analytic_pass(first_block, [], None)
    record.check("output_deterministic", first_out is not None and same_outputs(outputs(sink), first_out))

    # Byte-identity contract: the batched path over a prefix equals push.
    prefix = first_block[:SCALAR_PREFIX]
    scalar_seconds, scalar_rows = Timings(), None
    for _ in range(SCALAR_REPS):
        between_passes()
        pipeline = Pipeline(analytic_chain())
        before = clock.probe()
        start = perf_counter()
        for tup in prefix:
            pipeline.push(tup)
        pipeline.head.flush()
        secs = perf_counter() - start
        scalar_seconds.add(secs, clock.factor(before, clock.probe()))
        scalar_rows = scalar_rows or pipeline.sink.results
    batched = Pipeline(analytic_chain())
    for a in range(0, len(prefix), BATCH):
        batched.push_many(columnar(prefix[a:a + BATCH]))
    batched.head.flush()
    agreement = row_agreement(scalar_rows, batched.sink.results)
    record.check("batched_equals_scalar", agreement == 1.0)
    record.metric("reference_agreement", agreement)
    record.metric("scalar_tps", len(prefix) / median(scalar_seconds.scaled))
    record.extra["wall_clock"]["scalar_tps"] = len(prefix) / median(scalar_seconds.wall)
    record.extra["provenance"] = provenance(
        seed,
        tuples_timed=passes * ANALYTIC_PASS,
        tuples_per_pass=ANALYTIC_PASS,
        batch=BATCH,
        scalar_prefix=SCALAR_PREFIX,
        workers=1,
        shards=None,
        hwm_reset=memory.hwm_reset,
    )
    if trace:
        _analytic_layers(record, spans, first_block, rates, scores)
    return record, spans


STAGES_ANALYTIC = ("learning", "streams.window", "core.analytic", "streams.sink")


def _chain_seconds(spans: Spans, name: str, pipeline: Pipeline, batches: list) -> float:
    sid = spans.begin(name)
    start = perf_counter()
    for batch in batches:
        pipeline.push_many(batch)
    pipeline.head.flush()
    seconds = perf_counter() - start
    spans.end(sid)
    return seconds


def _analytic_layers(record: Record, spans: Spans, block: list, rates, scores: Scores) -> None:
    """Per-layer metrics of fig5-analytic.

    Each round converts one block, runs it through the bare chain,
    replays the chain stage by stage and runs it once per observer, back
    to back, so all figures of a round see the same machine conditions;
    every metric is the median over rounds of a per-round value.  Garbage
    is collected before each measured piece: an observer leaves many
    objects behind, which the next piece would otherwise pay to free.
    """
    observers = {
        "metrics": lambda p: p.attach_metrics(MetricsRegistry()),
        "trace": lambda p: p.attach_trace(Tracer()),
        "telemetry": lambda p: p.attach_telemetry(TelemetryRecorder()),
    }
    per_round: dict[str, list[float]] = {}

    def add(name: str, seconds: float) -> None:
        per_round.setdefault(name, []).append(1e6 * seconds / len(block))

    for _ in range(LAYER_ROUNDS):
        spans.new_trace()
        between_passes()
        seconds, batches = timed(
            spans, "streams.columnar",
            lambda: [columnar(block[a:a + BATCH]) for a in range(0, len(block), BATCH)],
        )
        add("streams.columnar", seconds)
        between_passes()
        bare = _chain_seconds(spans, "pipeline.bare", Pipeline(analytic_chain()), batches)
        add("end_to_end", seconds + bare)
        ops = analytic_chain()
        between_passes()
        stage_seconds, emitted = replay(spans, list(zip(STAGES_ANALYTIC, ops)), batches)
        for name in STAGES_ANALYTIC:
            add(name, stage_seconds[name])
        add("streams.engine", bare - sum(stage_seconds.values()))
        for name, attach in observers.items():
            pipeline = Pipeline(analytic_chain())
            attach(pipeline)
            between_passes()
            add(f"obs.{name}", _chain_seconds(spans, f"obs.{name}", pipeline, batches) - bare)
    us = {name: median(values) for name, values in per_round.items()}
    for name in ("streams.columnar", *STAGES_ANALYTIC, "streams.engine"):
        record.metric(f"{name}.us_per_tuple", us[name])
    for name in observers:
        record.metric(f"obs.{name}_us_per_tuple", us[f"obs.{name}"])
    record.extra["end_to_end_us_per_tuple"] = {
        "layer_rounds": us["end_to_end"],
        "timed_loop": 1e6 / rate(ANALYTIC_PASS, rates[False].wall),
    }
    record.metric("streams.state_bytes", ops[1].state_bytes())

    prefix = block[:SCALAR_PREFIX]
    scalar_us = {name: [] for name in STAGES_ANALYTIC}
    for _ in range(REPLAY_REPS):
        seconds, _ = replay(spans, list(zip(STAGES_ANALYTIC, analytic_chain())), prefix, batched=False)
        for name in STAGES_ANALYTIC:
            scalar_us[name].append(1e6 * seconds[name] / len(prefix))
    record.metric("learning.scalar_us_per_tuple", median(scalar_us["learning"]))
    record.metric("streams.window.scalar_us_per_tuple", median(scalar_us["streams.window"]))
    record.metric("core.analytic.scalar_us_per_tuple", median(scalar_us["core.analytic"]))

    window = [batch.gaussian_column("avg") for batch in emitted[1]]
    mu = np.concatenate([c.mu for c in window])
    sigma2 = np.concatenate([c.sigma2 for c in window])
    sizes = np.concatenate([c.sizes for c in window])
    kernel = [
        timed(spans, "core.accuracy_from_moments", accuracy_from_moments, mu, sigma2, sizes, 0.9)[0]
        for _ in range(REPLAY_REPS)
    ]
    record.metric("core.accuracy_from_moments.us_per_row", 1e6 * median(kernel) / len(mu))

    scores.report_layers(record)
    report_trace_overhead(record, ANALYTIC_PASS, rates)


# -- fig5-bootstrap-sharded -------------------------------------------------


def _start_pool(config: ParallelConfig, workers: int, warm: list):
    """Start a pool, make every worker live, run one warm-up call."""
    start = perf_counter()
    pool = WorkerPool(config)
    try:
        pool.map_indexed(abs, [(i,) for i in range(workers)])
        started = perf_counter()
        Pipeline(bootstrap_chain()).run_sharded(warm, pool=pool, n_shards=SHARDS, seed=SHARD_SEED)
    except BaseException:
        pool.close()
        raise
    return pool, perf_counter() - start, started - start


def _traced_call(spans: Spans, block: list, pool: WorkerPool):
    spans.new_trace()
    sid = spans.begin("parallel.partition")
    partition_indices(block, SHARDS, None)
    spans.end(sid)
    pipeline = Pipeline(bootstrap_chain())
    start = perf_counter()
    root = spans.begin("fig5s.call")
    sid = spans.begin("parallel.run_sharded")
    result = run_sharded(pipeline, block, pool=pool, n_shards=SHARDS, seed=SHARD_SEED)
    spans.end(sid)
    sid = spans.begin("parallel.merge")
    merged = result.merged_results()
    spans.end(sid)
    spans.end(root)
    return perf_counter() - start, merged


def _single_process(block: list) -> dict:
    pipeline = Pipeline(bootstrap_chain())
    for a in range(0, len(block), BATCH):
        pipeline.push_many(columnar(block[a:a + BATCH]))
    pipeline.head.flush()
    return outputs(pipeline.sink)


def run_sharded_workload(seed: int, seconds: float, trace: bool, units: dict) -> tuple[Record, Spans]:
    record = Record("fig5-bootstrap-sharded", seed, trace, units)
    workers = available_cpus()
    config = ParallelConfig(n_workers=workers)
    first_block = stream_block(seed, 0, SHARDED_CALL)
    freeze_inputs()
    # Each call gets its own block, so each call has its own baseline.
    memory = PeakMemory()

    clock = HostClock()
    pool, setup, pool_start = None, Timings(), []
    spans = Spans()
    latencies = Timings()
    rates = {False: Timings(), True: Timings()}
    scores = Scores()
    first_out = None
    fallbacks = 0
    timed_seconds, calls, limit = 0.0, 0, wall_limit(seconds)
    try:
        for _ in range(SHARDED_SETUP_REPS):
            if pool is not None:
                pool.close()
                pool = None
            before = clock.probe()
            pool, total, started = _start_pool(config, workers, first_block[:WARM_TUPLES])
            setup.add(total, clock.factor(before, clock.probe()))
            pool_start.append(started)

        while timed_seconds < seconds and time.monotonic() < limit:
            traced = trace and calls % 2 == 1
            block = first_block if calls == 0 else stream_block(seed, calls, SHARDED_CALL)
            calls += 1
            between_passes()
            before = clock.probe()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    if traced:
                        secs, result = _traced_call(spans, block, pool)
                    else:
                        memory.before_pass()
                        pipeline = Pipeline(bootstrap_chain())
                        start = perf_counter()
                        result = pipeline.run_sharded(block, pool=pool, n_shards=SHARDS, seed=SHARD_SEED)
                        secs = perf_counter() - start
                        memory.after_pass()
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    record.operation(False, exc)
                    continue
            # A pool that fell back to serial ran the call, but not sharded.
            fell_back = pool.serial or any("parallel pool" in str(w.message) for w in caught)
            fallbacks += fell_back
            record.operation(not fell_back)
            factor = clock.factor(before, clock.probe())
            timed_seconds += secs
            rates[traced].add(secs, factor)
            if not traced:
                latencies.add(secs, factor)
            out = outputs(result)
            record.check("row_per_tuple", len(out["mu"]) == SHARDED_CALL)
            first_out = first_out or out
            scores.add(*summarise(out))
            del block, result, out
        report_end_to_end(
            record, SHARDED_CALL, rates[False], latencies, SHARDED_TAIL, setup, memory, scores, clock
        )

        between_passes()
        again = Pipeline(bootstrap_chain()).run_sharded(first_block, pool=pool, n_shards=SHARDS, seed=SHARD_SEED)
        record.check("output_deterministic", first_out is not None and same_outputs(outputs(again), first_out))

        # Worker-count invariance: the pool computes what in-process shards do.
        prefix = first_block[:EQUIVALENCE_PREFIX]
        pooled = Pipeline(bootstrap_chain()).run_sharded(prefix, pool=pool, n_shards=SHARDS, seed=SHARD_SEED)
        serial = Pipeline(bootstrap_chain()).run_sharded(prefix, n_workers=1, n_shards=SHARDS, seed=SHARD_SEED)
        record.check("pooled_equals_serial_shards", row_agreement(pooled.results, serial.results) == 1.0)

        # Reported, not asserted: per-shard windows differ from one window.
        reference = _single_process(first_block)
        sharded = first_out
        agreement = 0.0
        if sharded is not None:
            same = (
                (sharded["mu"] == reference["mu"])
                & (sharded["sigma2"] == reference["sigma2"])
                & (sharded["n"] == reference["n"])
            )
            agreement = float(same.mean()) if np.array_equal(sharded["item"], reference["item"]) else 0.0
        record.metric("reference_agreement", agreement)

        if trace:
            spread = []
            for offset in range(1, SPREAD_SEEDS + 1):
                sink = Pipeline(bootstrap_chain()).run_sharded(
                    first_block, pool=pool, n_shards=SHARDS, seed=SHARD_SEED + offset
                )
                out = outputs(sink)
                spread.append(summarise(out)[0]["score"])
            q1, _, q3 = np.percentile(spread, [25, 50, 75])
            record.extra["interval_score_seed_spread"] = {
                "shard_seeds": [SHARD_SEED + k for k in range(1, SPREAD_SEEDS + 1)],
                "scores": spread,
                "iqr_share": float((q3 - q1) / median(spread)),
            }
    finally:
        if pool is not None:
            pool.close()
    record.check("pool_stayed_parallel", fallbacks == 0)
    record.extra["provenance"] = provenance(
        seed,
        tuples_timed=calls * SHARDED_CALL,
        tuples_per_call=SHARDED_CALL,
        batch=BATCH,
        workers=workers,
        shards=SHARDS,
        shard_seed=SHARD_SEED,
        hwm_reset=memory.hwm_reset,
    )
    if trace:
        _sharded_layers(record, spans, first_block, rates, scores, workers, latencies, pool_start, fallbacks, agreement)
    return record, spans


STAGES_BOOTSTRAP = ("learning", "streams.window", "core.bootstrap", "streams.sink")


def _sharded_layers(
    record, spans, block, rates, scores, workers, latencies, pool_start, fallbacks, agreement
) -> None:
    tuples_traced = len(rates[True].wall) * SHARDED_CALL
    self_times = spans.self_times()
    for name in ("partition", "run_sharded", "merge"):
        record.metric(
            f"parallel.{name}_us_per_tuple",
            1e6 * self_times.get(f"parallel.{name}", 0.0) / tuples_traced,
        )
    record.metric("parallel.pool_start_s", median(pool_start))
    record.metric("parallel.serial_fallbacks", fallbacks)
    record.metric("parallel.reference_agreement", agreement)
    record.metric("parallel.worker_peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)

    batches = [columnar(block[a:a + BATCH]) for a in range(0, len(block), BATCH)]
    stage_us = {name: [] for name in STAGES_BOOTSTRAP}
    for _ in range(REPLAY_REPS):
        ops = bootstrap_chain()
        seconds, emitted = replay(spans, list(zip(STAGES_BOOTSTRAP, ops)), batches)
        for name in STAGES_BOOTSTRAP:
            stage_us[name].append(1e6 * seconds[name] / len(block))
    record.metric("streams.state_bytes", ops[1].state_bytes())
    stages = {name: median(values) for name, values in stage_us.items()}
    record.metric("learning.us_per_tuple", stages["learning"])
    record.metric("streams.window.us_per_tuple", stages["streams.window"])
    record.metric("core.bootstrap.us_per_tuple", stages["core.bootstrap"])
    record.metric("streams.sink.us_per_tuple", stages["streams.sink"])
    serial_seconds = 1e-6 * sum(stages.values()) * SHARDED_CALL
    record.metric("parallel.efficiency", serial_seconds / (workers * median(latencies.wall)))

    window = [batch.gaussian_column("avg") for batch in emitted[1]]
    mu = np.concatenate([c.mu for c in window])[:KERNEL_ROWS]
    sigma2 = np.concatenate([c.sigma2 for c in window])[:KERNEL_ROWS]
    n = int(np.concatenate([c.sizes for c in window])[0])
    matrix = np.random.default_rng(SHARD_SEED).normal(
        mu[:, None], np.sqrt(sigma2)[:, None], (len(mu), RESAMPLES * n)
    )
    kernel = [
        timed(spans, "core.bootstrap_accuracy_batch", bootstrap_accuracy_batch, matrix, n, 0.9)[0]
        for _ in range(REPLAY_REPS)
    ]
    record.metric("core.bootstrap_accuracy_batch.us_per_row", 1e6 * median(kernel) / len(mu))

    scores.report_layers(record)
    report_trace_overhead(record, SHARDED_CALL, rates)
