"""The standing-query ingest workload, ``sql-standing-mix``.

Road delays over 500 roads: each tuple's delay is a Gaussian learned
from k in [2, 40] noisy readings around the road's known true mean.
65 standing queries watch the stream (one mirror query, 48 ``PROB``
thresholds, 8 coupled ``mTest``, 8 coupled ``pTest``), the default
shared subplans and a 5000-tuple buffer.  Writes are ``insert_many``
batches of 256; after every 8th batch a one-shot read alternates
between a GROUP BY average and a significance query with ORDER BY and
LIMIT, so a gain for ingest that costs reads shows up.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from time import perf_counter

import numpy as np

from repro import (
    DfSized,
    FieldStats,
    GaussianDistribution,
    MTest,
    PTest,
    StreamDatabase,
    ThreeValued,
    UncertainTuple,
    coupled_tests,
)
from repro.query.planner import clear_plan_cache

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
    report_end_to_end,
    report_trace_overhead,
    status_kb,
    wall_limit,
)

ROADS = 500
K_MIN, K_MAX = 2, 40
BATCH = 256
BATCHES_PER_READ = 8
PASS_TUPLES = BATCH * BATCHES_PER_READ
#: Passes cycle through this many blocks, all drawn before the memory
#: baseline is taken.
PASS_BLOCKS = 16
BUFFER = 5000
#: Percentile aimed at for the batch-latency tail (about 25 samples
#: beyond it in a run of the usual length).
TAIL = 90.0
REFERENCE_PREFIX = 1024
SCALAR_PREFIX = 512
SCALAR_REPS = 2
KIND_REPS = 2
COUPLED_FIELDS = 1024

SIGNIFICANCE_LIMIT = 10
READS = (
    ("groupby", "SELECT AVG(delay) FROM t GROUP BY road_id"),
    (
        "significance",
        "SELECT road_id, delay FROM t WHERE mTest(delay, '>', 90, 0.05, 0.05) "
        f"ORDER BY delay DESC LIMIT {SIGNIFICANCE_LIMIT}",
    ),
)

#: One standing query of each SELECT shape the dialect documents, and
#: the aggregate shapes, which are one-shot by design.
PROBE_STANDING = (
    "SELECT * FROM t",
    "SELECT road_id, delay FROM t",
    "SELECT road_id AS r, delay AS d FROM t",
    "SELECT road_id, delay * 2 AS d2 FROM t",
    "SELECT road_id, SQRT(delay) AS s FROM t",
    "SELECT road_id, delay FROM t WHERE delay > 60 PROB 0.5",
    "SELECT road_id FROM t WHERE mTest(delay, '>', 60, 0.05, 0.05)",
    "SELECT road_id, delay FROM t ORDER BY delay DESC LIMIT 3",
)
PROBE_ONE_SHOT = (
    "SELECT AVG(delay) FROM t",
    "SELECT SUM(delay) AS total FROM t GROUP BY road_id",
)

KINDS = ("mirror", "prob", "mtest", "ptest")


def standing_queries() -> list[tuple[str, str, str]]:
    """``(kind, name, text)`` of the 65 standing queries.

    The thresholds sit in the upper tail of the delay distribution, so
    about 1.2 results come out per tuple, the mirror query's one included.
    """
    queries = [("mirror", "mirror", "SELECT road_id, delay FROM t")]
    for i in range(48):
        constant, tau = 100 + 2 * (i % 24), (0.5 if i < 24 else 0.9)
        queries.append(
            ("prob", f"prob{i}", f"SELECT road_id, delay FROM t WHERE delay > {constant} PROB {tau}")
        )
    for i in range(8):
        queries.append(
            ("mtest", f"mtest{i}", f"SELECT road_id, delay FROM t WHERE mTest(delay, '>', {90 + 5 * i}, 0.05, 0.05)")
        )
    for i in range(8):
        queries.append(
            ("ptest", f"ptest{i}", f"SELECT road_id, delay FROM t WHERE pTest(delay > {80 + 5 * i}, 0.8, 0.05, 0.05)")
        )
    return queries


class RoadStream:
    """Learned road delays; block ``i`` is drawn from ``(seed, i)`` alone."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        #: The true mean delay of every road.
        self.true_mean = rng.uniform(20.0, 100.0, ROADS)
        self.noise = rng.uniform(5.0, 20.0, ROADS)

    def block(self, index: int, n: int) -> list[UncertainTuple]:
        rng = np.random.default_rng([self.seed, index])
        roads = rng.integers(0, ROADS, n)
        sizes = rng.integers(K_MIN, K_MAX + 1, n)
        readings = rng.normal(
            np.repeat(self.true_mean[roads], sizes), np.repeat(self.noise[roads], sizes)
        )
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        means = np.add.reduceat(readings, starts) / sizes
        squares = np.add.reduceat((readings - np.repeat(means, sizes)) ** 2, starts)
        variances = squares / (sizes - 1)
        return [
            UncertainTuple(
                {"road_id": int(r), "delay": DfSized(GaussianDistribution(float(m), float(v)), int(k))}
            )
            for r, m, v, k in zip(roads, means, variances, sizes)
        ]


def _register(db: StreamDatabase, queries, callback_for) -> None:
    for _kind, name, text in queries:
        db.register_continuous(name, text, callback_for(name))


def _database(shared: bool = True) -> StreamDatabase:
    db = StreamDatabase(max_tuples_per_stream=BUFFER, shared_subplans=shared)
    db.create_stream("t")
    return db


def _setup(prefill: list):
    """Create the database and register the standing queries from cold.

    The buffer is filled before the queries exist (a bulk append, left
    out of the set-up time) so that reads scan a full buffer from the
    first pass on.
    """
    clear_plan_cache()
    queries = standing_queries()
    start = perf_counter()
    db = _database()
    created = perf_counter()
    db.insert_many("t", prefill)
    filled = perf_counter()
    sinks: dict[str, list] = {name: [] for _kind, name, _text in queries}
    _register(db, queries, lambda name: sinks[name].append)
    done = perf_counter()
    return db, sinks, (created - start) + (done - filled), (done - filled) / len(queries)


def _road(field) -> int:
    return int(field.distribution.value)


def _mirror_intervals(results: list, true_mean: np.ndarray) -> tuple[dict[str, float], float]:
    """Interval summary of the mirror query's delay against each road's
    true mean, and draws per result."""
    infos = [r.accuracy["delay"].mean for r in results]
    roads = [_road(r.attributes["road_id"]) for r in results]
    summary = interval_summary(
        [i.low for i in infos], [i.high for i in infos], true_mean[roads], [i.confidence for i in infos]
    )
    return summary, float(np.mean([r.accuracy["delay"].draws_used for r in results]))


def read_reference(kind: str, buffered) -> list[tuple[int, float]]:
    """``(road, mean delay)`` rows a read must return, computed from the
    buffered tuples with the public statistics, not through a query."""
    if kind == "groupby":
        groups: dict[int, list[float]] = {}
        for tup in buffered:
            groups.setdefault(_road(tup.dfsized("road_id")), []).append(tup.dfsized("delay").distribution.mu)
        return sorted((road, float(np.mean(mus))) for road, mus in groups.items())
    qualifying = []
    for tup in buffered:
        field = tup.dfsized("delay")
        test = MTest(FieldStats.from_dfsized(field), ">", 90.0, 0.05)
        if coupled_tests(test, 0.05, 0.05).value is ThreeValued.TRUE:
            qualifying.append((_road(tup.dfsized("road_id")), field.distribution.mu))
    qualifying.sort(key=lambda row: -row[1])
    return qualifying[:SIGNIFICANCE_LIMIT]


def read_rows(kind: str, rows: list) -> list[tuple[int, float]]:
    """The same ``(road, mean delay)`` view of the rows a read returned."""
    column = "avg_delay" if kind == "groupby" else "delay"
    view = [(_road(r.attributes["road_id"]), r.attributes[column].distribution.mu) for r in rows]
    return sorted(view) if kind == "groupby" else view


def same_rows(expected: list, got: list) -> bool:
    return (
        len(expected) == len(got)
        and [road for road, _ in expected] == [road for road, _ in got]
        and np.allclose([mu for _, mu in expected], [mu for _, mu in got], rtol=1e-9, atol=0.0)
    )


def _callback_sequence(shared: bool, prefix: list) -> list[tuple[str, bytes]]:
    db = _database(shared)
    seen: list[tuple[str, bytes]] = []
    _register(db, standing_queries(), lambda name: lambda r: seen.append((name, pickle.dumps(r))))
    for a in range(0, len(prefix), BATCH):
        db.insert_many("t", prefix[a:a + BATCH])
    return seen


def dialect_probe(sample: list) -> list[dict[str, object]]:
    """Register (or run, for aggregates) one query of each SELECT shape."""
    attempts = []
    for shared in (True, False):
        for text in PROBE_STANDING:
            db = _database(shared)
            error = None
            try:
                db.register_continuous("probe", text, lambda r: None)
                db.insert_many("t", sample[:2])
                db.insert("t", sample[2])
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                error = f"{type(exc).__name__}: {exc}"
            attempts.append({"shape": text, "shared_subplans": shared, "error": error})
    for text in PROBE_ONE_SHOT:
        db = _database()
        db.insert_many("t", sample)
        error = None
        try:
            db.query(text)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            error = f"{type(exc).__name__}: {exc}"
        attempts.append({"shape": text, "one_shot": True, "error": error})
    return attempts


def run_sql(seed: int, seconds: float, trace: bool, units: dict) -> tuple[Record, Spans]:
    record = Record("sql-standing-mix", seed, trace, units)
    roads = RoadStream(seed)
    # Block 0 fills the buffer; pass i ingests block 1 + i % PASS_BLOCKS.
    prefill = roads.block(0, BUFFER)
    blocks = [roads.block(1 + i, PASS_TUPLES) for i in range(PASS_BLOCKS)]
    first_pass = blocks[0]
    freeze_inputs()
    # One baseline after all inputs exist, so the database counts too.
    memory = PeakMemory(status_kb("VmRSS"))
    clock = HostClock()
    before = clock.probe()
    db, sinks, secs, per_query = _setup(prefill)
    setup, register = Timings(), [per_query]
    setup.add(secs, clock.factor(before, clock.probe()))
    # What the database's buffer must hold, for the read checks.
    buffered = deque(prefill, maxlen=BUFFER)

    spans = Spans()
    latencies = Timings()
    insert_seconds = 0.0
    reads = {kind: Timings() for kind, _ in READS}
    rates = {False: Timings(), True: Timings()}
    scores = Scores()
    results_seen = 0
    timed_seconds, passes, limit = 0.0, 0, wall_limit(seconds)
    while timed_seconds < seconds and time.monotonic() < limit:
        block = blocks[passes % PASS_BLOCKS]
        before = clock.probe()
        setup_seconds = None
        if passes:
            # One more set-up per pass, on a database that is then
            # dropped, so set-up time samples the same machine conditions
            # as the passes.  The emptied plan cache costs the next read
            # one plan compile, well under a millisecond.
            _, _, setup_seconds, per_query = _setup(prefill)
            register.append(per_query)
        between_passes()
        # Traced passes come in pairs, so they see both reads equally.
        traced = trace and (passes // 2) % 2 == 1
        read_kind, read_text = READS[passes % 2]
        passes += 1
        if traced:
            spans.new_trace()
            root = spans.begin("sql.pass")
        else:
            memory.before_pass()
        calls: list[float] = []
        start = perf_counter()
        for a in range(0, PASS_TUPLES, BATCH):
            batch = block[a:a + BATCH]
            sid = spans.begin("db.insert_many") if traced else -1
            t0 = perf_counter()
            try:
                db.insert_many("t", batch)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                error = exc
            elapsed = perf_counter() - t0
            if traced:
                spans.end(sid)
            else:
                calls.append(elapsed)
            insert_seconds += elapsed
            record.operation(error is None, error)
            if error is None:
                buffered.extend(batch)
        sid = spans.begin(f"query.oneshot.{read_kind}") if traced else -1
        t0 = perf_counter()
        try:
            rows = db.query(read_text)
            error = None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            rows, error = [], exc
        read_seconds = perf_counter() - t0
        if traced:
            spans.end(sid)
        secs = perf_counter() - start
        if traced:
            spans.end(root)
        else:
            memory.after_pass()
        factor = clock.factor(before, clock.probe())
        if setup_seconds is not None:
            setup.add(setup_seconds, factor)
        latencies.extend(calls, factor)
        reads[read_kind].add(read_seconds, factor)
        record.operation(error is None, error)
        timed_seconds += secs
        rates[traced].add(secs, factor)

        mirror = sinks["mirror"]
        record.check("mirror_row_per_tuple", len(mirror) == PASS_TUPLES)
        record.check(
            f"{read_kind}_read_equals_reference",
            same_rows(read_reference(read_kind, buffered), read_rows(read_kind, rows)),
        )
        scores.add(*_mirror_intervals(mirror, roads.true_mean))
        for results in sinks.values():
            results_seen += len(results)
            results.clear()
    tuples_timed = passes * PASS_TUPLES

    report_end_to_end(record, PASS_TUPLES, rates[False], latencies, TAIL, setup, memory, scores, clock)
    groupby, significance = reads["groupby"], reads["significance"]
    record.metric("query_latency_p50_ms", 1e3 * median(groupby.scaled + significance.scaled))
    record.extra["wall_clock"]["query_latency_p50_ms"] = 1e3 * median(groupby.wall + significance.wall)

    # Shared subplans must fire the same callbacks as the naive loop.
    shared_seq = _callback_sequence(True, first_pass[:REFERENCE_PREFIX])
    naive_seq = _callback_sequence(False, first_pass[:REFERENCE_PREFIX])
    equal = sum(a == b for a, b in zip(shared_seq, naive_seq))
    agreement = equal / max(len(shared_seq), len(naive_seq), 1)
    record.check("shared_equals_naive", agreement == 1.0)
    record.metric("reference_agreement", agreement)

    scalar = Timings()
    for _ in range(SCALAR_REPS):
        scalar_db = _database()
        _register(scalar_db, standing_queries(), lambda name: lambda r: None)
        before = clock.probe()
        start = perf_counter()
        for tup in first_pass[:SCALAR_PREFIX]:
            scalar_db.insert("t", tup)
        secs = perf_counter() - start
        scalar.add(secs, clock.factor(before, clock.probe()))
    record.metric("scalar_tps", SCALAR_PREFIX / median(scalar.scaled))
    record.extra["wall_clock"]["scalar_tps"] = SCALAR_PREFIX / median(scalar.wall)

    # Outside the timed mix: a fix lowers error_rate without changing
    # the work that throughput_tps times.
    probe = dialect_probe(first_pass[:16])
    probe_failed = sum(attempt["error"] is not None for attempt in probe)
    record.extra["dialect_probe"] = probe
    record.metric(
        "error_rate", (record.failed + probe_failed) / (record.attempted + len(probe))
    )
    record.extra["provenance"] = provenance(
        seed,
        tuples_timed=tuples_timed,
        tuples_per_pass=PASS_TUPLES,
        pass_blocks=PASS_BLOCKS,
        batch=BATCH,
        buffer=BUFFER,
        standing_queries=len(standing_queries()),
        reference_prefix=REFERENCE_PREFIX,
        scalar_prefix=SCALAR_PREFIX,
        workers=1,
        shards=None,
        hwm_reset=memory.hwm_reset,
    )

    if trace:
        snapshot = db.metrics.snapshot()
        fanout = snapshot["multiquery.fanout_seconds"]["total_seconds"]
        results = sum(
            state["value"] for name, state in snapshot.items()
            if name.startswith("multiquery.query.") and name.endswith(".results")
        )
        record.metric("query.register_us", 1e6 * median(register))
        record.metric("query.fanout_us_per_tuple", 1e6 * fanout / tuples_timed)
        record.metric("db.dispatch_us_per_tuple", 1e6 * (insert_seconds - fanout) / tuples_timed)
        record.metric("query.results_per_tuple", results / tuples_timed)
        record.metric("query.prefix_fallbacks", snapshot["multiquery.prefix_fallbacks"]["value"])
        record.metric("query.probe_failures", probe_failed)
        record.metric("query.oneshot.groupby_ms", 1e3 * median(reads["groupby"].wall))
        record.metric("query.oneshot.significance_ms", 1e3 * median(reads["significance"].wall))
        scores.report_layers(record)
        report_trace_overhead(record, PASS_TUPLES, rates)
        _kind_replay(record, spans, first_pass)
        _coupled(record, spans, first_pass[:COUPLED_FIELDS])
    record.extra["results_per_tuple"] = results_seen / max(tuples_timed, 1)
    return record, spans


def _kind_replay(record: Record, spans: Spans, block: list) -> None:
    """The same batches through a database holding one kind of query."""
    queries = standing_queries()
    for kind in KINDS:
        per_tuple = []
        for _ in range(KIND_REPS):
            db = _database()
            _register(db, [q for q in queries if q[0] == kind], lambda name: lambda r: None)
            spans.new_trace()
            for a in range(0, len(block), BATCH):
                sid = spans.begin(f"query.kind.{kind}")
                db.insert_many("t", block[a:a + BATCH])
                spans.end(sid)
            per_tuple.append(1e6 * spans.self_times(spans.trace)[f"query.kind.{kind}"] / len(block))
        record.metric(f"query.kind.{kind}.us_per_tuple", median(per_tuple))


def _coupled(record: Record, spans: Spans, tuples: list) -> None:
    """``coupled_tests`` on the workload's own field statistics."""
    tests = []
    for tup in tuples:
        field = tup.dfsized("delay")
        tests.append(MTest(FieldStats.from_dfsized(field), ">", 90.0, 0.05))
        p_hat = field.distribution.prob_greater(90.0)
        tests.append(PTest(p_hat, field.sample_size, 0.8, ">", 0.05))
    per_test = []
    for _ in range(KIND_REPS):
        sid = spans.begin("core.coupled")
        start = perf_counter()
        for test in tests:
            coupled_tests(test, 0.05, 0.05)
        per_test.append(1e6 * (perf_counter() - start) / len(tests))
        spans.end(sid)
    record.metric("core.coupled.us_per_test", median(per_test))
