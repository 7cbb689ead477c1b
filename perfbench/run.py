"""Run one benchmark workload, or all of them, and print the records.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-analytic --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For each workload the full record (every metric with its unit, the
checks, failure counts and a provenance stamp) is printed as one JSON
line; the last line of standard output is the summary the metrics
contract in ``BENCHMARK.json`` names: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.bench_out/``.  Workloads and metrics are
described in ``perfbench/METRICS.md``.

The library is imported from ``src/`` next to this directory and never
from anywhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Spawned pool workers re-import this file as their main module, so the
# paths are set at import time, before any library import.
for entry in (str(ROOT), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Metrics printed in the full record only: they apply to some
#: workloads, not all, so the contract cannot name them.
RECORD_ONLY_UNITS = {
    "scalar_tps": "tuples/s",
    "query_latency_p50_ms": "ms",
    "error_rate": "share",
    "reference_agreement": "share",
}


def _library_present() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no library source under {SRC}", file=sys.stderr)
        return False
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"benchmark: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def _summary(record, wanted: list[dict]) -> dict[str, object]:
    metrics = {}
    for spec in wanted:
        # A layer the workload never calls did no work on it.
        entry = record.metrics.get(spec["name"], {"value": 0.0, "unit": spec["unit"]})
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"{record.workload}: {spec['name']} is {entry['value']}")
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    return {
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="timed seconds per workload (default: run_seconds of BENCHMARK.json); "
        "the tail percentile and sample counts depend on it, so only records "
        "made with the same value compare",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _library_present():
        return 2

    try:
        return _run(args, contract, workloads)
    finally:
        # The sharded workload's pool and shared memory start helper
        # processes; none may outlive the benchmark.
        from perfbench.common import stop_child_processes

        stop_child_processes()


def _run(args, contract: dict, workloads: list[str]) -> int:
    from perfbench.fig5 import run_analytic, run_sharded_workload
    from perfbench.sql import run_sql

    runners = {
        "fig5-analytic": run_analytic,
        "fig5-bootstrap-sharded": run_sharded_workload,
        "sql-standing-mix": run_sql,
    }
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units.update(RECORD_ONLY_UNITS)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    summaries = []
    for name in workloads if args.workload == "all" else [args.workload]:
        record, spans = runners[name](args.seed, args.seconds, bool(args.trace), units)
        record.extra["run_seconds"] = args.seconds
        if "error_rate" not in record.metrics:
            record.metric("error_rate", record.failed / max(record.attempted, 1))
        missing = [m["name"] for m in contract["end_to_end"] if m["name"] not in record.metrics]
        if missing:
            raise RuntimeError(f"{name}: end-to-end metrics not measured: {missing}")
        if args.trace:
            path = ROOT / ".bench_out" / f"spans-{name}-seed{args.seed}.json"
            spans.dump(path)
            record.extra["spans_file"] = str(path.relative_to(ROOT))
        print(json.dumps(record.as_dict()), flush=True)
        summaries.append(_summary(record, wanted))
        for metric, entry in sorted(record.metrics.items()):
            print(f"{name:24s} {metric:44s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    for summary in summaries:
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
