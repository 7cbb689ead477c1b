"""The repository benchmark: three closed-loop workloads with per-layer traces.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/METRICS.md`` for every metric and what it should move.
"""
