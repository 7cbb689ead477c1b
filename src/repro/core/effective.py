"""Weighted samples and effective sample size (§VII future-work extension).

The paper's conclusion proposes letting recent observations weigh more when
quantifying accuracy.  We realise that with exponential-decay weights and
the Kish effective sample size ``n_eff = (sum w)^2 / sum(w^2)``: the same
Lemma 1/2 machinery then runs with ``n_eff`` in place of ``n``, and the
weighted mean / weighted unbiased variance in place of the plain
statistics.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_stats
from repro.errors import AccuracyError

__all__ = [
    "exponential_weights",
    "effective_sample_size",
    "WeightedStats",
    "weighted_stats",
    "weighted_accuracy",
]


def exponential_weights(
    ages: Sequence[float] | np.ndarray, half_life: float
) -> np.ndarray:
    """Weights ``0.5 ** (age / half_life)`` for observation ages >= 0.

    Age 0 (the freshest observation) gets weight 1; an observation one
    half-life old gets weight 0.5; and so on.
    """
    if half_life <= 0:
        raise AccuracyError(f"half-life must be > 0, got {half_life}")
    arr = np.asarray(ages, dtype=float).ravel()
    if np.any(arr < 0):
        raise AccuracyError("observation ages must be >= 0")
    return np.power(0.5, arr / half_life)


def effective_sample_size(weights: Sequence[float] | np.ndarray) -> float:
    """Kish effective sample size ``(sum w)^2 / sum(w^2)``.

    Equal weights give exactly n; concentrating the weight on fewer
    observations shrinks it toward 1.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0 or np.any(w < 0) or w.sum() <= 0:
        raise AccuracyError(
            "weights must be non-negative, non-empty, and not all zero"
        )
    return float(w.sum() ** 2 / np.dot(w, w))


class WeightedStats(NamedTuple):
    """Weighted mean, weighted unbiased variance, and effective n."""

    mean: float
    variance: float
    n_eff: float


def weighted_stats(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> WeightedStats:
    """Weighted mean and (reliability-weighted) unbiased variance."""
    x = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if x.size != w.size:
        raise AccuracyError(
            f"{x.size} values but {w.size} weights"
        )
    n_eff = effective_sample_size(w)
    w_sum = w.sum()
    mean = float(np.dot(w, x) / w_sum)
    if n_eff <= 1.0:
        variance = 0.0
    else:
        # Reliability-weights unbiased estimator:
        # sum w (x - m)^2 / (sum w - sum w^2 / sum w).
        correction = w_sum - np.dot(w, w) / w_sum
        variance = float(np.dot(w, (x - mean) ** 2) / correction)
    return WeightedStats(mean, variance, n_eff)


def weighted_accuracy(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
    confidence: float = 0.95,
) -> AccuracyInfo:
    """Accuracy info from a weighted sample via the effective sample size.

    ``n_eff`` is floored at 2 for the interval formulas (a sample that
    decayed below two effective observations cannot support an interval —
    we report the widest thing the machinery allows rather than crash,
    and callers can inspect ``sample_size`` to detect the floor).
    """
    ws = weighted_stats(values, weights)
    n = max(int(np.floor(ws.n_eff)), 2)
    return accuracy_from_stats(ws.mean, ws.variance, n, confidence)
