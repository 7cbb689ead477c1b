"""Value types for accuracy information (paper §II-B).

Accuracy of a distribution is represented by confidence intervals on
selected parameters:

* for a histogram — one interval per bin height,
* for an arbitrary distribution — intervals on the mean and the variance,
* for a result tuple — an interval on its membership probability (a
  one-bin histogram).

These are immutable value objects; the math that produces them lives in
:mod:`repro.core.analytic` and :mod:`repro.core.bootstrap`.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

from repro.errors import AccuracyError

__all__ = [
    "ConfidenceInterval",
    "BinInterval",
    "TupleProbabilityInterval",
    "AccuracyInfo",
]


@dataclasses.dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """An interval [low, high] that covers a parameter with confidence level.

    ``confidence`` is the confidence coefficient, e.g. 0.95 for a 95%
    interval.
    """

    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise AccuracyError("confidence interval bounds must not be NaN")
        if self.high < self.low:
            raise AccuracyError(
                f"interval upper bound {self.high} below lower bound {self.low}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise AccuracyError(
                f"confidence level must be in (0,1), got {self.confidence}"
            )

    @property
    def length(self) -> float:
        """Width of the interval; shorter means more accurate."""
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0

    def contains(self, value: float) -> bool:
        """Whether the (true) value falls inside the interval."""
        return self.low <= value <= self.high

    def clamped(self, lo: float, hi: float) -> "ConfidenceInterval":
        """Intersect with [lo, hi] — e.g. probabilities live in [0, 1]."""
        new_low = min(max(self.low, lo), hi)
        new_high = max(min(self.high, hi), new_low)
        return ConfidenceInterval(new_low, new_high, self.confidence)

    def __str__(self) -> str:
        return (
            f"[{self.low:.4g}, {self.high:.4g}] "
            f"@{self.confidence * 100:.0f}%"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class BinInterval:
    """Accuracy-annotated histogram bin: (b_i, p_i1, p_i2, c_i) of §II-B."""

    lower_edge: float
    upper_edge: float
    interval: ConfidenceInterval

    @property
    def point_estimate(self) -> float:
        """The learned bin height p_i (interval midpoint for Wald intervals)."""
        return self.interval.midpoint


@dataclasses.dataclass(frozen=True, slots=True)
class TupleProbabilityInterval:
    """Confidence interval on a result tuple's membership probability."""

    interval: ConfidenceInterval

    def __post_init__(self) -> None:
        clamped = self.interval.clamped(0.0, 1.0)
        if clamped != self.interval:
            object.__setattr__(self, "interval", clamped)


@dataclasses.dataclass(frozen=True, slots=True)
class AccuracyInfo:
    """Complete accuracy record of one distribution-valued query field.

    Exactly mirrors Figure 2 of the paper: per-bin intervals when the
    distribution is a histogram, plus mean/variance intervals that apply to
    any distribution.  ``sample_size`` records the (de facto) sample size
    the intervals were derived from.
    """

    mean: ConfidenceInterval
    variance: ConfidenceInterval
    bins: tuple[BinInterval, ...] = ()
    sample_size: int = 0
    method: str = "analytic"
    # Bootstrap observability: how many Monte-Carlo values the chunking
    # consumed vs. discarded (the trailing m mod n values).  Zero for the
    # analytic method.
    values_used: int = 0
    values_dropped: int = 0
    # Draw-budget observability: how many Monte-Carlo values were drawn
    # to produce this record, and over how many escalation rounds.  A
    # fixed-budget bootstrap reports one round; the adaptive
    # early-stopping path (core.adaptive) reports the round at which the
    # width target was reached.  Zero for the analytic method.
    draws_used: int = 0
    rounds: int = 0
    # Synopsis observability: the additional rank/probability-unit error
    # introduced by a bounded-memory sketch synopsis standing in for the
    # full sample (see repro.learning.sketch and docs/SKETCHES.md).
    # Zero when the intervals were derived from exact retained state;
    # when positive, the intervals above have already been widened by
    # the corresponding value-unit amounts (sketch error composed with
    # the sampling error).
    synopsis_error: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_size < 0:
            raise AccuracyError(
                f"sample size must be >= 0, got {self.sample_size}"
            )
        if self.method not in ("analytic", "bootstrap"):
            raise AccuracyError(f"unknown accuracy method {self.method!r}")
        if self.values_used < 0 or self.values_dropped < 0:
            raise AccuracyError(
                "values_used and values_dropped must be >= 0, got "
                f"{self.values_used} and {self.values_dropped}"
            )
        if self.draws_used < 0 or self.rounds < 0:
            raise AccuracyError(
                "draws_used and rounds must be >= 0, got "
                f"{self.draws_used} and {self.rounds}"
            )
        if not (self.synopsis_error >= 0.0) or math.isinf(
            self.synopsis_error
        ):
            raise AccuracyError(
                f"synopsis error must be finite and >= 0, "
                f"got {self.synopsis_error}"
            )

    def widened(
        self,
        mean_eps: float,
        variance_eps: float = 0.0,
        bin_eps: float = 0.0,
        synopsis_error: float | None = None,
    ) -> "AccuracyInfo":
        """Compose a synopsis error bound with these sampling intervals.

        Bounded-memory sketch synopses (:mod:`repro.learning.sketch`)
        stand in for the full retained sample: their estimates carry a
        quantified additional error on top of the Lemma 1/2 sampling
        error.  This widens the mean interval by ``±mean_eps`` (value
        units), the variance interval by ``±variance_eps`` (the lower
        bound stays >= 0), and every bin-height interval by ``±bin_eps``
        (clamped to [0, 1]), and records ``synopsis_error`` (defaults to
        ``bin_eps``, the synopsis' native rank/probability-unit bound)
        so provenance can report it.  With all epsilons zero the record
        is returned unchanged.
        """
        if mean_eps < 0 or variance_eps < 0 or bin_eps < 0:
            raise AccuracyError(
                f"synopsis widening must be >= 0, got "
                f"({mean_eps}, {variance_eps}, {bin_eps})"
            )
        recorded = bin_eps if synopsis_error is None else synopsis_error
        if mean_eps == 0.0 and variance_eps == 0.0 and bin_eps == 0.0:
            if recorded == self.synopsis_error:
                return self
            return dataclasses.replace(self, synopsis_error=recorded)
        mean = ConfidenceInterval(
            self.mean.low - mean_eps,
            self.mean.high + mean_eps,
            self.mean.confidence,
        )
        variance = ConfidenceInterval(
            max(self.variance.low - variance_eps, 0.0),
            self.variance.high + variance_eps,
            self.variance.confidence,
        )
        bins = self.bins
        if bin_eps and bins:
            bins = tuple(
                BinInterval(
                    b.lower_edge,
                    b.upper_edge,
                    ConfidenceInterval(
                        b.interval.low - bin_eps,
                        b.interval.high + bin_eps,
                        b.interval.confidence,
                    ).clamped(0.0, 1.0),
                )
                for b in bins
            )
        return dataclasses.replace(
            self,
            mean=mean,
            variance=variance,
            bins=bins,
            synopsis_error=recorded,
        )

    @property
    def has_bins(self) -> bool:
        return bool(self.bins)

    def bin_intervals(self) -> Sequence[ConfidenceInterval]:
        """The bare per-bin confidence intervals, in bin order."""
        return tuple(b.interval for b in self.bins)

    @classmethod
    def from_bounds(
        cls,
        mean_lo: float,
        mean_hi: float,
        var_lo: float,
        var_hi: float,
        confidence: float,
        sample_size: int,
        method: str = "analytic",
        values_used: int = 0,
        values_dropped: int = 0,
        draws_used: int = 0,
        rounds: int = 0,
        bins: tuple[BinInterval, ...] = (),
    ) -> "AccuracyInfo":
        """One record from its mean and variance interval bounds.

        The single row builder behind the batched kernels
        (:func:`~repro.core.analytic.accuracy_from_moments`,
        :func:`~repro.core.bootstrap.bootstrap_accuracy_batch`) and the
        lazy rows of :class:`~repro.streams.columnar.AccuracyColumn`, so
        a record built from arrays is the record the per-row path builds.
        """
        # Positional, in field order: the cheapest way in.
        return cls(
            ConfidenceInterval(mean_lo, mean_hi, confidence),
            ConfidenceInterval(var_lo, var_hi, confidence),
            bins,
            sample_size,
            method,
            values_used,
            values_dropped,
            draws_used,
            rounds,
        )

    def describe(self) -> str:
        """Human-readable multi-line rendering for query output."""
        lines = [
            f"accuracy (method={self.method}, n={self.sample_size}):",
            f"  mean     {self.mean}",
            f"  variance {self.variance}",
        ]
        if self.synopsis_error:
            lines.append(
                f"  synopsis error +/-{self.synopsis_error:.4g} "
                f"(sketch, folded into the intervals above)"
            )
        for b in self.bins:
            lines.append(
                f"  bin [{b.lower_edge:.4g}, {b.upper_edge:.4g}) "
                f"{b.interval}"
            )
        return "\n".join(lines)
