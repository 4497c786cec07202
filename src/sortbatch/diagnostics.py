"""Stochasticity diagnostics for batch streams.

Sorting by length makes consecutive batches resemble each other, so the
sequence of per-batch statistics stops looking like i.i.d. draws. Two
testable proxies quantify that:

  * lag autocorrelation of a per-batch series (padded lengths, mean lengths,
    batch size): near zero for shuffled chunking, strongly positive once a
    sort buffer imposes structure;
  * cycle_score: the fraction of refill cycles (the k batches emitted
    between buffer refills) whose padded_src sequence is non-decreasing.
    The sorted buffer makes this 1.0 whenever the epoch size is a multiple
    of m*k.

No single batch statistic is privileged; several metric tags are exposed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .batcher import PARTIAL_SORT, Batch, BatchPlanConfig, BatchStream

#: Per-batch scalars: each maps a stream to one value per batch.
METRICS: dict[str, Callable[[BatchStream], np.ndarray]] = {
    "padded_src": lambda s: s.padded_src,
    "padded_tgt": lambda s: s.padded_tgt,
    "mean_src": lambda s: np.add.reduceat(s.src, s.starts) / s.sizes,
    "mean_tgt": lambda s: np.add.reduceat(s.tgt, s.starts) / s.sizes,
    "size": lambda s: s.sizes,
}

__all__ = [
    "METRICS",
    "BatchSeries",
    "AutocorrResult",
    "CycleReport",
    "IIDReport",
    "extract_series",
    "autocorrelation",
    "cycle_analysis",
    "iid_report",
    "iid_report_to_dict",
    "write_iid_report_json",
]


@dataclass(frozen=True)
class BatchSeries:
    """One scalar per batch, in emission order."""

    values: tuple[float, ...]
    metric_tag: str
    config: BatchPlanConfig | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise ValueError("series values must be finite and non-negative")


@dataclass(frozen=True)
class AutocorrResult:
    """Pearson autocorrelation per lag; degenerate marks constant slices
    whose correlation is undefined and reported as 0."""

    lags: dict[int, float]
    degenerate: bool = False


@dataclass(frozen=True)
class CycleReport:
    """Refill-cycle monotonicity. k=1 cycles are single batches, trivially
    non-decreasing, so the score carries no signal there."""

    cycle_score: float
    n_cycles: int


@dataclass(frozen=True)
class IIDReport:
    metric_tag: str
    config: BatchPlanConfig
    series_mean: float
    series_std: float
    autocorr: AutocorrResult
    cycle: CycleReport | None = None


def extract_series(
    batches: Sequence[Batch],
    metric_tag: str,
    config: BatchPlanConfig | None = None,
) -> BatchSeries:
    """Per-batch scalar series for one of the METRICS tags."""
    if not batches:
        raise ValueError("cannot extract a series from an empty batch stream")
    try:
        metric = METRICS[metric_tag]
    except KeyError:
        raise ValueError(
            f"unknown metric tag {metric_tag!r}, expected one of {sorted(METRICS)}"
        ) from None
    values = metric(BatchStream.of(batches)).astype(float).tolist()
    return BatchSeries(tuple(values), metric_tag, config)


def autocorrelation(series: BatchSeries, max_lag: int) -> AutocorrResult:
    """Sample Pearson correlation of (v_t, v_{t+lag}) for lag in 1..max_lag.

    The same Pearson r as np.corrcoef(v[:-lag], v[lag:]), up to rounding in
    the last digits, for all lags in O(n * max_lag): the series is centred
    once on its mean, every lag's head and tail sums and sums of squares come
    from prefix and suffix cumulative sums, and its cross sum from one dot
    product. A lag where those sums lose digits to cancellation (a slice's
    sum of squares about the series mean is over 100 times that about its
    own mean) is recomputed about the slice means.

    A lag whose head or tail slice is constant, found exactly from the
    lengths of the first and last runs of equal values, or whose r is not
    finite reports 0 with the degenerate flag set. The series must be longer
    than max_lag + 2 so every lag keeps at least three point pairs.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    values = np.asarray(series.values, dtype=float)
    n = values.size
    if n <= max_lag + 2:
        raise ValueError(f"series of length {n} too short for max_lag {max_lag}")
    count = n - np.arange(1, max_lag + 1)  # point pairs per lag
    change = np.flatnonzero(values[1:] != values[:-1])
    first_run, last_run = (change[0] + 1, n - 1 - change[-1]) if change.size else (n, n)
    constant = (first_run >= count) | (last_run >= count)

    x = values - values.mean()
    square = x * x
    head_sum, head_sq = np.cumsum(x)[count - 1], np.cumsum(square)[count - 1]
    tail_sum, tail_sq = np.cumsum(x[::-1])[count - 1], np.cumsum(square[::-1])[count - 1]
    cross = np.array([x[:-lag] @ x[lag:] for lag in range(1, max_lag + 1)])
    head_var = head_sq - head_sum**2 / count
    tail_var = tail_sq - tail_sum**2 / count
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (cross - head_sum * tail_sum / count) / np.sqrt(head_var * tail_var)
        for lag in np.flatnonzero(~constant & ((head_var <= head_sq / 100) | (tail_var <= tail_sq / 100))) + 1:
            head, tail = values[:-lag] - values[:-lag].mean(), values[lag:] - values[lag:].mean()
            r[lag - 1] = (head @ tail) / np.sqrt((head @ head) * (tail @ tail))

    zero = constant | ~np.isfinite(r)
    r = np.where(zero, 0.0, np.clip(r, -1.0, 1.0))
    return AutocorrResult(lags=dict(enumerate(r.tolist(), start=1)), degenerate=bool(zero.any()))


def cycle_analysis(batches: Sequence[Batch], config: BatchPlanConfig) -> CycleReport:
    """Segment a partial-sort stream at refill boundaries and score cycles.

    Refills top the buffer up to m*k and every batch pops m, so cycles are
    consecutive runs of k batches within an epoch; the final cycle of an
    epoch may be shorter. cycle_score is the fraction of cycles whose
    padded_src sequence is non-decreasing.
    """
    if config.policy != PARTIAL_SORT:
        raise ValueError(f"cycle analysis requires policy {PARTIAL_SORT!r}, got {config.policy!r}")
    if not batches:
        raise ValueError("cannot analyze an empty batch stream")
    stream = BatchStream.of(batches)
    n, epoch, padded = len(stream), stream.epoch, stream.padded_src
    epoch_starts = np.flatnonzero(np.diff(epoch, prepend=epoch[0] - 1))
    position = np.arange(n) - np.repeat(epoch_starts, np.diff(epoch_starts, append=n))
    starts = np.flatnonzero(position % min(config.k, n) == 0)
    no_drop = np.diff(padded, prepend=padded[0]) >= 0
    no_drop[starts] = True
    non_decreasing = int(np.count_nonzero(np.logical_and.reduceat(no_drop, starts)))
    return CycleReport(cycle_score=non_decreasing / len(starts), n_cycles=len(starts))


def default_max_lag(config: BatchPlanConfig, series_length: int) -> int:
    """Twice the look-ahead, clamped so that every lag keeps at least half
    the series (and three point pairs) to correlate."""
    return max(1, min(2 * config.k, series_length // 2, series_length - 3))


def iid_report(batches: Sequence[Batch], config: BatchPlanConfig, metric_tag: str = "padded_src") -> IIDReport:
    """Autocorrelation at lags 1..default_max_lag plus cycle structure of one
    run's batch series. A series too short for even lag 1 (fewer than four
    batches) reports an empty, degenerate autocorrelation instead of failing."""
    batches = BatchStream.of(batches)
    series = extract_series(batches, metric_tag, config)
    max_lag = default_max_lag(config, len(series.values))
    if len(series.values) > max_lag + 2:
        autocorr = autocorrelation(series, max_lag)
    else:
        autocorr = AutocorrResult(lags={}, degenerate=True)
    return IIDReport(
        metric_tag=metric_tag,
        config=config,
        series_mean=float(np.mean(series.values)),
        series_std=float(np.std(series.values)),
        autocorr=autocorr,
        cycle=cycle_analysis(batches, config) if config.policy == PARTIAL_SORT else None,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def iid_report_to_dict(report: IIDReport) -> dict:
    return {
        "metric_tag": report.metric_tag,
        "config": asdict(report.config),
        "series_mean": report.series_mean,
        "series_std": report.series_std,
        "degenerate": report.autocorr.degenerate,
        "lag_autocorrs": {str(lag): r for lag, r in sorted(report.autocorr.lags.items())},
        "cycle": None if report.cycle is None else asdict(report.cycle),
    }


def write_iid_report_json(report: IIDReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(iid_report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")
