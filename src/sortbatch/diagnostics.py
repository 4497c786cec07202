"""Stochasticity diagnostics for batch streams.

Sorting by length makes consecutive batches resemble each other, so the
sequence of per-batch statistics stops looking like i.i.d. draws. Two
testable proxies quantify that:

  * lag autocorrelation of a per-batch series (padded lengths, mean lengths,
    batch size): near zero for shuffled chunking, strongly positive once a
    sort buffer imposes structure;
  * cycle_score: the fraction of refill cycles (the k batches emitted
    between buffer refills) whose padded_src sequence is non-decreasing.
    Under this loader it is always 1.0: each refill cycle is one sorted
    block cut from its start into batches of m, so its padded_src cannot drop.

A per-batch series is a float64 array, one value per batch in emission
order. iid_report diagnoses padded_src; the other METRICS tags go through
extract_series and autocorrelation.
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
    "mean_src": lambda s: s.length_sums[0] / s.sizes,
    "mean_tgt": lambda s: s.length_sums[1] / s.sizes,
    "size": lambda s: s.sizes,
}

__all__ = [
    "METRICS",
    "AutocorrResult",
    "CycleReport",
    "extract_series",
    "autocorrelation",
    "cycle_analysis",
    "default_max_lag",
    "iid_report",
    "write_iid_report_json",
]


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


def extract_series(
    batches: Sequence[Batch],
    metric_tag: str,
    config: BatchPlanConfig | None = None,
) -> np.ndarray:
    """One of the METRICS tags per batch, in emission order, as a read-only
    float64 array. config is not read; it is kept for callers that pass it."""
    stream = BatchStream.of(batches)
    try:
        metric = METRICS[metric_tag]
    except KeyError:
        raise ValueError(
            f"unknown metric tag {metric_tag!r}, expected one of {sorted(METRICS)}"
        ) from None
    values = metric(stream).astype(float)
    values.flags.writeable = False
    return values


def autocorrelation(series: Sequence[float], max_lag: int) -> AutocorrResult:
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
    than max_lag + 2 so every lag keeps at least three point pairs, and its
    values finite and non-negative.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    values = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("series values must be finite and non-negative")
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
    cross = np.array([x[:-lag].dot(x[lag:]) for lag in range(1, max_lag + 1)])
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
    epoch may be shorter. A cycle opens at the first batch and at each batch
    whose iteration (its position in its epoch) is a multiple of k.
    cycle_score is the fraction of cycles whose padded_src is non-decreasing.
    """
    if config.policy != PARTIAL_SORT:
        raise ValueError(f"cycle analysis requires policy {PARTIAL_SORT!r}, got {config.policy!r}")
    stream = BatchStream.of(batches)
    opens = stream.iteration % min(config.k, len(stream)) == 0  # k may not fit in int64
    opens[0] = True  # a plain batch list may start mid-cycle
    starts, padded = np.flatnonzero(opens), stream.padded_src
    no_drop = np.diff(padded, prepend=padded[0]) >= 0
    no_drop[starts] = True
    non_decreasing = int(np.count_nonzero(np.logical_and.reduceat(no_drop, starts)))
    return CycleReport(cycle_score=non_decreasing / len(starts), n_cycles=len(starts))


def default_max_lag(config: BatchPlanConfig, series_length: int) -> int:
    """Twice the look-ahead, clamped so that every lag keeps at least half
    the series (and three point pairs) to correlate."""
    return max(1, min(2 * config.k, series_length // 2, series_length - 3))


def iid_report(batches: Sequence[Batch], config: BatchPlanConfig) -> dict:
    """One run's iid.json document: autocorrelation of its padded_src series
    at lags 1..default_max_lag (keyed by the lag as text, in lag order) plus,
    under partial_sort, its cycle structure (None otherwise). The run's config
    and mean padded_src are in its report.json. A series too short for even
    lag 1 (fewer than four batches) reports an empty, degenerate
    autocorrelation instead of failing."""
    batches = BatchStream.of(batches)
    series = extract_series(batches, "padded_src")
    max_lag = default_max_lag(config, len(series))
    if len(series) > max_lag + 2:
        autocorr = autocorrelation(series, max_lag)
    else:
        autocorr = AutocorrResult(lags={}, degenerate=True)
    return {
        "cycle": asdict(cycle_analysis(batches, config)) if config.policy == PARTIAL_SORT else None,
        "degenerate": autocorr.degenerate,
        "lag_autocorrs": {str(lag): r for lag, r in autocorr.lags.items()},
        "metric_tag": "padded_src",
        "series_std": float(np.std(series)),
    }


def write_iid_report_json(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
