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

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .batcher import PARTIAL_SORT, Batch, BatchPlanConfig, BatchStream, run_epochs
from .corpus import Corpus

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
    "CycleSummary",
    "CycleReport",
    "IIDReport",
    "extract_series",
    "autocorrelation",
    "cycle_analysis",
    "iid_report",
    "policy_iid_report",
    "iid_report_to_dict",
    "write_iid_report_json",
    "write_series_csv",
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
class CycleSummary:
    index: int
    epoch: int
    n_batches: int
    min_padded_src: int
    max_padded_src: int
    non_decreasing: bool


@dataclass(frozen=True)
class CycleReport:
    """Refill-cycle monotonicity. k=1 cycles are single batches, trivially
    non-decreasing, so the score carries no signal there."""

    k: int
    cycle_score: float
    cycles: tuple[CycleSummary, ...]
    uninformative: bool = False


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

    A constant series has no defined correlation; it reports 0 at every lag
    with the degenerate flag set. The series must be longer than max_lag + 2
    so every lag keeps at least three point pairs.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    values = np.asarray(series.values, dtype=float)
    if values.size <= max_lag + 2:
        raise ValueError(
            f"series of length {values.size} too short for max_lag {max_lag}"
        )
    lags: dict[int, float] = {}
    degenerate = False
    for lag in range(1, max_lag + 1):
        head = values[:-lag]
        tail = values[lag:]
        if np.ptp(head) == 0 or np.ptp(tail) == 0:
            lags[lag] = 0.0
            degenerate = True
            continue
        r = float(np.corrcoef(head, tail)[0, 1])
        if not np.isfinite(r):
            lags[lag] = 0.0
            degenerate = True
            continue
        lags[lag] = float(np.clip(r, -1.0, 1.0))
    return AutocorrResult(lags=lags, degenerate=degenerate)


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
    columns = (
        epoch[starts],
        np.diff(starts, append=n),
        np.minimum.reduceat(padded, starts),
        np.maximum.reduceat(padded, starts),
        np.logical_and.reduceat(no_drop, starts),
    )
    cycles = tuple(
        CycleSummary(i, *cycle) for i, cycle in enumerate(zip(*(c.tolist() for c in columns)))
    )
    return CycleReport(
        k=config.k,
        cycle_score=sum(c.non_decreasing for c in cycles) / len(cycles),
        cycles=cycles,
        uninformative=config.k == 1,
    )


def default_max_lag(config: BatchPlanConfig, series_length: int) -> int:
    """Twice the look-ahead, clamped to what the series length supports."""
    k = config.k if config.policy == PARTIAL_SORT else 1
    return max(1, min(2 * k, series_length - 3))


def iid_report(
    batches: Sequence[Batch],
    config: BatchPlanConfig,
    metric_tag: str = "padded_src",
    max_lag: int | None = None,
) -> IIDReport:
    """Autocorrelation plus cycle structure of one run's batch series.

    With the default max_lag, a series too short for even lag 1 (fewer than
    four batches) reports an empty, degenerate autocorrelation instead of
    failing; an explicit max_lag keeps the strict length requirement.
    """
    batches = BatchStream.of(batches)
    series = extract_series(batches, metric_tag, config)
    if max_lag is None:
        max_lag = default_max_lag(config, len(series.values))
        if len(series.values) <= max_lag + 2:
            max_lag = 0
    return IIDReport(
        metric_tag=metric_tag,
        config=config,
        series_mean=float(np.mean(series.values)),
        series_std=float(np.std(series.values)),
        autocorr=autocorrelation(series, max_lag) if max_lag else AutocorrResult(lags={}, degenerate=True),
        cycle=cycle_analysis(batches, config) if config.policy == PARTIAL_SORT else None,
    )


def policy_iid_report(
    corpus: Corpus,
    configs: Sequence[BatchPlanConfig],
    metric_tag: str = "padded_src",
    max_lag: int | None = None,
) -> list[IIDReport]:
    """Run each config over the corpus and diagnose its batch series."""
    if not configs:
        raise ValueError("need at least one config")
    return [
        iid_report(run_epochs(corpus, config), config, metric_tag, max_lag)
        for config in configs
    ]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def iid_report_to_dict(report: IIDReport, include_cycles: bool = False) -> dict:
    cycle = None
    if report.cycle is not None:
        cycle = {
            "k": report.cycle.k,
            "cycle_score": report.cycle.cycle_score,
            "n_cycles": len(report.cycle.cycles),
            "uninformative": report.cycle.uninformative,
        }
        if include_cycles:
            cycle["cycles"] = [asdict(c) for c in report.cycle.cycles]
    return {
        "metric_tag": report.metric_tag,
        "config": asdict(report.config),
        "series_mean": report.series_mean,
        "series_std": report.series_std,
        "degenerate": report.autocorr.degenerate,
        "lag_autocorrs": {str(lag): r for lag, r in sorted(report.autocorr.lags.items())},
        "cycle": cycle,
    }


def write_iid_report_json(report: IIDReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(iid_report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_series_csv(series: BatchSeries, path: str | Path) -> None:
    """Raw series dump for external plotting: one (index, value) row per batch."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["index", series.metric_tag])
        for i, value in enumerate(series.values):
            writer.writerow([i, format(value, ".6f")])
