"""Padding-cost accounting for batch streams.

Per batch, every member is padded to the batch maximum on each side, so the
device processes |pairs| * padded_len token slots per side while only the
real tokens are useful. This module counts both, derives waste fractions,
and aggregates three cost proxies per run:

  linear_cost    = padded_src_total + padded_tgt_total        (token slots)
  quadratic_cost = |pairs| * (padded_src^2 + padded_tgt^2)    (slot pairs)
  cross_cost     = |pairs| * padded_src * padded_tgt          (slot pairs)

None of these model a specific device; together they bracket encoder-side,
attention-dominated, and cross-attention-dominated workloads.

Run averages of padded lengths are unweighted means of per-batch maxima;
reports carry avg_definition metadata naming that convention.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .batcher import FULL_SORT, PARTIAL_SORT, UNSORTED, Batch, BatchPlanConfig

AVG_DEFINITION = "mean_of_per_batch_max"

#: Row order in comparison tables: unsorted baseline first, then partial
#: sort by ascending k, then full sort last.
_POLICY_RANK = {UNSORTED: 0, PARTIAL_SORT: 1, FULL_SORT: 2}

__all__ = [
    "AVG_DEFINITION",
    "BatchCost",
    "BatchCostRecord",
    "RunReport",
    "ComparisonRow",
    "CostComparison",
    "cost_of_batch",
    "summarize_run",
    "compare_costs",
    "k_label",
    "report_to_dict",
    "report_from_dict",
    "write_report_json",
    "read_report_json",
    "comparison_to_csv",
    "comparison_to_markdown",
    "comparison_to_json",
]


@dataclass(frozen=True, slots=True)
class BatchCost:
    """Token accounting for one batch; slots counted after padding."""

    size: int
    padded_src: int
    padded_tgt: int
    useful_src: int
    useful_tgt: int
    padded_src_total: int
    padded_tgt_total: int
    waste_fraction_src: float
    waste_fraction_tgt: float
    linear_cost: int
    quadratic_cost: int
    cross_cost: int


@dataclass(frozen=True, slots=True)
class BatchCostRecord:
    """BatchCost tagged with its position in the run's batch stream."""

    epoch: int
    iteration: int
    cost: BatchCost


@dataclass(frozen=True)
class RunReport:
    """Aggregated padding costs of one (config, corpus) run."""

    config: BatchPlanConfig
    corpus_hash: str | None
    n_batches: int
    n_pairs: int
    avg_padded_src: float
    avg_padded_tgt: float
    total_useful_src: int
    total_useful_tgt: int
    total_padded_src: int
    total_padded_tgt: int
    overall_waste_src: float
    overall_waste_tgt: float
    total_linear_cost: int
    total_quadratic_cost: int
    total_cross_cost: int
    per_batch: tuple[BatchCostRecord, ...]
    avg_definition: str = AVG_DEFINITION


def cost_of_batch(batch: Batch) -> BatchCost:
    """Exact padding accounting for one batch.

    waste_fraction is the share of padded slots holding no real token:
    1 - useful / (|pairs| * padded_len), independently recomputable from the
    member lengths.
    """
    size = len(batch.pairs)
    useful_src = sum(p.src_len for p in batch.pairs)
    useful_tgt = sum(p.tgt_len for p in batch.pairs)
    padded_src_total = size * batch.padded_src
    padded_tgt_total = size * batch.padded_tgt
    return BatchCost(
        size=size,
        padded_src=batch.padded_src,
        padded_tgt=batch.padded_tgt,
        useful_src=useful_src,
        useful_tgt=useful_tgt,
        padded_src_total=padded_src_total,
        padded_tgt_total=padded_tgt_total,
        waste_fraction_src=1.0 - useful_src / padded_src_total,
        waste_fraction_tgt=1.0 - useful_tgt / padded_tgt_total,
        linear_cost=padded_src_total + padded_tgt_total,
        quadratic_cost=size * (batch.padded_src**2 + batch.padded_tgt**2),
        cross_cost=size * batch.padded_src * batch.padded_tgt,
    )


def summarize_run(
    batches: Sequence[Batch],
    config: BatchPlanConfig,
    corpus_hash: str | None = None,
) -> RunReport:
    """Aggregate per-batch costs into a RunReport.

    avg_padded_* are unweighted means over batches of the per-batch maxima
    (a short final batch counts the same as a full one).
    """
    if not batches:
        raise ValueError("cannot summarize an empty batch stream")
    records = tuple(
        BatchCostRecord(b.epoch_index, b.iteration_index, cost_of_batch(b)) for b in batches
    )
    costs = [r.cost for r in records]
    total_useful_src = sum(c.useful_src for c in costs)
    total_useful_tgt = sum(c.useful_tgt for c in costs)
    total_padded_src = sum(c.padded_src_total for c in costs)
    total_padded_tgt = sum(c.padded_tgt_total for c in costs)
    return RunReport(
        config=config,
        corpus_hash=corpus_hash,
        n_batches=len(records),
        n_pairs=sum(c.size for c in costs),
        avg_padded_src=float(np.mean([c.padded_src for c in costs])),
        avg_padded_tgt=float(np.mean([c.padded_tgt for c in costs])),
        total_useful_src=total_useful_src,
        total_useful_tgt=total_useful_tgt,
        total_padded_src=total_padded_src,
        total_padded_tgt=total_padded_tgt,
        overall_waste_src=1.0 - total_useful_src / total_padded_src,
        overall_waste_tgt=1.0 - total_useful_tgt / total_padded_tgt,
        total_linear_cost=sum(c.linear_cost for c in costs),
        total_quadratic_cost=sum(c.quadratic_cost for c in costs),
        total_cross_cost=sum(c.cross_cost for c in costs),
        per_batch=records,
    )


# ---------------------------------------------------------------------------
# Cross-policy comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """One policy/k cell averaged over its seeds; ratios are vs unsorted."""

    policy: str
    k_label: str
    n_runs: int
    avg_padded_src: float
    avg_padded_tgt: float
    waste_src: float
    waste_tgt: float
    linear_cost: float
    quadratic_cost: float
    cross_cost: float
    ratio_avg_src: float | None = None
    ratio_avg_tgt: float | None = None
    ratio_waste_src: float | None = None
    ratio_waste_tgt: float | None = None
    ratio_linear: float | None = None
    ratio_quadratic: float | None = None


@dataclass(frozen=True)
class CostComparison:
    m: int
    corpus_hash: str | None
    rows: tuple[ComparisonRow, ...]
    baseline_missing: bool


def k_label(config: BatchPlanConfig) -> str:
    """Row label for the look-ahead column: 'all' marks the full sort."""
    if config.policy == FULL_SORT:
        return "all"
    if config.policy == UNSORTED:
        return "1"
    return str(config.k)


def _group_key(report: RunReport) -> tuple[int, int]:
    k = 1 if report.config.policy in (UNSORTED, FULL_SORT) else report.config.k
    return (_POLICY_RANK[report.config.policy], k)


def compare_costs(reports: Sequence[RunReport]) -> CostComparison:
    """Merge per-seed reports into one row per policy/k cell.

    Ratio columns divide each cell by the unsorted baseline row; without an
    unsorted report the ratios are omitted and the comparison is flagged.
    All reports must describe runs over the same corpus and batch size.
    """
    if not reports:
        raise ValueError("cannot compare an empty report list")
    sizes = sorted({r.config.m for r in reports})
    if len(sizes) > 1:
        raise ValueError(f"reports mix batch sizes {sizes[0]} and {sizes[1]}")
    hashes = sorted({r.corpus_hash for r in reports if r.corpus_hash is not None})
    if len(hashes) > 1:
        raise ValueError(f"reports mix corpus hashes {hashes[0]} and {hashes[1]}")

    ordered = sorted(reports, key=lambda r: (*_group_key(r), r.config.seed))
    rows = []
    for (_, k), group in groupby(ordered, key=_group_key):
        cell = list(group)
        first = cell[0].config
        rows.append(
            ComparisonRow(
                policy=first.policy,
                k_label=k_label(first),
                n_runs=len(cell),
                avg_padded_src=float(np.mean([r.avg_padded_src for r in cell])),
                avg_padded_tgt=float(np.mean([r.avg_padded_tgt for r in cell])),
                waste_src=float(np.mean([r.overall_waste_src for r in cell])),
                waste_tgt=float(np.mean([r.overall_waste_tgt for r in cell])),
                linear_cost=float(np.mean([r.total_linear_cost for r in cell])),
                quadratic_cost=float(np.mean([r.total_quadratic_cost for r in cell])),
                cross_cost=float(np.mean([r.total_cross_cost for r in cell])),
            )
        )

    baseline = next((row for row in rows if row.policy == UNSORTED), None)
    if baseline is not None:
        rows = [
            replace(
                row,
                ratio_avg_src=row.avg_padded_src / baseline.avg_padded_src,
                ratio_avg_tgt=row.avg_padded_tgt / baseline.avg_padded_tgt,
                ratio_waste_src=_safe_ratio(row.waste_src, baseline.waste_src),
                ratio_waste_tgt=_safe_ratio(row.waste_tgt, baseline.waste_tgt),
                ratio_linear=row.linear_cost / baseline.linear_cost,
                ratio_quadratic=row.quadratic_cost / baseline.quadratic_cost,
            )
            for row in rows
        ]
    else:
        warnings.warn("no unsorted baseline among reports; ratio columns omitted", stacklevel=2)
    return CostComparison(
        m=sizes[0],
        corpus_hash=hashes[0] if hashes else None,
        rows=tuple(rows),
        baseline_missing=baseline is None,
    )


def _safe_ratio(value: float, base: float) -> float | None:
    return value / base if base != 0 else None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _record_to_dict(record: BatchCostRecord) -> dict:
    c = record.cost
    return {
        "epoch": record.epoch,
        "iteration": record.iteration,
        "size": c.size,
        "padded_src": c.padded_src,
        "padded_tgt": c.padded_tgt,
        "useful_src": c.useful_src,
        "useful_tgt": c.useful_tgt,
        "padded_src_total": c.padded_src_total,
        "padded_tgt_total": c.padded_tgt_total,
        "waste_fraction_src": c.waste_fraction_src,
        "waste_fraction_tgt": c.waste_fraction_tgt,
        "linear_cost": c.linear_cost,
        "quadratic_cost": c.quadratic_cost,
        "cross_cost": c.cross_cost,
    }


def _record_from_dict(d: dict) -> BatchCostRecord:
    cost = BatchCost(**{k: v for k, v in d.items() if k not in ("epoch", "iteration")})
    return BatchCostRecord(epoch=d["epoch"], iteration=d["iteration"], cost=cost)


def report_to_dict(report: RunReport) -> dict:
    d = {
        "config": asdict(report.config),
        "corpus_hash": report.corpus_hash,
        "avg_definition": report.avg_definition,
        "per_batch": [_record_to_dict(r) for r in report.per_batch],
    }
    for field in (
        "n_batches",
        "n_pairs",
        "avg_padded_src",
        "avg_padded_tgt",
        "total_useful_src",
        "total_useful_tgt",
        "total_padded_src",
        "total_padded_tgt",
        "overall_waste_src",
        "overall_waste_tgt",
        "total_linear_cost",
        "total_quadratic_cost",
        "total_cross_cost",
    ):
        d[field] = getattr(report, field)
    return d


def _check_keys(d: object, cls: type, what: str) -> None:
    """Raise ValueError unless d is a dict with every required field of cls
    and no key that is not a field of cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    missing = sorted(required - d.keys())
    if missing:
        raise ValueError(f"{what} is missing keys {missing}")
    unknown = sorted(d.keys() - names)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")


def report_from_dict(d: dict) -> RunReport:
    """Inverse of report_to_dict; raises ValueError on missing or unknown
    top-level or config keys."""
    _check_keys(d, RunReport, "report")
    _check_keys(d["config"], BatchPlanConfig, "report config")
    rest = {k: v for k, v in d.items() if k not in ("config", "per_batch")}
    return RunReport(
        config=BatchPlanConfig(**d["config"]),
        per_batch=tuple(_record_from_dict(r) for r in d["per_batch"]),
        **rest,
    )


def write_report_json(report: RunReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_report_json(path: str | Path) -> RunReport:
    with open(path, encoding="utf-8") as handle:
        try:
            return report_from_dict(json.load(handle))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

#: (column name in comparison.csv and comparison.json, ComparisonRow attribute)
_COLUMNS = (
    ("policy", "policy"),
    ("k", "k_label"),
    ("runs", "n_runs"),
    ("avg_padded_src", "avg_padded_src"),
    ("avg_padded_tgt", "avg_padded_tgt"),
    ("waste_src", "waste_src"),
    ("waste_tgt", "waste_tgt"),
    ("linear_cost", "linear_cost"),
    ("quadratic_cost", "quadratic_cost"),
    ("cross_cost", "cross_cost"),
    ("ratio_avg_src", "ratio_avg_src"),
    ("ratio_avg_tgt", "ratio_avg_tgt"),
    ("ratio_waste_src", "ratio_waste_src"),
    ("ratio_waste_tgt", "ratio_waste_tgt"),
    ("ratio_linear", "ratio_linear"),
    ("ratio_quadratic", "ratio_quadratic"),
)


def _fmt(value: float | int | str | None, spec: str = ".6f") -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, spec)


def comparison_to_csv(comparison: CostComparison) -> str:
    """Comparison table as CSV text; floats fixed to 6 decimals."""
    lines = [",".join(column for column, _ in _COLUMNS)]
    for row in comparison.rows:
        lines.append(",".join(_fmt(getattr(row, attr)) for _, attr in _COLUMNS))
    return "\n".join(lines) + "\n"


def comparison_to_markdown(comparison: CostComparison) -> str:
    """Comparison table as a markdown table of per-side averaged padded
    batch lengths by k, with ratios against the unsorted row."""
    header = "| policy | k | avg padded src | avg padded tgt | ratio src | ratio tgt |"
    rule = "|---|---|---|---|---|---|"
    lines = [header, rule]
    for row in comparison.rows:
        ratio_src = _fmt(row.ratio_avg_src, ".2f") or "-"
        ratio_tgt = _fmt(row.ratio_avg_tgt, ".2f") or "-"
        lines.append(
            f"| {row.policy} | {row.k_label} | {row.avg_padded_src:.2f}"
            f" | {row.avg_padded_tgt:.2f} | {ratio_src} | {ratio_tgt} |"
        )
    if comparison.baseline_missing:
        lines.append("")
        lines.append("no unsorted baseline: ratio columns omitted")
    return "\n".join(lines) + "\n"


def comparison_to_json(comparison: CostComparison) -> str:
    rows = [{column: getattr(row, attr) for column, attr in _COLUMNS} for row in comparison.rows]
    payload = {
        "m": comparison.m,
        "corpus_hash": comparison.corpus_hash,
        "baseline_missing": comparison.baseline_missing,
        "rows": rows,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

