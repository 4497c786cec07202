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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .batcher import FULL_SORT, PARTIAL_SORT, UNSORTED, Batch, BatchPlanConfig, BatchStream

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


def _cost_columns(stream: BatchStream) -> dict[str, np.ndarray]:
    """Each BatchCost field, in field order, as one column over the batches."""
    size, padded_src, padded_tgt = stream.sizes, stream.padded_src, stream.padded_tgt
    useful_src, useful_tgt = (np.add.reduceat(side, stream.starts) for side in (stream.src, stream.tgt))
    total_src, total_tgt = size * padded_src, size * padded_tgt
    return dict(
        size=size,
        padded_src=padded_src,
        padded_tgt=padded_tgt,
        useful_src=useful_src,
        useful_tgt=useful_tgt,
        padded_src_total=total_src,
        padded_tgt_total=total_tgt,
        waste_fraction_src=1.0 - useful_src / total_src,
        waste_fraction_tgt=1.0 - useful_tgt / total_tgt,
        linear_cost=total_src + total_tgt,
        quadratic_cost=size * (padded_src**2 + padded_tgt**2),
        cross_cost=size * padded_src * padded_tgt,
    )


def cost_of_batch(batch: Batch) -> BatchCost:
    """Exact padding accounting for one batch.

    waste_fraction is the share of padded slots holding no real token:
    1 - useful / (|pairs| * padded_len), independently recomputable from the
    member lengths.
    """
    return BatchCost(*(column.item() for column in _cost_columns(BatchStream.of([batch])).values()))


def summarize_run(
    batches: Sequence[Batch],
    config: BatchPlanConfig,
    corpus_hash: str | None = None,
) -> RunReport:
    """Aggregate per-batch costs into a RunReport.

    avg_padded_* are unweighted means over batches of the per-batch maxima
    (a short final batch counts the same as a full one). Totals are exact
    sums of Python ints.
    """
    if not batches:
        raise ValueError("cannot summarize an empty batch stream")
    stream = BatchStream.of(batches)
    costs = {name: column.tolist() for name, column in _cost_columns(stream).items()}
    rows = zip(stream.epoch.tolist(), stream.iteration.tolist(), *costs.values())
    total_useful_src = sum(costs["useful_src"])
    total_useful_tgt = sum(costs["useful_tgt"])
    total_padded_src = sum(costs["padded_src_total"])
    total_padded_tgt = sum(costs["padded_tgt_total"])
    return RunReport(
        config=config,
        corpus_hash=corpus_hash,
        n_batches=len(stream),
        n_pairs=sum(costs["size"]),
        avg_padded_src=float(np.mean(stream.padded_src)),
        avg_padded_tgt=float(np.mean(stream.padded_tgt)),
        total_useful_src=total_useful_src,
        total_useful_tgt=total_useful_tgt,
        total_padded_src=total_padded_src,
        total_padded_tgt=total_padded_tgt,
        overall_waste_src=1.0 - total_useful_src / total_padded_src,
        overall_waste_tgt=1.0 - total_useful_tgt / total_padded_tgt,
        total_linear_cost=sum(costs["linear_cost"]),
        total_quadratic_cost=sum(costs["quadratic_cost"]),
        total_cross_cost=sum(costs["cross_cost"]),
        per_batch=tuple(BatchCostRecord(e, i, BatchCost(*cost)) for e, i, *cost in rows),
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
    All reports must describe runs over the same corpus, batch size, epoch
    count and drop_last setting, and no two the same (policy, k, seed) cell.
    """
    if not reports:
        raise ValueError("cannot compare an empty report list")
    settings = (("m", "batch sizes"), ("epochs", "epoch counts"), ("drop_last", "drop_last settings"))
    for attr, label in settings:
        values = sorted({getattr(r.config, attr) for r in reports})
        if len(values) > 1:
            raise ValueError(f"reports mix {label} {values[0]} and {values[1]}")
    hashes = sorted({r.corpus_hash for r in reports if r.corpus_hash is not None})
    if len(hashes) > 1:
        raise ValueError(f"reports mix corpus hashes {hashes[0]} and {hashes[1]}")

    ordered = sorted(reports, key=lambda r: (*_group_key(r), r.config.seed))
    for a, b in zip(ordered, ordered[1:]):
        if (*_group_key(a), a.config.seed) == (*_group_key(b), b.config.seed):
            raise ValueError(
                f"two reports for policy={a.config.policy} k={k_label(a.config)} seed={a.config.seed}"
            )
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
    return CostComparison(
        m=reports[0].config.m,
        corpus_hash=hashes[0] if hashes else None,
        rows=tuple(rows),
        baseline_missing=baseline is None,
    )


def _safe_ratio(value: float, base: float) -> float | None:
    return value / base if base != 0 else None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_RECORD_KEYS = {"epoch", "iteration", *(f.name for f in fields(BatchCost))}


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
    d = {f.name: getattr(report, f.name) for f in fields(RunReport)}
    d["config"] = asdict(report.config)
    d["per_batch"] = [_record_to_dict(r) for r in report.per_batch]
    return d


def _check_keys(d: object, cls: type, what: str, extra: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless d is a dict with every required field of cls
    and every key in extra, and no other key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in fields(cls)} | set(extra)
    required = {f.name for f in fields(cls) if f.default is MISSING} | set(extra)
    missing = sorted(required - d.keys())
    if missing:
        raise ValueError(f"{what} is missing keys {missing}")
    unknown = sorted(d.keys() - names)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")


def report_from_dict(d: dict) -> RunReport:
    """Inverse of report_to_dict; raises ValueError on missing or unknown
    top-level, config or per_batch keys."""
    _check_keys(d, RunReport, "report")
    _check_keys(d["config"], BatchPlanConfig, "report config")
    if not isinstance(d["per_batch"], list):
        raise ValueError(f"report per_batch must be a JSON array, got {type(d['per_batch']).__name__}")
    for i, entry in enumerate(d["per_batch"]):
        if not isinstance(entry, dict) or entry.keys() != _RECORD_KEYS:
            _check_keys(entry, BatchCost, f"report per_batch[{i}]", extra=("epoch", "iteration"))
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
    *((f.name, f.name) for f in fields(ComparisonRow)[3:]),
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

