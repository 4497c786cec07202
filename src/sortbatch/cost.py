"""Padding-cost accounting for batch streams.

Per batch, every member is padded to the batch maximum on each side, so the
device processes |pairs| * padded_len token slots per side while only the
real tokens are useful. This module counts both, derives waste fractions,
and totals three cost proxies per run:

  linear_cost    = padded_src_total + padded_tgt_total        (token slots)
  quadratic_cost = |pairs| * (padded_src^2 + padded_tgt^2)    (slot pairs)
  cross_cost     = |pairs| * padded_src * padded_tgt          (slot pairs)

None of these model a specific device; together they bracket encoder-side,
attention-dominated, and cross-attention-dominated workloads.

Run averages of padded lengths are unweighted means of per-batch maxima;
reports carry avg_definition metadata naming that convention.

A RunReport (and its report.json) holds only these run aggregates. One batch's
costs are cost_of_batch(stream[b]), or rebuilt from batches.jsonl and corpus.tsv.
A comparison row is a dict keyed by column name in comparison.csv order:
policy, k (batcher.k_label of its config, "all" for full_sort), runs, then one
mean per _CELL_COLUMNS entry, then their ratio columns. Each entry names its
column, the RunReport field averaged over a cell's seeds and the ratio column,
if any, that divides it by the unsorted row.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .batcher import FULL_SORT, PARTIAL_SORT, UNSORTED, Batch, BatchPlanConfig, BatchStream, k_label

AVG_DEFINITION = "mean_of_per_batch_max"

#: Row order in comparison tables: unsorted baseline first, then partial
#: sort by ascending k, then full sort last.
_POLICY_RANK = {UNSORTED: 0, PARTIAL_SORT: 1, FULL_SORT: 2}

__all__ = [
    "AVG_DEFINITION",
    "BatchCost",
    "RunReport",
    "CostComparison",
    "cost_of_batch",
    "summarize_run",
    "compare_costs",
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
    avg_definition: str = AVG_DEFINITION


def _cost_columns(stream: BatchStream) -> dict[str, np.ndarray]:
    """Each BatchCost field, in field order, as one column over the batches."""
    size, padded_src, padded_tgt = stream.sizes, stream.padded_src, stream.padded_tgt
    # Every per-batch column is at most this bound; past int64 the columns below would wrap.
    bound = int(size.max()) * (int(padded_src.max()) ** 2 + int(padded_tgt.max()) ** 2)
    if bound > np.iinfo(np.int64).max:
        raise ValueError(f"lengths too large: a batch cost of up to {bound} does not fit in int64")
    useful_src, useful_tgt = stream.length_sums
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
    """Total the per-batch costs of a stream into a RunReport.

    avg_padded_* are unweighted means over batches of the per-batch maxima
    (a short final batch counts the same as a full one). Totals are exact
    sums of Python ints.
    """
    stream = BatchStream.of(batches)
    columns = _cost_columns(stream)

    def total(name: str) -> int:
        return sum(columns[name].tolist())

    total_useful_src, total_useful_tgt = total("useful_src"), total("useful_tgt")
    total_padded_src, total_padded_tgt = total("padded_src_total"), total("padded_tgt_total")
    return RunReport(
        config=config,
        corpus_hash=corpus_hash,
        n_batches=len(stream),
        n_pairs=total("size"),
        avg_padded_src=float(np.mean(stream.padded_src)),
        avg_padded_tgt=float(np.mean(stream.padded_tgt)),
        total_useful_src=total_useful_src,
        total_useful_tgt=total_useful_tgt,
        total_padded_src=total_padded_src,
        total_padded_tgt=total_padded_tgt,
        overall_waste_src=1.0 - total_useful_src / total_padded_src,
        overall_waste_tgt=1.0 - total_useful_tgt / total_padded_tgt,
        total_linear_cost=total("linear_cost"),
        total_quadratic_cost=total("quadratic_cost"),
        total_cross_cost=total("cross_cost"),
    )


# ---------------------------------------------------------------------------
# Cross-policy comparison
# ---------------------------------------------------------------------------


#: (comparison column, the RunReport field it averages over a cell's seeds,
#: its ratio column against the unsorted row or None), in csv order.
_CELL_COLUMNS = (
    ("avg_padded_src", "avg_padded_src", "ratio_avg_src"),
    ("avg_padded_tgt", "avg_padded_tgt", "ratio_avg_tgt"),
    ("waste_src", "overall_waste_src", "ratio_waste_src"),
    ("waste_tgt", "overall_waste_tgt", "ratio_waste_tgt"),
    ("linear_cost", "total_linear_cost", "ratio_linear"),
    ("quadratic_cost", "total_quadratic_cost", "ratio_quadratic"),
    ("cross_cost", "total_cross_cost", None),
)


@dataclass(frozen=True)
class CostComparison:
    """One row per policy/k cell; each row is a dict in comparison.csv column order."""

    m: int
    corpus_hash: str | None
    rows: tuple[dict, ...]
    baseline_missing: bool


def _group_key(report: RunReport) -> tuple[int, int]:
    return (_POLICY_RANK[report.config.policy], report.config.k)


def compare_costs(reports: Sequence[RunReport]) -> CostComparison:
    """Merge per-seed reports into one row per policy/k cell.

    Ratio columns divide each cell by the unsorted baseline row, and are None
    where the baseline value is 0; without an unsorted report the ratios are
    omitted and the comparison is flagged.
    All reports must describe runs over the same corpus, batch size, epoch
    count and drop_last setting, and no two the same (policy, k, seed) cell.
    A report whose corpus_hash is None counts as a corpus of its own: it
    merges only with reports that lack a hash too.
    """
    if not reports:
        raise ValueError("cannot compare an empty report list")
    settings = (("m", "batch sizes"), ("epochs", "epoch counts"), ("drop_last", "drop_last settings"))
    for attr, label in settings:
        values = sorted({getattr(r.config, attr) for r in reports})
        if len(values) > 1:
            raise ValueError(f"reports mix {label} {values[0]} and {values[1]}")
    hashes = sorted({r.corpus_hash for r in reports}, key=str)
    if len(hashes) > 1:
        raise ValueError(f"reports mix corpus hashes {hashes[0]} and {hashes[1]}")

    ordered = sorted(reports, key=lambda r: (*_group_key(r), r.config.seed))
    for a, b in zip(ordered, ordered[1:]):
        if (*_group_key(a), a.config.seed) == (*_group_key(b), b.config.seed):
            raise ValueError(
                f"two reports for policy={a.config.policy} k={k_label(a.config)} seed={a.config.seed}"
            )
    rows, baseline = [], {}
    for _, group in groupby(ordered, key=_group_key):
        cell = list(group)
        first = cell[0].config
        means = {column: float(np.mean([getattr(r, source) for r in cell])) for column, source, _ in _CELL_COLUMNS}
        if first.policy == UNSORTED:  # the one unsorted cell ranks first
            baseline = means
        ratios = {
            ratio: means[column] / baseline[column] if baseline.get(column) else None
            for column, _, ratio in _CELL_COLUMNS
            if ratio
        }
        rows.append({"policy": first.policy, "k": k_label(first), "runs": len(cell), **means, **ratios})
    return CostComparison(
        m=reports[0].config.m,
        corpus_hash=hashes[0],
        rows=tuple(rows),
        baseline_missing=not baseline,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _check_keys(d: object, cls: type, what: str) -> None:
    """Raise ValueError unless d is a dict holding exactly the fields of cls
    (defaulted ones optional), each of its field's type: a float field takes an
    int but no NaN or infinity, only a bool field a bool; dataclasses apart."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    required = {f.name for f in fields(cls) if f.default is MISSING}
    missing = sorted(required - d.keys())
    if missing:
        raise ValueError(f"{what} is missing keys {missing}")
    hints = get_type_hints(cls)
    unknown = sorted(d.keys() - hints.keys())
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    for name, value in d.items():
        hint = hints[name]
        if is_dataclass(hint):
            continue
        accepted = int | float if hint is float else hint
        if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
            raise ValueError(f"{what} field {name!r} must be {getattr(hint, '__name__', hint)}, got {type(value).__name__}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{what} field {name!r} must be finite, got {value}")


def report_from_dict(d: dict) -> RunReport:
    """Inverse of dataclasses.asdict. Raises ValueError on a missing, unknown or
    wrongly typed key, top-level or in config; a report.json written with the
    former per_batch block is rejected for that unknown key. Averages under
    any avg_definition but AVG_DEFINITION are not comparable: refused too."""
    _check_keys(d, RunReport, "report")
    if d.get("avg_definition", AVG_DEFINITION) != AVG_DEFINITION:
        raise ValueError(f"report field 'avg_definition' must be {AVG_DEFINITION!r}, got {d['avg_definition']!r}")
    _check_keys(d["config"], BatchPlanConfig, "report config")
    return RunReport(**{**d, "config": BatchPlanConfig(**d["config"])})


def write_report_json(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_report_json(path: str | Path) -> RunReport:
    with open(path, encoding="utf-8") as handle:
        try:
            return report_from_dict(json.load(handle))
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

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
    lines = [",".join(comparison.rows[0])]
    for row in comparison.rows:
        lines.append(",".join(map(_fmt, row.values())))
    return "\n".join(lines) + "\n"


def comparison_to_markdown(comparison: CostComparison) -> str:
    """Comparison table as a markdown table of per-side averaged padded
    batch lengths by k, with ratios against the unsorted row."""
    header = "| policy | k | avg padded src | avg padded tgt | ratio src | ratio tgt |"
    rule = "|---|---|---|---|---|---|"
    lines = [header, rule]
    for row in comparison.rows:
        ratio_src = _fmt(row["ratio_avg_src"], ".2f") or "-"
        ratio_tgt = _fmt(row["ratio_avg_tgt"], ".2f") or "-"
        lines.append(
            f"| {row['policy']} | {row['k']} | {row['avg_padded_src']:.2f}"
            f" | {row['avg_padded_tgt']:.2f} | {ratio_src} | {ratio_tgt} |"
        )
    if comparison.baseline_missing:
        lines.append("")
        lines.append("no unsorted baseline: ratio columns omitted")
    return "\n".join(lines) + "\n"


def comparison_to_json(comparison: CostComparison) -> str:
    return json.dumps(asdict(comparison), indent=2, sort_keys=True) + "\n"

