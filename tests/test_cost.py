"""Padding-cost accounting: per-batch math, run aggregation, comparisons."""

import json
import math
from dataclasses import fields, replace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortbatch.batcher import (
    FULL_SORT,
    PARTIAL_SORT,
    UNSORTED,
    Batch,
    BatchPlanConfig,
    config_for_k,
    run_epochs,
)
from sortbatch.corpus import SentencePair, compute_stats
from sortbatch.cost import (
    AVG_DEFINITION,
    compare_costs,
    comparison_to_csv,
    comparison_to_json,
    comparison_to_markdown,
    cost_of_batch,
    read_report_json,
    report_from_dict,
    report_to_dict,
    summarize_run,
    write_report_json,
)
from sortbatch.cost import _CELL_COLUMNS, RunReport, _cost_columns

from .helpers import corpus_and_config, make_corpus, wide_byte_corpus


def batch_of(src_lengths, tgt_lengths=None, iteration=0, epoch=0):
    tgt_lengths = tgt_lengths or src_lengths
    pairs = tuple(
        SentencePair(id=i, src_len=s, tgt_len=t)
        for i, (s, t) in enumerate(zip(src_lengths, tgt_lengths))
    )
    return Batch(
        pairs=pairs,
        padded_src=max(src_lengths),
        padded_tgt=max(tgt_lengths),
        iteration_index=iteration,
        epoch_index=epoch,
    )


lengths_lists = st.lists(st.integers(1, 50), min_size=1, max_size=20)


# ---------------------------------------------------------------------------
# cost_of_batch
# ---------------------------------------------------------------------------


def test_two_pair_waste_is_three_eighths():
    cost = cost_of_batch(batch_of([4, 1]))
    assert cost.padded_src == 4
    assert cost.padded_src_total == 8
    assert cost.useful_src == 5
    assert cost.waste_fraction_src == 3 / 8


def test_equal_lengths_waste_nothing():
    cost = cost_of_batch(batch_of([7, 7, 7]))
    assert cost.waste_fraction_src == 0.0
    assert cost.useful_src == cost.padded_src_total


def test_arithmetic_example():
    cost = cost_of_batch(batch_of([1, 2, 3, 4]))
    assert cost.useful_src == 10
    assert cost.padded_src_total == 16
    assert cost.waste_fraction_src == 6 / 16


def test_cost_proxies():
    cost = cost_of_batch(batch_of([2, 3], [5, 4]))
    assert cost.linear_cost == 2 * 3 + 2 * 5
    assert cost.quadratic_cost == 2 * (3**2 + 5**2)
    assert cost.cross_cost == 2 * 3 * 5


@given(lengths_lists, lengths_lists)
@settings(max_examples=80)
def test_waste_recomputable_and_bounded(src, tgt):
    n = min(len(src), len(tgt))
    cost = cost_of_batch(batch_of(src[:n], tgt[:n]))
    assert cost.waste_fraction_src == 1 - sum(src[:n]) / (n * max(src[:n]))
    assert 0 <= cost.waste_fraction_src < 1
    assert 0 <= cost.waste_fraction_tgt < 1
    assert cost.useful_src <= cost.padded_src_total
    if len(set(src[:n])) == 1:
        assert cost.useful_src == cost.padded_src_total


@given(lengths_lists, st.data())
@settings(max_examples=60)
def test_merging_never_reduces_padded_slots(lengths, data):
    if len(lengths) < 2:
        return
    cut = data.draw(st.integers(1, len(lengths) - 1))
    merged = cost_of_batch(batch_of(lengths))
    left = cost_of_batch(batch_of(lengths[:cut]))
    right = cost_of_batch(batch_of(lengths[cut:]))
    assert merged.padded_src_total >= left.padded_src_total + right.padded_src_total


# ---------------------------------------------------------------------------
# summarize_run
# ---------------------------------------------------------------------------


def test_avg_is_mean_of_batch_maxima():
    report = summarize_run(
        [batch_of([1, 2]), batch_of([5, 4], iteration=1)], BatchPlanConfig(m=2)
    )
    assert report.avg_padded_src == 3.5
    assert report.avg_definition == AVG_DEFINITION


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize_run([], BatchPlanConfig(m=2))


@pytest.mark.parametrize(
    "bad, message",
    [
        (replace(batch_of([1]), pairs=()), "batch 1 holds no pairs"),
        (replace(batch_of([5]), padded_src=3), r"batch 1: padded dims \(3, 5\) are not .* \(5, 5\)"),
        (replace(batch_of([5, 3], [2, 4]), padded_tgt=5), r"batch 1: padded dims \(5, 5\) are not .* \(5, 4\)"),
    ],
    ids=["no_pairs", "padded_src_short", "padded_tgt_long"],
)
def test_plain_batches_must_hold_pairs_padded_to_their_longest(bad, message):
    """A plain list of Batch values is converted only if each batch's padded
    dims are its pairs' longest lengths. Unchecked, an empty batch would sum
    the next batch's lengths, and a short padded_src give a negative waste."""
    with pytest.raises(ValueError, match=message):
        summarize_run([batch_of([4, 2]), bad, batch_of([5, 3])], BatchPlanConfig(m=2))
    with pytest.raises(ValueError, match=message.replace("batch 1", "batch 0")):
        cost_of_batch(bad)


@given(corpus_and_config(max_n=30, max_m=6, max_k=4))
@settings(max_examples=50, deadline=None)
def test_totals_equal_per_batch_sums(case):
    corpus, config = case
    batches = run_epochs(corpus, config)
    if not batches:
        return
    report = summarize_run(batches, config)
    costs = [cost_of_batch(batch) for batch in batches]
    assert report.n_batches == len(costs)
    assert report.n_pairs == sum(c.size for c in costs)
    assert report.total_useful_src == sum(c.useful_src for c in costs)
    assert report.total_useful_tgt == sum(c.useful_tgt for c in costs)
    assert report.total_padded_src == sum(c.padded_src_total for c in costs)
    assert report.total_padded_tgt == sum(c.padded_tgt_total for c in costs)
    assert report.total_linear_cost == sum(c.linear_cost for c in costs)
    assert report.total_quadratic_cost == sum(c.quadratic_cost for c in costs)
    assert report.total_cross_cost == sum(c.cross_cost for c in costs)
    assert math.isclose(report.avg_padded_src, sum(c.padded_src for c in costs) / len(costs))


@pytest.mark.parametrize("k", [1, 3, "all"])
def test_report_json_sums_byte_lengths_in_int64(k, tmp_path):
    """Lengths of 200..255 are uint8 columns; their batch sums and squared
    maxima at m=64 must not wrap."""
    config = config_for_k(k, m=64, seed=1, epochs=2)
    stream = run_epochs(wide_byte_corpus(), config)
    assert (stream.src.dtype, stream.padded_src.dtype) == (np.dtype(np.uint8), np.dtype(np.int64))
    # numpy's own add.reduceat would sum uint8 in uint64; the cost columns are int64 whatever the lengths.
    assert {c.dtype for c in _cost_columns(stream).values() if c.dtype.kind != "f"} == {np.dtype(np.int64)}
    batches = [[(p.src_len, p.tgt_len) for p in batch.pairs] for batch in stream]
    tops = [(len(b), max(s for s, _ in b), max(t for _, t in b)) for b in batches]
    want = {
        "n_pairs": sum(len(b) for b in batches),
        "total_useful_src": sum(s for b in batches for s, _ in b),
        "total_useful_tgt": sum(t for b in batches for _, t in b),
        "total_padded_src": sum(n * s for n, s, _ in tops),
        "total_padded_tgt": sum(n * t for n, _, t in tops),
        "total_linear_cost": sum(n * (s + t) for n, s, t in tops),
        "total_quadratic_cost": sum(n * (s * s + t * t) for n, s, t in tops),
        "total_cross_cost": sum(n * s * t for n, s, t in tops),
    }
    path = tmp_path / "report.json"
    write_report_json(summarize_run(stream, config), path)
    written = json.loads(path.read_text(encoding="utf-8"))
    assert {key: written[key] for key in want} == want


@given(corpus_and_config(max_n=36, max_m=6, max_k=4))
@settings(max_examples=50, deadline=None)
def test_avg_padded_at_least_corpus_mean_on_full_batches(case):
    corpus, config = case
    if len(corpus.pairs) % config.m != 0:
        return  # the bound needs equal batch sizes
    batches = run_epochs(corpus, config)
    report = summarize_run(batches, config)
    assert report.avg_padded_src >= compute_stats(corpus).mean_src - 1e-9


def test_policy_cost_ordering_over_seeds():
    corpus = make_corpus([(i * 37 % 29 + 1, i * 17 % 23 + 1) for i in range(200)])

    def mean_avg(policy, k):
        values = []
        for seed in range(20):
            config = BatchPlanConfig(m=8, k=k, policy=policy, seed=seed)
            values.append(summarize_run(run_epochs(corpus, config), config).avg_padded_src)
        return sum(values) / len(values)

    unsorted = mean_avg(UNSORTED, 1)
    partial = mean_avg(PARTIAL_SORT, 4)
    full = mean_avg(FULL_SORT, 1)
    assert full <= partial <= unsorted


# ---------------------------------------------------------------------------
# compare_costs
# ---------------------------------------------------------------------------


def _report(policy, k, seed, batches, digest="abc"):
    config = BatchPlanConfig(m=2, k=k, policy=policy, seed=seed)
    return summarize_run(batches, config, corpus_hash=digest)


def test_ratio_against_unsorted_baseline():
    unsorted = _report(UNSORTED, 1, 0, [batch_of([61, 61]), batch_of([62, 62], iteration=1)])
    partial = _report(PARTIAL_SORT, 1000, 0, [batch_of([22, 22]), batch_of([23, 23], iteration=1)])
    comparison = compare_costs([unsorted, partial])
    assert not comparison.baseline_missing
    rows = {row["policy"]: row for row in comparison.rows}
    assert rows[UNSORTED]["ratio_avg_src"] == 1.0
    assert math.isclose(rows[PARTIAL_SORT]["ratio_avg_src"], 22.5 / 61.5)


def test_single_unsorted_report_has_unit_ratio():
    comparison = compare_costs([_report(UNSORTED, 1, 0, [batch_of([3, 4])])])
    assert len(comparison.rows) == 1
    assert comparison.rows[0]["ratio_avg_src"] == 1.0


def test_missing_baseline_flags_and_omits_ratios():
    comparison = compare_costs([_report(PARTIAL_SORT, 5, 0, [batch_of([3, 4])])])
    assert comparison.baseline_missing
    assert comparison.rows[0]["ratio_avg_src"] is None


def test_zero_baseline_value_leaves_its_ratio_empty():
    unsorted = _report(UNSORTED, 1, 0, [batch_of([3, 4])])
    partial = _report(PARTIAL_SORT, 3, 0, [batch_of([3, 4])])
    comparison = compare_costs([replace(unsorted, avg_padded_src=0.0, total_linear_cost=0.0), partial])
    row = comparison.rows[1]
    assert (row["ratio_avg_src"], row["ratio_linear"]) == (None, None)
    assert math.isclose(row["ratio_avg_tgt"], 1.0)


def test_identical_reports_ratio_one():
    a = _report(UNSORTED, 1, 0, [batch_of([4, 4])])
    b = _report(PARTIAL_SORT, 3, 0, [batch_of([4, 4])])
    comparison = compare_costs([a, b])
    assert math.isclose(comparison.rows[1]["ratio_avg_src"], 1.0)


def test_rows_grouped_and_ordered():
    reports = [
        _report(FULL_SORT, 1, 0, [batch_of([2, 2])]),
        _report(PARTIAL_SORT, 250, 0, [batch_of([3, 3])]),
        _report(PARTIAL_SORT, 100, 1, [batch_of([4, 4])]),
        _report(PARTIAL_SORT, 100, 0, [batch_of([5, 5])]),
        _report(UNSORTED, 1, 0, [batch_of([6, 6])]),
    ]
    comparison = compare_costs(reports)
    assert [(r["policy"], r["k"], r["runs"]) for r in comparison.rows] == [
        (UNSORTED, "1", 1),
        (PARTIAL_SORT, "100", 2),
        (PARTIAL_SORT, "250", 1),
        (FULL_SORT, "all", 1),
    ]


def test_mixed_m_rejected():
    a = summarize_run([batch_of([1, 2])], BatchPlanConfig(m=2), corpus_hash="x")
    b = summarize_run([batch_of([1, 2, 3])], BatchPlanConfig(m=3), corpus_hash="x")
    with pytest.raises(ValueError, match="2.*3"):
        compare_costs([a, b])


def test_duplicate_cell_rejected():
    a = _report(PARTIAL_SORT, 5, 3, [batch_of([1, 2])])
    b = _report(PARTIAL_SORT, 5, 3, [batch_of([2, 2])])
    with pytest.raises(ValueError, match="k=5 seed=3"):
        compare_costs([_report(UNSORTED, 1, 0, [batch_of([1, 1])]), a, b])


@pytest.mark.parametrize("field, value", [("epochs", 2), ("drop_last", True)])
def test_mixed_epochs_or_drop_last_rejected(field, value):
    a = summarize_run([batch_of([1, 2])], BatchPlanConfig(m=2, policy=UNSORTED), corpus_hash="x")
    other = BatchPlanConfig(m=2, k=3, **{field: value})
    b = summarize_run([batch_of([1, 2])], other, corpus_hash="x")
    with pytest.raises(ValueError, match="reports mix"):
        compare_costs([a, b])


def test_mixed_corpus_hash_rejected():
    for first, second in [("aaa", "bbb"), ("aaa", None)]:  # a missing hash is not a wildcard
        a = _report(UNSORTED, 1, 0, [batch_of([1, 2])], digest=first)
        b = _report(PARTIAL_SORT, 2, 0, [batch_of([1, 2])], digest=second)
        with pytest.raises(ValueError, match="hash"):
            compare_costs([a, b])


def test_compare_rejects_empty():
    with pytest.raises(ValueError):
        compare_costs([])


def test_cell_column_table_names_every_comparison_column_in_csv_order():
    """Without an unsorted row the table still has all 16 columns in csv order,
    its 6 ratio cells empty in csv and null in json; each mean averages a RunReport field."""
    reports = [_report(PARTIAL_SORT, 5, 0, [batch_of([3, 4])]), _report(FULL_SORT, 1, 0, [batch_of([2, 2])])]
    comparison = compare_costs(reports)
    header, *lines = comparison_to_csv(comparison).splitlines()
    assert header == (
        "policy,k,runs,avg_padded_src,avg_padded_tgt,waste_src,waste_tgt,linear_cost,quadratic_cost,cross_cost,"
        "ratio_avg_src,ratio_avg_tgt,ratio_waste_src,ratio_waste_tgt,ratio_linear,ratio_quadratic"
    )
    assert [line.split(",")[:3] for line in lines] == [["partial_sort", "5", "1"], ["full_sort", "all", "1"]]
    assert [line.split(",")[10:] for line in lines] == [[""] * 6] * 2
    ratios = header.split(",")[10:]
    for row in json.loads(comparison_to_json(comparison))["rows"]:
        assert [row[name] for name in ratios] == [None] * 6
    report_fields = {f.name for f in fields(RunReport)}
    assert [source for _, source, _ in _CELL_COLUMNS if source not in report_fields] == []


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------


def test_report_dict_round_trip():
    corpus = make_corpus([(i % 9 + 1, i % 7 + 1) for i in range(23)])
    config = BatchPlanConfig(m=4, k=2, seed=3, epochs=2)
    report = summarize_run(run_epochs(corpus, config), config, corpus_hash="deadbeef")
    assert report_from_dict(report_to_dict(report)) == report


def test_report_json_file_round_trip(tmp_path):
    corpus = make_corpus([(i % 5 + 1, i % 4 + 1) for i in range(17)])
    config = BatchPlanConfig(m=3, k=3, seed=1)
    report = summarize_run(run_epochs(corpus, config), config, corpus_hash="cafe")
    path = tmp_path / "report.json"
    write_report_json(report, path)
    assert read_report_json(path) == report


def test_renderers_are_deterministic():
    a = _report(UNSORTED, 1, 0, [batch_of([3, 5]), batch_of([2, 2], iteration=1)])
    b = _report(PARTIAL_SORT, 4, 0, [batch_of([3, 3]), batch_of([4, 4], iteration=1)])
    comparison = compare_costs([a, b])
    assert comparison_to_csv(comparison) == comparison_to_csv(comparison)
    md = comparison_to_markdown(comparison)
    assert md.splitlines()[0].startswith("| policy | k |")
    assert len(md.splitlines()) == 2 + len(comparison.rows)
    csv_text = comparison_to_csv(comparison)
    assert csv_text.splitlines()[0].split(",")[0] == "policy"
    assert len(csv_text.splitlines()) == 1 + len(comparison.rows)
    assert comparison_to_json(comparison).endswith("\n")
