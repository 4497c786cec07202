"""Batch-series diagnostics: autocorrelation, refill cycles, i.i.d. checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortbatch.batcher import FULL_SORT, PARTIAL_SORT, UNSORTED, BatchPlanConfig, BatchStream, run_epochs
from sortbatch.corpus import Corpus, SynthParams, synth_generate
from sortbatch.cost import summarize_run
from sortbatch.diagnostics import (
    METRICS,
    CycleReport,
    autocorrelation,
    cycle_analysis,
    default_max_lag,
    extract_series,
    iid_report,
    write_iid_report_json,
)

from .helpers import length_pairs, make_corpus, wide_byte_corpus
from .test_cost import batch_of


# ---------------------------------------------------------------------------
# extract_series
# ---------------------------------------------------------------------------


def test_extract_padded_src_series():
    batches = [batch_of([2, 1]), batch_of([5, 3], iteration=1), batch_of([3, 3], iteration=2)]
    series = extract_series(batches, "padded_src")
    assert series.tolist() == [2.0, 5.0, 3.0]


def test_extract_mean_src():
    series = extract_series([batch_of([1, 3])], "mean_src")
    assert series.tolist() == [2.0]


def test_mean_metrics_sum_byte_lengths_in_int64():
    stream = run_epochs(wide_byte_corpus(), BatchPlanConfig(m=64, seed=2))
    assert stream.src.dtype == stream.tgt.dtype == np.uint8
    # numpy's own add.reduceat would sum uint8 in uint64; the sums are int64 whatever the lengths.
    assert [sums.dtype for sums in stream.length_sums] == [np.dtype(np.int64)] * 2
    batches = [[(p.src_len, p.tgt_len) for p in batch.pairs] for batch in stream]
    for side, tag in enumerate(("mean_src", "mean_tgt")):
        assert METRICS[tag](stream).tolist() == [sum(pair[side] for pair in b) / len(b) for b in batches]


def test_mean_metrics_refuse_a_length_sum_past_int64():
    """Four lengths of 2**62 + 1 in one batch sum past the int64 maximum: the
    sum is refused, not wrapped (it once read as a mean of 1.0). Four lengths
    whose sum just fits are averaged."""
    for tag in ("mean_src", "mean_tgt"):
        with pytest.raises(ValueError, match="does not fit in int64"):
            extract_series(run_epochs(Corpus(range(4), [2**62 + 1] * 4, [1] * 4), BatchPlanConfig(m=4)), tag)
    largest = np.iinfo(np.int64).max // 4
    stream = run_epochs(Corpus(range(4), [largest] * 4, [1] * 4), BatchPlanConfig(m=4))
    assert math.isclose(extract_series(stream, "mean_src")[0], largest)


def test_extract_all_registered_metrics():
    batches = [batch_of([2, 4], [1, 5])]
    for tag in METRICS:
        extract_series(batches, tag)


def test_extract_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown metric"):
        extract_series([batch_of([1])], "perplexity")


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_series_rejects_bad_values():
    for bad in (float("nan"), float("inf"), -2.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            autocorrelation([1.0, 2.0, bad, 3.0, 4.0, 5.0], max_lag=1)


def test_a_series_is_a_read_only_array_and_autocorrelation_takes_any_sequence():
    config = BatchPlanConfig(m=1, k=4, policy=PARTIAL_SORT, seed=0)
    stream = run_epochs(make_corpus([1, 2, 3, 5, 8, 13, 21, 34]), config)
    series = extract_series(stream, "padded_src")
    assert isinstance(series, np.ndarray) and series.dtype == np.float64
    assert np.array_equal(series, stream.padded_src)
    with pytest.raises(ValueError, match="read-only"):
        series[0] = 0.0
    values = series.tolist()
    lags = [autocorrelation(seq, max_lag=3).lags for seq in (values, tuple(values), series)]
    assert lags[0] == lags[1] == lags[2]


def test_alternating_series_is_anticorrelated():
    series = [float(1 + i % 2) for i in range(100)]
    result = autocorrelation(series, max_lag=2)
    assert abs(result.lags[1] - (-1.0)) < 0.05
    assert abs(result.lags[2] - 1.0) < 0.05


def test_iid_series_is_uncorrelated():
    rng = np.random.default_rng(0)
    series = rng.uniform(0, 10, size=10_000)
    result = autocorrelation(series, max_lag=1)
    assert abs(result.lags[1]) < 0.05
    assert not result.degenerate


def test_constant_series_degenerate_zero():
    series = (4.0,) * 50
    result = autocorrelation(series, max_lag=3)
    assert result.degenerate
    assert all(r == 0.0 for r in result.lags.values())


def test_too_short_series_rejected():
    series = (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="too short"):
        autocorrelation(series, max_lag=1)
    with pytest.raises(ValueError):
        autocorrelation(series, max_lag=0)


@given(st.lists(st.integers(0, 100).map(float), min_size=8, max_size=60))
@settings(max_examples=60)
def test_autocorr_bounded_and_reversal_symmetric(values):
    max_lag = min(4, len(values) - 3)
    fwd = autocorrelation(values, max_lag)
    bwd = autocorrelation(values[::-1], max_lag)
    for lag in fwd.lags:
        assert -1.0 <= fwd.lags[lag] <= 1.0
        assert math.isclose(fwd.lags[lag], bwd.lags[lag], abs_tol=1e-9)


def corrcoef_per_lag(values, max_lag):
    """Reference: np.corrcoef of each lag's slices, clipped, with 0 for a lag
    whose head or tail slice is constant (ptp == 0) or whose r is not finite.
    Returns the lags and the set of lags zeroed that way."""
    values = np.asarray(values, dtype=float)
    lags, zeroed = {}, set()
    for lag in range(1, max_lag + 1):
        head, tail = values[:-lag], values[lag:]
        r = float(np.corrcoef(head, tail)[0, 1]) if np.ptp(head) and np.ptp(tail) else math.nan
        if not np.isfinite(r):
            zeroed.add(lag)
            r = 0.0
        lags[lag] = float(np.clip(r, -1.0, 1.0))
    return lags, zeroed


def assert_matches_corrcoef(values, max_lag, tol):
    result = autocorrelation(values, max_lag)
    lags, zeroed = corrcoef_per_lag(values, max_lag)
    assert result.degenerate == bool(zeroed)
    assert sorted(result.lags) == list(range(1, max_lag + 1))
    assert all(result.lags[lag] == 0.0 for lag in zeroed)
    assert max(abs(result.lags[lag] - lags[lag]) for lag in lags) <= tol


values_1e6 = st.integers(0, 10**6).map(float)


@st.composite
def lag_series(draw):
    """Integer-valued series of four shapes, with a max_lag they support."""
    kind = draw(st.sampled_from(["random", "sorted", "step", "blocks"]))
    level = draw(st.integers(0, 10**6))
    # Values next to a constant run are often within 2 of it: a nearly constant
    # slice far from the series mean is where one-pass sums lose digits.
    near = st.integers(max(0, level - 2), level + 2).map(float) if kind == "step" else values_1e6
    if kind == "blocks":
        block = draw(st.lists(values_1e6, min_size=1, max_size=6))
        values = block * draw(st.integers(-(-4 // len(block)), 60 // len(block)))
    else:
        values = draw(st.lists(st.one_of(values_1e6, near), min_size=4, max_size=60))
    if kind == "sorted":
        values.sort()
    if kind == "step":  # a constant head or tail, as padded_src has at a sorted epoch's ends
        run = [float(level)] * draw(st.integers(1, len(values)))
        values = run + values[len(run) :] if draw(st.booleans()) else values[: -len(run)] + run
    return values, draw(st.integers(1, len(values) - 3))


@given(lag_series())
@example(([999_999.0] + [10.0**6] * 8 + [0.0], 7))  # nearly constant slices far from the mean
@example(([0.1] * 7 + [5.0, 7.0, 9.0], 3))  # a constant head whose float mean is not 0.1
@settings(max_examples=300, deadline=None)
def test_autocorr_equals_per_lag_corrcoef(case):
    values, max_lag = case
    assert_matches_corrcoef(values, max_lag, tol=1e-9)


@pytest.fixture(scope="module")
def short_corpus():
    """The 40k-pair short corpus of the benchmark's short_ladder workload."""
    return synth_generate(SynthParams(n=40_000, mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006))


@pytest.mark.parametrize("seed", [0, 1])
def test_autocorr_equals_per_lag_corrcoef_on_a_partial_sort_stream(short_corpus, seed):
    config = BatchPlanConfig(m=64, k=500, policy=PARTIAL_SORT, seed=seed)
    values = extract_series(run_epochs(short_corpus, config), "padded_src")
    # Lags up to n - 3, a wider window than default_max_lag: on seed 1 the
    # slices of the last lags (three point pairs) are constant.
    assert_matches_corrcoef(values, min(2 * config.k, len(values) - 3), tol=1e-12)


# ---------------------------------------------------------------------------
# cycle_analysis
# ---------------------------------------------------------------------------


def test_single_cycle_hand_trace():
    corpus = make_corpus([1, 2, 3, 5])
    config = BatchPlanConfig(m=2, k=2, policy=PARTIAL_SORT, seed=0)
    batches = run_epochs(corpus, config)
    assert [b.padded_src for b in batches] == [2, 5]
    report = cycle_analysis(batches, config)
    assert report.cycle_score == 1.0
    assert report == CycleReport(cycle_score=1.0, n_cycles=1)


@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_divisible_epochs_score_exactly_one(seed, m, k, cycles):
    n = m * k * cycles
    corpus = make_corpus([(i * 13 % 17 + 1, i * 7 % 11 + 1) for i in range(n)])
    config = BatchPlanConfig(m=m, k=k, policy=PARTIAL_SORT, seed=seed)
    batches = run_epochs(corpus, config)
    report = cycle_analysis(batches, config)
    assert report.cycle_score == 1.0
    assert report.n_cycles == cycles
    assert len(batches) == k * report.n_cycles


@given(
    st.lists(length_pairs, min_size=1, max_size=300),
    st.integers(1, 16),
    st.integers(1, 40),
    st.integers(0, 2**31),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_cycle_score_is_one_at_any_epoch_size(lengths, m, k, seed, epochs, drop_last):
    # Each refill cycle is one sorted block cut from its start into batches of m.
    corpus = make_corpus(lengths)
    config = BatchPlanConfig(
        m=m, k=k, policy=PARTIAL_SORT, seed=seed, epochs=epochs, drop_last=drop_last and m <= len(corpus)
    )
    assert cycle_analysis(run_epochs(corpus, config), config).cycle_score == 1.0


def test_k1_cycles_are_single_batches_scoring_one():
    corpus = make_corpus([3, 1, 4, 1, 5])
    config = BatchPlanConfig(m=2, k=1, policy=PARTIAL_SORT, seed=1)
    report = cycle_analysis(run_epochs(corpus, config), config)
    assert report.n_cycles == 3
    assert report.cycle_score == 1.0


def test_cycles_start_at_iterations_that_are_multiples_of_k():
    # A plain batch list cut mid-cycle: its first batch opens a cycle too.
    batches = [batch_of([s], iteration=i) for s, i in [(5, 1), (3, 2), (2, 3), (4, 4)]]
    config = BatchPlanConfig(m=1, k=2, policy=PARTIAL_SORT)
    assert cycle_analysis(batches, config) == CycleReport(cycle_score=2 / 3, n_cycles=3)


def test_a_k_beyond_int64_makes_one_cycle_per_epoch():
    config = BatchPlanConfig(m=2, k=10**20, policy=PARTIAL_SORT, seed=0, epochs=2)
    assert cycle_analysis(run_epochs(make_corpus([3, 1, 4, 1, 5]), config), config).n_cycles == 2


@pytest.mark.parametrize(
    "analyze",
    [
        lambda: summarize_run([], BatchPlanConfig(m=2)),
        lambda: extract_series([], "padded_src"),
        lambda: cycle_analysis([], BatchPlanConfig(m=2, k=2, policy=PARTIAL_SORT)),
        lambda: iid_report([], BatchPlanConfig(m=2)),
        lambda: summarize_run(BatchStream(*(np.zeros(0, dtype=np.int64) for _ in range(8))), BatchPlanConfig(m=2)),
    ],
    ids=["summarize_run", "extract_series", "cycle_analysis", "iid_report", "stream_of_no_batches"],
)
def test_every_analysis_refuses_an_empty_batch_stream(analyze):
    """BatchStream.of, which every analysis converts its batches with, is the
    one check: a plain empty list and a stream with no batches alike."""
    with pytest.raises(ValueError, match="empty batch stream"):
        analyze()


def test_cycle_analysis_rejects_other_policies():
    corpus = make_corpus([1, 2, 3, 4])
    config = BatchPlanConfig(m=2, k=1, policy=UNSORTED, seed=0)
    batches = run_epochs(corpus, config)
    with pytest.raises(ValueError, match="partial_sort"):
        cycle_analysis(batches, config)


def test_cycles_segment_per_epoch():
    # 6 pairs, m=2, k=2: per epoch one sorted block of 4 pairs (2 batches),
    # then the short tail block of 2 pairs (1 batch).
    corpus = make_corpus([1, 2, 3, 4, 5, 6])
    config = BatchPlanConfig(m=2, k=2, policy=PARTIAL_SORT, seed=3, epochs=2)
    batches = run_epochs(corpus, config)
    assert [[p.src_len for p in b.pairs] for b in batches] == [[1, 2], [3, 4], [5, 6], [3, 4], [5, 6], [1, 2]]
    report = cycle_analysis(batches, config)
    # Per epoch: [2, 4] [6] | [4, 6] [2], all non-decreasing. Cycles run on
    # across the epoch boundary would be [2, 4] [6, 4] [6, 2] and score 1/3.
    assert report.n_cycles == 4
    assert report.cycle_score == 1.0


# ---------------------------------------------------------------------------
# iid_report
# ---------------------------------------------------------------------------


def test_default_max_lag_clamps():
    assert default_max_lag(BatchPlanConfig(m=2, k=10, policy=PARTIAL_SORT), 1000) == 20
    assert default_max_lag(BatchPlanConfig(m=2, k=10, policy=PARTIAL_SORT), 9) == 4  # half the series
    assert default_max_lag(BatchPlanConfig(m=64, k=500, policy=PARTIAL_SORT), 625) == 312
    assert default_max_lag(BatchPlanConfig(m=2, policy=UNSORTED), 1000) == 2
    assert default_max_lag(BatchPlanConfig(m=2, policy=FULL_SORT), 1000) == 2
    assert [default_max_lag(BatchPlanConfig(m=2, k=10), n) for n in (1, 4, 5, 6)] == [1, 1, 2, 3]


def test_partial_sort_stream_with_sorted_tail_is_not_degenerate(short_corpus):
    """Seed 1 at k=500 ends epochs on long runs of equal padded_src; a window
    that keeps half the series in every lag never sees a constant slice."""
    config = BatchPlanConfig(m=64, k=500, policy=PARTIAL_SORT, seed=1)
    report = iid_report(run_epochs(short_corpus, config), config)
    assert not report["degenerate"]
    assert sorted(report["lag_autocorrs"], key=int) == [str(lag) for lag in range(1, 313)]


def test_iid_report_structure():
    corpus = make_corpus([(i % 11 + 1, i % 5 + 1) for i in range(64)])
    config = BatchPlanConfig(m=4, k=4, policy=PARTIAL_SORT, seed=0)
    report = iid_report(run_epochs(corpus, config), config)
    assert report["metric_tag"] == "padded_src"
    assert set(report["lag_autocorrs"]) == {str(lag) for lag in range(1, 9)}
    assert report["cycle"] is not None and report["cycle"]["cycle_score"] == 1.0


def test_iid_report_no_cycles_outside_partial_sort():
    corpus = make_corpus([(i % 11 + 1, i % 5 + 1) for i in range(64)])
    config = BatchPlanConfig(m=4, k=1, policy=FULL_SORT, seed=0)
    report = iid_report(run_epochs(corpus, config), config)
    assert report["cycle"] is None


def test_unsorted_series_passes_randomness_sanity():
    corpus = make_corpus([(i * 29 % 40 + 1, i * 31 % 35 + 1) for i in range(6400)])
    config = BatchPlanConfig(m=8, k=1, policy=UNSORTED, seed=0)
    batches = run_epochs(corpus, config)
    report = iid_report(batches, config)
    assert abs(report["lag_autocorrs"]["1"]) < 3 / math.sqrt(len(batches))


def test_iid_report_degrades_on_tiny_streams():
    corpus = make_corpus([2, 3, 4])
    config = BatchPlanConfig(m=3, k=1, policy=UNSORTED, seed=0)
    report = iid_report(run_epochs(corpus, config), config)
    assert report["lag_autocorrs"] == {}
    assert report["degenerate"]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [BatchPlanConfig(m=3, k=2, policy=PARTIAL_SORT, seed=5), BatchPlanConfig(m=3, policy=FULL_SORT, seed=5)],
    ids=["partial_sort", "full_sort"],
)
def test_iid_json_is_the_report(tmp_path, config):
    """iid.json holds exactly the document iid_report returns; the cycle is
    null outside partial_sort."""
    corpus = make_corpus([(i % 7 + 1, i % 7 + 1) for i in range(48)])
    report = iid_report(run_epochs(corpus, config), config)
    path = tmp_path / "iid.json"
    write_iid_report_json(report, path)
    assert json.loads(path.read_text()) == report
    assert (report["cycle"] is None) == (config.policy == FULL_SORT)


def test_iid_json_lists_lags_in_lag_order_without_report_json_facts(tmp_path):
    """iid.json keys its lags "1".."L" in file order, not in text order, and
    leaves the run's config and mean padded_src to report.json."""
    corpus = make_corpus([(i % 13 + 1, i % 5 + 1) for i in range(240)])
    config = BatchPlanConfig(m=4, k=6, policy=PARTIAL_SORT, seed=1)
    path = tmp_path / "iid.json"
    write_iid_report_json(iid_report(run_epochs(corpus, config), config), path)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert list(document["lag_autocorrs"]) == [str(lag) for lag in range(1, 13)]
    assert list(document) == ["cycle", "degenerate", "lag_autocorrs", "metric_tag", "series_std"]
