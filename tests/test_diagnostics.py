"""Batch-series diagnostics: autocorrelation, refill cycles, i.i.d. checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortbatch.batcher import FULL_SORT, PARTIAL_SORT, UNSORTED, BatchPlanConfig, run_epochs
from sortbatch.corpus import SynthParams, synth_generate
from sortbatch.diagnostics import (
    METRICS,
    BatchSeries,
    CycleReport,
    autocorrelation,
    cycle_analysis,
    default_max_lag,
    extract_series,
    iid_report,
    iid_report_to_dict,
    write_iid_report_json,
)

from .helpers import make_corpus
from .test_cost import batch_of


# ---------------------------------------------------------------------------
# extract_series
# ---------------------------------------------------------------------------


def test_extract_padded_src_series():
    batches = [batch_of([2, 1]), batch_of([5, 3], iteration=1), batch_of([3, 3], iteration=2)]
    series = extract_series(batches, "padded_src")
    assert series.values == (2.0, 5.0, 3.0)
    assert series.metric_tag == "padded_src"


def test_extract_mean_src():
    series = extract_series([batch_of([1, 3])], "mean_src")
    assert series.values == (2.0,)


def test_extract_all_registered_metrics():
    batches = [batch_of([2, 4], [1, 5])]
    for tag in METRICS:
        extract_series(batches, tag)


def test_extract_rejects_empty_stream():
    with pytest.raises(ValueError):
        extract_series([], "padded_src")


def test_extract_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown metric"):
        extract_series([batch_of([1])], "perplexity")


def test_series_rejects_bad_values():
    with pytest.raises(ValueError):
        BatchSeries((1.0, float("nan")), "padded_src")
    with pytest.raises(ValueError):
        BatchSeries((1.0, -2.0), "padded_src")


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_alternating_series_is_anticorrelated():
    series = BatchSeries(tuple(float(1 + i % 2) for i in range(100)), "padded_src")
    result = autocorrelation(series, max_lag=2)
    assert abs(result.lags[1] - (-1.0)) < 0.05
    assert abs(result.lags[2] - 1.0) < 0.05


def test_iid_series_is_uncorrelated():
    rng = np.random.default_rng(0)
    series = BatchSeries(tuple(rng.uniform(0, 10, size=10_000)), "padded_src")
    result = autocorrelation(series, max_lag=1)
    assert abs(result.lags[1]) < 0.05
    assert not result.degenerate


def test_constant_series_degenerate_zero():
    series = BatchSeries((4.0,) * 50, "padded_src")
    result = autocorrelation(series, max_lag=3)
    assert result.degenerate
    assert all(r == 0.0 for r in result.lags.values())


def test_too_short_series_rejected():
    series = BatchSeries((1.0, 2.0, 3.0), "padded_src")
    with pytest.raises(ValueError, match="too short"):
        autocorrelation(series, max_lag=1)
    with pytest.raises(ValueError):
        autocorrelation(series, max_lag=0)


@given(st.lists(st.integers(0, 100).map(float), min_size=8, max_size=60))
@settings(max_examples=60)
def test_autocorr_bounded_and_reversal_symmetric(values):
    series = BatchSeries(tuple(values), "padded_src")
    reverse = BatchSeries(tuple(reversed(values)), "padded_src")
    max_lag = min(4, len(values) - 3)
    fwd = autocorrelation(series, max_lag)
    bwd = autocorrelation(reverse, max_lag)
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
    result = autocorrelation(BatchSeries(tuple(values), "padded_src"), max_lag)
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
    values = extract_series(run_epochs(short_corpus, config), "padded_src").values
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


def test_k1_cycles_are_single_batches_scoring_one():
    corpus = make_corpus([3, 1, 4, 1, 5])
    config = BatchPlanConfig(m=2, k=1, policy=PARTIAL_SORT, seed=1)
    report = cycle_analysis(run_epochs(corpus, config), config)
    assert report.n_cycles == 3
    assert report.cycle_score == 1.0


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
    assert not report.autocorr.degenerate
    assert sorted(report.autocorr.lags) == list(range(1, 313))


def test_iid_report_structure():
    corpus = make_corpus([(i % 11 + 1, i % 5 + 1) for i in range(64)])
    config = BatchPlanConfig(m=4, k=4, policy=PARTIAL_SORT, seed=0)
    report = iid_report(run_epochs(corpus, config), config)
    assert report.metric_tag == "padded_src"
    assert set(report.autocorr.lags) == set(range(1, 9))
    assert report.cycle is not None and report.cycle.cycle_score == 1.0
    assert report.series_mean > 0


def test_iid_report_no_cycles_outside_partial_sort():
    corpus = make_corpus([(i % 11 + 1, i % 5 + 1) for i in range(64)])
    config = BatchPlanConfig(m=4, k=1, policy=FULL_SORT, seed=0)
    report = iid_report(run_epochs(corpus, config), config)
    assert report.cycle is None


def test_unsorted_series_passes_randomness_sanity():
    corpus = make_corpus([(i * 29 % 40 + 1, i * 31 % 35 + 1) for i in range(6400)])
    config = BatchPlanConfig(m=8, k=1, policy=UNSORTED, seed=0)
    batches = run_epochs(corpus, config)
    report = iid_report(batches, config)
    assert abs(report.autocorr.lags[1]) < 3 / math.sqrt(len(batches))


def test_iid_report_degrades_on_tiny_streams():
    corpus = make_corpus([2, 3, 4])
    config = BatchPlanConfig(m=3, k=1, policy=UNSORTED, seed=0)
    report = iid_report(run_epochs(corpus, config), config)
    assert report.autocorr.lags == {}
    assert report.autocorr.degenerate


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_iid_report_json_shape(tmp_path):
    corpus = make_corpus([(i % 7 + 1, i % 7 + 1) for i in range(48)])
    config = BatchPlanConfig(m=3, k=2, policy=PARTIAL_SORT, seed=5)
    report = iid_report(run_epochs(corpus, config), config)
    d = iid_report_to_dict(report)
    assert d["metric_tag"] == "padded_src"
    assert d["cycle"] == {"cycle_score": report.cycle.cycle_score, "n_cycles": report.cycle.n_cycles}
    assert d["config"]["k"] == 2
    assert all(isinstance(k, str) for k in d["lag_autocorrs"])
    path = tmp_path / "iid.json"
    write_iid_report_json(report, path)
    assert json.loads(path.read_text())["config"]["m"] == 3
