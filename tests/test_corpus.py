"""Corpus loading, filtering, shuffling, statistics, and synthesis."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortbatch.corpus import (
    LOGNORMAL,
    NORMAL,
    PARALLEL_TSV,
    Corpus,
    CorpusFormatError,
    SentencePair,
    SynthParams,
    compute_stats,
    corpus_hash,
    filter_max_len,
    id_text_table,
    load_corpus,
    shuffle,
    synth_generate,
    write_lengths_tsv,
)

from .helpers import corpora, make_corpus


# ---------------------------------------------------------------------------
# SentencePair / Corpus validation
# ---------------------------------------------------------------------------


def test_pair_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        SentencePair(id=0, src_len=0, tgt_len=3)
    with pytest.raises(ValueError):
        SentencePair(id=0, src_len=3, tgt_len=-1)


def test_pair_rejects_negative_id():
    with pytest.raises(ValueError, match="id"):
        SentencePair(-1, 1, 1)


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="distinct"):
        Corpus([0, 0], [1, 1], [1, 1])


@pytest.mark.parametrize("ids", [[0, 2], [1, 2], [-1, 0], [0, 0]])
def test_corpus_ids_must_be_the_lines_0_to_n(ids):
    with pytest.raises(ValueError, match="distinct"):
        Corpus(ids, [1, 1], [1, 1])


@pytest.mark.parametrize("rows", [[0, 0], [2, 1, 2], [-1, 3], [0, -4]])
def test_take_rejects_repeated_rows(rows):
    with pytest.raises(ValueError, match="distinct"):
        make_corpus([1, 2, 3, 4]).take(rows)


def test_take_keeps_order_limit_and_read_only_columns():
    corpus = filter_max_len(make_corpus([(1, 2), (3, 4), (5, 6)]), 9)
    taken = corpus.take([2, 0, 1])
    assert taken.pairs == (SentencePair(2, 5, 6), SentencePair(0, 1, 2), SentencePair(1, 3, 4))
    assert taken.max_len_filter == 9
    assert not any(column.flags.writeable for column in (taken.ids, taken.src, taken.tgt))


def test_id_text_rows_run_from_the_smallest_contiguous_id():
    corpus = Corpus([2, 0, 1] + list(range(3, 11)), [1] * 11, [1] * 11)
    text, lengths = corpus.id_text
    assert [row.replace(b"\0", b"") for row in text.tolist()] == [f"{i}, ".encode() for i in range(11)]
    assert lengths.tolist() == [3] * 10 + [4]
    assert not (text.flags.writeable or lengths.flags.writeable)


def test_id_text_table_rejects_negative_ids():
    with pytest.raises(ValueError, match=">= 0"):
        id_text_table(np.array([3, -1, 0]))


def test_corpus_rejects_filter_violations():
    with pytest.raises(ValueError, match="max_len_filter=5"):
        Corpus([0], [10], [1], max_len_filter=5)


# ---------------------------------------------------------------------------
# load_corpus
# ---------------------------------------------------------------------------


def test_load_lengths_tsv(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\n1\t1\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert (corpus.pairs[0].src_len, corpus.pairs[0].tgt_len) == (3, 4)
    assert [p.id for p in corpus.pairs] == [0, 1]


def test_load_parallel_tsv_counts_whitespace_tokens(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a b c\td e\n", encoding="utf-8")
    corpus = load_corpus(path, fmt=PARALLEL_TSV)
    pair = corpus.pairs[0]
    assert (pair.src_len, pair.tgt_len) == (3, 2)


def test_load_rejects_nonpositive_length(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\n0\t5\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\t5\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path)


def test_load_rejects_non_integer(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\tx\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3\t4\n\n", 2),
        ("3\n4\t5\n", 1),
        ("\t3\n", 1),
        ("3\t\n", 1),
        ("1\t2\n3\t4\t5\n6\t7\n", 2),
        ("3 \t4\n", 1),
        ("3\t4\n5", 2),
        ("3\t4\n5\t+6\n", 2),
        ("3\t4\n\u0663\t5\n", 2),  # ARABIC-INDIC DIGIT THREE
        ("\u00b2\t5\n", 1),  # SUPERSCRIPT TWO
    ],
)
def test_load_names_first_malformed_line(tmp_path, text, line):
    path = tmp_path / "c.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"line {line}:"):
        load_corpus(path)


def test_load_crlf_equals_lf(tmp_path):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(b"3\t4\n1\t1\n12\t9\n")
    crlf.write_bytes(b"3\t4\r\n1\t1\r\n12\t9\r\n")
    assert load_corpus(crlf).pairs == load_corpus(lf).pairs


def test_load_rejects_length_beyond_int64(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\n5\t99999999999999999999\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_loading_lengths_does_not_import_scipy(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\n1\t1\n", encoding="utf-8")
    code = (
        "import sys, sortbatch; sortbatch.load_corpus(sys.argv[1]); "
        "sys.exit('scipy.optimize' in sys.modules or 'scipy.special' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code, str(path)], env=env).returncode == 0


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_corpus(path)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("1\t1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(path, fmt="csv")


@given(corpus=corpora)
@settings(max_examples=50)
def test_lengths_tsv_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("rt") / "c.tsv"
    write_lengths_tsv(corpus, path)
    loaded = load_corpus(path)
    assert [(p.src_len, p.tgt_len) for p in loaded.pairs] == [
        (p.src_len, p.tgt_len) for p in corpus.pairs
    ]


def test_corpus_hash_tracks_content():
    a = make_corpus([(3, 4), (1, 1)])
    b = make_corpus([(3, 4), (1, 1)])
    c = make_corpus([(3, 4), (1, 2)])
    assert corpus_hash(a) == corpus_hash(b)
    assert corpus_hash(a) != corpus_hash(c)
    # hash covers serialized content, so reordering changes it
    reordered = make_corpus([(1, 1), (3, 4)])
    assert corpus_hash(a) != corpus_hash(reordered)


# ---------------------------------------------------------------------------
# filter_max_len
# ---------------------------------------------------------------------------


def test_filter_drops_either_side_over_limit():
    corpus = make_corpus([(3, 4), (126, 10), (5, 130)])
    kept = filter_max_len(corpus, 125)
    assert [(p.src_len, p.tgt_len) for p in kept.pairs] == [(3, 4)]
    assert kept.max_len_filter == 125


def test_filter_is_noop_above_max():
    corpus = make_corpus([(3, 4), (7, 2)])
    kept = filter_max_len(corpus, 10)
    assert [(p.src_len, p.tgt_len) for p in kept.pairs] == [(3, 4), (7, 2)]


@given(corpora, st.integers(1, 40), st.integers(0, 2**31))
@settings(max_examples=50)
def test_filter_renumbers_kept_pairs_in_order(corpus, limit, seed):
    shuffled = shuffle(corpus, seed)
    kept = filter_max_len(shuffled, limit)
    assert kept.ids.tolist() == list(range(len(kept)))
    rows = [(s, t) for s, t in zip(shuffled.src.tolist(), shuffled.tgt.tolist()) if max(s, t) <= limit]
    assert list(zip(kept.src.tolist(), kept.tgt.tolist())) == rows


def test_filter_boundary_keeps_equal_lengths():
    corpus = make_corpus([1, 1, 1])
    assert len(filter_max_len(corpus, 1)) == 3


def test_filter_rejects_bad_limit():
    with pytest.raises(ValueError):
        filter_max_len(make_corpus([1]), 0)


@given(corpora, st.integers(1, 40))
@settings(max_examples=50)
def test_filter_idempotent(corpus, limit):
    once = filter_max_len(corpus, limit)
    twice = filter_max_len(once, limit)
    assert [p.id for p in once.pairs] == [p.id for p in twice.pairs]
    assert all(p.src_len <= limit and p.tgt_len <= limit for p in once.pairs)


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------


def test_shuffle_single_pair_identity():
    corpus = make_corpus([5])
    assert shuffle(corpus, 123).pairs == corpus.pairs


def test_shuffle_deterministic():
    corpus = make_corpus(range(1, 21))
    a = shuffle(corpus, 7)
    b = shuffle(corpus, 7)
    assert [p.id for p in a.pairs] == [p.id for p in b.pairs]
    assert shuffle(filter_max_len(corpus, 15), 7).max_len_filter == 15


def test_shuffle_seeds_give_same_multiset():
    corpus = make_corpus([(2, 3), (4, 5), (6, 7), (8, 9)])
    a = shuffle(corpus, 0)
    b = shuffle(corpus, 1)
    assert sorted(p.id for p in a.pairs) == sorted(p.id for p in b.pairs) == [0, 1, 2, 3]


@given(corpora, st.integers(0, 2**31))
@settings(max_examples=50)
def test_shuffle_preserves_multiset(corpus, seed):
    shuffled = shuffle(corpus, seed)
    assert sorted(p.id for p in shuffled.pairs) == sorted(p.id for p in corpus.pairs)


# ---------------------------------------------------------------------------
# compute_stats
# ---------------------------------------------------------------------------


def test_stats_hand_computed():
    stats = compute_stats(make_corpus([(2, 2), (4, 4)]))
    assert stats.mean_src == 3.0
    assert stats.std_src == 1.0
    assert stats.mean_pairwise_abs_diff == 0.0
    assert stats.max_src == 4


def test_stats_pairwise_diff():
    assert compute_stats(make_corpus([(5, 3)])).mean_pairwise_abs_diff == 2.0


def test_stats_empty_corpus_rejected():
    with pytest.raises(ValueError):
        compute_stats(Corpus((), (), ()))


@given(corpora)
@settings(max_examples=50)
def test_stats_histograms_sum_to_n(corpus):
    stats = compute_stats(corpus)
    assert sum(stats.histogram_src.values()) == len(corpus)
    assert sum(stats.histogram_tgt.values()) == len(corpus)
    assert 0 <= stats.mean_pairwise_abs_diff <= max(stats.max_src, stats.max_tgt)


@given(corpora, st.integers(0, 2**31))
@settings(max_examples=30)
def test_stats_shuffle_invariant(corpus, seed):
    before = compute_stats(corpus)
    after = compute_stats(shuffle(corpus, seed))
    assert math.isclose(before.mean_src, after.mean_src)
    assert math.isclose(before.std_tgt, after.std_tgt)
    assert before.histogram_src == after.histogram_src


# ---------------------------------------------------------------------------
# synth_generate
# ---------------------------------------------------------------------------


def test_synth_params_validation():
    with pytest.raises(ValueError):
        SynthParams(n=0, mean_src=5, std_src=1, max_len=10)
    with pytest.raises(ValueError):
        SynthParams(n=1, mean_src=60, std_src=1, max_len=50)
    with pytest.raises(ValueError):
        SynthParams(n=1, mean_src=5, std_src=-1, max_len=10)
    with pytest.raises(ValueError):
        SynthParams(n=1, mean_src=5, std_src=1, max_len=10, pair_diff_mean=-0.1)
    with pytest.raises(ValueError):
        SynthParams(n=1, mean_src=5, std_src=1, max_len=10, length_dist="cauchy")


@pytest.mark.parametrize(
    "field, value",
    [
        ("std_src", math.nan),
        ("std_src", math.inf),
        ("std_src", 11.0),
        ("pair_diff_mean", math.nan),
        ("pair_diff_mean", 1e308),
        ("max_len", 2**53 + 1),
    ],
)
def test_synth_params_reject_values_outside_their_range(field, value):
    with pytest.raises(ValueError, match=field):
        SynthParams(**{**dict(n=5, mean_src=5.0, std_src=1.0, max_len=10), field: value})


def test_synth_spread_below_float_resolution_gives_constant_lengths():
    corpus = synth_generate(SynthParams(n=50, mean_src=3.0, std_src=1e-300, max_len=10))
    assert set(corpus.src.tolist()) == {3}


def test_synth_degenerate_constant():
    corpus = synth_generate(SynthParams(n=10, mean_src=7, std_src=0, max_len=50))
    assert len(corpus) == 10
    assert {(p.src_len, p.tgt_len) for p in corpus.pairs} == {(7, 7)}


def test_synth_deterministic():
    params = SynthParams(n=200, mean_src=12, std_src=4, max_len=60, pair_diff_mean=1.5, seed=42)
    a = synth_generate(params)
    b = synth_generate(params)
    assert [(p.src_len, p.tgt_len) for p in a.pairs] == [(p.src_len, p.tgt_len) for p in b.pairs]


def test_synth_respects_bounds():
    params = SynthParams(n=5000, mean_src=10, std_src=8, max_len=20, pair_diff_mean=3, seed=1)
    corpus = synth_generate(params)
    for p in corpus.pairs:
        assert 1 <= p.src_len <= 20
        assert 1 <= p.tgt_len <= 20


def test_synth_recovers_long_tailed_moments():
    # mean 22.64, std 15.55 under a 125-token cap: both within +-0.5 at n=100k
    params = SynthParams(
        n=100_000, mean_src=22.64, std_src=15.55, max_len=125, pair_diff_mean=2.45, seed=0
    )
    stats = compute_stats(synth_generate(params))
    assert abs(stats.mean_src - 22.64) <= 0.5
    assert abs(stats.std_src - 15.55) <= 0.5
    assert abs(stats.mean_pairwise_abs_diff - 2.45) <= 0.2


def test_synth_recovers_short_corpus_mean():
    params = SynthParams(
        n=50_000, mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006, seed=0
    )
    stats = compute_stats(synth_generate(params))
    assert abs(stats.mean_src - 10.68) <= 0.2


def test_synth_normal_family():
    params = SynthParams(n=50_000, mean_src=20.0, std_src=6.0, max_len=80, length_dist=NORMAL, seed=1)
    stats = compute_stats(synth_generate(params))
    assert abs(stats.mean_src - 20.0) <= 0.2
    assert abs(stats.std_src - 6.0) <= 0.2


def test_synth_zero_pair_diff_copies_source():
    params = SynthParams(n=500, mean_src=15, std_src=5, max_len=60, pair_diff_mean=0.0, seed=9)
    corpus = synth_generate(params)
    assert all(p.src_len == p.tgt_len for p in corpus.pairs)


def test_lengths_tsv_text_shape():
    corpus = make_corpus([(3, 4), (1, 1)])
    assert corpus.lengths_tsv == "3\t4\n1\t1\n"


def test_default_family_is_lognormal():
    assert SynthParams(n=1, mean_src=5, std_src=1, max_len=10).length_dist == LOGNORMAL
