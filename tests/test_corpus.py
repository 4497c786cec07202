"""Corpus loading, filtering, shuffling, statistics, and synthesis."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sortbatch import batcher
from sortbatch.corpus import (
    CORPUS_FORMATS,
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
    load_corpus,
    shuffle,
    synth_generate,
    write_lengths_tsv,
)
from sortbatch.corpus import _fit_family, _ndtr, _ndtri, _plain_lengths

from .helpers import corpora, keeps_a_pair, make_corpus


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


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 1000, 100_001, 1_000_001])
def test_id_text_is_the_table_of_0_to_n(n):
    """Row i of the table write_batches_jsonl gathers from is f"{i}, "
    right-aligned with NUL to the width of the text of n - 1."""
    text = batcher._id_text(n)
    width = len(f"{n - 1}, ")
    assert text.dtype == np.dtype(f"S{width}")
    assert text.tobytes() == b"".join(f"{i}, ".encode().rjust(width, b"\0") for i in range(n))
    assert not text.flags.writeable


@pytest.mark.parametrize(
    "columns, name",
    [
        (([0.9, 1.2], [1.7, 2.5], [True, 3]), "ids"),
        (([0, 1], [1.7, 2.5], [1, 3]), "src"),
        (([0, 1], [1, 2], [True, True]), "tgt"),
        (([0, 1], [1, 2], np.array([1.0, 3.0])), "tgt"),
        (([0, 1], ["1", "2"], [1, 3]), "src"),
    ],
)
def test_corpus_rejects_columns_that_are_not_integers(columns, name):
    with pytest.raises(ValueError, match=f"column {name} must hold integers"):
        Corpus(*columns)


@pytest.mark.parametrize(
    "columns",
    [([0, 1], [1], [1, 2]), ([[0]], [[1]], [[1]])],
    ids=["unequal_length", "two_dimensional"],
)
def test_corpus_refuses_columns_of_unequal_shape(columns):
    with pytest.raises(ValueError, match="one-dimensional and of equal length"):
        Corpus(*columns)


def test_corpus_accepts_narrow_integer_columns():
    strided_tgt = np.array([[4, 0], [5, 0]], dtype=np.uint8)[:, 0]  # already in its stored type, as loading gives it
    corpus = Corpus(np.array([1, 0], dtype=np.uint8), np.array([2, 3], dtype=np.int16), strided_tgt)
    assert corpus.pairs == (SentencePair(1, 2, 4), SentencePair(0, 3, 5))
    assert [column.dtype for column in (corpus.ids, corpus.src, corpus.tgt)] == [
        np.dtype(np.int64), np.dtype(np.uint8), np.dtype(np.uint8)
    ]
    assert corpus.src.flags.c_contiguous and corpus.tgt.flags.c_contiguous


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Corpus((), (), ()), "at least one pair"),
        (lambda: Corpus(np.array([], dtype=np.int64), [], []), "at least one pair"),
        (lambda: filter_max_len(make_corpus([(3, 4)]), 2), "no pair has both lengths <= 2$"),
        (lambda: filter_max_len(make_corpus([(3, 4)]), 0), "no pair has both lengths <= 0$"),
    ],
    ids=["empty_tuples", "empty_int64", "filter_limit_2", "filter_limit_0"],
)
def test_a_corpus_holds_at_least_one_pair(make, message):
    """The constructor is the one place that refuses an empty corpus, so no
    shuffle, stats or loader sees one; a filter that keeps no pair names its limit."""
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "lengths",
    [
        np.array([-1], dtype=np.int8),
        np.array([-1], dtype=np.int16),
        np.array([-1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([2**63], dtype=np.uint64),
        np.array([2**64 - 1], dtype=np.uint64),
    ],
    ids=["int8_minus_1", "int16_minus_1", "int64_minus_1", "zero", "uint64_2**63", "uint64_max"],
)
def test_corpus_refuses_lengths_outside_one_to_the_int64_maximum(lengths):
    """Checked in the dtype given: narrowing first would store int8 -1 as 255."""
    with pytest.raises(ValueError, match="lengths must be"):
        Corpus([0], lengths, [1])
    with pytest.raises(ValueError, match="lengths must be"):
        Corpus([0], [1], lengths)


@pytest.mark.parametrize(
    "src, tgt, want",
    [
        ([1, 255], [300, 2], (np.uint8, np.uint16)),
        ([70000], [65535], (np.uint32, np.uint16)),
        ([2**63 - 1], np.array([1], dtype=np.int64), (np.uint64, np.uint8)),
    ],
)
def test_corpus_stores_each_length_column_in_its_smallest_unsigned_type(src, tgt, want):
    corpus = Corpus(np.arange(len(src), dtype=np.uint8), src, tgt)
    assert (corpus.ids.dtype, corpus.src.dtype, corpus.tgt.dtype) == (np.dtype(np.int64), *map(np.dtype, want))
    assert (corpus.src.tolist(), corpus.tgt.tolist()) == (list(src), list(tgt))


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


def test_load_parallel_tsv_rejects_an_empty_side(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a b\tc\nd e\t \n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2: empty source or target sentence"):
        load_corpus(path, fmt=PARALLEL_TSV)


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
        ("3\n4\t5\t6\n", 1),  # an odd separator count, newline before tab
        ("\t3\n", 1),
        ("3\t\n", 1),
        ("1\t2\n3\t4\t5\n6\t7\n", 2),
        ("3 \t4\n", 1),
        ("3\t4\n5", 2),
        ("3\t4\n5\t+6\n", 2),
        ("3\t4\n\u0663\t5\n", 2),  # ARABIC-INDIC DIGIT THREE
        ("\u00b2\t5\n", 1),  # SUPERSCRIPT TWO
        pytest.param("3\t4\n" * 20000 + "5\t+6\n", 20001, id="past_the_first_block"),
    ],
)
def test_load_names_first_malformed_line(tmp_path, text, line):
    path = tmp_path / "c.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"line {line}:"):
        load_corpus(path)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"3\t4\n\xff5\t6\n", 2),
        (b"\xff\t1\n", 1),
        (b"3\t4\r\n5\t6\r\n7\t\xe2\x82", 3),  # CRLF lines, a cut multi-byte character at the end
        (b"3\t4\r5\t6\r\xc3\x28\t1\r", 3),  # lone CR lines
        (b"3\t4\n" * 5000 + b"1\t\xff\n", 5001),  # a late line, numbered by the newlines before the bad byte
    ],
    ids=["lf", "first_line", "crlf_truncated", "cr", "late"],
)
def test_load_names_file_and_line_of_non_utf8_bytes(tmp_path, data, line):
    path = tmp_path / "c.tsv"
    path.write_bytes(data)
    for fmt in CORPUS_FORMATS:
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line {line}: not UTF-8 text$"):
            load_corpus(path, fmt)


def test_load_crlf_equals_lf(tmp_path):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(b"3\t4\n1\t1\n12\t9\n")
    crlf.write_bytes(b"3\t4\r\n1\t1\r\n12\t9\r\n")
    assert load_corpus(crlf).pairs == load_corpus(lf).pairs


def test_canonical_file_is_its_own_lengths_tsv(tmp_path):
    lines = "3\t4\n12\t1\n100\t99\n"
    for text in (lines, lines * 10000):  # one block of the reader, and several
        path = tmp_path / "c.tsv"
        path.write_text(text, encoding="utf-8")
        corpus = load_corpus(path)
        assert vars(corpus)["lengths_tsv"] == text.encode()  # kept by load_corpus, not rendered again
        assert corpus_hash(corpus) == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "data, rendered",
    [
        (b"03\t4\n", b"3\t4\n"),
        (b"3\t040\n7\t1\n", b"3\t40\n7\t1\n"),
        (b"3\t4\n1\t1", b"3\t4\n1\t1\n"),  # no final newline
        (b"3\t4\r\n1\t1\r\n12\t9\r\n", b"3\t4\n1\t1\n12\t9\n"),
        (b"3\t4\n" * 20000 + b"7\t01\n", b"3\t4\n" * 20000 + b"7\t1\n"),
    ],
    ids=["leading_zero", "leading_zero_inside", "no_final_newline", "crlf", "leading_zero_past_the_first_block"],
)
def test_other_files_hash_as_their_rendered_columns(tmp_path, data, rendered):
    path = tmp_path / "c.tsv"
    path.write_bytes(data)
    corpus = load_corpus(path)
    built = Corpus(np.arange(len(corpus)), corpus.src.tolist(), corpus.tgt.tolist())
    assert corpus.lengths_tsv == built.lengths_tsv == rendered
    assert corpus_hash(corpus) == corpus_hash(built)


def test_load_rejects_length_beyond_int64(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\n5\t99999999999999999999\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def plain_lengths_reference(data):
    """_plain_lengths line by line: each line two ASCII integers of 1 to 18
    digits joined by one tab, the end of the bytes ending the last line."""
    rows = []
    for line in data.removesuffix(b"\n").split(b"\n"):
        columns = line.split(b"\t")
        if len(columns) != 2 or not all(1 <= len(c) <= 18 and set(c) <= set(b"0123456789") for c in columns):
            return None
        rows.append(columns)
    canonical = data.endswith(b"\n") and not any(c.startswith(b"0") for row in rows for c in row)
    return [[int(c) for c in row] for row in rows], canonical


_short_integers = st.text("0123456789", min_size=1, max_size=3)
_wide_integers = st.integers(0, 20).flatmap(lambda width: st.text("0123456789", min_size=width, max_size=width))
_integers = st.one_of(_short_integers, _short_integers, _short_integers, _wide_integers).map(str.encode)
_lines = st.builds(lambda src, tgt: src + b"\t" + tgt, _integers, _integers)
_files = st.builds(
    lambda lines, end: b"\n".join(lines) + end, st.lists(_lines, max_size=12), st.sampled_from([b"", b"\n"])
)
_stray = st.sampled_from([b"\t", b"\n", b" ", b"\r", b"+", b"/", b":", b"\xff"])
_lengths_files = st.one_of(
    _files,
    st.builds(lambda data, stray, at: data[:at] + stray + data[at:], _files, _stray, st.integers(0, 100)),
)


@given(_lengths_files)
@settings(max_examples=300)
def test_plain_lengths_reads_as_the_line_by_line_reference(data):
    expected = plain_lengths_reference(data)
    for block in (1, 2, 7, 64):  # blocks that break at every position
        with mock.patch("sortbatch.corpus._PARSE_BYTES", block):
            plain = _plain_lengths(data)
        if expected is None:
            assert plain is None
        else:
            lengths, canonical = plain
            assert lengths.dtype.kind == "u" and lengths.shape == (len(expected[0]), 2)
            assert (lengths.tolist(), canonical) == expected


def test_loading_lengths_does_not_import_scipy(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("3\t4\n1\t1\n", encoding="utf-8")
    # statistics and numpy.typing serve synthesis and annotations only.
    unneeded = ["numpy.typing", "scipy.optimize", "scipy.special", "statistics"]
    code = (
        "import json, sys, sortbatch; sortbatch.load_corpus(sys.argv[1]); "
        "print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code, str(path), *unneeded], env=env, capture_output=True, check=True)
    assert json.loads(run.stdout) == []


def test_synthesising_from_the_cli_does_not_import_scipy(tmp_path):
    code = """
import json, sys
from sortbatch.cli import main
flags = ["--n", "300", "--mean-src", "10", "--std-src", "3", "--max-len", "50", "--pair-diff", "1"]
for dist in ("lognormal", "normal"):
    dist_flags = [*flags, "--length-dist", dist]
    assert main(["gen", *dist_flags, "--out", f"{sys.argv[1]}/{dist}.tsv"]) == 0
    sweep = ["--m", "8", "--k", "1", "4", "all", "--seeds", "0", "--out", f"{sys.argv[1]}/{dist}"]
    assert main(["simulate", *dist_flags, *sweep]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


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


def test_filter_is_noop_above_max():
    corpus = make_corpus([(3, 4), (7, 2)])
    kept = filter_max_len(corpus, 10)
    assert [(p.src_len, p.tgt_len) for p in kept.pairs] == [(3, 4), (7, 2)]


@given(corpora, st.integers(1, 40), st.integers(0, 2**31))
@settings(max_examples=50)
def test_filter_renumbers_kept_pairs_in_order(corpus, limit, seed):
    assume(keeps_a_pair(corpus, limit))
    shuffled = shuffle(corpus, seed)
    kept = filter_max_len(shuffled, limit)
    assert kept.ids.tolist() == list(range(len(kept)))
    rows = [(s, t) for s, t in zip(shuffled.src.tolist(), shuffled.tgt.tolist()) if max(s, t) <= limit]
    assert list(zip(kept.src.tolist(), kept.tgt.tolist())) == rows


def test_filter_boundary_keeps_equal_lengths():
    corpus = make_corpus([1, 1, 1])
    assert len(filter_max_len(corpus, 1)) == 3


def test_filter_above_the_column_type_keeps_every_pair():
    corpus = make_corpus([(3, 255), (200, 7)])
    assert corpus.src.dtype == corpus.tgt.dtype == np.uint8
    kept = filter_max_len(corpus, 1000)
    assert list(zip(kept.src.tolist(), kept.tgt.tolist())) == [(3, 255), (200, 7)]


@given(corpora, st.integers(1, 40))
@settings(max_examples=50)
def test_filter_idempotent(corpus, limit):
    assume(keeps_a_pair(corpus, limit))
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


def test_shuffle_is_the_seeded_permutation_in_read_only_columns():
    corpus = make_corpus([(1, 2), (3, 4), (5, 6)])
    shuffled = shuffle(corpus, 3)
    assert shuffled.pairs == tuple(corpus.pairs[row] for row in np.random.default_rng(3).permutation(3))
    assert not any(column.flags.writeable for column in (shuffled.ids, shuffled.src, shuffled.tgt))


def test_shuffle_deterministic():
    corpus = make_corpus(range(1, 21))
    a = shuffle(corpus, 7)
    b = shuffle(corpus, 7)
    assert [p.id for p in a.pairs] == [p.id for p in b.pairs]


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


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 5), (2, 2), (3, 250)],  # both uint8, tgt > src
        [(1, 5), (300, 2)],  # uint16 src, uint8 tgt
        [(7, 70000), (2, 1)],  # uint8 src, uint32 tgt
    ],
)
def test_stats_pairwise_diff_of_narrow_columns(rows):
    want = sum(abs(s - t) for s, t in rows) / len(rows)
    assert compute_stats(make_corpus(rows)).mean_pairwise_abs_diff == want


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
        ("std_src", 4.5),  # above sqrt((5 - 1)(10 - 5)) = 4.472..., the Bhatia-Davis bound
        ("pair_diff_mean", math.nan),
        ("pair_diff_mean", 1e308),
        ("max_len", 2**53 + 1),
        ("seed", -1),
    ],
)
def test_synth_params_reject_values_outside_their_range(field, value):
    with pytest.raises(ValueError, match=field):
        SynthParams(**{**dict(n=5, mean_src=5.0, std_src=1.0, max_len=10), field: value})


def test_synth_spread_below_float_resolution_gives_constant_lengths():
    corpus = synth_generate(SynthParams(n=50, mean_src=3.0, std_src=1e-300, max_len=10))
    assert set(corpus.src.tolist()) == {3}


@pytest.mark.parametrize(
    "dist, mean, std, cap, outcome",
    [
        (LOGNORMAL, 1.229605031277024, 0.4186226917507899, 2, "start_fit"),
        (LOGNORMAL, 5.817438999439837, 3.242584537474942, 8, "start_fit"),
        (LOGNORMAL, 24604251786.32287, 52103526589.37669, 147222040549, "start_fit"),
        (LOGNORMAL, 1.0832341378038979, 8.526324164907408e-07, 2, "start_fit"),
        (LOGNORMAL, 320523786323.2271, 1676877.854103137, 320523786332, "start_fit"),
        (LOGNORMAL, 22759443540509.152, 11118109254868.217, 29798638204297, "start_fit"),
        (LOGNORMAL, 69763559.69810042, 3.4994666379749026e-12, 72764759, "constant"),
        (NORMAL, 2.992521249248548, 0.007356822734655644, 3, "constant"),
    ],
    ids=[
        "mass_and_scale_underflow",
        "log_scale_overflow",
        "nudged_residual_not_finite",
        "singular_jacobian",
        "halvings_exhausted",
        "steps_never_settle",
        "scale_not_finite",
        "cdf_range_too_narrow",
    ],
)
def test_synth_fallback_exits_inside_the_bound(dist, mean, std, cap, outcome):
    """Requests that SynthParams admits but that leave the fit or the sampler
    through a fallback: the fit returns the untruncated start point, or the
    sampler gives every pair one length."""
    params = SynthParams(n=2000, mean_src=mean, std_src=std, max_len=cap, length_dist=dist)
    if outcome == "constant":
        assert len(np.unique(synth_generate(params).src)) == 1
        return
    if dist == LOGNORMAL:
        s2 = math.log(1.0 + (std / mean) ** 2)
        start = (math.log(mean) - 0.5 * s2, math.sqrt(s2))
    else:
        start = (mean, std)
    assert _fit_family(dist, mean, std, 1.0, float(cap)) == start


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


@pytest.mark.parametrize(
    "params, digest",
    [
        (
            SynthParams(n=500_000, seed=0, mean_src=22.64, std_src=15.55, max_len=125, pair_diff_mean=2.45),
            "e64118171e9c69754a5360fa9d0dcd09cf2e07936f575f43fdfa2a0d1b047583",
        ),
        (
            SynthParams(n=40_000, seed=0, mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006),
            "90741c8c8ec077929021f9af66d2df88171313cfe491a1e52ac4c6135a380196",
        ),
        (
            SynthParams(
                n=500_000, seed=0, mean_src=22.64, std_src=15.55, max_len=125, pair_diff_mean=2.45,
                length_dist=NORMAL,
            ),
            "1ced66f6910ed87f7128c163c05fe5afd19dddfaebbe89375f9bcd2182f287f1",
        ),
        (
            SynthParams(
                n=40_000, seed=0, mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006,
                length_dist=NORMAL,
            ),
            "fce0554f7910101571c4def2de8f9962e2e784939dbe9d9d4e5b263c8976db79",
        ),
    ],
    ids=["long_tailed_500k", "short_40k", "long_tailed_500k_normal", "short_40k_normal"],
)
def test_synth_benchmark_corpora_are_pinned(params, digest):
    """The seed-0 corpora of the two benchmark shapes in both length families,
    byte for byte. Unlike test_synth_equivalence.py, this needs no scipy."""
    assert corpus_hash(synth_generate(params)) == digest


def test_synth_zero_pair_diff_copies_source():
    """Target perturbations are drawn after every source length, so a zero
    pair_diff_mean copies the source and leaves it as any other would."""
    params = SynthParams(n=500, mean_src=15, std_src=5, max_len=60, pair_diff_mean=0.0, seed=9)
    corpus = synth_generate(params)
    assert np.array_equal(corpus.tgt, corpus.src)
    perturbed = synth_generate(replace(params, pair_diff_mean=2.45))
    assert np.array_equal(perturbed.src, corpus.src)
    assert not np.array_equal(perturbed.tgt, corpus.tgt)


def test_ndtr_is_symmetric_to_a_few_ulp():
    x = np.linspace(-40.0, 40.0, 80_001)
    assert np.abs(_ndtr(x) + _ndtr(-x) - 1.0).max() <= 2 * np.spacing(1.0)


def test_ndtri_inverts_ndtr_from_minus_37_to_8():
    x = np.linspace(-37.0, 8.0, 90_001)
    p = _ndtr(x)
    density = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    # p holds x only to its float spacing, which moves the quantile by spacing / density.
    tolerance = 1e-14 * np.maximum(1.0, np.abs(x)) + 4 * np.spacing(p) / density
    assert (np.abs(_ndtri(p) - x) <= tolerance).all()


def test_ndtri_resolves_subnormal_probabilities():
    """Below the smallest normal float the quantile keeps falling, and _ndtr
    maps it back to p as closely as x's float spacing allows: one spacing of
    x moves _ndtr by about p * |x| * spacing(x), some subnormal steps of p."""
    p = np.array([5e-324, 1e-310, 2.2250738585072014e-308])
    x = _ndtri(p)
    assert (np.diff(x) > 0).all()
    tolerance = 2 * p * np.abs(x) * np.spacing(np.abs(x)) + np.spacing(p)
    assert (np.abs(_ndtr(x) - p) <= tolerance).all()


def test_ndtri_endpoints():
    assert _ndtri([0.0, 0.5, 1.0]).tolist() == [-math.inf, 0.0, math.inf]
    assert _ndtr([-math.inf, 0.0, math.inf]).tolist() == [0.0, 0.5, 1.0]
    assert (_ndtr(np.linspace(9.0, 40.0, 3_101)) == 1.0).all()


@pytest.mark.parametrize(
    "function, values",
    [
        (_ndtr, [-38.5, -37.5, -3.0, 0.0, 0.25, 9.0]),
        (_ndtri, [0.0, 1e-300, 0.01, 0.5, 0.975, 1.0]),
    ],
    ids=["ndtr", "ndtri"],
)
def test_normal_functions_keep_the_input_shape(function, values):
    """_sample_src_lengths passes Python floats, _lognormal_trunc_moments a
    list and _ndtri's callers 1-D arrays; each element is its 1-D value."""
    flat = function(np.array(values))
    assert flat.shape == (len(values),)
    for value, expected in zip(values, flat):
        for scalar in (value, np.float64(value), np.array(value)):
            result = function(scalar)
            assert np.shape(result) == () and result == expected
    assert function(values).tolist() == flat.tolist()
    grid = function(np.reshape(values, (2, 3)))
    assert grid.shape == (2, 3) and grid.ravel().tolist() == flat.tolist()


@pytest.mark.parametrize(
    "rows",
    [
        [(3, 4), (1, 1)],
        [(9, 10), (10, 9), (99, 100), (100, 99)],  # each side crosses a decimal width
        [(1, 2**32), (2**32, 1), (2**32 - 1, 2**32 + 1)],
        [(2**63 - 1, 1), (1, 2**63 - 1), (2**63 - 1, 2**63 - 1)],  # the int64 maximum
        [(5, 123456), (123456, 5), (77, 7)],  # sides of different widths
    ],
    ids=["plain", "decimal_widths", "2**32", "int64_max", "mixed_widths"],
)
def test_lengths_tsv_text_shape(rows):
    assert make_corpus(rows).lengths_tsv == "".join(f"{s}\t{t}\n" for s, t in rows).encode()


def test_default_family_is_lognormal():
    assert SynthParams(n=1, mean_src=5, std_src=1, max_len=10).length_dist == LOGNORMAL
