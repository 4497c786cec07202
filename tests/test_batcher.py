"""Loader: block-sorted epoch order, batching, policies, epochs, determinism."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sortbatch import batcher
from sortbatch.batcher import (
    FULL_SORT,
    PARTIAL_SORT,
    POLICIES,
    UNSORTED,
    Batch,
    BatchPlanConfig,
    batch_record,
    epoch_order,
    epoch_shuffle_seed,
    read_batches_jsonl,
    run_epochs,
    write_batches_jsonl,
)
from sortbatch.corpus import Corpus, SentencePair, filter_max_len, shuffle

from .helpers import corpora, corpus_and_config, look_ahead, make_corpus
from .reference_loader import reference_batches


def stream_signature(batches):
    return [(b.epoch_index, tuple(p.id for p in b.pairs), b.padded_src, b.padded_tgt) for b in batches]


# ---------------------------------------------------------------------------
# config and construction
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        BatchPlanConfig(m=0)
    with pytest.raises(ValueError):
        BatchPlanConfig(m=1, k=0)
    with pytest.raises(ValueError):
        BatchPlanConfig(m=1, policy="bogus")
    with pytest.raises(ValueError):
        BatchPlanConfig(m=1, epochs=0)


@pytest.mark.parametrize("policy", [UNSORTED, FULL_SORT])
def test_config_rejects_look_ahead_outside_partial_sort(policy):
    with pytest.raises(ValueError, match="look-ahead k=7 needs policy 'partial_sort'"):
        BatchPlanConfig(m=2, k=7, policy=policy)
    assert BatchPlanConfig(m=2, k=1, policy=policy).k == 1


def test_new_loader_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        run_epochs(Corpus((), (), ()), BatchPlanConfig(m=2))


def test_new_loader_rejects_drop_last_larger_than_corpus():
    with pytest.raises(ValueError, match="exceeds corpus size"):
        run_epochs(make_corpus([1, 2]), BatchPlanConfig(m=3, drop_last=True))


# ---------------------------------------------------------------------------
# block sort (what one refill of the paper's buffer does)
# ---------------------------------------------------------------------------


def test_refill_sorts_buffer():
    corpus = make_corpus([(5, 5), (1, 1), (3, 3), (2, 2)])
    order = epoch_order(corpus, BatchPlanConfig(m=2, k=2), 0)  # one block of m*k = n
    assert [(p.src_len, p.tgt_len) for p in order] == [(1, 1), (2, 2), (3, 3), (5, 5)]


def test_refill_sort_is_stable_on_ties():
    corpus = Corpus([0, 1, 2], [3, 3, 1], [1, 1, 1])
    config = BatchPlanConfig(m=3, k=1, seed=5)  # this seed shuffles id 1 ahead of id 0
    shuffled = [p.id for p in shuffle(corpus, epoch_shuffle_seed(5, 0)).pairs]
    assert [p.id for p in epoch_order(corpus, config, 0)] == [2] + [i for i in shuffled if i != 2]


def test_refill_sorts_by_target_on_equal_source():
    corpus = make_corpus([(2, 9), (2, 1), (2, 5)])
    order = epoch_order(corpus, BatchPlanConfig(m=3, k=1), 0)
    assert [p.tgt_len for p in order] == [1, 5, 9]


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_next_batch_pops_sorted_prefix():
    batches = run_epochs(make_corpus([(5, 5), (1, 1), (3, 3), (2, 2)]), BatchPlanConfig(m=2, k=2))
    assert [[p.src_len for p in b.pairs] for b in batches] == [[1, 2], [3, 5]]
    assert [b.padded_src for b in batches] == [2, 5]


def test_k1_single_batch_is_plain_chunk():
    config = BatchPlanConfig(m=3, policy=UNSORTED)
    (batch,) = run_epochs(make_corpus([(4, 4), (1, 1), (2, 2)]), config)
    assert {p.src_len for p in batch.pairs} == {4, 1, 2}
    assert batch.padded_src == 4


def test_batch_size_beyond_int64_gives_one_batch():
    (batch,) = run_epochs(make_corpus([3, 1, 2]), BatchPlanConfig(m=10**20, policy=UNSORTED))
    assert sorted(p.src_len for p in batch.pairs) == [1, 2, 3]


def test_short_final_batch_emitted_by_default():
    batches = run_epochs(make_corpus(range(1, 6)), BatchPlanConfig(m=2, policy=UNSORTED))
    assert [len(b.pairs) for b in batches] == [2, 2, 1]


def test_drop_last_discards_short_batch():
    config = BatchPlanConfig(m=2, policy=UNSORTED, drop_last=True, epochs=2)
    batches = run_epochs(make_corpus(range(1, 6)), config)
    assert [(b.epoch_index, len(b.pairs)) for b in batches] == [(0, 2), (0, 2), (1, 2), (1, 2)]


def test_iteration_indices_are_sequential():
    batches = run_epochs(make_corpus(range(1, 9)), BatchPlanConfig(m=2, k=2, epochs=2))
    assert [b.iteration_index for b in batches] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert [b.epoch_index for b in batches] == [0, 0, 0, 0, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# run_epochs / policies
# ---------------------------------------------------------------------------


def test_replay_bit_identical():
    corpus = make_corpus([(i % 7 + 1, i % 5 + 1) for i in range(30)])
    config = BatchPlanConfig(m=4, k=3, seed=11, epochs=2)
    assert stream_signature(run_epochs(corpus, config)) == stream_signature(
        run_epochs(corpus, config)
    )


def test_epochs_reshuffle_but_replay():
    corpus = make_corpus([(i % 9 + 1, i % 9 + 1) for i in range(24)])
    config = BatchPlanConfig(m=4, k=1, policy=UNSORTED, seed=3, epochs=2)
    batches = run_epochs(corpus, config)
    first = [tuple(p.id for p in b.pairs) for b in batches if b.epoch_index == 0]
    second = [tuple(p.id for p in b.pairs) for b in batches if b.epoch_index == 1]
    assert first != second
    assert {i for ids in first for i in ids} == {i for ids in second for i in ids}


def test_full_sort_chunks_sorted_order():
    corpus = make_corpus([5, 1, 3, 2, 4])
    config = BatchPlanConfig(m=2, policy=FULL_SORT, seed=0)
    batches = run_epochs(corpus, config)
    assert [sorted(p.src_len for p in b.pairs) for b in batches] == [[1, 2], [3, 4], [5]]


def test_large_k_equals_full_sort():
    corpus = make_corpus([(i % 13 + 1, i % 11 + 1) for i in range(20)])
    covering = BatchPlanConfig(m=3, k=7, policy=PARTIAL_SORT, seed=5)  # 21 >= 20
    full = BatchPlanConfig(m=3, policy=FULL_SORT, seed=5)
    assert stream_signature(run_epochs(corpus, covering)) == stream_signature(
        run_epochs(corpus, full)
    )


def test_unsorted_equals_k1_partial_sort():
    corpus = make_corpus([(i % 10 + 1, i % 4 + 1) for i in range(17)])
    a = run_epochs(corpus, BatchPlanConfig(m=4, k=1, policy=PARTIAL_SORT, seed=2, epochs=2))
    b = run_epochs(corpus, BatchPlanConfig(m=4, policy=UNSORTED, seed=2, epochs=2))
    assert stream_signature(a) == stream_signature(b)


def test_epoch_shuffle_seed_distinct_and_stable():
    seeds = {epoch_shuffle_seed(42, e) for e in range(50)}
    assert len(seeds) == 50
    assert epoch_shuffle_seed(42, 7) == epoch_shuffle_seed(42, 7)


def test_epoch_order_matches_shuffle_permutation():
    """The epoch's shuffle, stable-sorted within blocks: m*k pairs for a
    partial sort, m for unsorted, the whole epoch for a full sort."""
    corpus = make_corpus([(i % 5 + 1, i % 3 + 1) for i in range(14)])
    shuffled = shuffle(corpus, epoch_shuffle_seed(4, 1)).pairs
    for policy, k, block in ((PARTIAL_SORT, 2, 6), (UNSORTED, 1, 3), (FULL_SORT, 1, 14)):
        config = BatchPlanConfig(m=3, k=k, policy=policy, seed=4)
        expected = [
            pair
            for start in range(0, 14, block)
            for pair in sorted(shuffled[start : start + block], key=lambda p: (p.src_len, p.tgt_len))
        ]
        assert epoch_order(corpus, config, 1).pairs == tuple(expected)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "lengths",
    [
        [1, 2, 3, 2**62 - 1, 2**62, 2**62 + 1],  # src * (max_tgt + 1) overflows int64
        [1, 2, INT64_MAX - 2, INT64_MAX - 1, INT64_MAX],
        [1, 7, 300, 999, 1000],  # a key above 16 bits
    ],
)
def test_epoch_order_is_lexsort_block_sort_at_any_length(lengths):
    rng = np.random.default_rng(len(lengths))
    pairs = rng.choice(lengths, size=(60, 2)).tolist()  # many ties on each side
    corpus = Corpus(np.arange(60), *np.array(pairs, dtype=np.int64).T)
    for policy, k, block in ((PARTIAL_SORT, 4, 12), (UNSORTED, 1, 3), (FULL_SORT, 1, 60)):
        config = BatchPlanConfig(m=3, k=k, policy=policy, seed=9)
        shuffled = shuffle(corpus, epoch_shuffle_seed(9, 0))
        expected = [
            start + np.lexsort((shuffled.tgt[start : start + block], shuffled.src[start : start + block]))
            for start in range(0, 60, block)
        ]
        assert epoch_order(corpus, config, 0).ids.tolist() == shuffled.ids[np.concatenate(expected)].tolist()


# ---------------------------------------------------------------------------
# invariants (property-based)
# ---------------------------------------------------------------------------


@given(corpus_and_config())
@settings(max_examples=80, deadline=None)
def test_conservation_without_drop_last(case):
    corpus, config = case
    if config.drop_last:
        config = BatchPlanConfig(
            m=config.m, k=config.k, policy=config.policy, seed=config.seed, epochs=config.epochs
        )
    batches = run_epochs(corpus, config)
    for epoch in range(config.epochs):
        ids = [p.id for b in batches if b.epoch_index == epoch for p in b.pairs]
        assert sorted(ids) == sorted(p.id for p in corpus.pairs)


@given(corpus_and_config())
@settings(max_examples=60, deadline=None)
def test_batch_shape_invariants(case):
    corpus, config = case
    batches = run_epochs(corpus, config)
    for epoch in range(config.epochs):
        epoch_batches = [b for b in batches if b.epoch_index == epoch]
        for b in epoch_batches[:-1]:
            assert len(b.pairs) == config.m
        for b in epoch_batches:
            assert 1 <= len(b.pairs) <= config.m
            assert b.padded_src == max(p.src_len for p in b.pairs)
            assert b.padded_tgt == max(p.tgt_len for p in b.pairs)


@given(corpus_and_config(policies=(PARTIAL_SORT,)))
@settings(max_examples=60, deadline=None)
def test_cycle_padded_src_non_decreasing(case):
    corpus, config = case
    batches = run_epochs(corpus, config)
    for epoch in range(config.epochs):
        series = [b.padded_src for b in batches if b.epoch_index == epoch]
        for start in range(0, len(series), config.k):
            cycle = series[start : start + config.k]
            assert all(a <= b for a, b in zip(cycle, cycle[1:]))


def test_cycles_have_exactly_k_batches_when_divisible():
    corpus = make_corpus([(i % 10 + 1, i % 10 + 1) for i in range(24)])  # n = m*k*2
    config = BatchPlanConfig(m=4, k=3, policy=PARTIAL_SORT, seed=1)
    batches = run_epochs(corpus, config)
    shuffled = shuffle(corpus, epoch_shuffle_seed(1, 0)).pairs
    assert len(batches) == 6
    for cycle in range(2):  # batches k*c .. k*c+k-1 hold shuffled pairs m*k*c .. m*k*(c+1)-1
        emitted = {p.id for b in batches[3 * cycle : 3 * cycle + 3] for p in b.pairs}
        assert emitted == {p.id for p in shuffled[12 * cycle : 12 * cycle + 12]}


@given(corpus_and_config(policies=(PARTIAL_SORT, UNSORTED)))
@settings(max_examples=60, deadline=None)
def test_buffer_never_exceeds_capacity(case):
    """The look-ahead never reaches past one buffer of m*k pairs: the i-th
    pair emitted comes from the same block of the shuffle as position i."""
    corpus, config = case
    cap = config.m * config.k
    batches = run_epochs(corpus, config)
    for epoch in range(config.epochs):
        shuffled = shuffle(corpus, epoch_shuffle_seed(config.seed, epoch)).pairs
        block_of = {p.id: i // cap for i, p in enumerate(shuffled)}
        emitted = [p.id for b in batches if b.epoch_index == epoch for p in b.pairs]
        assert [block_of[i] for i in emitted] == [i // cap for i in range(len(emitted))]


@given(corpus_and_config(policies=(UNSORTED,)))
@settings(max_examples=60, deadline=None)
def test_k1_membership_equals_chunking(case):
    corpus, config = case
    batches = [b for b in run_epochs(corpus, config) if b.epoch_index == 0]
    order = shuffle(corpus, epoch_shuffle_seed(config.seed, 0)).pairs
    chunks = [order[i : i + config.m] for i in range(0, len(order), config.m)]
    if config.drop_last and len(chunks[-1]) < config.m:
        chunks = chunks[:-1]
    assert [{p.id for p in b.pairs} for b in batches] == [{p.id for p in c} for c in chunks]


@st.composite
def reference_cases(draw):
    """Corpus and config, with filtered corpora (gaps in the ids) and a
    look-ahead far beyond any corpus size."""
    corpus = draw(corpora)
    if draw(st.booleans()):
        corpus = filter_max_len(corpus, draw(st.integers(1, 30)))
        assume(corpus.pairs)
    m = draw(st.integers(1, 8))
    policy = draw(st.sampled_from(POLICIES))
    config = BatchPlanConfig(
        m=m,
        k=look_ahead(draw, policy, st.one_of(st.integers(1, 6), st.just(10**30))),
        policy=policy,
        seed=draw(st.integers(0, 2**31)),
        drop_last=draw(st.booleans()) and m <= len(corpus.pairs),
        epochs=draw(st.integers(1, 2)),
    )
    return corpus, config


@given(reference_cases())
@settings(max_examples=150, deadline=None)
def test_run_epochs_matches_reference(case):
    corpus, config = case
    expected = reference_batches(
        corpus,
        config.m,
        config.k,
        config.seed,
        epochs=config.epochs,
        drop_last=config.drop_last,
        full_sort=config.policy == FULL_SORT,
    )
    assert stream_signature(run_epochs(corpus, config)) == expected


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_all_equal_lengths_keep_shuffled_order(seed):
    corpus = make_corpus([7] * 20)
    sorted_run = run_epochs(corpus, BatchPlanConfig(m=4, k=3, policy=PARTIAL_SORT, seed=seed))
    plain_run = run_epochs(corpus, BatchPlanConfig(m=4, k=1, policy=UNSORTED, seed=seed))
    assert [[p.id for p in b.pairs] for b in sorted_run] == [
        [p.id for p in b.pairs] for b in plain_run
    ]


# ---------------------------------------------------------------------------
# JSONL round trip
# ---------------------------------------------------------------------------


def test_batches_jsonl_round_trip(tmp_path):
    corpus = make_corpus([(i % 8 + 1, i % 6 + 1) for i in range(19)])
    batches = run_epochs(corpus, BatchPlanConfig(m=4, k=2, seed=6, epochs=2))
    path = tmp_path / "batches.jsonl"
    write_batches_jsonl(batches, path)
    records = read_batches_jsonl(path)
    assert records == [batch_record(b) for b in batches]
    assert records[0].keys() == {"epoch", "iteration", "ids", "padded_src", "padded_tgt"}


#: Sparse ids as a plain list of batches may hold them, up to the int64 maximum.
sparse_ids = st.integers(0, INT64_MAX) | st.sampled_from([0, 1, 9, 10, INT64_MAX])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_batches_jsonl_bytes_equal_json_dumps(tmp_path_factory, data):
    """The corpus's id-text table for a run_epochs stream; for plain batches,
    a table of the stream's own ids, drawn sparse and up to the int64 maximum."""
    corpus, config = data.draw(corpus_and_config())
    stream = run_epochs(corpus, config)
    batches = stream
    if data.draw(st.booleans(), label="plain batches"):
        ids = data.draw(st.lists(sparse_ids, min_size=len(corpus), max_size=len(corpus), unique=True), label="ids")
        batches = [
            Batch(tuple(SentencePair(ids[p.id], p.src_len, p.tgt_len) for p in b.pairs), b.padded_src, b.padded_tgt,
                  b.iteration_index, b.epoch_index)
            for b in stream
        ]
    path = tmp_path_factory.mktemp("jsonl") / "batches.jsonl"
    with mock.patch.object(batcher, "_CHUNK_PAIRS", data.draw(st.integers(1, 50), label="chunk")):
        write_batches_jsonl(batches, path)
    assert path.read_bytes() == "".join(json.dumps(batch_record(b)) + "\n" for b in batches).encode()


def test_batches_jsonl_bytes_of_plain_batches(tmp_path):
    batches = [
        Batch(pairs=(SentencePair(3, 2, 1), SentencePair(10**12, 1, 4)), padded_src=2, padded_tgt=4,
              iteration_index=0, epoch_index=0),
        Batch(pairs=(), padded_src=0, padded_tgt=0, iteration_index=1, epoch_index=0),
    ]
    path = tmp_path / "batches.jsonl"
    write_batches_jsonl(batches, path)
    assert path.read_bytes() == "".join(json.dumps(batch_record(b)) + "\n" for b in batches).encode()
    write_batches_jsonl([], path)
    assert path.read_bytes() == b""
