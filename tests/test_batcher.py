"""Loader: block-sorted epoch order, batching, policies, epochs, determinism."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortbatch import batcher
from sortbatch.batcher import (
    FULL_SORT,
    PARTIAL_SORT,
    POLICIES,
    UNSORTED,
    Batch,
    BatchPlanConfig,
    BatchStream,
    batch_record,
    epoch_order,
    epoch_shuffle_seed,
    epoch_shuffles,
    run_epochs,
    write_batches_jsonl,
)
from sortbatch.corpus import Corpus, SentencePair, shuffle
from sortbatch.cost import cost_of_batch, summarize_run

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


def test_new_loader_rejects_drop_last_larger_than_corpus():
    with pytest.raises(ValueError, match="exceeds corpus size"):
        run_epochs(make_corpus([1, 2]), BatchPlanConfig(m=3, drop_last=True))


# ---------------------------------------------------------------------------
# block sort (what one refill of the paper's buffer does)
# ---------------------------------------------------------------------------


def test_refill_sorts_buffer():
    corpus = make_corpus([(5, 5), (1, 1), (3, 3), (2, 2)])
    config = BatchPlanConfig(m=2, k=2)  # one block of m*k = n
    shuffled = shuffle(corpus, epoch_shuffle_seed(0, 0))
    order = epoch_order(shuffled, config)
    assert list(zip(shuffled.src[order].tolist(), shuffled.tgt[order].tolist())) == [(1, 1), (2, 2), (3, 3), (5, 5)]


def test_refill_sort_is_stable_on_ties():
    corpus = Corpus([0, 1, 2], [3, 3, 1], [1, 1, 1])
    config = BatchPlanConfig(m=3, k=1, seed=5)  # this seed shuffles id 1 ahead of id 0
    shuffled = shuffle(corpus, epoch_shuffle_seed(5, 0))
    order = epoch_order(shuffled, config)
    assert shuffled.ids[order].tolist() == [2] + [i for i in shuffled.ids.tolist() if i != 2]


def test_refill_sorts_by_target_on_equal_source():
    corpus = make_corpus([(2, 9), (2, 1), (2, 5)])
    shuffled = shuffle(corpus, epoch_shuffle_seed(0, 0))
    assert shuffled.tgt[epoch_order(shuffled, BatchPlanConfig(m=3, k=1))].tolist() == [1, 5, 9]


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


def test_stream_batches_equal_by_value_from_either_end_and_in_slices():
    corpus = make_corpus([(5, 2), (1, 4), (3, 3), (2, 7), (4, 1)])
    stream = run_epochs(corpus, BatchPlanConfig(m=2, k=2, epochs=2))
    batches = list(stream)
    assert len(batches) == 6
    rebuilt = BatchStream.of(batches)
    assert [rebuilt[b] for b in range(6)] == [stream[b] for b in range(6)] == batches
    assert (stream[-1], stream[-6]) == (batches[5], batches[0])
    assert stream[1:4] == batches[1:4]
    assert stream[::-2] == batches[::-2]
    assert stream[4:99] == batches[4:]
    for index in (6, -7):
        with pytest.raises(IndexError):
            stream[index]
    by_id = {pair.id: pair for pair in corpus.pairs}
    assert [type(b.pairs) for b in batches] == [tuple] * 6
    assert [len(b.pairs) for b in batches] == stream.sizes.tolist()
    assert [pair for b in batches for pair in b.pairs] == [by_id[i] for i in stream.ids.tolist()]


def test_stream_of_batches_refuses_an_id_or_length_past_int64():
    """A pair id or length past int64 is a ValueError naming the batch, not an
    OverflowError from the int64 columns, whichever analysis builds them."""
    fine = Batch(pairs=(SentencePair(0, 1, 1),), padded_src=1, padded_tgt=1, iteration_index=0, epoch_index=0)
    big_id = Batch(pairs=(SentencePair(2**70, 1, 1),), padded_src=1, padded_tgt=1, iteration_index=1, epoch_index=0)
    long_src = Batch(pairs=(SentencePair(1, 2**64, 1),), padded_src=2**64, padded_tgt=1, iteration_index=1, epoch_index=0)
    with pytest.raises(ValueError, match="batch 0: a pair id, length or index is past int64"):
        summarize_run([big_id], BatchPlanConfig(m=1))
    with pytest.raises(ValueError, match="batch 0: a pair id, length or index is past int64"):
        cost_of_batch(long_src)
    for bad in (big_id, long_src):
        with pytest.raises(ValueError, match="batch 1: a pair id, length or index is past int64"):
            BatchStream.of([fine, bad])


# ---------------------------------------------------------------------------
# run_epochs / policies
# ---------------------------------------------------------------------------


def test_replay_bit_identical():
    corpus = make_corpus([(i % 7 + 1, i % 5 + 1) for i in range(30)])
    config = BatchPlanConfig(m=4, k=3, seed=11, epochs=2)
    assert stream_signature(run_epochs(corpus, config)) == stream_signature(
        run_epochs(corpus, config)
    )


def test_run_epochs_batches_the_shuffles_it_is_given():
    """Given shuffles stand in for the ones run_epochs makes itself, epoch by
    epoch; a wrong number of them, or one of another size, is refused."""
    corpus = make_corpus([(i % 7 + 1, i % 5 + 1) for i in range(30)])
    config = BatchPlanConfig(m=4, k=3, seed=11, epochs=2)
    shuffles = epoch_shuffles(corpus, 11, 2)
    made = stream_signature(run_epochs(corpus, config))
    assert stream_signature(run_epochs(corpus, config, shuffles)) == made
    swapped = stream_signature(run_epochs(corpus, config, shuffles[::-1]))
    assert [row[1:] for row in swapped] == [row[1:] for row in made[8:] + made[:8]]
    for wrong in (shuffles[:1], [shuffles[0], make_corpus(range(1, 30))]):
        with pytest.raises(ValueError, match="need 2 epoch shuffles of 30 pairs each"):
            run_epochs(corpus, config, wrong)


@pytest.mark.parametrize("policy, k", [(UNSORTED, 1), (PARTIAL_SORT, 3), (FULL_SORT, 1)])
def test_run_epochs_builds_no_corpus_from_given_shuffles(policy, k):
    """Each epoch's ids and lengths are gathered from its shuffle by row
    index: batching given shuffles builds (and so re-checks) no Corpus."""
    corpus = make_corpus([(i % 7 + 1, i % 5 + 1) for i in range(30)])
    config = BatchPlanConfig(m=4, k=k, policy=policy, seed=2, epochs=2)
    shuffles = epoch_shuffles(corpus, 2, 2)
    made = stream_signature(run_epochs(corpus, config))
    with mock.patch.object(Corpus, "__init__", autospec=True, side_effect=Corpus.__init__) as init:
        stream = run_epochs(corpus, config, shuffles)
    assert init.call_count == 0
    assert stream_signature(stream) == made


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
    partial sort, m for unsorted, the whole epoch for a full sort. The order
    is an intp array of rows of the shuffle."""
    corpus = make_corpus([(i % 5 + 1, i % 3 + 1) for i in range(14)])
    shuffled = shuffle(corpus, epoch_shuffle_seed(4, 1))
    pairs = shuffled.pairs
    for policy, k, block in ((PARTIAL_SORT, 2, 6), (UNSORTED, 1, 3), (FULL_SORT, 1, 14)):
        config = BatchPlanConfig(m=3, k=k, policy=policy, seed=4)
        expected = [
            pair
            for start in range(0, 14, block)
            for pair in sorted(pairs[start : start + block], key=lambda p: (p.src_len, p.tgt_len))
        ]
        order = epoch_order(shuffled, config)
        assert order.dtype == np.intp
        assert [pairs[row] for row in order.tolist()] == expected


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
        assert epoch_order(shuffled, config).tolist() == np.concatenate(expected).tolist()


@pytest.mark.parametrize(
    "src_lengths, tgt_lengths",
    [
        ([1, 254, 255], [1, 2, 3]),  # both uint8, src at its top
        ([1, 255, 256], [1, 2, 255]),  # uint16 src, uint8 tgt
        ([3, 65535, 65536], [7, 255, 256]),  # uint32 src, uint16 tgt
        ([2, 65535], [5, 2**32 - 1, 2**32]),  # uint16 src, uint64 tgt
        ([5, 2**32 - 1, 2**32], [2, 65535, 65536]),  # uint64 src, uint32 tgt
        ([1, 2, 200], [2**32, INT64_MAX - 1, INT64_MAX]),  # uint8 src, uint64 tgt at the int64 maximum
        ([INT64_MAX - 1, INT64_MAX, 1], [INT64_MAX, 1]),  # both at the int64 maximum
    ],
)
def test_epoch_order_sorts_blocks_across_length_widths(src_lengths, tgt_lengths):
    """Each column narrows to its own unsigned width; the order is the
    (src_len, tgt_len) sort of every block at each side of each width switch."""
    n = 50  # blocks of 12 (partial_sort) and 3 (unsorted) leave a short tail of 2
    rng = np.random.default_rng(len(src_lengths) * 10 + len(tgt_lengths))
    src = rng.choice(np.array(src_lengths, dtype=np.int64), size=n)  # few values: many ties
    tgt = rng.choice(np.array(tgt_lengths, dtype=np.int64), size=n)
    corpus = Corpus(np.arange(n), src, tgt)
    shuffled = shuffle(corpus, epoch_shuffle_seed(5, 0))
    pairs = shuffled.pairs
    for policy, k, block in ((PARTIAL_SORT, 4, 12), (UNSORTED, 1, 3), (FULL_SORT, 1, n)):
        expected = [
            pair
            for start in range(0, n, block)
            for pair in sorted(pairs[start : start + block], key=lambda p: (p.src_len, p.tgt_len))
        ]
        config = BatchPlanConfig(m=3, k=k, policy=policy, seed=5)
        assert [pairs[row] for row in epoch_order(shuffled, config).tolist()] == expected


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
    """Corpus and config, with a look-ahead far beyond any corpus size."""
    corpus = draw(corpora)
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
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert records == [batch_record(b) for b in batches]
    assert records[0].keys() == {"epoch", "iteration", "ids", "padded_src", "padded_tgt"}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_batches_jsonl_bytes_equal_json_dumps(tmp_path_factory, data):
    """A run_epochs stream, written in chunks of a drawn number of pairs."""
    corpus, config = data.draw(corpus_and_config())
    stream = run_epochs(corpus, config)
    path = tmp_path_factory.mktemp("jsonl") / "batches.jsonl"
    with mock.patch.object(batcher, "_CHUNK_PAIRS", data.draw(st.integers(1, 50), label="chunk")):
        write_batches_jsonl(stream, path)
    assert path.read_bytes() == "".join(json.dumps(batch_record(b)) + "\n" for b in stream).encode()


@pytest.mark.parametrize("chunk", [1, 50, batcher._CHUNK_PAIRS])
@pytest.mark.parametrize("drop_last", [False, True])
@pytest.mark.parametrize("m", [1, 7, 64])
def test_batches_jsonl_bytes_over_ids_of_every_digit_width(tmp_path, m, drop_last, chunk):
    """12,345 pairs: ids of 1 to 5 digits, so id-table rows of 3 to 7 bytes
    meet at batch ends and at chunk ends."""
    n = 12_345
    lengths = np.random.default_rng(0).integers(1, 60, size=(2, n))
    stream = run_epochs(Corpus(np.arange(n), *lengths), BatchPlanConfig(m=m, k=3, epochs=2, drop_last=drop_last))
    path = tmp_path / "batches.jsonl"
    with mock.patch.object(batcher, "_CHUNK_PAIRS", chunk):
        write_batches_jsonl(stream, path)
    assert path.read_bytes() == "".join(json.dumps(batch_record(b)) + "\n" for b in stream).encode()


def test_batches_jsonl_refuses_plain_batches(tmp_path):
    """Plain batches record no corpus to gather id text from, as a list or as
    BatchStream.of one; the writer refuses both before it creates the file."""
    batches = [
        Batch(pairs=(SentencePair(3, 2, 1), SentencePair(10**12, 1, 4)), padded_src=2, padded_tgt=4,
              iteration_index=0, epoch_index=0),
    ]
    path = tmp_path / "batches.jsonl"
    for plain in (batches, BatchStream.of(batches), []):
        with pytest.raises(ValueError, match="run_epochs"):
            write_batches_jsonl(plain, path)
    assert not path.exists()
