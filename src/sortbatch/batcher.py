"""Look-ahead partial-sort batch loader and the two reference policies.

The paper's loader keeps a buffer of at most m*k pairs. Whenever fewer than m
pairs remain buffered and unread pairs exist, it tops the buffer up to m*k,
stable-sorts the whole buffer ascending by (src_len, tgt_len), and then pops
the first m pairs per batch. Each pop takes exactly m and each refill tops up
to m*k, so pairs are left over in the buffer only once the epoch's shuffle is
used up. The stream of one epoch is therefore the shuffled epoch stable-sorted
by (src_len, tgt_len) within consecutive blocks of m*k pairs, then cut into
batches of m; this module computes it that way, with one stable sort per
epoch. k is the look-ahead of "partial_sort" only. "unsorted" sorts within
blocks of m, as k=1 does, which keeps the batches of plain chunking of the
shuffled corpus; "full_sort" sorts the whole epoch as one block. Ties keep
their shuffled order. Nothing carries across epochs: each epoch gets a fresh
permutation derived from (seed, epoch). A run is returned as one BatchStream
of integer columns, not as per-pair objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, SentencePair, id_text_table, shuffle

PARTIAL_SORT = "partial_sort"
UNSORTED = "unsorted"
FULL_SORT = "full_sort"
POLICIES = (PARTIAL_SORT, UNSORTED, FULL_SORT)

__all__ = [
    "PARTIAL_SORT",
    "UNSORTED",
    "FULL_SORT",
    "POLICIES",
    "BatchPlanConfig",
    "Batch",
    "BatchStream",
    "epoch_shuffle_seed",
    "epoch_order",
    "run_epochs",
    "batch_record",
    "write_batches_jsonl",
    "read_batches_jsonl",
]


@dataclass(frozen=True)
class BatchPlanConfig:
    """Batching policy descriptor. k is the look-ahead of partial_sort; the
    other two policies take only k=1 (unsorted sorts blocks of m, as k=1 does)."""

    m: int
    k: int = 1
    policy: str = PARTIAL_SORT
    seed: int = 0
    drop_last: bool = False
    epochs: int = 1

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"batch size m must be >= 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"look-ahead k must be >= 1, got {self.k}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.k != 1 and self.policy != PARTIAL_SORT:
            raise ValueError(f"look-ahead k={self.k} needs policy {PARTIAL_SORT!r}, got {self.policy!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class Batch:
    """Pairs emitted in one iteration plus the padded dimensions they imply."""

    pairs: Sequence[SentencePair]
    padded_src: int
    padded_tgt: int
    iteration_index: int
    epoch_index: int


@dataclass(frozen=True, eq=False)
class BatchStream(Sequence[Batch]):
    """A run's batches as int64 columns, in the order they are emitted.

    The pairs of all batches lie end to end in ids/src/tgt; batch b holds the
    rows from starts[b] up to the next start (the last batch, up to the end).
    Per batch: padded_src/padded_tgt are the member maxima, epoch and
    iteration its position. corpus is the corpus the pairs were cut from
    (run_epochs sets it): each id is a row of it, so write_batches_jsonl
    gathers the text of the ids from its cached corpus.id_text. Indexing and
    iteration build Batch views whose pairs are SentencePair values made on
    access.
    """

    ids: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    starts: np.ndarray
    padded_src: np.ndarray
    padded_tgt: np.ndarray
    epoch: np.ndarray
    iteration: np.ndarray
    corpus: Corpus | None = None

    @classmethod
    def of(cls, batches: Sequence[Batch]) -> BatchStream:
        """The stream itself, or the columns of a plain sequence of batches."""
        if isinstance(batches, cls):
            return batches
        pairs = [(p.id, p.src_len, p.tgt_len) for b in batches for p in b.pairs]
        ids, src, tgt = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
        per_batch = [
            (b.padded_src, b.padded_tgt, b.epoch_index, b.iteration_index, len(b.pairs)) for b in batches
        ]
        padded_src, padded_tgt, epoch, iteration, sizes = np.array(per_batch, dtype=np.int64).reshape(-1, 5).T
        return cls(ids, src, tgt, np.cumsum(sizes) - sizes, padded_src, padded_tgt, epoch, iteration)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts, append=len(self.ids))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[b] for b in range(len(self))[index]]
        b = range(len(self))[index]
        stop = self.starts[b + 1] if b + 1 < len(self) else len(self.ids)
        return Batch(
            pairs=_Members(self, range(self.starts[b], stop)),
            padded_src=int(self.padded_src[b]),
            padded_tgt=int(self.padded_tgt[b]),
            iteration_index=int(self.iteration[b]),
            epoch_index=int(self.epoch[b]),
        )


class _Members(Sequence[SentencePair]):
    """The pairs of one stream batch, made as SentencePair values on access."""

    def __init__(self, stream: BatchStream, rows: range) -> None:
        self._stream = stream
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows[index]
        if isinstance(rows, range):
            return tuple(self[i] for i in range(len(self))[index])
        s = self._stream
        return SentencePair(int(s.ids[rows]), int(s.src[rows]), int(s.tgt[rows]))


def epoch_shuffle_seed(base_seed: int, epoch: int) -> int:
    """Derive the shuffle seed for one epoch from the run seed.

    SeedSequence spawn keys keep the per-epoch permutations decorrelated while
    staying fully replayable from (base_seed, epoch).
    """
    sequence = np.random.SeedSequence(entropy=base_seed, spawn_key=(epoch,))
    return int(sequence.generate_state(1)[0])


def epoch_order(corpus: Corpus, config: BatchPlanConfig, epoch: int) -> Corpus:
    """The corpus in the order one epoch emits it under a policy.

    The epoch's shuffle is stable-sorted by (src_len, tgt_len) within
    consecutive blocks of m*k pairs (partial_sort), m pairs (unsorted) or the
    whole epoch (full_sort). Blocks are clamped to the corpus size.
    """
    shuffled = shuffle(corpus, epoch_shuffle_seed(config.seed, epoch))
    n = len(shuffled)
    block = n if config.policy == FULL_SORT else min(config.m * config.k, n)
    key, full = _sort_key(shuffled.src, shuffled.tgt), n - n % block
    # One row per whole block, each sorted on its own; the short tail is the last block.
    head = np.argsort(key[:full].reshape(-1, block), axis=1, kind="stable")
    head += np.arange(0, full, block)[:, None]
    order = np.concatenate([head.ravel(), np.argsort(key[full:], kind="stable") + full])
    return shuffled.take(order)


def _sort_key(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """One integer per pair that orders as (src, tgt) does: src * (max_tgt + 1)
    + tgt, in the narrowest unsigned type that holds it (16 bits or fewer
    radix-sort). Where that key would pass the int64 maximum, the ranks of
    each column (the count of smaller values) stand in for the lengths;
    ranks are below n, so they fit."""
    top = int(tgt.max()) + 1
    if (int(src.max()) + 1) * top > 2**63:
        src, tgt = (np.searchsorted(np.sort(column), column) for column in (src, tgt))
        top = int(tgt.max()) + 1
    return (src * top + tgt).astype(np.min_scalar_type((int(src.max()) + 1) * top - 1))


def run_epochs(corpus: Corpus, config: BatchPlanConfig) -> BatchStream:
    """Concatenated batch stream of all configured epochs.

    Each epoch's order is cut into batches of m. A final short batch is
    emitted unless drop_last is set, in which case it is discarded.
    """
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot batch an empty corpus")
    if config.drop_last and config.m > n:
        raise ValueError(f"batch size {config.m} exceeds corpus size {n} with drop_last")
    stop = n - n % config.m if config.drop_last else n
    orders = [epoch_order(corpus, config, epoch) for epoch in range(config.epochs)]
    columns = [(order.ids[:stop], order.src[:stop], order.tgt[:stop]) for order in orders]
    ids, src, tgt = columns[0] if config.epochs == 1 else map(np.concatenate, zip(*columns))
    per_epoch = np.arange(0, stop, min(config.m, n))  # an m above n gives one batch
    starts = (stop * np.arange(config.epochs)[:, None] + per_epoch).ravel()
    return BatchStream(
        ids=ids,
        src=src,
        tgt=tgt,
        starts=starts,
        padded_src=np.maximum.reduceat(src, starts),
        padded_tgt=np.maximum.reduceat(tgt, starts),
        epoch=np.repeat(np.arange(config.epochs), len(per_epoch)),
        iteration=np.tile(np.arange(len(per_epoch)), config.epochs),
        corpus=corpus,
    )


# ---------------------------------------------------------------------------
# JSON-lines batch stream
# ---------------------------------------------------------------------------


#: One batches.jsonl line; the bytes json.dumps(batch_record(batch)) + "\n" gives.
_LINE = b'{"epoch": %d, "iteration": %d, "ids": [%b], "padded_src": %d, "padded_tgt": %d}\n'

#: Pairs rendered per write (whole batches, at least one), which bounds the
#: gathered id text to about 1.5 MB.
_CHUNK_PAIRS = 1 << 16


def batch_record(batch: Batch) -> dict:
    """Wire-format record for one batch."""
    return {
        "epoch": int(batch.epoch_index),
        "iteration": int(batch.iteration_index),
        "ids": [int(pair.id) for pair in batch.pairs],
        "padded_src": int(batch.padded_src),
        "padded_tgt": int(batch.padded_tgt),
    }


def write_batches_jsonl(batches: Sequence[Batch], path: str | Path) -> None:
    """One line per batch, byte for byte json.dumps(batch_record(batch)) + "\n".

    Ids are rendered by gathering rows of an id-text table: for a stream
    from run_epochs, row i of its corpus's cached Corpus.id_text is the text
    of id i, so each id is converted to text once per corpus, not once per
    run; a stream of plain batches gets a table of its own ids, row r for
    stream row r.
    """
    stream = BatchStream.of(batches)
    if stream.corpus is None:
        (text, lengths), keys = id_text_table(stream.ids), np.arange(len(stream.ids))
    else:
        (text, lengths), keys = stream.corpus.id_text, stream.ids
    starts, sizes = stream.starts, stream.sizes
    ends = starts + sizes
    records = list(zip(*(c.tolist() for c in (stream.epoch, stream.iteration, stream.padded_src, stream.padded_tgt))))
    step = max(1, _CHUNK_PAIRS // int(sizes.max(initial=1)))
    with open(path, "wb") as handle:
        for b in range(0, len(stream), step):
            e = min(b + step, len(stream))
            lo, hi = starts[b], ends[e - 1]
            rows = keys[lo:hi]
            ids_text = text[rows].tobytes().translate(None, b"\0")
            offsets = np.concatenate(([0], np.cumsum(lengths[rows], dtype=np.int64)))
            # Each batch's span of ids_text, less the ", " after its last id.
            spans = zip(offsets[starts[b:e] - lo].tolist(), (offsets[ends[b:e] - lo] - 2).tolist())
            handle.write(b"".join(
                _LINE % (epoch, iteration, ids_text[s:t], src, tgt)
                for (epoch, iteration, src, tgt), (s, t) in zip(records[b:e], spans)
            ))


def read_batches_jsonl(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
