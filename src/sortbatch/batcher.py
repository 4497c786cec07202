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
shuffled corpus; "full_sort" sorts the whole epoch as one block, and its k
is written "all" (k_label and config_for_k map between the two). Ties keep
their shuffled order. Nothing carries across epochs: each epoch gets a fresh
permutation derived from (seed, epoch), which epoch_shuffles makes once for
every policy and k a run seed is batched under. A run is returned as one
BatchStream of integer columns, not as per-pair objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, SentencePair, shuffle

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
    "k_label",
    "config_for_k",
    "Batch",
    "BatchStream",
    "epoch_shuffle_seed",
    "epoch_shuffles",
    "epoch_order",
    "run_epochs",
    "batch_record",
    "write_batches_jsonl",
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


def k_label(config: BatchPlanConfig) -> str:
    """k as the command line, run directories and tables write it: "all" for full_sort."""
    return "all" if config.policy == FULL_SORT else str(config.k)


def config_for_k(k: int | str, **settings) -> BatchPlanConfig:
    """The inverse of k_label: 1 is unsorted, an integer > 1 the look-ahead of
    partial_sort, "all" full_sort; settings are the other BatchPlanConfig fields."""
    if k == "all":
        return BatchPlanConfig(policy=FULL_SORT, **settings)
    return BatchPlanConfig(k=k, policy=UNSORTED if k == 1 else PARTIAL_SORT, **settings)


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
    """A run's batches as integer columns, in the order they are emitted.

    The pairs of all batches lie end to end in ids/src/tgt; batch b holds the
    rows from starts[b] up to the next start (the last batch, up to the end).
    ids are int64, and src/tgt keep the dtypes of the corpus columns they
    were gathered from, so sums over them are taken in int64 (length_sums).
    Per batch, in int64: padded_src/padded_tgt are the member maxima, epoch
    and iteration its position. corpus is the corpus the pairs were cut from,
    which run_epochs sets and write_batches_jsonl requires: its ids are
    0..n-1, so the writer gathers the text of each id from one cached table
    of n rows; BatchStream.of leaves it None. Indexing and
    iteration build Batch values whose pairs, a tuple of SentencePair, are
    made when the batch is indexed.
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
        """The stream itself, or the columns of a plain sequence of batches.
        Either must hold a batch: this is every analysis's one empty-list check.
        Each batch must hold pairs, padded to their longest src and tgt lengths."""
        if not batches:
            raise ValueError("cannot analyze an empty batch stream")
        if isinstance(batches, cls):
            return batches
        for b, batch in enumerate(batches):
            if not batch.pairs:
                raise ValueError(f"batch {b} holds no pairs")
            padded = (batch.padded_src, batch.padded_tgt)
            longest = (max(p.src_len for p in batch.pairs), max(p.tgt_len for p in batch.pairs))
            if padded != longest:
                raise ValueError(f"batch {b}: padded dims {padded} are not its pairs' longest lengths {longest}")
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

    @property
    def length_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The src and the tgt lengths of each batch summed, in int64 whatever the column dtypes."""
        return tuple(np.add.reduceat(side, self.starts, dtype=np.int64) for side in (self.src, self.tgt))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[b] for b in range(len(self))[index]]
        b = range(len(self))[index]
        rows = slice(self.starts[b], self.starts[b + 1] if b + 1 < len(self) else len(self.ids))
        return Batch(
            pairs=tuple(map(SentencePair, *(column[rows].tolist() for column in (self.ids, self.src, self.tgt)))),
            padded_src=int(self.padded_src[b]),
            padded_tgt=int(self.padded_tgt[b]),
            iteration_index=int(self.iteration[b]),
            epoch_index=int(self.epoch[b]),
        )


def epoch_shuffle_seed(base_seed: int, epoch: int) -> int:
    """Derive the shuffle seed for one epoch from the run seed.

    SeedSequence spawn keys keep the per-epoch permutations decorrelated while
    staying fully replayable from (base_seed, epoch).
    """
    sequence = np.random.SeedSequence(entropy=base_seed, spawn_key=(epoch,))
    return int(sequence.generate_state(1)[0])


def epoch_shuffles(corpus: Corpus, seed: int, epochs: int) -> list[Corpus]:
    """The shuffled corpus of each epoch 0..epochs-1 of a run seed: one
    `shuffle` per epoch, seeded by epoch_shuffle_seed(seed, epoch). They
    depend on the seed alone, so every k of a sweep can share them."""
    return [shuffle(corpus, epoch_shuffle_seed(seed, epoch)) for epoch in range(epochs)]


def epoch_order(shuffled: Corpus, config: BatchPlanConfig) -> np.ndarray:
    """The rows of one epoch's shuffle in the order the epoch emits them
    under a policy, as an intp array of row indices into shuffled.

    The shuffle is stable-sorted by (src_len, tgt_len) within consecutive
    blocks of m*k pairs (partial_sort), m pairs (unsorted) or the whole
    epoch (full_sort). Blocks are clamped to the corpus size.
    """
    n = len(shuffled)
    block = n if config.policy == FULL_SORT else min(config.m * config.k, n)
    # Corpus length columns are in their narrowest unsigned type: 16 bits or fewer radix-sort.
    src, tgt = shuffled.src, shuffled.tgt
    full = n - n % block
    # One row per whole block, each sorted on its own; the short tail is the last block.
    head = np.lexsort((tgt[:full].reshape(-1, block), src[:full].reshape(-1, block)))
    head += np.arange(0, full, block)[:, None]
    return np.concatenate([head.ravel(), np.lexsort((tgt[full:], src[full:])) + full])


def run_epochs(
    corpus: Corpus, config: BatchPlanConfig, shuffles: Sequence[Corpus] | None = None
) -> BatchStream:
    """Concatenated batch stream of all configured epochs.

    shuffles holds each epoch's shuffle of corpus, as epoch_shuffles(corpus,
    config.seed, config.epochs) makes them when it is None; a sweep passes
    the ones it made once for all k of a seed. Each epoch's ids and lengths
    are gathered from its shuffle once, in the row order epoch_order gives,
    and cut into batches of m. A final short batch is emitted unless
    drop_last is set, in which case it is discarded.
    """
    n = len(corpus)
    if config.drop_last and config.m > n:
        raise ValueError(f"batch size {config.m} exceeds corpus size {n} with drop_last")
    if shuffles is None:
        shuffles = epoch_shuffles(corpus, config.seed, config.epochs)
    if len(shuffles) != config.epochs or any(len(shuffled) != n for shuffled in shuffles):
        raise ValueError(f"need {config.epochs} epoch shuffles of {n} pairs each")
    stop = n - n % config.m if config.drop_last else n
    orders = [epoch_order(shuffled, config)[:stop] for shuffled in shuffles]
    columns = [(shuffled.ids[rows], shuffled.src[rows], shuffled.tgt[rows]) for shuffled, rows in zip(shuffles, orders)]
    ids, src, tgt = columns[0] if config.epochs == 1 else map(np.concatenate, zip(*columns))
    per_epoch = np.arange(0, stop, min(config.m, n))  # an m above n gives one batch
    starts = (stop * np.arange(config.epochs)[:, None] + per_epoch).ravel()
    return BatchStream(
        ids=ids,
        src=src,
        tgt=tgt,
        starts=starts,
        padded_src=np.maximum.reduceat(src, starts).astype(np.int64),
        padded_tgt=np.maximum.reduceat(tgt, starts).astype(np.int64),
        epoch=np.repeat(np.arange(config.epochs), len(per_epoch)),
        iteration=np.tile(np.arange(len(per_epoch)), config.epochs),
        corpus=corpus,
    )


# ---------------------------------------------------------------------------
# JSON-lines batch stream
# ---------------------------------------------------------------------------


#: One batches.jsonl line; the bytes json.dumps(batch_record(batch)) + "\n" gives.
_LINE = b'{"epoch": %d, "iteration": %d, "ids": [%b], "padded_src": %d, "padded_tgt": %d}\n'

#: Pairs rendered per write (whole batches, at least one). A chunk's gathered
#: rows, their text and the pieces split from it take at most 9 bytes a pair
#: each below 10**7 ids, about 0.6 MB; tracemalloc peaks per chunk, lines
#: included, were 2.5 MB at m=64 and 27 MB at m=1 (a bytes object per line).
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


@lru_cache(maxsize=1)
def _id_text(n: int) -> np.ndarray:
    """Read-only table whose row i is the JSON-list text `"{i}, "` of id i,
    right-aligned with NUL in a bytes dtype as wide as the text of id n-1, so
    a gather copies whole rows. No division: place j of 0..n-1 runs through
    '0'..'9', each 10**j times, one tiled run a column."""
    top = n - 1
    width = len(str(top))
    text = np.zeros((n, width + 2), dtype=np.uint8)
    text[:, -2:] = np.frombuffer(b", ", dtype=np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(width):
        step = 10**place
        run = np.repeat(ascii_digits[: top // step + 1], step)  # at most 10 digits, the ones 0..top reach
        text[:, width - 1 - place] = np.tile(run, -(-n // len(run)))[:n]
        if place:
            text[:step, width - 1 - place] = 0
    table = text.view(f"S{width + 2}").ravel()
    table.setflags(write=False)
    return table


def write_batches_jsonl(stream: BatchStream, path: str | Path) -> None:
    """One line per batch of a run_epochs stream, byte for byte
    json.dumps(batch_record(batch)) + "\n".

    The stream corpus's ids are 0..n-1, so each chunk of whole batches
    gathers the rows of its ids from _id_text(n), which a sweep builds once;
    the ", " after each batch's last id becomes a newline, and dropping the
    NULs and splitting at the newlines gives each batch's id list. Raises
    ValueError on anything but a BatchStream whose corpus is set.
    """
    if not isinstance(stream, BatchStream) or stream.corpus is None:
        raise ValueError("write_batches_jsonl takes the BatchStream of run_epochs, which records its corpus")
    table = _id_text(len(stream.corpus))
    ends = stream.starts + stream.sizes
    columns = stream.epoch, stream.iteration, stream.padded_src, stream.padded_tgt
    step = max(1, _CHUNK_PAIRS // int(stream.sizes.max(initial=1)))
    with open(path, "wb") as handle:
        for b in range(0, len(stream), step):
            e = min(b + step, len(stream))
            lo = stream.starts[b]
            gathered = table[stream.ids[lo : ends[e - 1]]].view(np.uint8).reshape(-1, table.itemsize)
            gathered[ends[b:e] - lo - 1, -2:] = np.frombuffer(b"\n\0", dtype=np.uint8)
            pieces = gathered.tobytes().translate(None, b"\0").split(b"\n")[:-1]
            epoch, iteration, src, tgt = (column[b:e].tolist() for column in columns)
            handle.write(b"".join(map(_LINE.__mod__, zip(epoch, iteration, pieces, src, tgt, strict=True))))
