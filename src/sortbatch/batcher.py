"""Look-ahead partial-sort batch loader and the two reference policies.

The paper's loader keeps a buffer of at most m*k pairs. Whenever fewer than m
pairs remain buffered and unread pairs exist, it tops the buffer up to m*k,
stable-sorts the whole buffer ascending by (src_len, tgt_len), and then pops
the first m pairs per batch. Each pop takes exactly m and each refill tops up
to m*k, so pairs are left over in the buffer only once the epoch's shuffle is
used up. The stream of one epoch is therefore the shuffled epoch stable-sorted
by (src_len, tgt_len) within consecutive blocks of m*k pairs, then cut into
batches of m; this module computes it that way, with one stable sort per
epoch. k=1 ("unsorted") sorts within blocks of m, which keeps the batches of
plain chunking of the shuffled corpus; "full_sort" sorts the whole epoch as
one block. Ties keep their shuffled order. Nothing carries across epochs:
each epoch gets a fresh permutation derived from (seed, epoch).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    "Batch",
    "epoch_shuffle_seed",
    "epoch_order",
    "run_epochs",
    "batch_record",
    "write_batches_jsonl",
    "read_batches_jsonl",
]


@dataclass(frozen=True)
class BatchPlanConfig:
    """Batching policy descriptor. full_sort ignores k; unsorted behaves as k=1."""

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class Batch:
    """Pairs emitted in one iteration plus the padded dimensions they imply."""

    pairs: tuple[SentencePair, ...]
    padded_src: int
    padded_tgt: int
    iteration_index: int
    epoch_index: int


def epoch_shuffle_seed(base_seed: int, epoch: int) -> int:
    """Derive the shuffle seed for one epoch from the run seed.

    SeedSequence spawn keys keep the per-epoch permutations decorrelated while
    staying fully replayable from (base_seed, epoch).
    """
    sequence = np.random.SeedSequence(entropy=base_seed, spawn_key=(epoch,))
    return int(sequence.generate_state(1)[0])


def epoch_order(corpus: Corpus, config: BatchPlanConfig, epoch: int) -> tuple[SentencePair, ...]:
    """The pairs in the order one epoch emits them under a policy.

    The epoch's shuffle is stable-sorted by (src_len, tgt_len) within
    consecutive blocks of m*k pairs (partial_sort), m pairs (unsorted) or the
    whole epoch (full_sort). Blocks are clamped to the corpus size.
    """
    shuffled = shuffle(corpus, epoch_shuffle_seed(config.seed, epoch))
    n = len(shuffled)
    if config.policy == FULL_SORT:
        block = n
    elif config.policy == UNSORTED:
        block = min(config.m, n)
    else:
        block = min(config.m * config.k, n)
    keys = (shuffled.tgt_lengths(), shuffled.src_lengths(), np.arange(n) // block)
    return tuple(shuffled.pairs[i] for i in np.lexsort(keys).tolist())


def run_epochs(corpus: Corpus, config: BatchPlanConfig) -> list[Batch]:
    """Concatenated batch stream of all configured epochs.

    Each epoch's order is cut into batches of m. A final short batch is
    emitted unless drop_last is set, in which case it is discarded.
    """
    n = len(corpus.pairs)
    if n == 0:
        raise ValueError("cannot batch an empty corpus")
    if config.drop_last and config.m > n:
        raise ValueError(f"batch size {config.m} exceeds corpus size {n} with drop_last")
    stop = n - n % config.m if config.drop_last else n
    batches = []
    for epoch in range(config.epochs):
        order = epoch_order(corpus, config, epoch)
        for iteration, start in enumerate(range(0, stop, config.m)):
            pairs = order[start : start + config.m]
            batches.append(
                Batch(
                    pairs=pairs,
                    padded_src=max(p.src_len for p in pairs),
                    padded_tgt=max(p.tgt_len for p in pairs),
                    iteration_index=iteration,
                    epoch_index=epoch,
                )
            )
    return batches


# ---------------------------------------------------------------------------
# JSON-lines batch stream
# ---------------------------------------------------------------------------


def batch_record(batch: Batch) -> dict:
    """Wire-format record for one batch."""
    return {
        "epoch": batch.epoch_index,
        "iteration": batch.iteration_index,
        "ids": [p.id for p in batch.pairs],
        "padded_src": batch.padded_src,
        "padded_tgt": batch.padded_tgt,
    }


def write_batches_jsonl(batches: Sequence[Batch], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for batch in batches:
            handle.write(json.dumps(batch_record(batch)) + "\n")


def read_batches_jsonl(path: str | Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records
