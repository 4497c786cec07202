"""Shared corpus builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from sortbatch.batcher import PARTIAL_SORT, POLICIES, BatchPlanConfig
from sortbatch.corpus import Corpus


def make_corpus(lengths) -> Corpus:
    """Corpus from a list of ints (src=tgt) or (src, tgt) tuples; ids 0..n-1."""
    rows = [(entry, entry) if isinstance(entry, int) else entry for entry in lengths]
    src, tgt = [r[0] for r in rows], [r[1] for r in rows]
    return Corpus(range(len(rows)), src, tgt)


def wide_byte_corpus(n: int = 640, seed: int = 0) -> Corpus:
    """n pairs with both lengths drawn from 200..255, so each length column
    is uint8 while a batch's length sum or squared maximum is far above 255."""
    src, tgt = np.random.default_rng(seed).integers(200, 256, size=(2, n))
    corpus = Corpus(np.arange(n), src, tgt)
    assert corpus.src.dtype == corpus.tgt.dtype == np.uint8
    return corpus


def look_ahead(draw, policy, ks):
    """k for a drawn policy: drawn from ks under partial_sort, else 1."""
    return draw(ks) if policy == PARTIAL_SORT else 1


length_pairs = st.tuples(st.integers(1, 30), st.integers(1, 30))

corpora = st.builds(
    make_corpus,
    st.lists(length_pairs, min_size=1, max_size=40),
)


@st.composite
def corpus_and_config(draw, max_n=40, max_m=8, max_k=6, policies=POLICIES):
    """A corpus together with a loader config valid for it."""
    corpus = draw(st.builds(make_corpus, st.lists(length_pairs, min_size=1, max_size=max_n)))
    m = draw(st.integers(1, max_m))
    policy = draw(st.sampled_from(policies))
    config = BatchPlanConfig(
        m=m,
        k=look_ahead(draw, policy, st.integers(1, max_k)),
        policy=policy,
        seed=draw(st.integers(0, 2**31)),
        drop_last=draw(st.booleans()) and m <= len(corpus.pairs),
        epochs=draw(st.integers(1, 3)),
    )
    return corpus, config


partial_sort_configs = st.builds(
    BatchPlanConfig,
    m=st.integers(1, 8),
    k=st.integers(1, 6),
    policy=st.just(PARTIAL_SORT),
    seed=st.integers(0, 2**31),
)
