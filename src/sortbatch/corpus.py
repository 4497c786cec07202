"""Paired-length corpora: loading, filtering, shuffling, statistics, and synthesis.

A corpus is a set of int64 columns (pair ids, source lengths, target lengths)
with one row per sentence pair. Sentence lengths are whitespace-token counts
(parallel-tsv) or precomputed integers (lengths-tsv). Corpus values are
immutable after construction; every operation is a pure function returning a
new Corpus, so values are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

PARALLEL_TSV = "parallel-tsv"
LENGTHS_TSV = "lengths-tsv"
CORPUS_FORMATS = (PARALLEL_TSV, LENGTHS_TSV)

LOGNORMAL = "lognormal"
NORMAL = "normal"
LENGTH_DISTS = (LOGNORMAL, NORMAL)

__all__ = [
    "PARALLEL_TSV",
    "LENGTHS_TSV",
    "CORPUS_FORMATS",
    "LOGNORMAL",
    "NORMAL",
    "LENGTH_DISTS",
    "CorpusFormatError",
    "SentencePair",
    "Corpus",
    "LengthStats",
    "SynthParams",
    "load_corpus",
    "filter_max_len",
    "shuffle",
    "compute_stats",
    "synth_generate",
    "to_lengths_tsv",
    "write_lengths_tsv",
    "corpus_hash",
]


class CorpusFormatError(ValueError):
    """Malformed corpus file content; the message names the offending line."""


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One parallel example: a source/target length pair with a stable id.

    Text payloads are optional (absent in lengths-only mode); when present,
    the stored length must equal the whitespace-token count of the text.
    """

    id: int
    src_len: int
    tgt_len: int
    src_text: str | None = None
    tgt_text: str | None = None

    def __post_init__(self) -> None:
        if self.src_len < 1 or self.tgt_len < 1:
            raise ValueError(
                f"pair {self.id}: lengths must be >= 1, got ({self.src_len}, {self.tgt_len})"
            )
        if self.src_text is not None and len(self.src_text.split()) != self.src_len:
            raise ValueError(f"pair {self.id}: src_len does not match src_text token count")
        if self.tgt_text is not None and len(self.tgt_text.split()) != self.tgt_len:
            raise ValueError(f"pair {self.id}: tgt_len does not match tgt_text token count")


class Corpus:
    """Paired lengths as read-only int64 columns, plus a record of how they were made.

    Row r is one pair: ids[r], src[r], tgt[r] and, for parallel-tsv input,
    texts[r] = (source, target) in an (n, 2) object array (otherwise None).
    Build one from SentencePair values, Corpus(pairs), or from columns,
    Corpus(columns=(ids, src, tgt)); either way lengths must be >= 1, ids
    distinct and no length above max_len_filter. `pairs` is a SentencePair
    view, built on first use. Int64 array columns are used without a copy,
    so the caller must not write to them afterwards.
    """

    def __init__(
        self,
        pairs: Sequence[SentencePair] = (),
        max_len_filter: int | None = None,
        shuffle_seed: int | None = None,
        *,
        columns: tuple[ArrayLike, ArrayLike, ArrayLike] | None = None,
        texts: ArrayLike | None = None,
    ) -> None:
        if columns is None:
            pairs = self.__dict__["pairs"] = tuple(pairs)  # the given values serve as the view
            columns = ([p.id for p in pairs], [p.src_len for p in pairs], [p.tgt_len for p in pairs])
            if any(p.src_text is not None or p.tgt_text is not None for p in pairs):
                texts = [(p.src_text, p.tgt_text) for p in pairs]
        self.ids, self.src, self.tgt = (np.asarray(c, dtype=np.int64).view() for c in columns)
        self.texts = None if texts is None else np.array(texts, dtype=object).reshape(-1, 2)
        for column in (self.ids, self.src, self.tgt, self.texts):
            if column is not None:
                column.setflags(write=False)
        self.max_len_filter = max_len_filter
        self.shuffle_seed = shuffle_seed
        self._lengths_tsv: str | None = None

        n = len(self.ids)
        shapes = {self.ids.shape, self.src.shape, self.tgt.shape}
        if shapes != {(n,)} or (self.texts is not None and len(self.texts) != n):
            raise ValueError("corpus columns must be one-dimensional and of equal length")
        short = np.flatnonzero((self.src < 1) | (self.tgt < 1))
        if short.size:
            i, s, t = self.ids[short[0]], self.src[short[0]], self.tgt[short[0]]
            raise ValueError(f"pair {i}: lengths must be >= 1, got ({s}, {t})")
        ids = np.sort(self.ids)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("corpus pair ids must be distinct")
        limit = max_len_filter
        if limit is not None and ((self.src > limit) | (self.tgt > limit)).any():
            raise ValueError(f"corpus contains pairs longer than max_len_filter={limit}")

    def take(self, rows: ArrayLike, max_len_filter: int | None, shuffle_seed: int | None) -> Corpus:
        """The given rows, in the given order, with the given record."""
        texts = None if self.texts is None else self.texts[rows]
        columns = (self.ids[rows], self.src[rows], self.tgt[rows])
        return Corpus(columns=columns, texts=texts, max_len_filter=max_len_filter, shuffle_seed=shuffle_seed)

    @cached_property
    def pairs(self) -> tuple[SentencePair, ...]:
        texts = repeat(()) if self.texts is None else self.texts.tolist()
        rows = zip(self.ids.tolist(), self.src.tolist(), self.tgt.tolist(), texts)
        return tuple(SentencePair(i, s, t, *text) for i, s, t, text in rows)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)


@dataclass(frozen=True)
class LengthStats:
    """Population length statistics of a corpus, per side."""

    mean_src: float
    mean_tgt: float
    std_src: float
    std_tgt: float
    max_src: int
    max_tgt: int
    mean_pairwise_abs_diff: float
    histogram_src: dict[int, int]
    histogram_tgt: dict[int, int]


@dataclass(frozen=True)
class SynthParams:
    """Parameters for the synthetic paired-length generator.

    Source lengths are drawn from `length_dist` fitted so that the moments of
    its truncation to [1, max_len] match (mean_src, std_src); target lengths
    couple to the source via a zero-mean perturbation with mean absolute value
    close to pair_diff_mean.
    """

    n: int
    mean_src: float
    std_src: float
    max_len: int
    pair_diff_mean: float = 0.0
    length_dist: str = LOGNORMAL
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if not 1.0 <= self.mean_src <= self.max_len:
            raise ValueError(
                f"infeasible params: mean_src={self.mean_src} outside [1, max_len={self.max_len}]"
            )
        if self.std_src < 0:
            raise ValueError(f"std_src must be >= 0, got {self.std_src}")
        if self.pair_diff_mean < 0:
            raise ValueError(f"pair_diff_mean must be >= 0, got {self.pair_diff_mean}")
        if self.length_dist not in LENGTH_DISTS:
            raise ValueError(f"unknown length_dist {self.length_dist!r}, expected one of {LENGTH_DISTS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Loading and writing
# ---------------------------------------------------------------------------


#: Largest length a corpus column holds.
_MAX_LENGTH = np.iinfo(np.int64).max


def load_corpus(path: str | Path, fmt: str = LENGTHS_TSV) -> Corpus:
    """Read a corpus file in the given format.

    parallel-tsv: one pair per line, source and target sentences separated by
    exactly one tab; lengths are whitespace-token counts. lengths-tsv: two
    tab-separated positive integers per line.

    Raises CorpusFormatError on malformed or empty files, naming the line.
    """
    if fmt not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}, expected one of {CORPUS_FORMATS}")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lengths = _plain_lengths(text) if fmt == LENGTHS_TSV else None
    if lengths is not None and lengths.min() >= 1:
        return Corpus(columns=(np.arange(len(lengths)), lengths[:, 0], lengths[:, 1]))
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusFormatError(f"{path}: empty corpus file")
    rows = [_parse_line(line, fmt, path, lineno) for lineno, line in enumerate(lines, start=1)]
    src, tgt, *texts = zip(*rows)
    return Corpus(columns=(np.arange(len(rows)), src, tgt), texts=list(zip(*texts)) if texts else None)


def _plain_lengths(text: str) -> np.ndarray | None:
    """The (n, 2) lengths of a lengths-tsv text in which every line is two
    ASCII integers of 1 to 18 digits joined by one tab; None for any other
    text, which the per-line path then reads or rejects."""
    data = np.frombuffer(text.removesuffix("\n").encode("utf-8"), dtype=np.uint8)
    separators = np.flatnonzero((data < ord("0")) | (data > ord("9")))
    digits = np.diff(separators, prepend=-1, append=len(data)) - 1
    tab_newline = np.resize(np.array([ord("\t"), ord("\n")], dtype=np.uint8), len(separators))
    alternating = len(separators) % 2 == 1 and (data[separators] == tab_newline).all()
    if not alternating or not 1 <= digits.min() <= digits.max() <= 18:
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)


def _parse_line(line: str, fmt: str, path: str | Path, lineno: int) -> tuple:
    """(src_len, tgt_len), plus both texts for parallel-tsv, of one line."""
    columns = line.split("\t")
    if len(columns) != 2:
        raise CorpusFormatError(
            f"{path}: line {lineno}: expected 2 tab-separated columns, got {len(columns)}"
        )
    if fmt == PARALLEL_TSV:
        src_len, tgt_len = (len(column.split()) for column in columns)
        if src_len < 1 or tgt_len < 1:
            raise CorpusFormatError(f"{path}: line {lineno}: empty source or target sentence")
        return src_len, tgt_len, *columns
    for column in columns:
        if not column.isdigit():
            raise CorpusFormatError(
                f"{path}: line {lineno}: lengths must be positive integers, got {column!r}"
            )
    src_len, tgt_len = int(columns[0]), int(columns[1])
    if src_len < 1 or tgt_len < 1:
        raise CorpusFormatError(f"{path}: line {lineno}: non-positive length ({src_len}, {tgt_len})")
    if max(src_len, tgt_len) > _MAX_LENGTH:
        raise CorpusFormatError(f"{path}: line {lineno}: length above {_MAX_LENGTH}")
    return src_len, tgt_len


def to_lengths_tsv(corpus: Corpus) -> str:
    """Canonical interchange serialization: one `src_len\\ttgt_len` line per pair.

    Rendered once per corpus value and kept with it.
    """
    if corpus._lengths_tsv is None:
        interleaved = np.column_stack((corpus.src, corpus.tgt)).ravel().tolist()
        corpus._lengths_tsv = ("%d\t%d\n" * len(corpus)) % tuple(interleaved)
    return corpus._lengths_tsv


def write_lengths_tsv(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(to_lengths_tsv(corpus), encoding="utf-8")


def corpus_hash(corpus: Corpus) -> str:
    """Content hash of the canonical lengths-tsv serialization (order-sensitive)."""
    return hashlib.sha256(to_lengths_tsv(corpus).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Filtering, shuffling, statistics
# ---------------------------------------------------------------------------


def filter_max_len(corpus: Corpus, limit: int) -> Corpus:
    """Keep only pairs with both sides at most `limit` tokens, order preserved.

    The cutoff applies to source and target alike; the limit is recorded on
    the returned corpus. The result may be empty.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    kept = np.flatnonzero((corpus.src <= limit) & (corpus.tgt <= limit))
    return corpus.take(kept, max_len_filter=limit, shuffle_seed=corpus.shuffle_seed)


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Uniform seeded permutation of the pairs; same seed, same permutation."""
    if not len(corpus):
        raise ValueError("cannot shuffle an empty corpus")
    permutation = np.random.default_rng(seed).permutation(len(corpus))
    return corpus.take(permutation, max_len_filter=corpus.max_len_filter, shuffle_seed=seed)


def compute_stats(corpus: Corpus) -> LengthStats:
    """Population statistics over all pairs (std with ddof=0)."""
    if not len(corpus):
        raise ValueError("compute_stats requires a nonempty corpus")
    src, tgt = corpus.src, corpus.tgt
    return LengthStats(
        mean_src=float(src.mean()),
        mean_tgt=float(tgt.mean()),
        std_src=float(src.std()),
        std_tgt=float(tgt.std()),
        max_src=int(src.max()),
        max_tgt=int(tgt.max()),
        mean_pairwise_abs_diff=float(np.abs(src - tgt).mean()),
        histogram_src=_histogram(src),
        histogram_tgt=_histogram(tgt),
    )


def _histogram(values: np.ndarray) -> dict[int, int]:
    lengths, counts = np.unique(values, return_counts=True)
    return {int(length): int(count) for length, count in zip(lengths, counts)}


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def _lognormal_trunc_moments(mu: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    from scipy.special import ndtr

    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    z = ndtr(b) - ndtr(a)
    if z <= 0.0:
        return math.nan, math.nan
    m1 = math.exp(mu + 0.5 * sigma * sigma) * (ndtr(b - sigma) - ndtr(a - sigma)) / z
    m2 = math.exp(2.0 * mu + 2.0 * sigma * sigma) * (ndtr(b - 2.0 * sigma) - ndtr(a - 2.0 * sigma)) / z
    return float(m1), math.sqrt(max(float(m2) - float(m1) ** 2, 0.0))


def _normal_trunc_moments(loc: float, scale: float, lo: float, hi: float) -> tuple[float, float]:
    from scipy.special import ndtr

    a = (lo - loc) / scale
    b = (hi - loc) / scale
    z = ndtr(b) - ndtr(a)
    if z <= 0.0:
        return math.nan, math.nan
    pdf_a = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    pdf_b = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
    m1 = loc + scale * (pdf_a - pdf_b) / z
    var = scale * scale * (1.0 + (a * pdf_a - b * pdf_b) / z - ((pdf_a - pdf_b) / z) ** 2)
    return float(m1), math.sqrt(max(float(var), 0.0))


def _fit_family(dist: str, mean: float, std: float, lo: float, hi: float) -> tuple[float, float]:
    """Location/scale whose truncation to [lo, hi] has moments (mean, std).

    Starts from the plain moment fit of the untruncated family and refines by
    root finding; falls back to the start point when the truncated equations
    have no usable solution (extreme parameter corners).
    """
    from scipy import optimize

    if dist == LOGNORMAL:
        s2 = math.log(1.0 + (std / mean) ** 2)
        start = (math.log(mean) - 0.5 * s2, math.sqrt(s2))
        moments = _lognormal_trunc_moments
    else:
        start = (mean, std)
        moments = _normal_trunc_moments

    def equations(theta: Sequence[float]) -> list[float]:
        m, s = moments(theta[0], math.exp(theta[1]), lo, hi)
        if not (math.isfinite(m) and math.isfinite(s)):
            return [1e9, 1e9]
        return [m - mean, s - std]

    try:
        solution = optimize.root(equations, [start[0], math.log(start[1])], method="hybr")
    except Exception:
        return start
    if solution.success:
        loc, scale = float(solution.x[0]), float(math.exp(solution.x[1]))
        if all(math.isfinite(v) for v in moments(loc, scale, lo, hi)):
            return loc, scale
    return start


def _sample_src_lengths(params: SynthParams, rng: np.random.Generator) -> np.ndarray:
    from scipy.special import ndtr, ndtri

    if params.std_src == 0:
        value = min(max(int(round(params.mean_src)), 1), params.max_len)
        return np.full(params.n, value, dtype=np.int64)
    lo, hi = 1.0, float(params.max_len)
    loc, scale = _fit_family(params.length_dist, params.mean_src, params.std_src, lo, hi)
    if params.length_dist == LOGNORMAL:
        cdf_lo, cdf_hi = ndtr((math.log(lo) - loc) / scale), ndtr((math.log(hi) - loc) / scale)
    else:
        cdf_lo, cdf_hi = ndtr((lo - loc) / scale), ndtr((hi - loc) / scale)
    if cdf_hi - cdf_lo < 1e-12:
        value = min(max(int(round(params.mean_src)), 1), params.max_len)
        return np.full(params.n, value, dtype=np.int64)
    u = cdf_lo + rng.random(params.n) * (cdf_hi - cdf_lo)
    x = ndtri(u) * scale + loc
    if params.length_dist == LOGNORMAL:
        x = np.exp(x)
    return np.clip(np.rint(x), 1, params.max_len).astype(np.int64)


def synth_generate(params: SynthParams) -> Corpus:
    """Generate a deterministic synthetic corpus of paired lengths.

    Target lengths are the source lengths plus round(eps) with eps drawn
    zero-mean normal scaled so E|eps| equals pair_diff_mean, clamped to
    [1, max_len].
    """
    rng = np.random.default_rng(params.seed)
    src = _sample_src_lengths(params, rng)
    if params.pair_diff_mean == 0:
        tgt = src
    else:
        eps = rng.normal(0.0, params.pair_diff_mean * math.sqrt(math.pi / 2.0), params.n)
        tgt = np.clip(src + np.rint(eps).astype(np.int64), 1, params.max_len)
    return Corpus(columns=(np.arange(params.n), src, tgt))
