"""Paired-length corpora: loading, filtering, shuffling, statistics, and synthesis.

A corpus is a set of int64 columns (pair ids, source lengths, target lengths)
with one row per sentence pair; no sentence text is kept. Lengths are
whitespace-token counts (parallel-tsv) or precomputed integers (lengths-tsv).
A pair's id is its line in the corpus it was loaded or synthesised from,
counted from 0, so the ids of n pairs are a permutation of 0..n-1.
Corpus values are immutable after construction; every operation is a pure
function returning a new Corpus, so values are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
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
    "write_lengths_tsv",
    "corpus_hash",
]


class CorpusFormatError(ValueError):
    """Malformed corpus file content; the message names the offending line."""


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One parallel example: a source/target length pair and its id, its line
    in the corpus (from 0)."""

    id: int
    src_len: int
    tgt_len: int

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"pair id must be >= 0, got {self.id}")
        if self.src_len < 1 or self.tgt_len < 1:
            raise ValueError(
                f"pair {self.id}: lengths must be >= 1, got ({self.src_len}, {self.tgt_len})"
            )


class Corpus:
    """Paired lengths as read-only int64 columns: row r is one pair, ids[r], src[r], tgt[r].

    The ids of n pairs are a permutation of 0..n-1 (id i is line i of the
    corpus file), lengths are >= 1 and none is above max_len_filter, the
    length limit the columns were filtered to (None if unfiltered). `pairs`, a
    SentencePair view, `lengths_tsv`, the canonical text, and `id_text`, the
    text of each id, are built on first use. Int64 array columns are used
    without a copy, so the caller must not write to them afterwards.
    """

    def __init__(self, ids: ArrayLike, src: ArrayLike, tgt: ArrayLike, max_len_filter: int | None = None) -> None:
        self.ids, self.src, self.tgt = (np.asarray(c, dtype=np.int64).view() for c in (ids, src, tgt))
        for column in (self.ids, self.src, self.tgt):
            column.setflags(write=False)
        self.max_len_filter = max_len_filter
        n = len(self.ids)
        shapes = {self.ids.shape, self.src.shape, self.tgt.shape}
        if shapes != {(n,)}:
            raise ValueError("corpus columns must be one-dimensional and of equal length")
        short = np.flatnonzero((self.src < 1) | (self.tgt < 1))
        if short.size:
            i, s, t = self.ids[short[0]], self.src[short[0]], self.tgt[short[0]]
            raise ValueError(f"pair {i}: lengths must be >= 1, got ({s}, {t})")
        seen = np.zeros(n, dtype=bool)
        if n and 0 <= self.ids.min() and self.ids.max() < n:  # a negative index would wrap
            seen[self.ids] = True
        if not seen.all():
            raise ValueError(f"corpus pair ids must be distinct and in [0, {n}): the lines of the corpus")
        limit = max_len_filter
        if limit is not None and ((self.src > limit) | (self.tgt > limit)).any():
            raise ValueError(f"corpus contains pairs longer than max_len_filter={limit}")

    def take(self, rows: ArrayLike) -> Corpus:
        """The pairs in the order of rows, a permutation of range(len(self)),
        under the same length limit."""
        return Corpus(self.ids[rows], self.src[rows], self.tgt[rows], self.max_len_filter)

    @cached_property
    def pairs(self) -> tuple[SentencePair, ...]:
        rows = zip(self.ids.tolist(), self.src.tolist(), self.tgt.tolist())
        return tuple(SentencePair(*row) for row in rows)

    @cached_property
    def lengths_tsv(self) -> str:
        """Canonical interchange serialization: one `src_len\\ttgt_len` line per pair."""
        interleaved = np.column_stack((self.src, self.tgt)).ravel().tolist()
        return ("%d\t%d\n" * len(self)) % tuple(interleaved)

    @cached_property
    def id_text(self) -> tuple[np.ndarray, np.ndarray]:
        """`id_text_table` of the ids 0..n-1, so that row i is the text of id i."""
        table = id_text_table(np.arange(len(self)))
        for column in table:
            column.setflags(write=False)
        return table

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)


@dataclass(frozen=True)
class LengthStats:
    """Pair count, per-side length statistics and length filter of a corpus,
    in the order `sortbatch stats` prints them; the two histograms come last."""

    n_pairs: int
    mean_src: float
    std_src: float
    max_src: int
    mean_tgt: float
    std_tgt: float
    max_tgt: int
    mean_pairwise_abs_diff: float
    max_len_filter: int | None
    histogram_src: dict[int, int]
    histogram_tgt: dict[int, int]


@dataclass(frozen=True)
class SynthParams:
    """Parameters for the synthetic paired-length generator.

    Source lengths are drawn from `length_dist` fitted so that the moments of
    its truncation to [1, max_len] match (mean_src, std_src); target lengths
    couple to the source via a zero-mean perturbation with mean absolute value
    close to pair_diff_mean. Lengths are drawn as floats, so max_len is at most
    2**53; std_src and pair_diff_mean lie in [0, max_len].
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
        if not 1 <= self.max_len <= 2**53:
            raise ValueError(f"max_len must be in [1, 2**53] (lengths are drawn as floats), got {self.max_len}")
        if not 1.0 <= self.mean_src <= self.max_len:
            raise ValueError(
                f"infeasible params: mean_src={self.mean_src} outside [1, max_len={self.max_len}]"
            )
        if not 0 <= self.std_src <= self.max_len:
            raise ValueError(f"infeasible params: std_src={self.std_src} outside [0, max_len={self.max_len}]")
        if not 0 <= self.pair_diff_mean <= self.max_len:
            raise ValueError(
                f"infeasible params: pair_diff_mean={self.pair_diff_mean} outside [0, max_len={self.max_len}]"
            )
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
    exactly one tab; only their whitespace-token counts are kept. lengths-tsv:
    two tab-separated positive ASCII integers per line.

    Raises CorpusFormatError on malformed or empty files, naming the line.
    """
    if fmt not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}, expected one of {CORPUS_FORMATS}")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lengths = _plain_lengths(text) if fmt == LENGTHS_TSV else None
    if lengths is not None and lengths.min() >= 1:
        return Corpus(np.arange(len(lengths)), lengths[:, 0], lengths[:, 1])
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusFormatError(f"{path}: empty corpus file")
    rows = [_parse_line(line, fmt, path, lineno) for lineno, line in enumerate(lines, start=1)]
    src, tgt = zip(*rows)
    return Corpus(np.arange(len(rows)), src, tgt)


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


def _parse_line(line: str, fmt: str, path: str | Path, lineno: int) -> tuple[int, int]:
    """(src_len, tgt_len) of one line."""
    columns = line.split("\t")
    if len(columns) != 2:
        raise CorpusFormatError(
            f"{path}: line {lineno}: expected 2 tab-separated columns, got {len(columns)}"
        )
    if fmt == PARALLEL_TSV:
        src_len, tgt_len = (len(column.split()) for column in columns)
        if src_len < 1 or tgt_len < 1:
            raise CorpusFormatError(f"{path}: line {lineno}: empty source or target sentence")
        return src_len, tgt_len
    for column in columns:
        if not (column.isascii() and column.isdigit()):
            raise CorpusFormatError(
                f"{path}: line {lineno}: lengths must be positive integers, got {column!r}"
            )
    src_len, tgt_len = int(columns[0]), int(columns[1])
    if src_len < 1 or tgt_len < 1:
        raise CorpusFormatError(f"{path}: line {lineno}: non-positive length ({src_len}, {tgt_len})")
    if max(src_len, tgt_len) > _MAX_LENGTH:
        raise CorpusFormatError(f"{path}: line {lineno}: length above {_MAX_LENGTH}")
    return src_len, tgt_len


def write_lengths_tsv(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(corpus.lengths_tsv, encoding="utf-8")


def id_text_table(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The JSON-list text `"{id}, "` of each id, NUL-padded to one width (a
    bytes dtype, so a gather copies whole rows), and the length of each text
    as uint8. Raises ValueError on a negative id.

    A text is the decimal digits right-aligned with NUL for leading zeros,
    then ", "; dropping the NULs leaves the text. The width follows the
    largest id, so ids below 10**6 take 8 bytes, not the 21 of the int64
    maximum.
    """
    if ids.min(initial=0) < 0:
        raise ValueError(f"ids must be >= 0, got {ids.min()}")
    top = int(ids.max(initial=0))
    magnitude = ids.astype(np.min_scalar_type(top))  # narrower types divide faster
    digits = len(str(top))
    text = np.zeros((len(ids), digits + 2), dtype=np.uint8)
    text[:, -2:] = np.frombuffer(b", ", dtype=np.uint8)
    lengths = np.full(len(ids), 2, dtype=np.uint8)
    for column in range(digits - 1, -1, -1):
        shown = (magnitude > 0) | (column == digits - 1)
        quotient = magnitude // 10
        text[:, column] = np.where(shown, magnitude - quotient * 10 + ord("0"), 0)
        lengths += shown
        magnitude = quotient
    return text.view(f"S{text.shape[1]}").ravel(), lengths


def corpus_hash(corpus: Corpus) -> str:
    """Content hash of the canonical lengths-tsv serialization (order-sensitive)."""
    return hashlib.sha256(corpus.lengths_tsv.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Filtering, shuffling, statistics
# ---------------------------------------------------------------------------


def filter_max_len(corpus: Corpus, limit: int) -> Corpus:
    """Keep only pairs with both sides at most `limit` tokens, order preserved.

    The cutoff applies to source and target alike; the limit is recorded on
    the returned corpus. The kept pairs are renumbered 0..n'-1 in order, as
    the lines of the filtered corpus. The result may be empty.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    kept = np.flatnonzero((corpus.src <= limit) & (corpus.tgt <= limit))
    return Corpus(np.arange(len(kept)), corpus.src[kept], corpus.tgt[kept], limit)


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Uniform seeded permutation of the pairs; same seed, same permutation."""
    if not len(corpus):
        raise ValueError("cannot shuffle an empty corpus")
    permutation = np.random.default_rng(seed).permutation(len(corpus))
    return corpus.take(permutation)


def compute_stats(corpus: Corpus) -> LengthStats:
    """Population statistics over all pairs (std with ddof=0)."""
    if not len(corpus):
        raise ValueError("compute_stats requires a nonempty corpus")
    src, tgt = corpus.src, corpus.tgt
    return LengthStats(
        n_pairs=len(corpus),
        mean_src=float(src.mean()),
        std_src=float(src.std()),
        max_src=int(src.max()),
        mean_tgt=float(tgt.mean()),
        std_tgt=float(tgt.std()),
        max_tgt=int(tgt.max()),
        mean_pairwise_abs_diff=float(np.abs(src - tgt).mean()),
        max_len_filter=corpus.max_len_filter,
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

    value = min(max(int(round(params.mean_src)), 1), params.max_len)
    if params.std_src == 0:
        return np.full(params.n, value, dtype=np.int64)
    lo, hi = 1.0, float(params.max_len)
    loc, scale = _fit_family(params.length_dist, params.mean_src, params.std_src, lo, hi)
    if not 0 < scale < math.inf:  # a spread too small or too large for floats
        return np.full(params.n, value, dtype=np.int64)
    if params.length_dist == LOGNORMAL:
        cdf_lo, cdf_hi = ndtr((math.log(lo) - loc) / scale), ndtr((math.log(hi) - loc) / scale)
    else:
        cdf_lo, cdf_hi = ndtr((lo - loc) / scale), ndtr((hi - loc) / scale)
    if cdf_hi - cdf_lo < 1e-12:
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
    return Corpus(np.arange(params.n), src, tgt)
