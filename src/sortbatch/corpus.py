"""Paired-length corpora: loading, shuffling, statistics, and synthesis.

A corpus is a set of integer columns (pair ids, source lengths, target
lengths) with one row per sentence pair; no sentence text is kept. Lengths
are whitespace-token counts (parallel-tsv) or precomputed integers
(lengths-tsv). Ids are int64; each length column is narrowed once, when the
Corpus is built, to the smallest unsigned type that holds its maximum, and
every sum or product over lengths is taken in int64. The canonical
lengths-tsv serialization, lengths_tsv, is bytes: load_corpus reads each file
once, as bytes, and keeps a file that is already canonical as it was read,
so the bytes hashed are the bytes a corpus.tsv holds.
A pair's id is its line in the corpus it was loaded or synthesised from,
counted from 0, so the ids of n pairs are a permutation of 0..n-1.
Corpus values are immutable after construction; every operation is a pure
function returning a new Corpus, so values are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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
    "SynthParams",
    "load_corpus",
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
    """Paired lengths as read-only columns: row r is one pair, ids[r], src[r], tgt[r].

    A corpus holds n >= 1 pairs, whose ids are a permutation of 0..n-1 (id i
    is line i of the corpus file) and lengths in [1, int64 maximum]. Each
    column must hold integers; a float or bool column is refused rather than
    cast. The values are checked in the dtypes given, before any cast; then
    ids are stored as int64 and src and tgt each in the smallest unsigned type
    of its maximum (`np.min_scalar_type`, uint8 for lengths up to 255), so a
    gather or sort of a length column moves no more bytes than its values
    need. Sums and products of lengths are taken in int64. `pairs`, a
    SentencePair view (iterate it, not the corpus), and `lengths_tsv`, the
    canonical bytes, are built on first use. src and tgt are stored
    contiguous. A column given as it is stored is used without a copy, so the
    caller must not write to it later.
    """

    def __init__(self, ids: ArrayLike, src: ArrayLike, tgt: ArrayLike) -> None:
        columns = {"ids": np.asarray(ids), "src": np.asarray(src), "tgt": np.asarray(tgt)}
        ids, src, tgt = columns.values()
        n = len(ids) if ids.ndim == 1 else -1
        if {ids.shape, src.shape, tgt.shape} != {(n,)}:
            raise ValueError("corpus columns must be one-dimensional and of equal length")
        if n == 0:  # before the dtype check: np.asarray(()) is float64
            raise ValueError("a corpus holds at least one pair")
        for name, column in columns.items():
            if column.dtype.kind not in "iu":
                raise ValueError(f"corpus column {name} must hold integers, got dtype {column.dtype}")
        low = min(int(src.min()), int(tgt.min()))
        tops = int(src.max()), int(tgt.max())
        if low < 1:
            bad = np.flatnonzero((src < 1) | (tgt < 1))[0]
            raise ValueError(f"pair {ids[bad]}: lengths must be >= 1, got ({src[bad]}, {tgt[bad]})")
        if max(tops) > _MAX_LENGTH:
            bad = np.flatnonzero((src > _MAX_LENGTH) | (tgt > _MAX_LENGTH))[0]
            raise ValueError(f"pair {ids[bad]}: lengths must be <= {_MAX_LENGTH}, got ({src[bad]}, {tgt[bad]})")
        seen = np.zeros(n, dtype=bool)
        if 0 <= ids.min() and ids.max() < n:  # a negative index would wrap
            seen[ids] = True
        if not seen.all():
            raise ValueError(f"corpus pair ids must be distinct and in [0, {n}): the lines of the corpus")
        self.ids = ids.astype(np.int64, copy=False).view()
        self.src, self.tgt = (np.ascontiguousarray(c, np.min_scalar_type(top)).view() for c, top in zip((src, tgt), tops))
        for column in (self.ids, self.src, self.tgt):
            column.setflags(write=False)

    @cached_property
    def pairs(self) -> tuple[SentencePair, ...]:
        rows = zip(self.ids.tolist(), self.src.tolist(), self.tgt.tolist())
        return tuple(SentencePair(*row) for row in rows)

    @cached_property
    def lengths_tsv(self) -> bytes:
        """Canonical interchange serialization, as bytes: one `src_len\\ttgt_len`
        line per pair, in ASCII. load_corpus sets it to the bytes of the file
        as read when they are already canonical."""
        return b"%d\t%d\n" * len(self) % tuple(np.column_stack((self.src, self.tgt)).ravel().tolist())

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SynthParams:
    """Parameters for the synthetic paired-length generator.

    Source lengths are drawn from `length_dist` fitted so that the moments of
    its truncation to [1, max_len] match (mean_src, std_src). They are sampled
    by inverse CDF: a uniform draw over the truncation's CDF range, which
    math.erfc gives, goes through the standard library's normal quantile,
    statistics.NormalDist().inv_cdf.
    Target lengths couple to the source via a zero-mean perturbation with mean
    absolute value close to pair_diff_mean. Lengths are drawn as floats, so
    max_len is at most 2**53; pair_diff_mean lies in [0, max_len] and std_src
    in [0, sqrt((mean_src - 1)(max_len - mean_src))], the Bhatia-Davis bound:
    no lengths in [1, max_len] with mean mean_src have a larger std.
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
            raise ValueError(f"infeasible params: mean_src={self.mean_src} outside [1, max_len={self.max_len}]")
        bound = math.sqrt((self.mean_src - 1) * (self.max_len - self.mean_src))
        if not 0 <= self.std_src <= bound:
            raise ValueError(
                f"infeasible params: std_src={self.std_src} outside [0, sqrt((mean_src - 1)(max_len - mean_src))"
                f" = {bound}] for mean_src={self.mean_src}, max_len={self.max_len}"
            )
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
#: Bytes of whole lines that _plain_lengths checks and converts at a time.
_PARSE_BYTES = 1 << 15


def load_corpus(path: str | Path, fmt: str = LENGTHS_TSV) -> Corpus:
    """Read a corpus file in the given format.

    parallel-tsv: one pair per line, source and target sentences separated by
    exactly one tab; only their whitespace-token counts are kept. lengths-tsv:
    two tab-separated positive ASCII integers per line. A lengths-tsv file of
    integers of 1 to 18 digits is checked and converted in one blockwise scan
    of its bytes (_plain_lengths); any other file is read line by line, which
    accepts integers up to the int64 maximum and names the first bad line.

    Raises CorpusFormatError on malformed or empty files, naming the line.
    """
    if fmt not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}, expected one of {CORPUS_FORMATS}")
    data = Path(path).read_bytes()
    if b"\r" in data:  # universal newlines, as text-mode reading translates them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    plain = _plain_lengths(data) if fmt == LENGTHS_TSV else None
    if plain is not None and plain[0].min() >= 1:
        lengths, canonical = plain
        corpus = Corpus(np.arange(len(lengths)), lengths[:, 0], lengths[:, 1])
        if canonical:  # the file is already the bytes lengths_tsv would render
            corpus.__dict__["lengths_tsv"] = data
        return corpus
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}: line {lineno}: not UTF-8 text") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusFormatError(f"{path}: empty corpus file")
    rows = [_parse_line(line, fmt, path, lineno) for lineno, line in enumerate(lines, start=1)]
    src, tgt = zip(*rows)
    return Corpus(np.arange(len(rows)), src, tgt)


def _plain_lengths(data: bytes) -> tuple[np.ndarray, bool] | None:
    """The (n, 2) lengths of lengths-tsv bytes in which every line is two
    ASCII integers of 1 to 18 digits joined by one tab, and whether the bytes
    are canonical: they end with a newline and no integer has a leading zero.
    None for any other bytes, which the per-line path then reads or rejects.

    One scan checks and converts the integers, a block of whole lines of
    about _PARSE_BYTES bytes at a time, so no whole-file index array is built.
    The end of bytes without a final newline ends the last line."""
    if not data:
        return None
    blocks = []
    leading_zero = False
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _PARSE_BYTES - 1) + 1 or len(data)
        block = _plain_block(np.frombuffer(data, np.uint8, stop - start, start))
        if block is None:
            return None
        blocks.append(block[0])
        leading_zero |= block[1]
        start = stop
    canonical = data.endswith(b"\n") and not leading_zero
    return np.concatenate(blocks).reshape(-1, 2), canonical


def _plain_block(chars: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """_plain_lengths of one block of whole lines, as its integers in order and
    whether one has a leading zero."""
    digits = chars - ord("0")  # wraps a byte below "0" past 9
    separators = np.flatnonzero(digits > 9)
    kinds = chars[separators]
    ends = separators if chars[-1] == ord("\n") else np.append(separators, len(chars))
    if len(ends) % 2 or not ((kinds[0::2] == ord("\t")).all() and (kinds[1::2] == ord("\n")).all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    widths = ends - starts
    narrowest, widest = int(widths.min()), int(widths.max())
    if not 1 <= narrowest <= widest <= 18:
        return None
    leading_zero = bool((digits[starts] == 0).any())
    # Horner's rule over each integer's last `widest` bytes, of which the
    # first widest - width are not its digits and count as 0.
    values = np.zeros(len(ends), np.min_scalar_type(10**widest - 1))
    index = np.subtract(ends, widest, out=starts)
    for place in range(widest - 1, -1, -1):
        place_digits = digits.take(index, mode="clip")  # a byte before the block is no integer's, so masked
        if place >= narrowest:
            place_digits *= widths > place
        values *= 10
        values += place_digits
        index += 1
    return values, leading_zero


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
    Path(path).write_bytes(corpus.lengths_tsv)


def corpus_hash(corpus: Corpus) -> str:
    """Content hash of the canonical lengths-tsv serialization (order-sensitive)."""
    return hashlib.sha256(corpus.lengths_tsv).hexdigest()


# ---------------------------------------------------------------------------
# Shuffling, statistics
# ---------------------------------------------------------------------------


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Uniform seeded permutation of the pairs; same seed, same permutation."""
    permutation = np.random.default_rng(seed).permutation(len(corpus))
    return Corpus(corpus.ids[permutation], corpus.src[permutation], corpus.tgt[permutation])


def compute_stats(corpus: Corpus) -> dict:
    """The stats document: population statistics over all pairs (std with
    ddof=0), keyed in the order `sortbatch stats` prints them, then the two
    histograms, each {length: count} with int keys."""
    src, tgt = corpus.src, corpus.tgt
    return {
        "n_pairs": len(corpus),
        "mean_src": float(src.mean()),
        "std_src": float(src.std()),
        "max_src": int(src.max()),
        "mean_tgt": float(tgt.mean()),
        "std_tgt": float(tgt.std()),
        "max_tgt": int(tgt.max()),
        "mean_pairwise_abs_diff": float(np.abs(np.subtract(src, tgt, dtype=np.int64)).mean()),
        "histogram_src": _histogram(src),
        "histogram_tgt": _histogram(tgt),
    }


def _histogram(values: np.ndarray) -> dict[int, int]:
    lengths, counts = np.unique(values, return_counts=True)
    return {int(length): int(count) for length, count in zip(lengths, counts)}


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: Largest argument of exp that stays finite.
_LOG_MAX_FLOAT = math.log(sys.float_info.max)


def _ndtr(x: ArrayLike) -> np.ndarray:
    """Standard normal CDF, erfc(-x/sqrt(2))/2, with math.erfc applied to each
    element and the result in x's shape, built without an object array. It
    goes subnormal near -37.5 and reaches 0 near -38.5."""
    y = -np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, y.ravel().tolist()), np.float64, y.size).reshape(y.shape)


def _ndtri(u: ArrayLike) -> np.ndarray:
    """Standard normal quantile: statistics.NormalDist().inv_cdf, Wichura's
    Algorithm AS 241, of each element of u, in u's shape. ndtri(0) = -inf and
    ndtri(1) = inf, the two values at which inv_cdf raises."""
    from statistics import NormalDist  # only synthesis needs it, so loading a file does not import it

    u = np.asarray(u, dtype=np.float64)
    ends = (u == 0.0) | (u == 1.0)
    inner = np.where(ends, 0.5, u).ravel().tolist()
    x = np.fromiter(map(NormalDist().inv_cdf, inner), np.float64, u.size).reshape(u.shape)
    return np.where(ends, np.copysign(np.inf, u - 0.5), x)


def _lognormal_trunc_moments(mu: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    if 2.0 * (mu + sigma * sigma) >= _LOG_MAX_FLOAT:  # the untruncated second moment overflows
        return math.nan, math.nan
    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    cdf = _ndtr([b, a, b - sigma, a - sigma, b - 2.0 * sigma, a - 2.0 * sigma])
    z, mass1, mass2 = (cdf[0::2] - cdf[1::2]).tolist()
    if min(z, mass1, mass2) <= 0.0:  # a mass that underflows leaves no moment
        return math.nan, math.nan
    m1 = math.exp(mu + 0.5 * sigma * sigma) * mass1 / z
    m2 = math.exp(2.0 * mu + 2.0 * sigma * sigma) * mass2 / z
    return m1, math.sqrt(max(m2 - m1**2, 0.0))


def _normal_trunc_moments(loc: float, scale: float, lo: float, hi: float) -> tuple[float, float]:
    a = (lo - loc) / scale
    b = (hi - loc) / scale
    cdf_b, cdf_a = _ndtr([b, a]).tolist()
    z = cdf_b - cdf_a
    if z <= 0.0:
        return math.nan, math.nan
    pdf_a = math.exp(-0.5 * a * a) / _SQRT_2PI
    pdf_b = math.exp(-0.5 * b * b) / _SQRT_2PI
    m1 = loc + scale * (pdf_a - pdf_b) / z
    var = scale * scale * (1.0 + (a * pdf_a - b * pdf_b) / z - ((pdf_a - pdf_b) / z) ** 2)
    return m1, math.sqrt(max(var, 0.0))


#: Newton iterations, and halvings of one step, before a fit counts as having no root.
_NEWTON_STEPS = 40
_HALVINGS = 30
#: Relative forward-difference step, the square root of the float epsilon.
_FD_STEP = math.sqrt(sys.float_info.epsilon)
#: A relative Newton step this small leaves the iterate at the root to float
#: precision: the forward-difference Jacobian, accurate to about _FD_STEP,
#: shrinks each step by about that factor.
_XTOL = 1e-10
#: Relative distance of a settled iterate's moments from their targets below
#: which it counts as a root.
_FTOL = 1e-9


def _fit_family(dist: str, mean: float, std: float, lo: float, hi: float) -> tuple[float, float]:
    """Location/scale whose truncation to [lo, hi] has moments (mean, std).

    Starts from the plain moment fit of the untruncated family and refines by
    damped Newton steps in (loc, log scale), with a forward-difference
    Jacobian, until a step no longer moves the iterate. Falls back to the
    start point when the truncated equations have no finite root: the start
    scale has no logarithm, the Jacobian is singular, no fraction of a step
    brings the moments closer while keeping them finite, the steps do not
    settle within _NEWTON_STEPS iterations, or they settle away from the
    target moments.
    """
    if dist == LOGNORMAL:
        s2 = math.log(1.0 + (std / mean) ** 2)
        start = (math.log(mean) - 0.5 * s2, math.sqrt(s2))
        moments = _lognormal_trunc_moments
    else:
        start = (mean, std)
        moments = _normal_trunc_moments
    if not 0 < start[1] < math.inf:
        return start

    def residual(theta: tuple[float, float]) -> tuple[float, float] | None:
        """Relative distance of the moments at theta from the targets; None where they are not finite."""
        if theta[1] >= _LOG_MAX_FLOAT:
            return None
        scale = math.exp(theta[1])
        if scale == 0.0:
            return None
        m, s = moments(theta[0], scale, lo, hi)
        if not (math.isfinite(m) and math.isfinite(s)):
            return None
        return (m - mean) / mean, (s - std) / std

    def size(r: tuple[float, float]) -> float:
        return max(abs(r[0]), abs(r[1]))

    theta = (start[0], math.log(start[1]))
    f = residual(theta)
    for _ in range(_NEWTON_STEPS):
        if f is None:
            return start
        columns = []
        for i in range(2):
            h = _FD_STEP * max(abs(theta[i]), 1.0)
            nudged = residual((theta[0] + h, theta[1]) if i == 0 else (theta[0], theta[1] + h))
            if nudged is None:
                return start
            columns.append(((nudged[0] - f[0]) / h, (nudged[1] - f[1]) / h))
        (j00, j10), (j01, j11) = columns
        det = j00 * j11 - j01 * j10
        if det == 0.0 or not math.isfinite(det):
            return start
        step = ((j11 * f[0] - j01 * f[1]) / det, (j00 * f[1] - j10 * f[0]) / det)
        if all(abs(d) <= _XTOL * max(abs(t), 1.0) for d, t in zip(step, theta)):
            theta = (theta[0] - step[0], theta[1] - step[1])
            f = residual(theta)
            at_root = f is not None and size(f) <= _FTOL
            return (theta[0], math.exp(theta[1])) if at_root else start
        for _ in range(_HALVINGS):  # damping: the longest step 2**-j that brings the moments closer
            candidate = (theta[0] - step[0], theta[1] - step[1])
            g = residual(candidate)
            if g is not None and size(g) < size(f):
                break
            step = (step[0] / 2.0, step[1] / 2.0)
        else:
            return start
        theta, f = candidate, g
    return start


def _sample_src_lengths(params: SynthParams, rng: np.random.Generator) -> np.ndarray:
    lo, hi = 1.0, float(params.max_len)
    loc, scale = _fit_family(params.length_dist, params.mean_src, params.std_src, lo, hi)
    lognormal = params.length_dist == LOGNORMAL
    cdf_lo = cdf_hi = 0.0  # a zero spread, or one too small or too large for floats, has no usable scale
    if 0 < scale < math.inf:
        bounds = (math.log(lo), math.log(hi)) if lognormal else (lo, hi)
        cdf_lo, cdf_hi = _ndtr([(bound - loc) / scale for bound in bounds]).tolist()
    if cdf_hi - cdf_lo < 1e-12:
        return np.full(params.n, int(round(params.mean_src)), dtype=np.int64)  # mean_src is in [1, max_len], so its rounding is
    u = cdf_lo + rng.random(params.n) * (cdf_hi - cdf_lo)
    x = _ndtri(u) * scale + loc
    return np.clip(np.rint(np.exp(x) if lognormal else x), 1, params.max_len).astype(np.int64)


def synth_generate(params: SynthParams) -> Corpus:
    """Generate a deterministic synthetic corpus of paired lengths.

    Source lengths are sampled by inverse CDF with the standard library's
    normal quantile, NormalDist().inv_cdf (see SynthParams). They are all
    round(mean_src), and no uniform is drawn, when std_src is 0, when the fit
    has no usable scale (one too small or too large for floats), or when under
    1e-12 of the fitted mass lies inside [1, max_len]. Target lengths are the
    source lengths plus round(eps) with eps drawn zero-mean normal scaled so
    E|eps| equals pair_diff_mean, clamped to [1, max_len]; they are drawn
    after every source length, so a pair_diff_mean of 0 gives tgt == src and
    leaves src as at any other pair_diff_mean.
    """
    rng = np.random.default_rng(params.seed)
    src = _sample_src_lengths(params, rng)
    eps = rng.normal(0.0, params.pair_diff_mean * math.sqrt(math.pi / 2.0), params.n)
    tgt = np.clip(src + np.rint(eps).astype(np.int64), 1, params.max_len)
    return Corpus(np.arange(params.n), src, tgt)
