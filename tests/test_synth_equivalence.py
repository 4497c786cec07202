"""The numpy synthesiser makes the same corpora as the scipy code it replaced.

`_reference_generate` below is that scipy code, frozen: MINPACK's hybrid
root finder for the truncated-moment fit, and scipy.special's ndtr and ndtri
for inverse-CDF sampling. It is the only place the package's corpora still
meet scipy, which is a test-only dependency; these tests are skipped without it.
"""

import math

import numpy as np
import pytest

scipy_special = pytest.importorskip("scipy.special")
scipy_optimize = pytest.importorskip("scipy.optimize")

from sortbatch.corpus import (  # noqa: E402  (after the importorskip)
    LENGTH_DISTS,
    LOGNORMAL,
    NORMAL,
    Corpus,
    SynthParams,
    _fit_family,
    _ndtr,
    _ndtri,
    corpus_hash,
    synth_generate,
)

#: Corpus parameters of the acceptance suite and of the benchmark workloads.
ENKR = dict(mean_src=22.64, std_src=15.55, max_len=125, pair_diff_mean=2.45)
ENLU = dict(mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006)
SEEDS = range(32)


# ---------------------------------------------------------------------------
# Frozen scipy reference
# ---------------------------------------------------------------------------


def _reference_lognormal_moments(mu, sigma, lo, hi):
    ndtr = scipy_special.ndtr
    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    z = ndtr(b) - ndtr(a)
    if z <= 0.0:
        return math.nan, math.nan
    m1 = math.exp(mu + 0.5 * sigma * sigma) * (ndtr(b - sigma) - ndtr(a - sigma)) / z
    m2 = math.exp(2.0 * mu + 2.0 * sigma * sigma) * (ndtr(b - 2.0 * sigma) - ndtr(a - 2.0 * sigma)) / z
    return float(m1), math.sqrt(max(float(m2) - float(m1) ** 2, 0.0))


def _reference_normal_moments(loc, scale, lo, hi):
    ndtr = scipy_special.ndtr
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


def _start(dist, mean, std):
    if dist == LOGNORMAL:
        s2 = math.log(1.0 + (std / mean) ** 2)
        return math.log(mean) - 0.5 * s2, math.sqrt(s2)
    return mean, std


def _reference_fit(dist, mean, std, lo, hi):
    start = _start(dist, mean, std)
    moments = _reference_lognormal_moments if dist == LOGNORMAL else _reference_normal_moments

    def equations(theta):
        m, s = moments(theta[0], math.exp(theta[1]), lo, hi)
        if not (math.isfinite(m) and math.isfinite(s)):
            return [1e9, 1e9]
        return [m - mean, s - std]

    try:
        solution = scipy_optimize.root(equations, [start[0], math.log(start[1])], method="hybr")
    except Exception:
        return start
    if solution.success:
        loc, scale = float(solution.x[0]), float(math.exp(solution.x[1]))
        if all(math.isfinite(v) for v in moments(loc, scale, lo, hi)):
            return loc, scale
    return start


def _reference_src_lengths(params, rng):
    ndtr, ndtri = scipy_special.ndtr, scipy_special.ndtri
    value = min(max(int(round(params.mean_src)), 1), params.max_len)
    if params.std_src == 0:
        return np.full(params.n, value, dtype=np.int64)
    lo, hi = 1.0, float(params.max_len)
    loc, scale = _reference_fit(params.length_dist, params.mean_src, params.std_src, lo, hi)
    if not 0 < scale < math.inf:
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


def _reference_generate(params):
    rng = np.random.default_rng(params.seed)
    src = _reference_src_lengths(params, rng)
    if params.pair_diff_mean == 0:
        tgt = src
    else:
        eps = rng.normal(0.0, params.pair_diff_mean * math.sqrt(math.pi / 2.0), params.n)
        tgt = np.clip(src + np.rint(eps).astype(np.int64), 1, params.max_len)
    return Corpus(np.arange(params.n), src, tgt)


def _mismatches(cases):
    """The cases whose corpus differs from the reference's. corpus_hash is the
    SHA-256 of the text of the src and tgt columns, so equal columns mean an
    equal corpus_hash; comparing the columns skips writing out that text."""
    differ = []
    for params in cases:
        new, old = synth_generate(params), _reference_generate(params)
        if not (np.array_equal(new.src, old.src) and np.array_equal(new.tgt, old.tgt)):
            differ.append(params)
    return differ


# ---------------------------------------------------------------------------
# Benchmark and acceptance corpora
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist", LENGTH_DISTS)
@pytest.mark.parametrize(
    "moments, n, extra_seeds",
    [(ENKR, 500_000, ()), (ENLU, 40_000, (1234,))],
    ids=["ENKR-500k", "ENLU-40k"],
)
def test_benchmark_and_acceptance_corpora_match_scipy(moments, n, extra_seeds, dist):
    # extra_seeds: criterion 4 of the acceptance suite draws the 40k corpus at seed 1234.
    cases = [SynthParams(n=n, seed=seed, length_dist=dist, **moments) for seed in (*SEEDS, *extra_seeds)]
    assert _mismatches(cases) == []


@pytest.mark.parametrize(
    "params",
    [
        SynthParams(n=640_000, seed=0, **ENKR),
        SynthParams(n=500_000, seed=0, **ENKR),
        SynthParams(n=40_000, seed=0, **ENLU),
    ],
    ids=["ENKR-640k", "ENKR-500k", "ENLU-40k"],
)
def test_seed_0_corpus_hash_matches_scipy(params):
    assert corpus_hash(synth_generate(params)) == corpus_hash(_reference_generate(params))


@pytest.mark.parametrize("dist", LENGTH_DISTS)
def test_fitted_location_and_scale_match_minpack(dist):
    for moments in (ENKR, ENLU):
        args = (dist, moments["mean_src"], moments["std_src"], 1.0, float(moments["max_len"]))
        assert _fit_family(*args) == pytest.approx(_reference_fit(*args), rel=1e-10)


# ---------------------------------------------------------------------------
# Corners where the fit has no root and falls back to its start point
# ---------------------------------------------------------------------------


FALLBACK_CORNERS = [
    dict(mean_src=50.0, std_src=3.0, max_len=50),  # mean at the cap
    dict(mean_src=125.0, std_src=15.55, max_len=125),
    dict(mean_src=10.0, std_src=15.0, max_len=20),  # std above sqrt((mean - 1)(max_len - mean))
    dict(mean_src=30.0, std_src=40.0, max_len=50),
    dict(mean_src=9.5, std_src=4.5, max_len=10),
    dict(mean_src=1.0, std_src=0.5, max_len=50),  # mean at the floor
]


@pytest.mark.parametrize("dist", LENGTH_DISTS)
@pytest.mark.parametrize("corner", FALLBACK_CORNERS, ids=lambda c: f"{c['mean_src']}-{c['std_src']}-{c['max_len']}")
def test_fallback_corners_match_scipy(corner, dist):
    args = (dist, corner["mean_src"], corner["std_src"], 1.0, float(corner["max_len"]))
    start = _start(*args[:3])
    assert _reference_fit(*args) == start
    assert _fit_family(*args) == start
    # Every corner lies above the Bhatia-Davis bound, so SynthParams refuses to synthesise it.
    with pytest.raises(ValueError, match="infeasible"):
        SynthParams(n=2_000, length_dist=dist, **corner)


@pytest.mark.parametrize(
    "dist, corner",
    [
        (NORMAL, dict(mean_src=5.0, std_src=9.0, max_len=10)),
        (NORMAL, dict(mean_src=10.99, std_src=10.0, max_len=1000)),
        (LOGNORMAL, dict(mean_src=1.09, std_src=0.1, max_len=10)),
    ],
)
def test_false_minpack_roots_now_fall_back(dist, corner):
    # No truncated family has these moments, yet MINPACK reported success at
    # a point whose moments miss them; the Newton fit falls back instead, so
    # these corpora changed.
    args = (dist, corner["mean_src"], corner["std_src"], 1.0, float(corner["max_len"]))
    moments = _reference_lognormal_moments if dist == LOGNORMAL else _reference_normal_moments
    reported = moments(*_reference_fit(*args), *args[3:])
    assert reported != pytest.approx((corner["mean_src"], corner["std_src"]), rel=1e-3)
    assert _fit_family(*args) == _start(*args[:3])


# ---------------------------------------------------------------------------
# Special functions against scipy.special
# ---------------------------------------------------------------------------


def test_ndtr_and_ndtri_match_scipy_including_the_tails():
    x = np.concatenate([np.linspace(-37.5, 9.0, 200_001), [-np.inf, np.inf]])
    np.testing.assert_allclose(_ndtr(x), scipy_special.ndtr(x), rtol=1e-12, atol=0)
    u = np.concatenate([
        np.geomspace(1e-300, 0.5, 100_001),
        1.0 - np.geomspace(1e-16, 0.5, 100_001),
        np.linspace(0.0, 1.0, 100_001),
    ])
    expected = scipy_special.ndtri(u)
    np.testing.assert_array_equal(np.isinf(_ndtri(u)), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(_ndtri(u)[finite], expected[finite], rtol=1e-15, atol=1e-15)

