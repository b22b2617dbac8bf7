"""Monte-Carlo oracle: sampler exactness, reproducibility, series agreement."""

import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.special import erf

from diffpath import mc
from diffpath.mc import (
    _mode_blocks,
    _near_uniform_block,
    _omitted_mode_bound,
    _rectangle_mass,
    estimate_pi_factor,
    estimate_v2,
    mode_second_moment_reference,
    sample_truncated_gaussian,
)
from diffpath.oscillator import log_pi
from diffpath.paths import ModelParams
from diffpath.special import hurwitz_zeta, truncated_gaussian_ratio
from diffpath.velocity import _v2_prefactor, v2_diff, v2_feynman

FIG2 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, A=10.0)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_sampler_support_and_symmetry():
    for b, big_b in [(2.0, 0.5), (0.1, 3.0), (50.0, 0.05)]:
        x = sample_truncated_gaussian(b, big_b, _rng(1), size=200_000)
        assert np.all(np.abs(x) <= big_b)
        stderr = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean()) < 3.0 * stderr


def test_sampler_second_moment_both_branches():
    # x = B sqrt(b) = 1 and 0.01 take the uniform envelope, x = 2 the Gaussian
    for b, big_b in [(1.0, 1.0), (1.0, 0.01), (1.0, 2.0)]:
        x = sample_truncated_gaussian(b, big_b, _rng(2), size=400_000)
        m2 = x**2
        ref = truncated_gaussian_ratio(b, big_b)
        stderr = m2.std(ddof=1) / math.sqrt(m2.size)
        assert abs(m2.mean() - ref) < 3.0 * stderr


# x = B sqrt(b) on both sides of the envelope switch at x = 1
SWITCH_GRID = (0.01, 0.5, 0.99, 1.01, 2.0, 6.0)
# below the switch, from all-rectangle to a wedge of half the mass
SPLIT_GRID = (1e-6, 1e-3, 0.1, 0.3, 0.7)


@pytest.mark.parametrize("x", SPLIT_GRID + SWITCH_GRID)
def test_sampler_ks_against_exact_cdf(x):
    b = 3.0
    big_b = x / math.sqrt(b)
    a = sample_truncated_gaussian(b, big_b, _rng(40), size=100_000)
    cdf = lambda t: 0.5 * (1.0 + erf(t * math.sqrt(b)) / erf(x))
    assert stats.kstest(a, cdf).pvalue > 1e-3


@pytest.mark.parametrize("x", SWITCH_GRID)
def test_sampler_moments_against_mpmath(x):
    # 12 comparisons in all, so 4 standard errors rather than 3
    b = 0.7
    big_b = x / math.sqrt(b)
    a = sample_truncated_gaussian(b, big_b, _rng(41), size=200_000)
    mp.mp.dps = 30
    weight = lambda t: mp.exp(-b * t * t)
    norm = mp.quad(weight, [-big_b, big_b])
    for k in (2, 4):
        ref = float(mp.quad(lambda t: t**k * weight(t), [-big_b, big_b]) / norm)
        ak = a**k
        assert abs(ak.mean() - ref) < 4.0 * ak.std(ddof=1) / math.sqrt(ak.size)


class _CountingRng:
    """Forwards to a Generator and counts the random numbers it returns."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws += int(np.size(out))
            return out

        return counted


@pytest.mark.parametrize("x", SWITCH_GRID)
def test_sampler_draws_per_sample(x):
    # x <= 1: one number per sample plus two per wedge candidate, 2.69 on
    # average at x = 1; x > 1: one per Gaussian candidate at acceptance
    # >= 0.843; plus the batch margins
    rng = _CountingRng(_rng(42))
    n = 100_000
    sample_truncated_gaussian(2.0, x / math.sqrt(2.0), rng, size=n)
    assert rng.draws / n <= 2.8


@pytest.mark.parametrize("x", (1e-6, 1e-3, 0.01, 0.1))
def test_sampler_near_uniform_modes_draw_one_number_per_sample(x):
    # the wedge holds 1 - p ~ 2x^2/3 of the mass: about 1.02 draws at x = 0.1
    rng = _CountingRng(_rng(44))
    n = 100_000
    sample_truncated_gaussian(2.0, x / math.sqrt(2.0), rng, size=n)
    assert rng.draws / n <= 1.05


class _WedgeOnlyRng:
    """Sends every sample to the wedge: the part-picking uniforms, the one
    draw written into ``out``, are all just below 1."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, size, out=None):
        if out is None:
            return self._rng.random(size)
        out.fill(1.0 - 2.0**-53)
        return out


@pytest.mark.parametrize("x", (1e-3, 0.3, 1.0))
def test_sampler_wedge_ks_against_exact_cdf(x):
    # the wedge density e^{-b a^2} - e^{-x^2} on [-B, B], integrated exactly
    b = 3.0
    big_b = x / math.sqrt(b)
    a = sample_truncated_gaussian(b, big_b, _WedgeOnlyRng(_rng(45)), size=100_000)
    c = math.exp(-x * x)
    mass = lambda t: math.sqrt(math.pi / b) / 2.0 * (erf(t * math.sqrt(b)) + erf(x)) - c * (t + big_b)
    assert stats.kstest(a, lambda t: mass(t) / mass(big_b)).pvalue > 1e-3


def test_block_rows_ks_against_exact_cdf():
    # one block, one stream: rows at x = 1e-3, 0.3 and 1 (b = 3), a row whose x^2 underflows
    # to 0.0 (the uniform density) and one with B = 0 (the point mass at 0)
    b = np.array([3.0, 3.0, 3.0, 1.0, 1.0])
    big_b = np.array([1e-3 / math.sqrt(3.0), 0.3 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1e-170, 0.0])
    rng = _rng(46)
    t = rng.random((5, 100_000))
    x2 = big_b * np.sqrt(b)
    x2 *= x2
    p = _rectangle_mass(x2)
    _near_uniform_block(x2, p, rng, t)
    a = big_b[:, None] * (2.0 * t / p[:, None] - 1.0)
    for row, x in enumerate((1e-3, 0.3, 1.0)):
        cdf = lambda s: 0.5 * (1.0 + erf(s * math.sqrt(3.0)) / erf(x))
        assert stats.kstest(a[row], cdf).pvalue > 1e-3, x
    assert stats.kstest(a[3], lambda s: (s + 1e-170) / 2e-170).pvalue > 1e-3
    assert p[3] == p[4] == 1.0 and np.array_equal(a[4], np.zeros(a.shape[1]))


@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_folded_accumulation_matches_explicit_sum():
    # 40 near-uniform modes (x_1 = 0.94) x 3000 samples are one block: estimate_v2 adds it
    # as one matrix-vector product, sum_j (ds_j 2 B_j / p_j) t_j - sum_j ds_j B_j; the same
    # stream, mapped to the samples a_j and summed mode by mode, agrees with it per sample
    # within (3 k + 10) eps sum_j |ds_j| B_j / eps_t for k = 40 modes (products and sums of
    # terms of at most 2 |ds_j| B_j, each rounded once, on both sides)
    params, eps_t, t0, k, n = ModelParams(A=0.6, alpha=2.5), 0.05, 0.1, 40, 3000
    est = estimate_v2(params, eps_t, t0, k, n, seed=7)
    (modes, scale, shift, t), = _mode_blocks(params, k, n, 7)
    assert modes == slice(0, k)
    j = np.arange(1.0, k + 1.0)
    ds = np.sin(j * math.pi * (t0 + eps_t) / params.T) - np.sin(j * math.pi * t0 / params.T)
    v = np.zeros(n)
    for row in range(k):
        v += ds[row] * (scale[row] * t[row] - shift[row])
    v /= eps_t
    delta = (3 * k + 10) * np.finfo(float).eps * float(np.abs(ds) @ shift) / eps_t
    mean = float((v * v).mean())
    assert abs(est.mean - mean) <= 2.0 * float(np.abs(v).max()) * delta + delta * delta + 1e-14 * mean


class _EdgeRng:
    """Part-picking uniforms at the rectangle's edge: the 129 floats p + k ulp(p),
    |k| <= 64, repeated; every other draw from the wrapped Generator."""

    def __init__(self, rng, p):
        self._rng = rng
        self._edge = np.minimum(p + np.spacing(p) * np.arange(-64.0, 65.0), 1.0 - 2.0**-53)

    def random(self, size, out=None):
        if out is None:
            return self._rng.random(size)
        out.reshape(-1)[:] = np.resize(self._edge, out.size)
        return out


@pytest.mark.parametrize("big_b", (1.0 / 3.0, 7.77e-5, 1e10 / 3.0, 0.1))
@pytest.mark.parametrize("x", (1e-3, 0.3, 0.7, 1.0))
def test_sampler_samples_within_the_bound_exactly(x, big_b):
    # the rectangle's largest uniforms (just below its mass p) and the wedge (written
    # after the rectangle's map, not pushed through it) stay in [-B, B] with no rounding past it
    b = (x / big_b) ** 2
    p = math.exp(-x * x) * 2.0 * x / (math.sqrt(math.pi) * math.erf(x))
    for rng in (_EdgeRng(_rng(47), p), _WedgeOnlyRng(_rng(48)), _rng(49)):
        a = sample_truncated_gaussian(b, big_b, rng, size=20_000)
        assert a.min() >= -big_b and a.max() <= big_b


def test_sampler_one_row_draw_pinned():
    # x = 0.7 <= 1: one row of the block sampler, its part-picking uniforms and then its wedge
    # candidates from the one rng it is given; 269 of the 1000 samples, a[0] among them, are
    # wedge samples.  Pinned before the estimators split the seed into two streams, which
    # leaves this draw as it was
    b = 3.0
    a = sample_truncated_gaussian(b, 0.7 / math.sqrt(b), _rng(50), size=1000)
    assert math.fsum(a).hex() == "-0x1.6f015834b212ep+1"
    assert math.fsum(a * a).hex() == "0x1.8aa9b3cdfb01bp+5"
    assert a[0].hex() == "-0x1.8ffe61490833cp-4"


def _fill_threads():
    return [t for t in threading.enumerate() if t.name == "diffpath-mc-fill"]


@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_no_fill_thread_outlives_its_call(monkeypatch):
    # 300 modes x 3000 samples: modes 1-2 above x = 1, then seven blocks of at most 43 rows,
    # more than the ring holds, so the fill thread is still waiting for a buffer after the
    # first block
    params = ModelParams(alpha=2.5, A=3.0, omega=1.5)
    estimate_v2(params, 0.1, 0.2, 300, 3000, seed=5)
    assert not _fill_threads()
    estimate_pi_factor(params, None, 300, 3000, seed=6)
    assert not _fill_threads()
    blocks = _mode_blocks(params, 300, 3000, 5)
    next(blocks)
    assert _fill_threads()
    blocks.close()
    assert not _fill_threads()
    # the calling thread raises in its second block
    seen = []

    def failing(*args):
        seen.append(args)
        if len(seen) == 2:
            raise RuntimeError("wedge")
        return _near_uniform_block(*args)

    monkeypatch.setattr(mc, "_near_uniform_block", failing)
    for call in (lambda: estimate_v2(params, 0.1, 0.2, 300, 3000, seed=5),
                 lambda: estimate_pi_factor(params, None, 300, 3000, seed=6)):
        seen.clear()
        with pytest.raises(RuntimeError, match="wedge"):
            call()
        assert not _fill_threads()


@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_estimates_repeat_under_thread_switching():
    # four calls at once, each with its own fill thread (more threads than cores), the
    # interpreter switching threads every microsecond: each reads the values of a lone call
    params = ModelParams(alpha=2.5, A=3.0, omega=1.5)
    lone = [estimate_v2(params, 0.1, 0.2, 300, 3000, seed=s) for s in range(2)]
    lone += [estimate_pi_factor(params, None, 300, 3000, seed=s) for s in range(2)]
    calls = [lambda s=s: estimate_v2(params, 0.1, 0.2, 300, 3000, seed=s) for s in range(2)]
    calls += [lambda s=s: estimate_pi_factor(params, None, 300, 3000, seed=s) for s in range(2)]
    results = [None] * len(calls)

    def run(i):
        results[i] = calls[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == lone
    assert not _fill_threads()


class _FailingParts:
    """A Generator whose ``random`` raises, noting the thread it was called in."""

    def __init__(self, threads):
        self._threads = threads

    def random(self, *args, **kwargs):
        self._threads.append(threading.current_thread().name)
        raise RuntimeError("parts")


def test_fill_thread_failure_is_raised_by_the_caller(monkeypatch):
    # the part-picking stream, spawned first, fails in the fill thread: the estimator
    # raises its exception at the first block, and the thread has ended
    real, made, threads = np.random.Generator, [], []

    def generator(bit_generator):
        made.append(bit_generator)
        return _FailingParts(threads) if len(made) == 1 else real(bit_generator)

    monkeypatch.setattr(np.random, "Generator", generator)
    with pytest.raises(RuntimeError, match="parts"):
        estimate_v2(ModelParams(alpha=2.5, A=3.0), 0.1, 0.2, 300, 3000, seed=5)
    assert threads == ["diffpath-mc-fill"]
    assert not _fill_threads()


class _ShortFirstRoundRng:
    """Gaussian candidates whose first batch is rejected but for one value."""

    def __init__(self, rng, big_b):
        self._rng, self._big_b = rng, big_b
        self.candidates = []

    def normal(self, loc, scale, size):
        out = self._rng.normal(loc, scale, size)
        if not self.candidates:
            out[1:] = 2.0 * self._big_b
        self.candidates.append(out)
        return out


def test_sampler_fills_after_a_short_round():
    big_b = 2.0  # x = 2: the Gaussian envelope
    rng = _ShortFirstRoundRng(_rng(43), big_b)
    a = sample_truncated_gaussian(1.0, big_b, rng, size=1000)
    assert len(rng.candidates) >= 2
    accepted = np.concatenate(rng.candidates)
    accepted = accepted[np.abs(accepted) <= big_b]
    assert np.unique(a).size == a.size and np.isin(a, accepted).all()


def test_sampler_domain():
    with pytest.raises(ValueError):
        sample_truncated_gaussian(0.0, 1.0, _rng(0), size=1)
    with pytest.raises(ValueError):
        sample_truncated_gaussian(1.0, -1.0, _rng(0), size=1)
    # x^2 = (B sqrt(b))^2 underflows to 0.0: the x -> 0 limit, the uniform density on [-B, B],
    # every sample a = B (2 u - 1) from the rectangle, one uniform each
    big_b = 1e-170
    u = _rng(3).random(1000)
    assert np.array_equal(sample_truncated_gaussian(1.0, big_b, _rng(3), size=1000), u * (2.0 * big_b) - big_b)
    # B = 0 (B_j = A / j^alpha past the float range) is the point mass at a = 0
    assert np.array_equal(sample_truncated_gaussian(1.0, 0.0, _rng(3), size=10), np.zeros(10))


def test_estimate_v2_reproducible_bitwise():
    a = estimate_v2(FIG2, 0.05, 0.0, 50, 2000, seed=99)
    b = estimate_v2(FIG2, 0.05, 0.0, 50, 2000, seed=99)
    assert a == b
    c = estimate_v2(FIG2, 0.05, 0.0, 50, 2000, seed=100)
    assert c.mean != a.mean


@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_estimate_v2_matches_exact_three_mode_sum():
    # for fixed N_modes the estimator is unbiased for the truncated sum
    eps, t0 = 0.3, 0.1
    exact = 0.0
    for j in (1, 2, 3):
        ds = math.sin(j * math.pi * (t0 + eps)) - math.sin(j * math.pi * t0)
        exact += mode_second_moment_reference(FIG2, j) * ds**2 / eps**2
    est = estimate_v2(FIG2, eps, t0, 3, 200_000, seed=5)
    assert abs(est.mean - exact) < 3.0 * est.stderr


def _mode_sum(params, eps, t0, n_modes):
    """sum_{j <= N} ds_j^2 <a_j^2> / eps^2, the exact mean of estimate_v2."""
    total = 0.0
    for j in range(1, n_modes + 1):
        ds = math.sin(j * math.pi * (t0 + eps) / params.T) - math.sin(j * math.pi * t0 / params.T)
        total += mode_second_moment_reference(params, j) * ds**2 / eps**2
    return total


# Gaussian-envelope modes up to j = 12, 1 and 54 respectively, near-uniform ones beyond
@pytest.mark.parametrize(
    "params, eps, t0, n_modes, seed",
    [
        (FIG2, 0.05, 0.0, 200, 51),
        (ModelParams(alpha=3.0, A=1.0), 0.2, 0.3, 40, 52),
        (ModelParams(m=2.0, T=2.0, alpha=2.5, epsilon_D=0.05), 0.01, 0.5, 300, 53),
    ],
)
@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_estimate_v2_matches_exact_n_mode_sum(params, eps, t0, n_modes, seed):
    est = estimate_v2(params, eps, t0, n_modes, 20_000, seed=seed)
    assert abs(est.mean - _mode_sum(params, eps, t0, n_modes)) < 5.0 * est.stderr


@pytest.mark.parametrize(
    "params, T, n_modes, seed",
    [
        (ModelParams(alpha=2.1, epsilon_D=0.1, omega=1.0), 1.0, 200, 61),
        (ModelParams(alpha=3.0, A=2.0, omega=2.0), 0.5, 50, 62),
        (ModelParams(m=2.0, alpha=2.5, epsilon_D=0.3, omega=0.5), 2.0, 100, 63),
    ],
)
def test_estimate_pi_factor_matches_exact_n_mode_product(params, T, n_modes, seed):
    est = estimate_pi_factor(params, T, n_modes, 20_000, seed=seed)
    ref = math.exp(log_pi(T, params, n_terms=n_modes).log_pi)
    assert abs(est.mean - ref) < 5.0 * est.stderr


def test_estimate_v2_matches_analytic_series():
    est = estimate_v2(FIG2, 0.05, 0.0, 1000, 30_000, seed=11)
    ref = v2_diff(0.05, FIG2, 1e-9)
    assert abs(est.mean - ref) < 3.0 * est.stderr
    assert est.truncation_bias_bound < est.stderr


@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_estimate_v2_feynman_limit():
    # with A huge every mode is free, so the omitted-mode bound is the
    # slowly-decaying free tail and the truncation warning is expected
    params = ModelParams(alpha=2.1, A=1e12)
    est = estimate_v2(params, 0.05, 0.0, 1000, 30_000, seed=21)
    ref = v2_feynman(0.05, params)
    # truncated to 1000 modes the estimator sits slightly below the full
    # series; allow the reported bias bound on top of the statistics
    assert abs(est.mean - ref) < 3.0 * est.stderr + est.truncation_bias_bound


def test_cross_mode_products_vanish():
    streams_params = [(1, 2), (2, 5)]
    for j, k in streams_params:
        rng_j, rng_k = _rng(7), _rng(8)
        bj = FIG2.m * FIG2.T * (j * math.pi / FIG2.T) ** 2 / (4 * FIG2.hbar)
        bk = FIG2.m * FIG2.T * (k * math.pi / FIG2.T) ** 2 / (4 * FIG2.hbar)
        aj = sample_truncated_gaussian(bj, FIG2.amplitude / j**FIG2.alpha, rng_j, 100_000)
        ak = sample_truncated_gaussian(bk, FIG2.amplitude / k**FIG2.alpha, rng_k, 100_000)
        prod = aj * ak
        stderr = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean()) < 3.0 * stderr


def test_stderr_scaling():
    small = estimate_v2(FIG2, 0.05, 0.0, 100, 20_000, seed=31)
    large = estimate_v2(FIG2, 0.05, 0.0, 100, 40_000, seed=31)
    ratio = large.stderr / small.stderr
    assert 0.6 <= ratio <= 0.85  # ~1/sqrt(2)


def test_bias_warning_when_modes_insufficient():
    with pytest.warns(UserWarning):
        estimate_v2(FIG2, 0.001, 0.0, 5, 1000, seed=1)


def test_estimate_pi_factor_against_log_pi():
    params = ModelParams(alpha=2.1, epsilon_D=0.1, omega=1.0)
    est = estimate_pi_factor(params, 1.0, 500, 30_000, seed=13)
    ref = math.exp(log_pi(1.0, params, n_terms=500).log_pi)
    assert abs(est.mean - ref) < 3.0 * est.stderr
    with pytest.raises(ValueError):
        estimate_pi_factor(ModelParams(alpha=2.1, A=10.0), 1.0, 10, 100, 0)


def _parent_bias_bound(params, eps, n_modes):
    """The omitted-mode bound as a 1e6-term sum plus an integral tail."""
    pref = (2.0 * params.hbar / (params.m * params.T)) * (params.T / (math.pi * eps)) ** 2
    j = np.arange(n_modes + 1, n_modes + 1_000_001, dtype=float)
    free_terms = pref * 4.0 / j**2
    cap_terms = (params.amplitude / j**params.alpha / eps) ** 2 * 4.0
    j_end = float(j[-1])
    free_tail = pref * 4.0 / j_end
    cap_tail = (
        4.0 * params.amplitude**2 / (eps**2 * (2.0 * params.alpha - 1.0))
        * j_end ** (1.0 - 2.0 * params.alpha)
    )
    return float(np.minimum(free_terms, cap_terms).sum()) + min(free_tail, cap_tail)


def _mp_bias_bound(params, eps, n_modes):
    """sum_{j>N} min(4 pref / j^2, 4 A^2 / eps^2 j^{2 alpha}) split at the crossover."""
    with mp.workdps(40):
        amp, alpha, e = mp.mpf(params.amplitude), mp.mpf(params.alpha), mp.mpf(eps)
        pref = 2 * params.hbar / (params.m * params.T) * (params.T / (mp.pi * e)) ** 2
        cap = 4 * amp**2 / e**2
        j_x = (amp**2 / (e**2 * pref)) ** (1 / (2 * alpha - 2))
        k = max(n_modes, int(mp.floor(j_x)))
        total = 4 * pref * (mp.zeta(2, n_modes + 1) - mp.zeta(2, k + 1))
        return float(total + cap * mp.zeta(2 * alpha, k + 1))


@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_truncation_bias_bound_closed_form():
    # exact to rounding against mpmath, and never looser than the 1e6-term
    # sum beyond the few ulps by which that float sum itself can round low
    ulps = 16.0 * np.finfo(float).eps
    for n_modes in (5, 100, 1000):
        for alpha in (2.05, 3.0, 4.0):
            for amp in (1.0, 10.0, 1e12):
                params = ModelParams(A=amp, alpha=alpha)
                for eps in (1e-3, 0.05):
                    bias = estimate_v2(params, eps, 0.0, n_modes, 2, seed=0).truncation_bias_bound
                    assert bias >= _mp_bias_bound(params, eps, n_modes) * (1.0 - 1e-13)
                    assert bias <= _parent_bias_bound(params, eps, n_modes) * (1.0 + ulps)


def _mp_min_sum(params, eps, n_modes):
    """sum_{j>N} min(4 pref / j^2, 8 Abar^2 pref / j^{2 alpha}) at 30 digits, split where the terms cross."""
    with mp.workdps(30):
        a2, alpha = mp.mpf(params.a_bar) ** 2, mp.mpf(params.alpha)
        pref = 2 * mp.mpf(params.hbar) / (params.m * params.T) * (params.T / (mp.pi * eps)) ** 2
        # 1 / j^2 <= 2 Abar^2 / j^{2 alpha} exactly for j <= (2 Abar^2)^{1 / (2 alpha - 2)}
        k = max(n_modes, int(mp.floor((2 * a2) ** (1 / (2 * alpha - 2)))))
        return float(4 * pref * (mp.zeta(2, n_modes + 1) - mp.zeta(2, k + 1) + 2 * a2 * mp.zeta(2 * alpha, k + 1)))


@pytest.mark.parametrize("alpha", [1.5, 2.1, 3.5])
@pytest.mark.parametrize("amp", [10.0, 1e6])
@pytest.mark.parametrize("n_modes", [5, 1000])
def test_omitted_mode_bound_is_the_sum_of_the_smaller_terms(alpha, amp, n_modes):
    # each omitted mode's free or capped moment, whichever is smaller, in closed form
    params = ModelParams(A=amp, alpha=alpha)
    for eps in (1e-3, 0.05):
        ref = _mp_min_sum(params, eps, n_modes)
        assert _omitted_mode_bound(params, eps, n_modes) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_omitted_mode_bound_past_the_float_range():
    # Abar^2 = inf at A = 1e160: the free sum alone; at A = 1e155, T = 1e10 the
    # crossover is near e^314 and the bound stays finite (A^2 itself overflows)
    params = ModelParams(A=1e160)
    free = 4.0 * _v2_prefactor(0.05, params) * hurwitz_zeta(2.0, 11.0)
    assert _omitted_mode_bound(params, 0.05, 10) == free
    params = ModelParams(A=1e155, T=1e10)
    bound = _omitted_mode_bound(params, 1.0, 5)
    assert math.isfinite(bound) and 0.0 < bound <= 4.0 * _v2_prefactor(1.0, params) * hurwitz_zeta(2.0, 6.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        estimate_v2(FIG2, 0.0, 0.0, 10, 100, 0)
    with pytest.raises(ValueError, match="N_modes"):
        estimate_v2(FIG2, 0.05, 0.0, 0, 100, 0)
    with pytest.raises(ValueError, match="n_samples"):
        estimate_v2(FIG2, 0.05, 0.0, 10, 1, 0)


def test_estimate_pi_factor_at_t_other_than_params_t():
    # the modes follow the T argument, not params.T
    params = ModelParams(alpha=2.1, epsilon_D=0.1, omega=1.5)
    est = estimate_pi_factor(params, 2.5, 200, 20_000, seed=17)
    ref = math.exp(log_pi(2.5, params, n_terms=200).log_pi)
    assert abs(est.mean - ref) < 3.0 * est.stderr


def test_estimate_pi_factor_validates_arguments():
    params = ModelParams(alpha=2.1, A=10.0, omega=1.0)
    with pytest.raises(ValueError, match="N_modes"):
        estimate_pi_factor(params, 1.0, 0, 100, 0)
    with pytest.raises(ValueError, match="n_samples"):
        estimate_pi_factor(params, 1.0, 10, 1, 0)
    with pytest.raises(ValueError, match="T must be positive"):
        estimate_pi_factor(params, -1.0, 10, 100, 0)
