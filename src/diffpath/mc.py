"""Monte-Carlo oracle for the restricted per-mode measure.

The action is diagonal in Fourier modes, so the restricted measure
factorizes into independent truncated Gaussians — direct sampling, no
Metropolis chain, zero autocorrelation.  Each mode gets its own RNG
stream spawned from a root SeedSequence, so results are reproducible
bit-for-bit for a fixed seed; how a stream is consumed (the sampler's
envelopes and round sizes) is part of the version.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .paths import ModelParams
from .special import hurwitz_zeta, truncated_gaussian_ratio

__all__ = [
    "McEstimate",
    "sample_truncated_gaussian",
    "estimate_v2",
    "estimate_pi_factor",
    "ModeTruncationWarning",
]


class ModeTruncationWarning(UserWarning):
    """The omitted-mode bias bound is not negligible against the stderr."""


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    quantity: str = ""
    truncation_bias_bound: float = 0.0


# Samples per rejection round: a round's few arrays then stay in cache.
_BLOCK = 1 << 13


def sample_truncated_gaussian(
    b: float, big_b: float, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray | float:
    """Exact samples from the density ∝ e^{-b a^2} on |a| <= B.

    Rejection sampling from one of two envelopes, switched at x = B sqrt(b) = 1:

    * x <= 1: the uniform envelope on [-B, B], accepting a candidate a with
      probability e^{-b a^2}; acceptance sqrt(pi) Erf(x) / 2x >= 0.747.
    * x > 1: the untruncated Gaussian, accepting |a| <= B; acceptance
      Erf(x) >= Erf(1) = 0.843.

    Why x = 1: the Gaussian envelope's acceptance falls like x as x -> 0
    and the uniform one's like 1/x as x grows, and at x = 1 both are still
    above 3/4.  A uniform candidate costs two random numbers and a
    Gaussian one, so no mode needs more than 2 / 0.747 = 2.68 draws per
    sample on average; moving the switch anywhere in x = 0.5 to 2 changes
    the cost little.

    The acceptance is known exactly, so each round of at most ``_BLOCK``
    samples draws need / acceptance candidates plus three binomial
    standard deviations and almost never falls short; a short round is
    followed by another.
    """
    if b <= 0 or big_b <= 0:
        raise ValueError("b and B must be positive")
    scalar = size is None
    n = 1 if scalar else int(size)
    x = big_b * math.sqrt(b)
    uniform = x <= 1.0
    acceptance = math.sqrt(math.pi) * math.erf(x) / (2.0 * x) if uniform else math.erf(x)
    sigma = 1.0 / math.sqrt(2.0 * b)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = min(n - filled, _BLOCK)
        batch = int((need + 3.0 * math.sqrt(need * (1.0 - acceptance))) / acceptance) + 16
        if uniform:
            cand = rng.random(batch)
            cand *= 2.0 * big_b
            cand -= big_b
            weight = cand * cand
            weight *= -b
            np.exp(weight, out=weight)
            keep = cand[rng.random(batch) < weight]
        else:
            cand = rng.normal(0.0, sigma, size=batch)
            keep = cand[np.abs(cand) <= big_b]
        take = min(keep.size, need)
        out[filled : filled + take] = keep[:take]
        filled += take
    return float(out[0]) if scalar else out


def _mode_streams(seed: int, n_modes: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(n_modes)]


def _mode_params(params: ModelParams, j: int) -> tuple[float, float]:
    """(b_j, B_j): Gaussian weight m T lambda_j / 4 hbar and bound A / j^alpha."""
    lam = (j * math.pi / params.T) ** 2
    b_j = params.m * params.T * lam / (4.0 * params.hbar)
    big_b = params.amplitude / j**params.alpha
    return b_j, big_b


def _check_sizes(N_modes: int, n_samples: int) -> None:
    if N_modes < 1:
        raise ValueError(f"N_modes must be >= 1, got {N_modes!r}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 for a stderr, got {n_samples!r}")


def _omitted_mode_bound(params: ModelParams, eps: float, N_modes: int) -> float:
    """Bound on the <v^2> that modes j > N_modes would add, in closed form.

    Omitted mode j adds at most min(4 pref / j^2, 4 A^2 / eps^2 j^{2 alpha}),
    pref = (2 hbar / m T)(T / pi eps)^2: the free second moment and the
    cap B_j^2, times the bound 4 on the squared sine difference.  For
    alpha > 1 the free term is the smaller one up to the crossover
    j_x = (A^2 / eps^2 pref)^{1 / (2 alpha - 2)} and the cap term beyond,
    so with K = max(N_modes, floor(j_x)) the sum is exactly

        4 pref [zeta(2, N+1) - zeta(2, K+1)] + (4 A^2 / eps^2) zeta(2 alpha, K+1)

    in Hurwitz zetas.  For alpha <= 1 the free sum alone bounds it.
    """
    pref = (2.0 * params.hbar / (params.m * params.T)) * (params.T / (math.pi * eps)) ** 2
    free = 4.0 * pref * hurwitz_zeta(2.0, N_modes + 1.0)
    if params.alpha <= 1.0:
        return free
    cap = 4.0 * params.amplitude**2 / eps**2
    # exp(700) is past any term count, and keeps huge crossovers finite
    log_jx = (2.0 * math.log(params.amplitude / eps) - math.log(pref)) / (2.0 * params.alpha - 2.0)
    q = max(N_modes, math.floor(math.exp(min(log_jx, 700.0)))) + 1.0  # K + 1
    return free - 4.0 * pref * hurwitz_zeta(2.0, q) + cap * hurwitz_zeta(2.0 * params.alpha, q)


def estimate_v2(
    params: ModelParams,
    eps: float,
    t0: float = 0.0,
    N_modes: int = 1000,
    n_samples: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Sample <v^2> at resolution eps under the restricted measure.

    v = sum_j a_j [sin(j pi (t0+eps)/T) - sin(j pi t0/T)] / eps per sample;
    the omitted modes j > N_modes contribute a bias bounded termwise by
    the smaller of the free and the capped second moment, summed in
    closed form (reported in ``truncation_bias_bound``, warned about if it
    rivals the stderr — never silent).
    """
    if not 0.0 < eps < params.T:
        raise ValueError("eps must lie in (0, T)")
    _check_sizes(N_modes, n_samples)
    streams = _mode_streams(seed, N_modes)
    v = np.zeros(n_samples)
    for j in range(1, N_modes + 1):
        b_j, big_b = _mode_params(params, j)
        ds = math.sin(j * math.pi * (t0 + eps) / params.T) - math.sin(j * math.pi * t0 / params.T)
        a = sample_truncated_gaussian(b_j, big_b, streams[j - 1], size=n_samples)
        v += a * ds
    v /= eps
    v2 = v * v
    mean = float(v2.mean())
    stderr = float(v2.std(ddof=1) / math.sqrt(n_samples))
    bias = _omitted_mode_bound(params, eps, N_modes)
    if bias > stderr:
        warnings.warn(
            f"omitted-mode bias bound {bias:.3g} exceeds stderr {stderr:.3g}; "
            "increase N_modes",
            ModeTruncationWarning,
        )
    return McEstimate(
        mean=mean,
        stderr=stderr,
        n_samples=n_samples,
        seed=seed,
        quantity="v2",
        truncation_bias_bound=bias,
    )


def estimate_pi_factor(
    params: ModelParams,
    T: Optional[float] = None,
    N_modes: int = 1000,
    n_samples: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Importance-sampling estimate of the oscillator factor Pi(T).

    Under the free restricted measure, E[e^{-(m T / 4 hbar) omega^2 sum a_j^2}]
    equals the truncated product of Erf ratios times the Gaussian
    normalization prod_j sqrt(lambda_j / (lambda_j + omega^2)); the latter
    is known in closed form and divided out, so the returned mean
    estimates the first N_modes factors of Pi(T) directly.  The modes are
    those of the model over [0, T], as in ``oscillator.log_pi``: with
    epsilon_D primary the amplitude is A(T).
    """
    if T is not None:
        params = replace(params, T=T)  # validates T
    T = params.T
    _check_sizes(N_modes, n_samples)
    if params.omega <= 0:
        raise ValueError("estimate_pi_factor requires omega > 0")
    streams = _mode_streams(seed, N_modes)
    log_w = np.zeros(n_samples)
    coef = params.m * T * params.omega**2 / (4.0 * params.hbar)
    for j in range(1, N_modes + 1):
        b_j, big_b = _mode_params(params, j)
        a = sample_truncated_gaussian(b_j, big_b, streams[j - 1], size=n_samples)
        log_w -= coef * a * a
    w = np.exp(log_w)
    n = np.arange(1, N_modes + 1, dtype=float)
    lam = (n * math.pi / T) ** 2
    gauss_norm = math.exp(0.5 * float(np.log1p(params.omega**2 / lam).sum()))
    mean = gauss_norm * float(w.mean())
    stderr = gauss_norm * float(w.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed, quantity="pi")


def mode_second_moment_reference(params: ModelParams, j: int) -> float:
    """Analytic second moment of mode j, for oracle cross-checks."""
    b_j, big_b = _mode_params(params, j)
    return truncated_gaussian_ratio(b_j, big_b)
