"""Monte-Carlo oracle for the restricted per-mode measure.

The action is diagonal in Fourier modes, so the restricted measure
factorizes into independent truncated Gaussians — direct sampling, no
Metropolis chain, zero autocorrelation.  Each ``estimate_v2`` or
``estimate_pi_factor`` call draws all its modes, j = 1..N in order, from
one stream, Generator(PCG64(SeedSequence(seed))), so results are
reproducible bit-for-bit for a fixed seed; how the stream is consumed
(the sampler's rectangle/wedge split for B_j sqrt(b_j) <= 1, its Gaussian
envelope above, and the round sizes) is part of the version.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .paths import ModelParams
from .special import hurwitz_zeta, truncated_gaussian_ratio
from .velocity import _check_eps, _v2_prefactor

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


def _rejection_fill(out: np.ndarray, acceptance: float, draw) -> np.ndarray:
    """Fill ``out`` with the candidates that ``draw(batch)`` accepts.

    The acceptance is known, so each round of at most ``_BLOCK`` samples
    draws need / acceptance candidates plus three binomial standard
    deviations and almost never falls short; a short round is followed by
    another.
    """
    filled = 0
    while filled < out.size:
        need = min(out.size - filled, _BLOCK)
        batch = int((need + 3.0 * math.sqrt(need * (1.0 - acceptance))) / acceptance) + 16
        keep = draw(batch)
        take = min(keep.size, need)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def sample_truncated_gaussian(b: float, big_b: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact samples from the density ∝ e^{-b a^2} on |a| <= B.

    Two methods, switched at x = B sqrt(b) = 1:

    * x <= 1: e^{-b a^2} is the rectangle c = e^{-x^2} on [-B, B] plus the
      wedge e^{-b a^2} - c (the one-layer ziggurat).  The rectangle holds
      the mass p = 2 x c / (sqrt(pi) Erf x), 0.993 at x = 0.1 and 0.493 at
      x = 1.  One uniform u per sample picks the part and, when u < p,
      also the sample a = B (2 u / p - 1), since u / p is uniform given
      u < p.  Wedge samples come by rejection from the uniform envelope,
      accepting a with probability (e^{-b a^2} - c) / (1 - c), taken with
      expm1 so it stays accurate at tiny x; that acceptance falls from
      2/3 as x -> 0 to 0.59948 at x = 1.  An x^2 that underflows to 0.0
      (B = 0, the point mass at 0, too) takes the x -> 0 limit, p = 1:
      every sample comes from the rectangle.
    * x > 1: rejection from the untruncated Gaussian, accepting |a| <= B;
      acceptance Erf(x) >= Erf(1) = 0.843.

    A sample costs 1.00 random numbers on average at x <= 1e-3, 1.02 at
    x = 0.1, 1.48 at 0.5 and 2.69 at 1 (two per wedge candidate), and at
    most 1 / 0.843 = 1.19 Gaussian ones above.  Both rejection samplers
    draw in rounds sized from their known acceptance (``_rejection_fill``).
    """
    if b <= 0 or big_b < 0:
        raise ValueError("b must be positive and B non-negative")
    out = np.empty(int(size))
    x = big_b * math.sqrt(b)
    if x > 1.0:
        sigma = 1.0 / math.sqrt(2.0 * b)

        def gaussian(batch):
            cand = rng.normal(0.0, sigma, size=batch)
            return cand[np.abs(cand) <= big_b]

        _rejection_fill(out, math.erf(x), gaussian)
    else:
        x2 = x * x
        c = math.exp(-x2)
        one_minus_c = -math.expm1(-x2)
        p, acceptance = 1.0, 2.0 / 3.0
        if one_minus_c > 0.0:
            z = math.sqrt(math.pi) * math.erf(x) / (2.0 * x)  # mean of e^{-b a^2} on [-B, B]
            p = c / z
            # it only sizes the rounds; z - c cancels at tiny x, so keep it in its range
            acceptance = min(max((z - c) / one_minus_c, 0.599), 2.0 / 3.0)

        def wedge(batch):
            cand = rng.random(batch)
            cand *= 2.0 * big_b
            cand -= big_b
            excess = cand * cand  # e^{-b a^2} - c = c expm1(x^2 - b a^2)
            excess *= -b
            excess += x2
            np.expm1(excess, out=excess)
            excess *= c
            return cand[rng.random(batch) * one_minus_c < excess]

        u = rng.random(out.size, out=out)  # in place: each u becomes its sample
        in_wedge = u >= p
        out *= 2.0 * big_b / p
        out -= big_b
        n_wedge = int(np.count_nonzero(in_wedge))
        if n_wedge:
            out[in_wedge] = _rejection_fill(np.empty(n_wedge), acceptance, wedge)
    return out


def _mode_params(params: ModelParams, j: int) -> tuple[float, float]:
    """(b_j, B_j): Gaussian weight m T lambda_j / 4 hbar and bound A / j^alpha."""
    lam = (j * math.pi / params.T) ** 2
    b_j = params.m * params.T * lam / (4.0 * params.hbar)
    try:
        big_b = params.amplitude / j**params.alpha
    except OverflowError:  # j^alpha past the float range: B_j is 0.0, and a_j = 0
        big_b = 0.0
    return b_j, big_b


def _mode_samples(params: ModelParams, N_modes: int, n_samples: int,
                  seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """(j, n_samples draws of a_j) for j = 1..N_modes in order, all from the one
    stream of ``seed``; the sizes are checked here, before any is drawn."""
    if N_modes < 1:
        raise ValueError(f"N_modes must be >= 1, got {N_modes!r}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 for a stderr, got {n_samples!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return ((j, sample_truncated_gaussian(*_mode_params(params, j), rng, size=n_samples))
            for j in range(1, N_modes + 1))


def _omitted_mode_bound(params: ModelParams, eps: float, N_modes: int) -> float:
    """Bound on the <v^2> that modes j > N_modes would add, in closed form.

    Omitted mode j adds at most 4 pref min(1 / j^2, 2 Abar^2 / j^{2 alpha}),
    pref = (2 hbar / m T)(T / pi eps)^2: the free second moment, or the cap
    B_j^2 / eps^2, 2 W_j times it, times the bound 4 on the squared sine
    difference.  For alpha > 1 the free term is the smaller one up to the
    crossover j_x = (2 Abar^2)^{1 / (2 alpha - 2)}, so with
    K = max(N_modes, floor(j_x)) the sum is exactly

        4 pref [zeta(2, N+1) - zeta(2, K+1) + 2 Abar^2 zeta(2 alpha, K+1)]

    in Hurwitz zetas.  For alpha <= 1 or ln j_x > 700 (Abar^2 = inf too)
    the free sum 4 pref zeta(2, N+1) bounds it.
    """
    bound = hurwitz_zeta(2.0, N_modes + 1.0)
    if params.alpha > 1.0:
        two_a2 = 2.0 * params.a_bar * params.a_bar
        log_jx = math.log(two_a2) / (2.0 * params.alpha - 2.0)
        if log_jx <= 700.0:
            q = max(N_modes, math.floor(math.exp(log_jx))) + 1.0  # K + 1
            bound = bound - hurwitz_zeta(2.0, q) + two_a2 * hurwitz_zeta(2.0 * params.alpha, q)
    return 4.0 * _v2_prefactor(eps, params) * bound


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
    _check_eps(eps, params)
    modes = _mode_samples(params, N_modes, n_samples, seed)
    v = np.zeros(n_samples)
    for j, a in modes:
        ds = math.sin(j * math.pi * (t0 + eps) / params.T) - math.sin(j * math.pi * t0 / params.T)
        v += a * ds
    v /= eps
    # moments of v 2^-e (max |v| 2^-e in [1/2, 1)) scaled back by 2^(2e): bit
    # for bit those of v where v^2 and its spread are normal floats, and kept
    # where they would underflow (tiny amplitudes); e <= 0, so max |v| >= 1
    # is not scaled
    e = min(math.frexp(max(v.max(), -v.min()))[1], 0)
    if e:
        v = np.ldexp(v, -e)
    v2 = v * v
    mean = math.ldexp(float(v2.mean()), 2 * e)
    stderr = math.ldexp(float(v2.std(ddof=1) / math.sqrt(n_samples)), 2 * e)
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
    modes = _mode_samples(params, N_modes, n_samples, seed)
    if params.omega <= 0:
        raise ValueError("estimate_pi_factor requires omega > 0")
    log_w = np.zeros(n_samples)
    coef = params.m * T * params.omega**2 / (4.0 * params.hbar)
    for _, a in modes:
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
