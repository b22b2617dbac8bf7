"""Monte-Carlo oracle for the restricted per-mode measure.

The action is diagonal in Fourier modes, so the restricted measure
factorizes into independent truncated Gaussians — direct sampling, no
Metropolis chain, zero autocorrelation.  Each mode gets its own RNG
stream spawned from a root SeedSequence so results are reproducible
bit-for-bit and independent of any internal vectorization.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np

from .paths import ModelParams, RNG_ALGORITHM, _write_metadata
from .special import erf, truncated_gaussian_ratio

__all__ = [
    "McEstimate",
    "sample_truncated_gaussian",
    "estimate_v2",
    "estimate_pi_factor",
    "estimates_to_csv",
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


def sample_truncated_gaussian(
    b: float, big_b: float, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray | float:
    """Exact samples from the density ∝ e^{-b a^2} on |a| <= B.

    Rejection from the untruncated Gaussian when its acceptance
    Erf(B sqrt(b)) >= 0.1, otherwise rejection from the uniform envelope
    on [-B, B] (acceptance ~1 for a flat truncated Gaussian).
    """
    if b <= 0 or big_b <= 0:
        raise ValueError("b and B must be positive")
    scalar = size is None
    n = 1 if scalar else int(size)
    sigma = 1.0 / math.sqrt(2.0 * b)
    gauss_acceptance = float(erf(big_b / (sigma * math.sqrt(2.0))))
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        # modest oversampling keeps the number of redraw rounds small
        batch = int(need * 1.5) + 16
        if gauss_acceptance >= 0.1:
            cand = rng.normal(0.0, sigma, size=batch)
            keep = cand[np.abs(cand) <= big_b]
        else:
            cand = rng.uniform(-big_b, big_b, size=batch)
            accept = rng.uniform(0.0, 1.0, size=batch) < np.exp(-b * cand**2)
            keep = cand[accept]
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
    the omitted modes j > N_modes contribute a bias bounded termwise by the
    analytic tail (reported in ``truncation_bias_bound``, warned about if
    it rivals the stderr — never silent).
    """
    if not 0.0 < eps < params.T:
        raise ValueError("eps must lie in (0, T)")
    if N_modes < 1 or n_samples < 2:
        raise ValueError("need N_modes >= 1 and n_samples >= 2")
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
    # Termwise bias bound: omitted mode j adds at most
    # (2 hbar / m T)(T / pi eps)^2 * 4 / j^2 summed over j > N_modes, and
    # the restricted second moment is also below B_j^2.
    pref = (2.0 * params.hbar / (params.m * params.T)) * (params.T / (math.pi * eps)) ** 2
    j = np.arange(N_modes + 1, N_modes + 1_000_001, dtype=float)
    free_terms = pref * 4.0 / j**2
    cap_terms = (params.amplitude / j**params.alpha / eps) ** 2 * 4.0
    j_end = float(j[-1])
    free_tail = pref * 4.0 / j_end
    cap_tail = (
        4.0 * params.amplitude**2 / (eps**2 * (2.0 * params.alpha - 1.0))
        * j_end ** (1.0 - 2.0 * params.alpha)
        if params.alpha > 0.5
        else math.inf
    )
    bias = float(np.minimum(free_terms, cap_terms).sum()) + min(free_tail, cap_tail)
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
    estimates the first N_modes factors of Pi(T) directly.
    """
    T = params.T if T is None else T
    if params.omega <= 0:
        raise ValueError("estimate_pi_factor requires omega > 0")
    streams = _mode_streams(seed, N_modes)
    log_w = np.zeros(n_samples)
    coef = params.m * T * params.omega**2 / (4.0 * params.hbar)
    for j in range(1, N_modes + 1):
        lam = (j * math.pi / T) ** 2
        b_j = params.m * T * lam / (4.0 * params.hbar)
        big_b = params.amplitude / j**params.alpha
        a = sample_truncated_gaussian(b_j, big_b, streams[j - 1], size=n_samples)
        log_w -= coef * a * a
    w = np.exp(log_w)
    n = np.arange(1, N_modes + 1, dtype=float)
    lam = (n * math.pi / T) ** 2
    gauss_norm = math.exp(0.5 * float(np.log1p(params.omega**2 / lam).sum()))
    mean = gauss_norm * float(w.mean())
    stderr = gauss_norm * float(w.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed, quantity="pi")


def estimates_to_csv(
    estimates: Iterable[McEstimate], fh: IO[str], metadata: Optional[dict] = None
) -> None:
    _write_metadata(fh, {"rng": RNG_ALGORITHM, **(metadata or {})})
    writer = csv.writer(fh)
    writer.writerow(["quantity", "mean", "stderr", "n_samples", "seed"])
    for e in estimates:
        writer.writerow([e.quantity, repr(e.mean), repr(e.stderr), e.n_samples, e.seed])


def mode_second_moment_reference(params: ModelParams, j: int) -> float:
    """Analytic second moment of mode j, for oracle cross-checks."""
    b_j, big_b = _mode_params(params, j)
    return truncated_gaussian_ratio(b_j, big_b)
