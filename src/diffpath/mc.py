"""Monte-Carlo oracle for the restricted per-mode measure.

The action is diagonal in Fourier modes, so the restricted measure
factorizes into independent truncated Gaussians — direct sampling, no
Metropolis chain, zero autocorrelation.  Each ``estimate_v2`` or
``estimate_pi_factor`` call takes its modes j = 1..N in order, per block:
consecutive modes with x_j = B_j sqrt(b_j) <= 1, up to ``_BLOCK`` samples
in all, take their part-picking uniforms from one draw and their wedge
samples from one rejection loop (``_near_uniform_block``); a mode with
x_j > 1 takes its Gaussian envelope alone.  SeedSequence(seed) spawns two
PCG64 streams: the parts stream holds the blocks' part-picking uniforms,
which a fill thread draws ahead of the caller, and the draws stream the
wedge candidates and the Gaussian-envelope modes, in j order, drawn by
the calling thread alone.  So results are reproducible bit for bit for a
fixed seed, whatever the timing of the two threads.  The block size, the
sampler's split at x = 1, its round sizes and the two streams are part of
the version.  ``estimate_v2`` adds a block to its velocities with one
matrix-vector product and ``estimate_pi_factor`` its squares with one
``einsum``.
"""

from __future__ import annotations

import math
import threading
import warnings
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .paths import ModelParams
from .special import _log_erf_over_sqrt, hurwitz_zeta, truncated_gaussian_ratio
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


# Samples per rejection round of one mode: a round's few arrays then stay in
# cache.
_ROUND = 1 << 13
# Samples per block of near-uniform modes: one block's uniforms take 1 MB.
_BLOCK = 1 << 17
# Buffers in the fill thread's ring, each the size of one block: while the caller
# works on one block, the fill thread draws the next _RING - 1.  One buffer
# serializes the two threads; on the sampling deck three took 1-2% less wall
# time than two, for 1 MB more memory.
_RING = 2


def _round_size(need, acceptance):
    """Candidates for ``need`` accepted ones at a known acceptance: need / acceptance
    plus three binomial standard deviations and 16, so that a round almost never
    falls short (a short one is followed by another)."""
    return (need + 3.0 * np.sqrt(need * (1.0 - acceptance))) / acceptance + 16.0


def _rejection_fill(out: np.ndarray, acceptance: float, draw) -> np.ndarray:
    """Fill ``out`` with the candidates that ``draw(batch)`` accepts, in rounds
    of at most ``_ROUND`` samples sized by ``_round_size``."""
    filled = 0
    while filled < out.size:
        need = min(out.size - filled, _ROUND)
        batch = int(_round_size(need, acceptance))
        keep = draw(batch)
        take = min(keep.size, need)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def _rectangle_mass(x2: np.ndarray) -> np.ndarray:
    """p = Z(x^2) = e^{-x^2} / z, z = sqrt(pi) Erf(x) / (2 x) the mean of
    e^{-b a^2} on [-B, B], for 0 <= x <= 1; p = 1 at x^2 = 0."""
    return np.exp(-(x2 + _log_erf_over_sqrt(x2)))


def _near_uniform_block(x2: np.ndarray, p: np.ndarray, rng: np.random.Generator,
                        u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample k modes with x_j^2 = b_j B_j^2 <= 1, one row of the (k, n) array ``u`` each.

    e^{-b a^2} on [-B, B] is the rectangle c = e^{-x^2} plus the wedge
    e^{-b a^2} - c (the one-layer ziggurat).  The rectangle holds the mass
    p (``_rectangle_mass``): 0.993 at x = 0.1 and 0.493 at x = 1.  ``u``
    holds on entry a uniform per sample, drawn by the caller, that picks
    the part and, where u < p, is the sample a = B (2 u / p - 1), since
    u / p is uniform given u < p.  The other entries, the wedge slots, are
    filled by one rejection loop over the whole block (``_wedge_fill``),
    whose candidates come from ``rng``.  An x^2 that underflows to 0.0
    (B = 0, the point mass at 0, too) gives p = 1: every sample is in the
    rectangle.

    On return each entry t of row j gives the sample a = B_j (2 t / p_j - 1):
    t is the part-picking uniform in the rectangle and p_j s in the wedge,
    where a = B_j (2 s - 1).  Returns the flat indices of the wedge slots in
    ``u`` and their s.
    """
    wedge = np.flatnonzero(u >= p[:, None])
    rows = wedge // u.shape[1]
    s = _wedge_fill(x2, np.bincount(rows, minlength=x2.size), rng)
    u.reshape(-1)[wedge] = p[rows] * s
    return wedge, s


# The smallest wedge acceptance, 0.59948 at x = 1: it sizes the rounds.
_WEDGE_ACCEPTANCE = 0.599


def _wedge_fill(x2: np.ndarray, need: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The s of need[j] wedge samples a = B_j (2 s - 1) of each row j, row after row.

    The wedge e^{-b a^2} - c comes by rejection from the uniform envelope:
    a candidate takes two uniforms (s, r) and is accepted where
    r (1 - c) < e^{-b a^2} - c, that is r expm1(x^2) < expm1(4 x^2 s (1 - s)),
    as a = B (2 s - 1) gives x^2 - b a^2 = 4 x^2 s (1 - s); expm1 keeps it
    accurate at tiny x.  The acceptance falls from 2/3 as x -> 0 to 0.59948
    at x = 1.  Each round draws, for every row still short, the
    ``_round_size`` of its need, capped at ``_ROUND`` as in
    ``_rejection_fill``, at acceptance 0.599, and keeps each row's first
    accepted ones; a row still short takes another round.
    """
    out = np.empty(int(need.sum()))
    start = np.cumsum(need) - need  # where each row's next sample goes in out
    need = need.copy()
    four_x2, ratio = 4.0 * x2, np.expm1(x2)
    while need.any():
        count = np.where(need > 0, _round_size(np.minimum(need, _ROUND), _WEDGE_ACCEPTANCE), 0.0)
        count = count.astype(np.intp)
        cand, level = rng.random((2, int(count.sum())))
        excess = 1.0 - cand  # (e^{-b a^2} - c) / c
        excess *= cand
        excess *= np.repeat(four_x2, count)
        np.expm1(excess, out=excess)
        level *= np.repeat(ratio, count)
        took = np.flatnonzero(level < excess)  # row after row
        ends = np.searchsorted(took, np.cumsum(count))
        accepted = np.diff(ends, prepend=0)
        got = np.minimum(accepted, need)
        # each row's first got accepted candidates, into its next got places in out
        offset = np.arange(int(got.sum())) - np.repeat(np.cumsum(got) - got, got)
        out[np.repeat(start, got) + offset] = cand[took[np.repeat(ends - accepted, got) + offset]]
        start += got
        need -= got
    return out


def sample_truncated_gaussian(b: float, big_b: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact samples from the density ∝ e^{-b a^2} on |a| <= B.

    Two methods, switched at x = B sqrt(b) = 1:

    * x <= 1: the rectangle plus wedge of ``_near_uniform_block``, on one
      row, its part-picking uniforms drawn first from ``rng``.  The
      rectangle samples are B (2 u / p - 1); the wedge samples B (2 s - 1)
      are written after that map, so every sample lies in [-B, B] exactly.
    * x > 1: rejection from the untruncated Gaussian, accepting |a| <= B;
      acceptance Erf(x) >= Erf(1) = 0.843, in rounds sized from it
      (``_rejection_fill``).

    A sample costs 1.00 random numbers on average at x <= 1e-3, 1.02 at
    x = 0.1, 1.48 at 0.5 and 2.7 at 1 (two per wedge candidate), and at
    most 1 / 0.843 = 1.19 Gaussian ones above, each with its rounds' margins.
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
        x2 = np.array([x * x])
        p = _rectangle_mass(x2)
        rng.random(out.shape, out=out)
        wedge, s = _near_uniform_block(x2, p, rng, out.reshape(1, -1))
        out *= 2.0 * big_b / p[0]
        out -= big_b
        out[wedge] = s * (2.0 * big_b) - big_b
    return out


def _mode_params(params: ModelParams, j):
    """(b_j, B_j): Gaussian weight m T lambda_j / 4 hbar and bound A / j^alpha,
    for an int j or a float array of them."""
    lam = (j * math.pi / params.T) ** 2
    b_j = params.m * params.T * lam / (4.0 * params.hbar)
    try:
        with np.errstate(over="ignore"):
            big_b = params.amplitude / j**params.alpha
    except OverflowError:  # j^alpha past the float range: B_j is 0.0, and a_j = 0
        big_b = 0.0
    return b_j, big_b


def _mode_blocks(params: ModelParams, N_modes: int, n_samples: int,
                 seed: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """The modes j = 1..N_modes in order, drawn from the two streams of ``seed``,
    as (modes, scale, shift, t): row i of t holds the samples of mode
    j = modes.start + i + 1, a_j = scale_i t_i - shift_i.  The sizes are
    checked here, before any mode is drawn.

    Consecutive modes with x_j = B_j sqrt(b_j) <= 1, up to ``_BLOCK`` samples
    in all, are one block (``_near_uniform_block``); their rectangle masses
    p_j are computed in one call, for these modes only.  A mode with
    x_j > 1 is drawn alone by ``sample_truncated_gaussian`` (scale 1,
    shift 0).  A b_N past the float range is refused.

    SeedSequence(seed) spawns two PCG64 streams.  The first holds the
    blocks' part-picking uniforms, block after block: a fill thread, started
    at the first block asked for, draws them into a ring of ``_RING``
    buffers allocated per call, ahead of the caller, while numpy releases
    the interpreter lock.  The second holds, in j order, the wedge
    candidates and the Gaussian-envelope modes, and only the calling thread
    draws from it.  So every value is fixed by the seed, whatever the
    timing.  A block's t is a view of the ring, valid until the next block
    is asked for.  The fill thread has ended when the generator is
    exhausted or closed, so callers close it, also when they raise.
    """
    if N_modes < 1:
        raise ValueError(f"N_modes must be >= 1, got {N_modes!r}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 for a stderr, got {n_samples!r}")
    try:  # b_j rises with j: a finite b_N bounds every mode's
        with np.errstate(over="ignore"):
            b_n = _mode_params(params, float(N_modes))[0]
    except OverflowError:
        b_n = math.inf
    if not b_n < math.inf:
        raise ValueError(f"b_N = m T (N pi / T)^2 / (4 hbar) overflows at m={params.m!r}, "
                         f"hbar={params.hbar!r}, T={float(params.T)!r}, N_modes={N_modes!r}")
    parts, draws = (np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(2))
    b, big_b = _mode_params(params, np.arange(1.0, N_modes + 1.0))
    with np.errstate(over="ignore"):
        x = big_b * np.sqrt(b)
    near_uniform = x <= 1.0
    x2 = np.zeros(N_modes)
    x2[near_uniform] = x[near_uniform] ** 2
    p = np.ones(N_modes)
    p[near_uniform] = _rectangle_mass(x2[near_uniform])
    rows = max(1, _BLOCK // n_samples)
    spans, j = [], 0  # (j, stop) of each block and of each Gaussian-envelope mode
    while j < N_modes:
        stop = j + 1
        if near_uniform[j]:
            gaussian = np.flatnonzero(~near_uniform[j : j + rows])
            stop = j + int(gaussian[0]) if gaussian.size else min(j + rows, N_modes)
        spans.append((j, stop))
        j = stop

    def blocks():
        uniform = [(j, stop) for j, stop in spans if near_uniform[j]]
        ring = np.empty((min(_RING, len(uniform)), min(rows, N_modes) * n_samples))
        views = [ring[i % len(ring), : (stop - j) * n_samples].reshape(stop - j, n_samples)
                 for i, (j, stop) in enumerate(uniform)]
        free, ready = threading.Semaphore(len(ring)), threading.Semaphore(0)
        stopped, failed = threading.Event(), []

        def fill():
            try:
                for t in views:
                    free.acquire()
                    if stopped.is_set():
                        return
                    parts.random(t.shape, out=t)
                    ready.release()
            except Exception as exc:  # raised by the calling thread at its next block
                failed.append(exc)
                ready.release()

        filler = threading.Thread(target=fill, name="diffpath-mc-fill", daemon=True)
        filler.start()
        try:
            one, zero = np.ones(1), np.zeros(1)
            filled = iter(views)
            for j, stop in spans:
                if not near_uniform[j]:
                    a = sample_truncated_gaussian(float(b[j]), float(big_b[j]), draws, n_samples)
                    yield slice(j, stop), one, zero, a[None, :]
                    continue
                ready.acquire()
                if failed:
                    raise failed[0]
                t = next(filled)
                _near_uniform_block(x2[j:stop], p[j:stop], draws, t)
                yield slice(j, stop), 2.0 * big_b[j:stop] / p[j:stop], big_b[j:stop], t
                free.release()
        finally:
            stopped.set()
            free.release()
            filler.join()

    return blocks()


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
    blocks = _mode_blocks(params, N_modes, n_samples, seed)
    j = np.arange(1.0, N_modes + 1.0)
    ds = np.sin(j * math.pi * (t0 + eps) / params.T) - np.sin(j * math.pi * t0 / params.T)
    # v = sum_j ds_j (scale_j t_j - shift_j): one matrix-vector product per block
    v, row = np.zeros(n_samples), np.empty(n_samples)
    offset = 0.0
    with closing(blocks):
        for modes, scale, shift, t in blocks:
            w = ds[modes] * scale
            # a one-row block (a mode above x = 1, or n_samples over 2^16) as a plain
            # product: OpenBLAS runs a one-row product on two threads at twice the CPU time
            v += np.dot(w, t, out=row) if w.size > 1 else np.multiply(t[0], w[0], out=row)
            offset += float(ds[modes] @ shift)
    v -= offset
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
    blocks = _mode_blocks(params, N_modes, n_samples, seed)
    if params.omega <= 0:
        raise ValueError("estimate_pi_factor requires omega > 0")
    squares, row = np.zeros(n_samples), np.empty(n_samples)
    with closing(blocks):
        for _, scale, shift, t in blocks:
            t *= scale[:, None]
            t -= shift[:, None]
            squares += np.einsum("ij,ij->j", t, t, out=row)
    coef = params.m * T * params.omega**2 / (4.0 * params.hbar)
    w = np.exp(squares * -coef)
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
