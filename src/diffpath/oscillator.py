"""Harmonic-oscillator modification factor Pi(T), energy shifts, unitarity.

The restricted fluctuation integral divides out the unrestricted one,
leaving the infinite product

    Pi(T) = prod_n Erf(sqrt(W_n (1 + x_n))) / Erf(sqrt(W_n)),

W_n = (abar / n^(alpha-1))^2 (ModelParams.mode_w at time T) and
x_n = (omega T / n pi)^2, so ln Pi is a function of omega T, abar(T) and
alpha alone.  Everything is computed in log space (a direct product of
1e5 factors each ~1 denormalizes).  With L(W) = ln(Erf(sqrt W) / sqrt W),
each log factor splits into the free Gaussian factor (1/2) ln(1 + x_n)
plus a bracket b_n = L(W_n (1 + x_n)) - L(W_n), and the free factors
multiply to the fluctuation determinant sinh(omega T) / omega T:

    ln Pi(T) = (1/2) ln(sinh omega T / omega T) + sum_n b_n.

Since L'(W) = -(1 - Z(W)) / 2W lies in [-1/3, 0], every bracket obeys
max(-W_n x_n / 3, -(1/2) ln(1 + x_n)) <= b_n <= 0, and
W_n x_n = (omega T abar / pi)^2 n^(-2 alpha): it decays like n^(-2 alpha),
not like the 1/n^2 of the log factors, so a few hundred terms certify
what the direct product needs millions for.
The exact N-mode product (``n_terms=N``) is summed directly only up to
n1, where W_n has fallen to 1/4 and n >= 4 omega T / pi (one plan, _head,
also finds the head factors that take no kernel); above n1 the power
series of the free factor and of L in W_n and W_n x_n turn the rest into
Hurwitz zeta differences, with a rigorous bound on the truncated series.
Only the terms whose a-priori bound is non-negligible next to the head
sum are evaluated; the bounds of the rest join the tail bound.  A head
longer than special.TERM_CAP = 2^24 terms is cut there (log_pi).
One core, _log_pi_core, evaluates ln Pi at many (omega T, abar(T)) points
of one alpha: log_pi is its one-point case, while log_pi_grid,
unitarity_diagnostic (T grids) and scan_E0_vs_omega (an omega grid) pass
the whole grid.  One special.block_sum call sums all points; each kernel
call sees at most 2^16 terms and the abar(T) and omega T of each.
The uniform level shift is Delta omega = ln Pi(T) / T (Euclidean), so
E^D_n = hbar omega (n + 1/2) - hbar Delta omega with unchanged spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .paths import ModelParams
from .special import (
    TERM_CAP,
    ZETA_RTOL,
    _ELL,
    _ERFC_ZERO,
    _K,
    _W0,
    _log_erf_over_sqrt,
    _log_erf_sqrt,
    _series_remainder,
    block_sum,
    hurwitz_zeta,
    tol_budget,
)

__all__ = [
    "PiResult",
    "SpectrumShift",
    "UnitarityReport",
    "log_pi",
    "log_pi_grid",
    "spectrum_shift",
    "unitarity_diagnostic",
    "scan_E0_vs_omega",
]

# Fixed-N tail: above n1 every W_n is <= _W0, and l runs to k = _K there as
# in the kernel.  One row (c, i, j, u, k, 2j) per term c x^i W^j u^u of the
# tail series at m = n1: free rows ((-1)^(i+1) / 2i, i, 0, 0, 0, -2i) from
# (1/2) ln(1 + x) = sum_i (-1)^(i+1) x^i / 2i, then bracket rows (l_k C(k, j),
# 0, j, k - j, k, 2j) from (W + u)^k - W^k = sum_{j<k} C(k, j) W^j u^(k-j).
_TAIL_C, _TAIL_I, _TAIL_J, _TAIL_U, _TAIL_K, _TAIL_2J = np.array(
    [((-1.0) ** (i + 1) / (2.0 * i), i, 0, 0, 0, -2 * i) for i in range(1, _K + 1)]
    + [(_ELL[k - 1] * math.comb(k, j), 0, j, k - j, k, 2 * j) for k in range(1, _K + 1) for j in range(k)]
).T
# a tail term whose a-priori bound is below this times the head sum is not evaluated
_TAIL_DROP = 2.0**-60


@dataclass(frozen=True)
class PiResult:
    log_pi: float
    T: float
    n_terms: int
    tail_bound: float
    converged: bool


@dataclass(frozen=True)
class SpectrumShift:
    T: float
    delta_omega: float  # ln Pi(T) / T
    n_level: int
    energy: float  # E^D_n = hbar omega (n + 1/2) - hbar delta_omega
    e0: float  # ground state
    spacing: float  # hbar omega, unchanged by the shift
    converged: bool  # ln Pi met its tolerance


def _log_sinh_over_x(x: float) -> float:
    """ln(sinh x / x) for x > 0, without cancellation at small x."""
    if x < 1.0:
        # sinh x / x - 1 = sum_k x^(2k) / (2k + 1)!, all terms positive
        acc, term = 0.0, 1.0
        for k in range(1, 13):
            term *= x * x / ((2 * k) * (2 * k + 1))
            acc += term
        return math.log1p(acc)
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x)


def _head(n: int, wt: float, a_bar: float, alpha: float) -> tuple[int, int, int]:
    """(n1, live, free), the fixed-N head to N = n: W_n = a_bar^2 n^(2 - 2 alpha) is compared in
    logs, as n^(alpha - 1) overflows long before W_n leaves the float range at a large alpha.
    n1 = min(n, TERM_CAP, max(n_W, 4 wT / pi)), n_W the first mode with W_n <= _W0 (never for
    alpha <= 1); above 4 wT / pi the free series ratio (wT / n pi)^2 is <= 1/16.  Where the
    head's smallest W (W_n1, or W_1 for alpha <= 1) is >= special._ERFC_ZERO, every factor is
    0.0 and live = free = 0.  Else the first ``live`` modes (W_n >= e^-700; all for alpha <= 1)
    go to the kernel, and the ``free`` = n1 - live past them, where W_n may underflow, take
    (1/2) ln(1 + x_n), their factor to double precision (the rest is below W_n x_n)."""
    cap = min(n, TERM_CAP)
    log_a = math.log(a_bar)
    if alpha <= 1.0:
        return (cap, 0, 0) if 2.0 * log_a >= math.log(_ERFC_ZERO) else (cap, cap, 0)
    log_n_w = math.log(a_bar / math.sqrt(_W0)) / (alpha - 1.0)
    n1 = cap
    if log_n_w < math.log(cap):
        n1 = min(cap, max(math.ceil(math.exp(log_n_w)), math.ceil(4.0 * wt / math.pi)))
    if 2.0 * (log_a - (alpha - 1.0) * math.log(n1)) >= math.log(_ERFC_ZERO):
        return n1, 0, 0
    log_n = (log_a + 350.0) / (alpha - 1.0)
    live = n1 if log_n >= math.log(n1) else math.floor(math.exp(log_n))
    return n1, live, n1 - live


def _log_factor_tail(
    n1: int, n: int, wt: float, a_bar: float, alpha: float, head: float
) -> tuple[float, float]:
    """Sum of the log factors n1 < m <= n in closed form, and a bound on its error.

    Each factor is (1/2) ln(1 + x_m) + L(W_m + u_m) - L(W_m), with
    x_m = (wT / m pi)^2, W_m = a_bar^2 m^(2 - 2 alpha) and u_m = W_m x_m.
    Expanding both in powers of m turns
    every sum over m into zeta(s, n1 + 1) - zeta(s, n + 1), one per _TAIL_*
    row: s = 2i for x^i of the free part, 2 alpha k - 2j for W^j u^(k-j)
    of the bracket.  Powers are taken at m = n1, so the coefficients stay <= 1.
    Since 0 <= n1^s zeta(s, q) <= (n1 / q)^s (1 + q / (s - 1)) (integral
    test), and 0 <= zeta(s, n1 + 1) - zeta(s, n + 1) <= zeta(s, n1 + 1), a
    row whose bound at q = n1 + 1, times |coefficient|, is below _TAIL_DROP
    times ``head`` (the sum of the first n1 factors; all factors are >= 0,
    so head is at most the whole sum) is not evaluated.  The error of a
    dropped row takes a second bound, from Euler-Maclaurin with its
    remainder after the B_2 term <= 0:
    n1^s zeta(s, q) <= (n1 / q)^s (q / (s - 1) + 1/2 + s / 12q).  Two bounds
    on purpose: the first decides the rows, so the values are those of
    that rule; the second is below it wherever s < 6q, which leaves room
    in the error for the truncation of each kept zeta (special.ZETA_RTOL of
    its value).  Every kept row takes its zetas at q = n1 + 1 and
    q = n + 1 in one call.
    Above k = _K the free series is alternating (x_m <= 1/16), and
    _series_remainder(W_m, u_m) is at most that of m = n1 times
    (n1 / m)^(2 alpha + (2 alpha - 2) _K).
    """
    z2 = (wt / (math.pi * n1)) ** 2
    w1 = a_bar**2 * n1 ** (2.0 - 2.0 * alpha)
    u1 = w1 * z2
    # exact for every row: x^0 = 1.0, and 0.0 - (-2i) = 2i on the free rows
    s = 2.0 * alpha * _TAIL_K - _TAIL_2J
    coef = _TAIL_C * z2**_TAIL_I * w1**_TAIL_J * u1**_TAIL_U
    q = n1 + 1.0
    scaled = np.abs(coef) * (n1 / q) ** s
    ratio = q / (s - 1.0)
    kept = scaled * (1.0 + ratio) >= _TAIL_DROP * head
    # the second bound on the dropped rows
    ratio += 0.5 + s / (12.0 * q)
    err = float(np.where(kept, 0.0, scaled) @ ratio)
    coef, s = coef[kept], s[kept]
    z_lo, z_hi = hurwitz_zeta(s, [q, n + 1.0], float(n1))
    value = math.fsum((coef * (z_lo - z_hi)).tolist())
    # the truncation of each zeta
    err += ZETA_RTOL * float(np.abs(coef) @ (z_lo + z_hi))
    # sum_{m>n1} (n1 / m)^p <= n1 / (p - 1)
    err += z2 ** (_K + 1) / (2 * _K + 2) * n1 / (2 * _K + 1)
    err += _series_remainder(w1, u1) * n1 / (2.0 * alpha + (2.0 * alpha - 2.0) * _K - 1.0)
    return value, err


def _bracket_tail(n: int, wt: float, a_bar: float, alpha: float) -> float:
    """Rigorous bound on |sum_{m>n} b_m|.

    From b_m >= -W_m x_m / 3 = -(wT a_bar / pi)^2 m^(-2 alpha) / 3 and
    sum_{m>n} m^(-2 alpha) <= n^(1-2 alpha) / (2 alpha - 1),
    or from b_m >= -(1/2) ln(1 + x_m) >= -(wT)^2 / (2 pi^2 m^2).
    """
    tail = wt**2 / (2.0 * math.pi**2 * n)
    if alpha > 0.5:
        tail = min(tail, (wt * a_bar / math.pi) ** 2 * n ** (1.0 - 2.0 * alpha) / (3.0 * (2.0 * alpha - 1.0)))
    return tail


def _bracket_terms_needed(tol: float, wt: float, a_bar: float, alpha: float) -> int:
    """Smallest N <= TERM_CAP whose bracket tail bound is <= tol (the cap if none is)."""
    if not tol > 0:
        return TERM_CAP
    log_n = 2.0 * math.log(wt) - math.log(2.0 * math.pi**2 * tol)
    if alpha > 0.5:
        k = 2.0 * alpha - 1.0
        log_n = min(log_n, (2.0 * math.log(wt * a_bar / math.pi) - math.log(3.0 * k * tol)) / k)
    n = min(max(1, math.ceil(math.exp(min(log_n, math.log(TERM_CAP))))), TERM_CAP)
    # the logs above round; step to the exact smallest N
    while n > 1 and _bracket_tail(n - 1, wt, a_bar, alpha) <= tol:
        n -= 1
    while n < TERM_CAP and _bracket_tail(n, wt, a_bar, alpha) > tol:
        n += 1
    return n


def _log_pi_core(points: list, params: ModelParams, tol: float, n_terms: Optional[int]) -> list:
    """ln Pi at each (T, Abar(T), omega T) of ``points``, alpha that of ``params``.

    The one evaluator behind log_pi (one point), log_pi_grid and
    unitarity_diagnostic (a T grid) and scan_E0_vs_omega (an omega grid at
    one T).  Every point is checked before anything is summed; per point,
    the term counts, the free factor and the tail bounds are the scalar
    expressions of log_pi's docstring, and the sums of all points are one
    block_sum call, with Abar and wT as its cols (and one more for the
    factors of the free modes of _head's plan).  Each term depends on its
    own (n, Abar, wT) only, so no value depends on which points share a call.
    """
    alpha = params.alpha
    # an integral float such as 1e5 is a term count too
    if n_terms is not None and not (n_terms >= 1 and n_terms % 1 == 0):
        raise ValueError(f"n_terms must be an integer >= 1, not {n_terms!r}")
    # omega T = 0 gives Pi = 1 exactly; the other points are summed, over sizes[i] terms each
    live, sizes, heads, frees = [], [], [], []
    for point in points:
        T, a_bar, wt = point
        if wt == 0.0:
            continue
        if not math.isfinite(a_bar * a_bar):
            raise ValueError(
                f"log_pi requires a finite Abar(T)^2 = m pi^2 A(T)^2 / (4 hbar T) at T={float(T)!r}"
            )
        # every bound squares wT and wT Abar / pi; in Python floats, so nothing warns here
        x = float(wt)
        y = x * float(a_bar) / math.pi
        if not (math.isfinite(x * x) and math.isfinite(y * y)):
            raise ValueError(
                f"log_pi requires a finite (omega T)^2 and (omega T Abar(T) / pi)^2 at T={float(T)!r}"
                f" (omega T = {x!r})"
            )
        if n_terms is None:
            sizes.append(_bracket_terms_needed(tol, wt, a_bar, alpha))
        else:
            n1, size, free = _head(int(n_terms), wt, a_bar, alpha)
            heads.append(n1)
            sizes.append(size)
            frees.append(free)
        live.append(point)

    # the bracket l(W_n (1 + x_n)) - l(W_n) is <= 0 exactly (ln(2/sqrt(pi)) cancels in it), the
    # factor ln Erf(sqrt(W_n (1 + x_n))) - ln Erf(sqrt W_n) >= 0: one kernel call on both
    # arguments, its roundoff of the wrong sign clipped
    kernel, clip = (_log_erf_over_sqrt, np.minimum) if n_terms is None else (_log_erf_sqrt, np.maximum)

    def terms(n, a_bar, wt):
        lo = params.mode_w(n, a_bar)
        l_w = kernel(np.concatenate((lo * (1.0 + (wt / (n * math.pi)) ** 2), lo)))
        return clip(l_w[: lo.size] - l_w[lo.size :], 0.0)

    a_bars, wts = [p[1] for p in live], [p[2] for p in live]
    sums = block_sum(terms, sizes, a_bars, wts)
    if any(frees):
        # _head's free modes, each factor (1/2) ln(1 + x_n)
        rest = block_sum(lambda n, first, wt: 0.5 * np.log1p((wt / ((n + first) * math.pi)) ** 2),
                         frees, sizes, wts)
        sums = [a + b for a, b in zip(sums, rest)]
    pis = []
    if n_terms is not None:
        for (T, a_bar, wt), n1, value in zip(live, heads, sums):
            n = TERM_CAP if n1 == TERM_CAP else int(n_terms)
            tail = wt**2 / (2.0 * math.pi**2 * n)
            if n1 < n:
                rest, err = _log_factor_tail(n1, n, wt, a_bar, alpha, value)
                value += rest
                tail += err
            pis.append(PiResult(value, T, n, tail, tail <= tol_budget(value, tol)))
    else:
        for (T, a_bar, wt), n, s in zip(live, sizes, sums):
            free = 0.5 * _log_sinh_over_x(wt)
            value = min(max(free + s, 0.0), free)
            tail = _bracket_tail(n, wt, a_bar, alpha)
            pis.append(PiResult(value, T, n, tail, tail <= tol_budget(value, tol)))
    if len(live) == len(points):
        return pis
    summed = iter(pis)
    return [PiResult(0.0, T, 0, 0.0, True) if wt == 0.0 else next(summed) for T, _, wt in points]


def log_pi(
    T: float,
    params: ModelParams,
    tol: float = 1e-6,
    n_terms: Optional[int] = None,
) -> PiResult:
    """ln Pi(T) with a rigorous tail bound.

    W_n = (abar / n^(alpha-1))^2 and x_n = (wT / n pi)^2, abar that of
    ``params`` at time T (from A, or from A(T) when epsilon_D is primary).

    ``n_terms=None`` (adaptive): ln Pi = (1/2) ln(sinh wT / wT) + sum_{n<=N} b_n,
    with b_n = L(W_n (1 + x_n)) - L(W_n) and L(W) = ln(Erf(sqrt W) / sqrt W).
    As L' lies in [-1/3, 0] (1 - Z(W) is 2W times a tilted mean of u^2
    over u in [0, 1], at most 2W/3), every b_n lies in
    [max(-W_n x_n / 3, -(1/2) ln(1 + x_n)), 0], so the terms after N sum
    to at most

        min((wT abar / pi)^2 N^(1 - 2 alpha) / (3 (2 alpha - 1)), (wT)^2 / (2 pi^2 N)).

    N is the smallest count whose bound is <= tol, up to 2^24 terms;
    ``n_terms`` of the result counts these bracket terms.  The value is
    clamped to the exact bounds [0, (1/2) ln(sinh wT / wT)].

    ``n_terms=N``: the sum of the first N log factors
    ln[Erf(sqrt(W_n (1 + x_n))) / Erf(sqrt W_n)].  The first
    n1 = min(N, 2^24, max(n_W, 4 wT / pi)) are summed directly, n_W being
    the first mode with W_n <= 1/4 (never when alpha <= 1); so for N <= n1
    the value is the direct sum (head modes with W_n below e^-700, where
    n^(alpha - 1) may overflow, take the factor (1/2) ln(1 + x_n), which
    their ratio equals to double precision).  Modes n1 < n <= N are
    summed in closed form: the power series of (1/2) ln(1 + x_n) and of
    the bracket in W_n and u_n = W_n x_n, truncated at k = 18, make every
    sum over n a difference of Hurwitz zetas zeta(s, n1 + 1) -
    zeta(s, N + 1).  Only the terms whose a-priori bound is at least 2^-60
    times the head sum are evaluated; the others are dropped and their
    bounds (one per term, so together below 189 * 2^-60 = 1.6e-16 times
    the head sum) added to tail_bound.
    Each factor omitted after N lies in [0, (1/2) ln(1 + x_n)] (Erf
    concavity: Erf(k x) <= k Erf(x)), so tail_bound is
    (wT)^2 / (2 pi^2 N) plus a rigorous bound on the series truncation,
    the dropped terms and the truncation of each Hurwitz zeta
    (special.ZETA_RTOL = 2^-80 of its value);
    ``n_terms`` of the result is N.  A head cut at n1 = 2^24 < N takes no
    closed-form tail (W_n may exceed 1/4 there): the value sums 2^24
    factors, tail_bound is (wT)^2 / (2 pi^2 2^24) and ``n_terms`` 2^24.

    ``converged`` means tail_bound <= tol_budget(ln Pi, tol) = tol * max(1, |ln Pi|),
    an absolute tolerance wherever |ln Pi| < 1.  With omega > 0, an
    Abar(T)^2, (omega T)^2 or (omega T Abar(T) / pi)^2 beyond the float
    range raises ValueError.
    """
    return _log_pi_core([(T, params.a_bar_at(T), params.omega * T)], params, tol, n_terms)[0]


def log_pi_grid(
    t_grid: Iterable[float],
    params: ModelParams,
    tol: float = 1e-6,
    n_terms: Optional[int] = None,
) -> list[PiResult]:
    """``[log_pi(T, params, tol, n_terms) for T in t_grid]``, the same values bit for bit.

    Every T is checked before anything is summed, and the sums of all grid
    points share kernel calls of at most special.BLOCK = 2^16 terms.
    """
    points = [(t, params.a_bar_at(t), params.omega * t) for t in t_grid]
    return _log_pi_core(points, params, tol, n_terms)


def spectrum_shift(
    T: float,
    params: ModelParams,
    n_level: int = 0,
    tol: float = 1e-6,
    n_terms: Optional[int] = None,
) -> SpectrumShift:
    """Delta omega = ln Pi(T) / T and the shifted level E^D_n."""
    if n_level < 0:
        raise ValueError("n_level must be >= 0")
    pi = log_pi(T, params, tol, n_terms)
    hbar, omega = params.hbar, params.omega
    d_omega = pi.log_pi / pi.T
    return SpectrumShift(
        T=pi.T,
        delta_omega=d_omega,
        n_level=n_level,
        energy=hbar * omega * (n_level + 0.5) - hbar * d_omega,
        e0=hbar * omega * 0.5 - hbar * d_omega,
        spacing=hbar * omega,
        converged=pi.converged,
    )


@dataclass(frozen=True)
class UnitarityReport:
    t_grid: tuple
    delta_omega: tuple
    mean_delta_omega: Optional[float]  # over the T >= eps_D sub-grid
    max_rel_deviation: Optional[float]  # over the T >= eps_D sub-grid
    sub_eps_mean: Optional[float]
    sub_eps_max_rel_deviation: Optional[float]
    verdicts: tuple  # per-T strings
    verdict: str  # over the T >= eps_D sub-grid; sub-epsilon-D if it is empty
    converged: bool  # every ln Pi met its tolerance


def unitarity_diagnostic(
    t_grid: Iterable[float],
    params: ModelParams,
    tol: float = 1e-6,
    n_terms: Optional[int] = None,
    threshold: float = 0.1,
) -> UnitarityReport:
    """Is ln Pi linear in T?  (The Euclidean counterpart of Pi = e^{i Omega T}.)

    Over T >= eps_D the shift Delta omega(T) should be constant; its max
    relative deviation from the sub-grid mean is the unitarity figure of
    merit, and ``verdict`` is unitary-compatible when it is <= threshold.
    A deviation counts only past the error bounds: that of Delta omega(T),
    u = tail_bound / T, and that of the mean, the sub-grid mean of u.
    Each T is compared with eps_D at that T, which moves with T when A is
    primary.  The sub-eps_D points are reported separately — there the
    product is far from exponential and the deviation is expected O(1).
    The statistics of an empty sub-grid are None.  ``converged`` is False when any ln Pi missed ``tol``.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("grid must be nonempty")
    # one derivation of Abar(T) per T, which also validates T for the eps_D split
    points, below = [], []
    for t in t_grid:
        points.append((t, params.a_bar_at(t), params.omega * t))
        below.append(params.alpha > 1 and t < params._eps_d_at(t))
    pis = _log_pi_core(points, params, tol, n_terms)
    dws = [p.log_pi / t for p, t in zip(pis, t_grid)]
    us = [p.tail_bound / t for p, t in zip(pis, t_grid)]
    # ln Pi >= 0, so a mean of 0 means every value is 0 and every deviation is 0
    dev = [0.0] * len(t_grid)

    def sub_grid(sub):
        idx = [i for i, b in enumerate(below) if b == sub]
        if not idx:
            return None, None
        mean = sum(dws[i] for i in idx) / len(idx)
        u_mean = sum(us[i] for i in idx) / len(idx)
        for i in idx:
            excess = max(0.0, abs(dws[i] - mean) - us[i] - u_mean)
            dev[i] = excess / abs(mean) if excess else 0.0
        return mean, max(dev[i] for i in idx)

    mean_above, dev_above = sub_grid(False)
    mean_below, dev_below = sub_grid(True)

    def verdict(d):
        return "unitary-compatible" if d <= threshold else "non-exponential"

    verdicts = ["sub-epsilon-D" if b else verdict(d) for b, d in zip(below, dev)]
    return UnitarityReport(
        t_grid=tuple(t_grid),
        delta_omega=tuple(dws),
        mean_delta_omega=mean_above,
        max_rel_deviation=dev_above,
        sub_eps_mean=mean_below,
        sub_eps_max_rel_deviation=dev_below,
        verdicts=tuple(verdicts),
        verdict="sub-epsilon-D" if dev_above is None else verdict(dev_above),
        converged=all(p.converged for p in pis),
    )


def scan_E0_vs_omega(
    omega_grid: Iterable[float],
    params: ModelParams,
    T: float = 1.0,
    tol: float = 1e-6,
    n_terms: Optional[int] = None,
) -> dict:
    """Ground-state energy vs omega with a weighted linear fit E0 = a + b omega.

    The fit uses the large-omega half of the grid with 1/E0^2 weights
    (relative residuals); ``residual`` is the max relative misfit there.
    ``converged`` is False when any ln Pi missed ``tol``.
    """
    omegas = sorted(float(w) for w in omega_grid)
    if len(omegas) < 3:
        raise ValueError("need at least 3 grid points for the fit")
    if any(w <= 0 for w in omegas):
        raise ValueError("omega grid must be positive")
    if not all(math.isfinite(w) for w in omegas):
        raise ValueError("omega must be finite")
    a_bar = params.a_bar_at(T)
    pis = _log_pi_core([(T, a_bar, w * T) for w in omegas], params, tol, n_terms)
    # E0 = hbar omega / 2 - hbar ln Pi / T, spectrum_shift's expression
    rows = [(w, params.hbar * w * 0.5 - params.hbar * (pi.log_pi / pi.T)) for w, pi in zip(omegas, pis)]
    half = [r for r in rows if r[0] >= rows[len(rows) // 2][0]]
    x = np.array([r[0] for r in half])
    y = np.array([r[1] for r in half])
    wgt = 1.0 / y**2
    design = np.vstack([np.ones_like(x), x]).T
    coeff, *_ = np.linalg.lstsq(design * np.sqrt(wgt)[:, None], y * np.sqrt(wgt), rcond=None)
    a, b = float(coeff[0]), float(coeff[1])
    resid = np.abs((a + b * x - y) / y)
    return {
        "rows": rows,
        "a": a,
        "b": b,
        "residual": float(resid.max()),
        "rms_residual": float(np.sqrt(np.mean(resid**2))),
        "n_points": len(half),
        "converged": all(pi.converged for pi in pis),
    }

