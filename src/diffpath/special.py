"""Numerically hardened special functions shared by every other module.

Everything here is pure and deterministic: ln Erf(sqrt W) and
l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)), from which 1 - Z, with
Z(W) = exp(-W - l) the truncated-Gaussian moment factor, and the
brackets of ln Pi(T) (differences of l) are taken, one split at W = 1/4
between the two forms of each (_by_branch); the Taylor
coefficients l_k that both the kernel and the tail of ln Pi sum, with a
bound on the truncated series; exact Bernoulli numbers;
and the one series primitive every certified sum goes through: block_sum
(compensated blocked summation of one range or of many, packed in blocks
of BLOCK terms into kernel calls that get each range's own values),
tol_budget (tail <= tol * max(1, |value|), absolute for |value| < 1) and
certify (the x4 term-count loop that returns a SeriesValue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "SeriesValue",
    "ConvergenceError",
    "one_minus_zed",
    "truncated_gaussian_ratio",
    "hurwitz_zeta",
    "bernoulli",
    "block_sum",
    "tol_budget",
    "certify",
]

ZETA2 = math.pi**2 / 6.0
# block_sum's block, the most terms one kernel call sees, and its cap, the
# most terms any certified sum evaluates (block_sum refuses a longer range)
BLOCK, TERM_CAP = 1 << 16, 1 << 24


@dataclass(frozen=True)
class SeriesValue:
    """A numerically summed series with truncation metadata.

    ``tail_bound`` is a rigorous upper bound on the absolute value of the
    omitted tail.  ``converged`` means the bound met the requested
    tolerance: tail_bound <= tol_budget(value, tol).
    """

    value: float
    n_terms: int
    tail_bound: float
    converged: bool


class ConvergenceError(RuntimeError):
    """A series failed to meet its tail-bound tolerance within the term cap."""


def block_sum(terms: Callable, stops, *cols, block: int = BLOCK):
    """Compensated sums of terms over n = 1..stop, for one stop or a list of them.

    ``stops`` an int: the sum of ``terms(n)``; a list: the list of sums of
    ``terms(n, *args)``, n a float array.  Each col of ``cols`` holds one
    value per range; its arg is the value of the range of each n, a float
    when the call holds one range, else an array like n.  Each range is cut
    into blocks of ``block`` consecutive n, packed in order into calls of at
    most ``block`` terms; numpy's pairwise sum of each block's slice and one
    ``math.fsum`` per range fix the accumulation order, so no sum depends on
    the packing and rounding stays near one ulp even for ~1e7 terms.  An
    empty range gives 0.0, and tuples of arrays from ``terms`` tuples of sums.
    A range past TERM_CAP raises ValueError first.  ``block`` is for tests.
    """
    one = not isinstance(stops, list)
    stops = [stops] if one else stops
    if max(stops, default=0) > TERM_CAP:
        raise ValueError(f"block_sum sums at most TERM_CAP = {TERM_CAP} terms per range, not {max(stops)}")
    calls, total = [], block  # starts full, so the first block opens a call
    for i, stop in enumerate(stops):
        for lo in range(1, stop + 1, block):
            size = min(block, stop + 1 - lo)
            if total + size > block:
                calls.append([])
                total = 0
            calls[-1].append((i, lo, size))
            total += size
    partials = [[] for _ in stops]
    for pack in calls:
        if len(pack) == 1:
            i, lo, size = pack[0]
            # the whole output is the block: summed without building a slice
            partials[i].append(_total(terms(np.arange(lo, lo + size, dtype=float), *[c[i] for c in cols])))
            continue
        i, lo, size = (np.array(col) for col in zip(*pack))
        end = size.cumsum()
        # each block's n counts up from its first n, wherever it sits in the call
        n = np.arange(1.0, end[-1] + 1.0) + (lo - 1 - end + size).repeat(size)
        out = terms(n, *[np.array([c[k] for k in i]).repeat(size) for c in cols])
        for (i, _, size), end in zip(pack, end.tolist()):
            part = slice(end - size, end)
            partials[i].append(_total(tuple(a[part] for a in out) if isinstance(out, tuple) else out[part]))
    sums = [tuple(map(math.fsum, zip(*p))) if p and isinstance(p[0], tuple) else math.fsum(p) for p in partials]
    return sums[0] if one else sums


def _total(out):
    """The float sum of an array, or the tuple of sums of a tuple of arrays."""
    return tuple([float(a.sum()) for a in out]) if isinstance(out, tuple) else float(out.sum())


def tol_budget(value: float, tol: float) -> float:
    """The largest tail bound that certifies ``value`` at tolerance ``tol``.

    tol * max(1, |value|): relative for |value| >= 1, absolute below.
    """
    return tol * max(1.0, abs(value))


def certify(evaluate: Callable[[int], tuple], tol: float, n0: int) -> SeriesValue:
    """Sum a series with a rigorous tail bound, quadrupling the term count.

    ``evaluate(n)`` gives (value, tail bound) for n terms; n runs n0, 4 n0,
    16 n0, ...  The first n whose bound is within tol_budget(value, tol) is
    returned as converged; once n >= TERM_CAP, the last evaluation is
    returned with ``converged=False``.
    """
    n = n0
    while True:
        value, tail = evaluate(n)
        if tail <= tol_budget(value, tol):
            return SeriesValue(value, n, tail, True)
        if n >= TERM_CAP:
            return SeriesValue(value, n, tail, False)
        n *= 4


# ln(2/sqrt(pi)), the W -> 0 limit of ln(Erf(sqrt W) / sqrt W)
_LOG_2_OVER_SQRT_PI = math.log(2.0 / math.sqrt(math.pi))


def _log_erf_series(k_max: int) -> list[float]:
    """l_1..l_{k_max} of l(W) = sum_k l_k W^k, exactly.

    Erf(sqrt W)/sqrt W = (2/sqrt(pi)) f(W) with f = sum_k (-W)^k / (k! (2k+1)),
    and g = ln f obeys g' f = f', i.e. k g_k = k f_k - sum_{0<j<k} j g_j f_{k-j}.
    """
    f = [Fraction((-1) ** k, math.factorial(k) * (2 * k + 1)) for k in range(k_max + 1)]
    g = [Fraction(0)] * (k_max + 1)
    for k in range(1, k_max + 1):
        g[k] = f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k
    return [float(x) for x in g[1:]]


# Below _W0, l(W) is its series to k = _K (the kernel, and the fixed-N tail
# of ln Pi in oscillator).
_W0 = 0.25
_K = 18
_ELL = _log_erf_series(_K)
# Cauchy estimate |l_k| <= _ELL_M / _ELL_R^k: l is analytic for
# |W| < 5.642 (|z|^2 at Erf's first complex zero z), and max |l| on
# |W| = 4 is 2.107 (mpmath).
_ELL_R, _ELL_M = 4.0, 2.2


def _series_remainder(w: float, u: float) -> float:
    """Bound on |sum_{k>_K} l_k ((w + u)^k - w^k)| for w, u >= 0, w + u < _ELL_R.

    From |l_k| <= _ELL_M / _ELL_R^k and (w + u)^k - w^k <= k u (w + u)^(k-1):
    (_ELL_M u / _ELL_R) sum_{k>_K} k rho^(k-1), rho = (w + u) / _ELL_R.
    """
    rho = (w + u) / _ELL_R
    return _ELL_M * u / _ELL_R * rho**_K * (_K + 1 - _K * rho) / (1.0 - rho) ** 2


def _ell_series(w: np.ndarray) -> np.ndarray:
    """sum_{k<=_K} l_k w^k by Horner's rule in place."""
    acc = w * _ELL[-1]
    acc += _ELL[-2]
    for ell in _ELL[-3::-1]:
        acc *= w
        acc += ell
    acc *= w
    return acc


# ln Erf(sqrt W) as log(Erf) below _W0, and from _W0 on as log1p(-erfc), which
# keeps the 1 - Erf tail where Erf rounds to 1, down to erfc's underflow threshold
def _log_erf_small(w: np.ndarray) -> np.ndarray:
    # imported on first use: import diffpath, casimir and paths load numpy only
    import scipy.special as sc
    with np.errstate(divide="ignore"):
        return np.log(sc.erf(np.sqrt(w)))


def _log_erf_large(w: np.ndarray) -> np.ndarray:
    import scipy.special as sc
    return np.log1p(-sc.erfc(np.sqrt(w)))


def _ell_direct(w: np.ndarray) -> np.ndarray:
    return _log_erf_large(w) - 0.5 * np.log(w) - _LOG_2_OVER_SQRT_PI


def _by_branch(w, small: Callable, large: Callable):
    """small(W) where W < _W0 = 1/4, large(W) elsewhere, a float for a 0-d W:
    each form runs only on the elements that take it, on w itself when all
    do, so no element's value depends on the array it sits in."""
    w = np.asarray(w, dtype=float)
    below = w < _W0
    n_small = np.count_nonzero(below)
    if n_small == w.size:
        out = small(w)
    elif n_small == 0:
        out = large(w)
    else:
        out = np.empty_like(w)
        out[below] = small(w[below])
        out[~below] = large(w[~below])
    if out.ndim == 0:
        return float(out)
    return out


def _log_erf_sqrt(w):
    """ln Erf(sqrt W) for W > 0, stable for both tiny and large W."""
    return _by_branch(w, _log_erf_small, _log_erf_large)


def _log_erf_over_sqrt(w):
    """l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)) for W > 0.

    This is ln(Erf(sqrt W) / sqrt W) less its W -> 0 limit ln(2/sqrt(pi)),
    so it keeps relative accuracy as W -> 0 (l = -W/3 + O(W^2)).  For
    W < _W0 = 1/4 it is sum_{k<=_K} l_k W^k by Horner's rule in place (the
    direct logs would cancel), truncated within _series_remainder(0, W),
    below 1e-20 |l(W)|; otherwise
    log1p(-erfc(sqrt W)) - (1/2) ln W - ln(2/sqrt(pi)), where
    sqrt W >= 1/2 keeps every log finite.
    """
    return _by_branch(w, _ell_series, _ell_direct)


def one_minus_zed(w):
    """1 - Z(W), accurate in relative terms even where Z(W) -> 1.

    For small W the direct subtraction cancels (1 - Z = 2W/3 + O(W^2)); we
    instead write Z = e^{-g(W)} with g = W + l(W), l(W) =
    ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)) = -W/3 + O(W^2) from
    _log_erf_over_sqrt, and use expm1.  g keeps its relative accuracy down
    to the smallest W, so 1 - Z does too.
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0):
        raise ValueError("one_minus_zed requires W > 0")
    out = -np.expm1(-(w_arr + _log_erf_over_sqrt(w_arr)))
    if out.ndim == 0:
        return float(out)
    return out


def truncated_gaussian_ratio(b: float, big_b: float) -> float:
    """Second moment of a centered Gaussian of weight e^{-b a^2} truncated to |a| <= B.

    Equals (1/2b)(1 - Z(b B^2)); strictly below both 1/(2b) and B^2.
    """
    if b <= 0 or big_b <= 0:
        raise ValueError("truncated_gaussian_ratio requires positive b and B")
    return (0.5 / b) * one_minus_zed(b * big_b * big_b)


def hurwitz_zeta(s, q):
    """Hurwitz zeta(s, q) = sum_{k>=0} (k + q)^{-s} for s > 1, q > 0.

    Broadcasts over array arguments; scalars give a float.
    """
    import scipy.special as sc
    out = sc.zeta(s, q)
    if np.ndim(out) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]
_BERNOULLI_MAX = 60


def _bernoulli_fraction(k: int) -> Fraction:
    # B_m from the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 (B_1 = -1/2
    # convention), computed exactly with rationals.
    while len(_BERNOULLI_CACHE) <= k:
        m = len(_BERNOULLI_CACHE)
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[k]


def bernoulli(k: int) -> float:
    """Bernoulli number B_k (B_1 = -1/2 convention), exact via rationals."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > _BERNOULLI_MAX:
        raise ValueError(f"unsupported Bernoulli index {k!r}")
    return float(_bernoulli_fraction(int(k)))
