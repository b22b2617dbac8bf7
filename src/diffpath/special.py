"""Numerically hardened special functions shared by every other module.

Everything here is pure and deterministic: error-function ratios in log
space; one kernel, l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)), from which
the truncated-Gaussian moment factor Z(W) = exp(-W - l), 1 - Z and the
brackets of ln Pi(T) (differences of l) are taken; exact Bernoulli numbers;
and the one series primitive every certified sum goes through: block_sum
(compensated blocked summation), tol_budget (the tolerance rule
tail <= tol * max(1, |value|), absolute for |value| < 1) and certify (the
x4 term-count loop that returns a SeriesValue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.special as sc

__all__ = [
    "SeriesValue",
    "ConvergenceError",
    "erf",
    "log_erf",
    "log_erf_ratio",
    "zed",
    "one_minus_zed",
    "truncated_gaussian_ratio",
    "hurwitz_zeta",
    "bernoulli",
    "block_sum",
    "tol_budget",
    "certify",
]

ZETA2 = math.pi**2 / 6.0


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


def block_sum(terms: Callable, stop: int, start: int = 1, block: int = 1 << 16):
    """Compensated sum of terms(n) over n = start..stop (an empty range gives 0.0).

    ``terms`` is called on float arrays of at most ``block`` consecutive n.
    Each block is summed by numpy's pairwise reduction and the block totals
    by one ``math.fsum``, so the accumulation order is fixed and rounding
    stays near one ulp even for ~1e7 terms.  If ``terms`` returns a tuple
    of arrays, the result is the tuple of their sums.
    """
    partials = []
    for lo in range(start, stop + 1, block):
        out = terms(np.arange(lo, min(lo + block, stop + 1), dtype=float))
        partials.append(tuple(float(a.sum()) for a in out) if isinstance(out, tuple) else float(out.sum()))
    if partials and isinstance(partials[0], tuple):
        return tuple(math.fsum(col) for col in zip(*partials))
    return math.fsum(partials)


def tol_budget(value: float, tol: float) -> float:
    """The largest tail bound that certifies ``value`` at tolerance ``tol``.

    tol * max(1, |value|): relative for |value| >= 1, absolute below.
    """
    return tol * max(1.0, abs(value))


def certify(evaluate: Callable[[int], tuple], tol: float, n0: int, cap: int) -> SeriesValue:
    """Sum a series with a rigorous tail bound, quadrupling the term count.

    ``evaluate(n)`` gives (value, tail bound) for n terms; n runs n0, 4 n0,
    16 n0, ...  The first n whose bound is within tol_budget(value, tol) is
    returned as converged; once n >= cap, the last evaluation is returned
    with ``converged=False``.
    """
    n = n0
    while True:
        value, tail = evaluate(n)
        if tail <= tol_budget(value, tol):
            return SeriesValue(value, n, tail, True)
        if n >= cap:
            return SeriesValue(value, n, tail, False)
        n *= 4


def erf(x):
    """Error function; relative error below 1e-14 for all finite arguments."""
    return sc.erf(x)


def log_erf(x):
    """ln Erf(x) for x > 0, stable for both tiny and large arguments.

    For large x, Erf(x) rounds to 1, so the naive log returns exactly 0
    and the information in the 1 - Erf tail is lost; log1p(-erfc(x))
    keeps it down to the underflow threshold of erfc.
    """
    x = np.asarray(x, dtype=float)
    small = x < 0.5
    large = ~small
    out = np.empty_like(x)
    with np.errstate(divide="ignore"):
        # each branch is evaluated only on the elements that take it
        out[small] = np.log(sc.erf(x[small]))
        out[large] = np.log1p(-sc.erfc(x[large]))
    if out.ndim == 0:
        return float(out)
    return out


def log_erf_ratio(u: float, v: float) -> float:
    """ln(Erf(u)/Erf(v)) with absolute error at the 1e-13 level.

    Both the u,v >> 1 regime (where each Erf rounds to 1) and the
    u,v << 1 regime (where the ratio degenerates to u/v) are handled by
    the complementary-function branch inside :func:`log_erf`.
    """
    if u <= 0 or v <= 0:
        raise ValueError("log_erf_ratio requires positive arguments")
    return log_erf(u) - log_erf(v)


# ln(2/sqrt(pi)), the W -> 0 limit of ln(Erf(sqrt W) / sqrt W)
_LOG_2_OVER_SQRT_PI = math.log(2.0 / math.sqrt(math.pi))
# sqrt(pi) Erf(z) / 2z = 1 + sum_{k=1}^{17} a_k (-W)^k with a_k = 1/(k! (2k+1)),
# z = sqrt(W); a_17 first, for Horner's rule
_ERF_OVER_Z = tuple(1.0 / (math.factorial(k) * (2 * k + 1)) for k in range(17, 0, -1))


def _log_erf_over_sqrt(w):
    """l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)) for W > 0.

    This is ln(Erf(sqrt W) / sqrt W) less its W -> 0 limit ln(2/sqrt(pi)),
    so it keeps relative accuracy as W -> 0 (l = -W/3 + O(W^2)).  For
    W < 1/4 it is log1p of the Taylor series, evaluated by Horner's rule
    in place (the direct logs would cancel); otherwise
    log1p(-erfc(sqrt W)) - (1/2) ln W - ln(2/sqrt(pi)), where
    sqrt W >= 1/2 keeps every log finite.
    """
    w = np.asarray(w, dtype=float)
    small = w < 0.25
    large = ~small
    out = np.empty_like(w)
    x = -w[small]
    acc = np.full_like(x, _ERF_OVER_Z[0])
    for a in _ERF_OVER_Z[1:]:
        acc *= x
        acc += a
    acc *= x
    out[small] = np.log1p(acc, out=acc)
    wl = w[large]
    out[large] = np.log1p(-sc.erfc(np.sqrt(wl))) - 0.5 * np.log(wl) - _LOG_2_OVER_SQRT_PI
    if out.ndim == 0:
        return float(out)
    return out


def zed(w):
    """Z(W) = (2/sqrt(pi)) sqrt(W) e^{-W} / Erf(sqrt(W)) = exp(-W - l(W)) for W > 0."""
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0):
        raise ValueError("zed requires W > 0")
    out = np.exp(-w_arr - _log_erf_over_sqrt(w_arr))
    if out.ndim == 0:
        return float(out)
    return out


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
