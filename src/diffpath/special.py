"""Numerically hardened special functions shared by every other module.

Everything here is pure and deterministic: error-function ratios in log
space, the truncated-Gaussian moment factor Z(W), the dilogarithm on and
inside the unit circle, and exact Bernoulli numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    "li2_exp",
    "bernoulli",
    "chunked_sum",
    "chunk_partials",
]

ZETA2 = math.pi**2 / 6.0


@dataclass(frozen=True)
class SeriesValue:
    """A numerically summed series with truncation metadata.

    ``tail_bound`` is a rigorous upper bound on the absolute value of the
    omitted tail.  ``converged`` means the bound met the requested
    tolerance (relative, floored at 1 in absolute terms).
    """

    value: float
    n_terms: int
    tail_bound: float
    converged: bool


class ConvergenceError(RuntimeError):
    """A series failed to meet its tail-bound tolerance within the term cap."""


def chunked_sum(terms: np.ndarray, chunk: int = 1 << 16) -> float:
    """Compensated sum of a 1-D array.

    numpy's pairwise reduction is applied per chunk and the chunk totals
    are combined with ``math.fsum``, so accumulation order is fixed and
    rounding error stays near one ulp even for ~1e7 terms.
    """
    return math.fsum(chunk_partials(terms, chunk))


def chunk_partials(terms: np.ndarray, chunk: int = 1 << 16) -> list[float]:
    """Pairwise sums of consecutive chunks; those of chunk-aligned slices
    concatenate to the whole array's, so a chunked_sum can go slice by slice."""
    terms = np.asarray(terms, dtype=float)
    return [float(terms[i : i + chunk].sum()) for i in range(0, terms.size, chunk)]


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


def _log_erf_over_sqrt(w):
    """ln( Erf(sqrt(W)) / sqrt(W) ) evaluated stably for small W.

    Uses the Taylor series of Erf(z)/z for W < 1/4 (the direct log would
    lose digits to the cancellation ln Erf(z) - ln z), the plain logs
    otherwise.
    """
    w = np.asarray(w, dtype=float)
    small = w < 0.25
    large = ~small
    out = np.empty_like(w)
    ws = w[small]
    # Erf(z)/z * sqrt(pi)/2 = sum_k (-W)^k / (k! (2k+1)), z = sqrt(W)
    acc = np.zeros_like(ws)
    term = np.ones_like(ws)
    for k in range(1, 18):
        term = term * (-ws) / k
        acc = acc + term / (2 * k + 1)
    out[small] = np.log1p(acc) + math.log(2.0 / math.sqrt(math.pi))
    wl = w[large]
    out[large] = log_erf(np.sqrt(wl)) - 0.5 * np.log(wl)
    if out.ndim == 0:
        return float(out)
    return out


def zed(w):
    """Z(W) = (2/sqrt(pi)) sqrt(W) e^{-W} / Erf(sqrt(W)) for W > 0."""
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0):
        raise ValueError("zed requires W > 0")
    out = np.exp(-w_arr + math.log(2.0 / math.sqrt(math.pi)) - _log_erf_over_sqrt(w_arr))
    if out.ndim == 0:
        return float(out)
    return out


def one_minus_zed(w):
    """1 - Z(W), accurate in relative terms even where Z(W) -> 1.

    For small W the direct subtraction cancels (1 - Z = 2W/3 + O(W^2)); we
    instead write Z = e^{-g(W)} with g = W + ln(Erf(sqrt(W)) sqrt(pi) / (2 sqrt(W)))
    and use expm1.
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0):
        raise ValueError("one_minus_zed requires W > 0")
    g = w_arr + _log_erf_over_sqrt(w_arr) - math.log(2.0 / math.sqrt(math.pi))
    out = -np.expm1(-g)
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
# Bernoulli numbers and the dilogarithm
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


def _zeta_nonpositive(n: int) -> float:
    """zeta(-n) for integer n >= 0: zeta(-n) = (-1)^n B_{n+1}/(n+1)."""
    return (-1.0) ** n * float(_bernoulli_fraction(n + 1)) / (n + 1)


def li2_exp(mu: complex) -> complex:
    """Li2(e^mu) for Re(mu) <= 0 and |Im(mu)| < 2 pi, to ~1e-13 absolute.

    Away from the singular point mu = 0 (i.e. Re(mu) <= -1/2) the direct
    series sum e^{j mu} / j^2 converges geometrically.  Near mu = 0 the
    series stalls (|e^mu| ~ 1), so we switch to the log expansion

        Li2(e^mu) = zeta(2) + mu (1 - ln(-mu)) + sum_{k>=2} zeta(2-k) mu^k / k!

    valid for |mu| < 2 pi; zeta at non-positive integers comes from exact
    Bernoulli numbers.
    """
    mu = complex(mu)
    if mu.real > 1e-12:
        raise ValueError("li2_exp requires |e^mu| <= 1 (Re mu <= 0)")
    if abs(mu.imag) >= 2 * math.pi:
        raise ValueError("li2_exp requires |Im mu| < 2*pi")
    # Reduce the phase to (-pi, pi]; Li2(e^mu) only sees mu mod 2*pi*i.
    y = math.remainder(mu.imag, 2 * math.pi)
    mu = complex(min(mu.real, 0.0), y)

    if mu == 0:
        return complex(ZETA2, 0.0)

    if mu.real <= -0.5:
        q = abs(np.exp(mu))
        # |tail after N| <= q^{N+1} / ((N+1)^2 (1-q))
        n = 10
        while q ** (n + 1) / ((n + 1) ** 2 * (1.0 - q)) > 1e-15 and n < 300:
            n *= 2
        j = np.arange(1, n + 1)
        return complex(np.sum(np.exp(j * mu) / j**2))

    acc = complex(ZETA2) + mu * (1.0 - np.log(-mu))
    power = complex(1.0)  # mu^k / k!
    for k in range(1, 64):
        power *= mu / k
        if k >= 2:
            acc += _zeta_nonpositive(k - 2) * power
    return complex(acc)
