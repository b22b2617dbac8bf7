"""Numerically hardened special functions shared by every other module.

Everything here is pure and deterministic: ln Erf(sqrt W) and
l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)), from which 1 - Z, with
Z(W) = exp(-W - l) the truncated-Gaussian moment factor, and the
brackets of ln Pi(T) (differences of l) are taken, one split at W = 1/4
between the two forms of each (_by_branch); the Taylor
coefficients l_k that both the kernel and the tail of ln Pi sum, with a
bound on the truncated series; exact Bernoulli numbers; the Hurwitz
zeta m^s zeta(s, q) by Euler-Maclaurin in numpy and ``math``, truncated
within ZETA_RTOL = 2^-80 of its value (Johansson's remainder bound), so no
value in this module needs scipy but the erf/erfc of the kernels;
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


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI_MAX = 60


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], tan x = sum_k T_k x^(2k-1) / (2k-1)!, by Brent and
    Harvey's integer recurrence ("Fast computation of Bernoulli, tangent and
    secant numbers", 2011)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


_TANGENT = _tangent_numbers(_BERNOULLI_MAX // 2)


def _bernoulli_fraction(k: int) -> Fraction:
    """B_k exactly (B_1 = -1/2): B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), 0 for odd k > 1."""
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    n = k // 2
    return Fraction((-1) ** (n - 1) * 2 * n * _TANGENT[n], 4**n * (4**n - 1))


def bernoulli(k: int) -> float:
    """Bernoulli number B_k (B_1 = -1/2 convention), exact via rationals."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > _BERNOULLI_MAX:
        raise ValueError(f"unsupported Bernoulli index {k!r}")
    return float(_bernoulli_fraction(int(k)))


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

# Euler-Maclaurin for zeta(s, q): N direct terms, then M <= _ZETA_M Bernoulli
# terms at Q = q + N, whose remainder is at most ZETA_RTOL of the value
_ZETA_M = 30
ZETA_RTOL = 2.0**-80
# c_j = B_2j / (2j)!, j = 1.._ZETA_M
_ZETA_C = [float(_bernoulli_fraction(2 * j) / math.factorial(2 * j)) for j in range(1, _ZETA_M + 1)]
# ln(4 / 2^-81): N and M are chosen for half of ZETA_RTOL, which leaves room
# for the rounding of that choice
_ZETA_LOG_TARGET = 83.0 * math.log(2.0)
# kappa_M = exp(_ZETA_LOG_TARGET / 2M) / (2 pi), M = 1.._ZETA_M
_ZETA_KAPPA = [math.exp(_ZETA_LOG_TARGET / (2 * j)) / (2.0 * math.pi) for j in range(1, _ZETA_M + 1)]
# the array path: Q^(1 - p), p = 0, 1, 2j, times 1, 1/2 and c_j, against the
# rows 1/(s - 1), 1 and (s)_{2j-1}
_ZETA_Q_POW = np.array([1.0, 0.0] + [1.0 - 2.0 * j for j in range(1, _ZETA_M + 1)])
_ZETA_COEF = np.array([1.0, 0.5] + _ZETA_C)
# (s)_{2j+1} = (s)_{2j-1} (s + 2j - 1)(s + 2j), and (s + 2j - 1)(s + 2j) = (s + 2j - 1/2)^2 - 1/4
_ZETA_PAIRS = (2.0 * np.arange(1, _ZETA_M) - 0.5)[:, None]
# s stays below this, so (s)_{2 _ZETA_M - 1} stays in the float range and the
# up to about 0.16 s direct terms of a small q stay few
ZETA_S_MAX = 2.0**16


def hurwitz_zeta(s, q, m=1.0):
    """m^s zeta(s, q) = sum_{k>=0} (m / (q + k))^s for 1 < s < ZETA_S_MAX and 0 < m <= q.

    Float s and q give a float.  Otherwise m is a float and the result is
    the table over q and s, of shape q.shape + s.shape: the tail of ln Pi
    takes one row of s at two q.  The domain is checked in full only where
    s and q are floats and m = 1 (the path that takes the same sum in
    ``math``); else only s < ZETA_S_MAX.  Euler-Maclaurin with N direct
    terms, Q = q + N and M Bernoulli terms,

        zeta(s, q) = sum_{k<N} (q + k)^-s + Q^(1-s) [1/(s - 1) + 1/(2Q)
                     + sum_{j<=M} B_2j / (2j)! (s)_{2j-1} Q^-2j] + R,

    where |R| <= 4 Q^(1-s) (s)_{2M} / ((2 pi Q)^2M (s + 2M - 1)) (Johansson,
    Numer. Algorithms 69 (2015) 253, Theorem 1).  The value is at least
    m^s q^-s and at least m^s q^(1-s) / (s - 1) (integral test), and
    (s)_{2M} <= L^2M with L = s + M - 1/2 (AM-GM); N and M, from the
    largest s and that q (_zeta_plan), keep |R| within ZETA_RTOL / 2 =
    2^-81 of the value.  A table takes each q's own N and the largest M of
    its q's: where a plan takes M < _ZETA_M it leaves
    2 pi Q >= s + 2 _ZETA_M - 2, so each further Bernoulli term only lowers
    the bound.

    Each power is (m / a)^s for a = q + k or Q, taken of exact bases as
    mant^s (a 2^-e)^-s with m = mant 2^e, mant in [1/2, 1), so its rounding
    does not grow with s ln a; from s = 512 on it is the 2^k-th power of
    that of s 2^-k < 512, which keeps both factors normal, and its
    rounding grows as 2^k (at most 2^7).  A value below the float range,
    or within a factor Q / (s - 1) of its bottom, may come out 0.0 or
    subnormal.
    """
    if isinstance(s, (float, int)) and isinstance(q, (float, int)) and m == 1.0:
        return _hurwitz_zeta_scalar(float(s), float(q))
    s, q = np.asarray(s, dtype=float), np.asarray(q, dtype=float)
    sv = s.ravel()
    s_max = max(sv.tolist())
    if not s_max < ZETA_S_MAX:
        raise ValueError(f"hurwitz_zeta requires s < {ZETA_S_MAX:g}, not s={s_max!r}")
    mant, e = math.frexp(m)
    scale = math.ldexp(1.0, -e)
    # each q's Q = q + N, and the bases a 2^-e of Q, then of q + k, k = N - 1 .. 0
    big_q, ns, m_max, direct = [], [], 1, []
    for qi in q.ravel().tolist():
        n, m_terms = _zeta_plan(s_max, qi)
        big_q.append(qi + n)
        ns.append(n)
        m_max = max(m_max, m_terms)
        direct += [(qi + k) * scale for k in range(n - 1, -1, -1)]
    # rows 1/(s - 1), 1, then s, (s + 1)(s + 2), ... multiplied out in place into (s)_{2j-1}
    rows = np.empty((m_max + 2, sv.size))
    np.divide(1.0, sv - 1.0, out=rows[0])
    rows[1] = 1.0
    rows[2] = sv
    pairs = rows[3:]
    np.add(sv, _ZETA_PAIRS[: m_max - 1], out=pairs)
    pairs *= pairs
    pairs -= 0.25
    np.multiply.accumulate(rows[2:], axis=0, out=rows[2:])
    # Q [1/(s - 1) + 1/(2Q) + sum_j c_j (s)_{2j-1} Q^-2j] for each q
    t_pow = np.power.outer(big_q, _ZETA_Q_POW[: m_max + 2])
    t_pow *= _ZETA_COEF[: m_max + 2]
    out = t_pow @ rows
    # (m / a)^s for a = each Q, then each q's q + k
    k_sq = max(0, math.frexp(s_max)[1] - 9)
    part = sv * 0.5**k_sq if k_sq else sv
    terms = np.power.outer([a * scale for a in big_q] + direct, -part)
    terms *= np.power(mant, part)
    for _ in range(k_sq):
        terms *= terms
    out *= terms[: len(ns)]
    # the direct terms, the smallest first, after the Q part
    start = len(ns)
    for i, n in enumerate(ns):
        if n:
            out[i] += np.add.reduce(terms[start : start + n])
            start += n
    if s.ndim == 0 and q.ndim == 0:
        return float(out[0, 0])
    return out.reshape(q.shape + s.shape)


def _zeta_plan(s: float, q: float) -> tuple[int, int]:
    """(N, M) for one q and the s up to this one.

    Where M = _ZETA_M has kappa_M L <= q, L = s + M - 1/2: N = 0 and the
    least such M (this bounds |R| after dropping the factor
    (q / Q)^(s - 1) <= 1 below).  Else M = _ZETA_M and, with
    sigma = s + 2M - 1, the least N with Q = q + N >= q exp(y): at one s,
    |R| is within 2^-81 of both lower bounds of the value (the integral
    test's after dropping (s - 1) / sigma <= 1, and q^-s) once

        y sigma >= x + min(0, ln(q / sigma)),  x = 83 ln 2 + 2M ln(L / (2 pi q)).

    Where x <= 2M - 1 (so also at every smaller s), y grows with s, so the
    largest s needs the most terms.  Elsewhere y bounds x / sigma at every
    s' <= s: ln L' <= ln L + (L' - L) / L gives
    x(s') / sigma' <= 2M / L + (x - 2M sigma / L) / sigma', largest at
    s' = s (x / sigma) where x < 2M sigma / L, else as s' -> 1
    (x / 2M - (s - 1) / L).
    """
    if _ZETA_KAPPA[-1] * (s + _ZETA_M - 0.5) <= q:
        for m_terms, kappa in enumerate(_ZETA_KAPPA, 1):
            if kappa * (s + m_terms - 0.5) <= q:
                return 0, m_terms
    big_l, sig = s + _ZETA_M - 0.5, s + 2 * _ZETA_M - 1
    x = _ZETA_LOG_TARGET + 2 * _ZETA_M * math.log(big_l / (2.0 * math.pi * q))
    if x <= 2 * _ZETA_M - 1:
        y = (x + min(0.0, math.log(q / sig))) / sig
    elif x * big_l < 2 * _ZETA_M * sig:
        y = x / sig
    else:
        y = x / (2 * _ZETA_M) - (s - 1.0) / big_l
    return max(math.ceil(q * math.exp(y) - q), 0), _ZETA_M


def _hurwitz_zeta_scalar(s: float, q: float) -> float:
    """hurwitz_zeta(s, q) for float s and q: the same plan and sum in ``math``."""
    if not (1.0 < s < ZETA_S_MAX and q > 0.0):
        raise ValueError(f"hurwitz_zeta requires 1 < s < {ZETA_S_MAX:g} and q > 0, not s={s!r}, q={q!r}")
    n, m_terms = _zeta_plan(s, q)
    big_q = q + n
    t2 = 1.0 / (big_q * big_q)
    # sum_j c_j (s)_{2j-1} Q^-2j by Horner's rule in Q^-2
    acc = _ZETA_C[m_terms - 1]
    for j in range(m_terms - 1, 0, -1):
        acc = _ZETA_C[j - 1] + (s + 2 * j - 1) * (s + 2 * j) * t2 * acc
    out = big_q ** (1.0 - s) * (1.0 / (s - 1.0) + 0.5 / big_q + s * t2 * acc)
    if n:
        out += math.fsum([(q + k) ** -s for k in range(n)])
    return out
