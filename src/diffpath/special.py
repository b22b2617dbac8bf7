"""Numerically hardened special functions shared by every other module.

Everything here is pure and deterministic, and computed with numpy and
``math`` alone (no scipy): ln Erf(sqrt W) and
l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)), from which 1 - Z, with
Z(W) = exp(-W - l) the truncated-Gaussian moment factor, and the
brackets of ln Pi(T) (differences of l) are taken.  Both kernels make one
three-way split of W (_by_branch): below W = 1/4 the Taylor series of l,
as a product of quadratics; up to W = 745 erfc(sqrt W) as
e^-W sqrt(W) sum_i v_i / (W + s_i), a rational fit in 1/W with positive
poles and weights; from there on, past erfc's underflow, erfc = 0.0 with
nothing evaluated (the tables come from tools/erf_tables.py).  Also here:
the Taylor coefficients l_k that both the kernel and the tail of ln Pi
sum, with a bound on the truncated series;
pi/2 - Si(x) for the Fourier tail of the velocity series; exact
Bernoulli numbers; the Hurwitz zeta m^s zeta(s, q) by Euler-Maclaurin,
truncated within ZETA_RTOL = 2^-80 of its value (Johansson's remainder
bound); and the one series primitive every certified sum goes through: block_sum
(compensated blocked summation of a list of ranges, packed in blocks of
BLOCK terms into kernel calls that get each range's own values),
tol_budget (tail <= tol * max(1, |value|), absolute for |value| < 1) and
certify (the x4 term-count loop that returns a SeriesValue).
"""

from __future__ import annotations

import math
import threading
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


def block_sum(terms: Callable, stops: list, *cols) -> list:
    """Compensated sums of ``terms(n, *args)`` over n = 1..stop, one per stop.

    n is a float array.  Each col of ``cols`` holds one value per range; its
    arg is the value of the range of each n, a float when the call holds one
    range, else an array like n.  Each range is cut into blocks of BLOCK
    consecutive n, packed in order into calls of at most BLOCK terms; numpy's
    pairwise sum of each block's slice and one ``math.fsum`` per range fix
    the accumulation order, so no sum depends on the packing and rounding
    stays near one ulp even for ~1e7 terms.  An empty range gives 0.0, and
    tuples of arrays from ``terms`` tuples of sums.  A range past TERM_CAP
    raises ValueError first.
    """
    if max(stops, default=0) > TERM_CAP:
        raise ValueError(f"block_sum sums at most TERM_CAP = {TERM_CAP} terms per range, not {max(stops)}")
    calls, total = [], BLOCK  # starts full, so the first block opens a call
    for i, stop in enumerate(stops):
        for lo in range(1, stop + 1, BLOCK):
            size = min(BLOCK, stop + 1 - lo)
            if total + size > BLOCK:
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
    return [tuple(map(math.fsum, zip(*p))) if p and isinstance(p[0], tuple) else math.fsum(p) for p in partials]


def _total(out):
    """The float sum of an array, or the tuple of sums of a tuple of arrays."""
    return tuple([float(a.sum()) for a in out]) if isinstance(out, tuple) else float(out.sum())


def _check_tol(tol: float) -> None:
    """Refuse a tol that no tail bound can meet, before anything is summed or sampled."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite float, not {tol!r}")


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


# The kernels' tables, derived in 60-digit mpmath by tools/erf_tables.py
# (its docstring has the derivations).
#
# erfc(sqrt W) for _W0 <= W < _ERFC_ZERO is e^-W sqrt(W) sum_i v_i / (W + s_i),
# a relative-minimax rational of degree 15 in 1/W, within 1.4e-20 of
# sqrt(pi W) erfcx(sqrt W) over the whole range: three ufunc calls on a
# (16, elements) array, where Cody's erfc takes two ranges of degree 8 and
# 5 and about 20 calls in numpy.  Every s_i >= 0 and v_i > 0, so no term
# or sum cancels.  Rows (s_i, v_i), the largest pole first and s = 0 last:
_ERFC_TABLE = np.array([
    (16.625982953166975, 3.045268542785186e-08),
    (11.580922149915926, 3.4936877838003237e-06),
    (8.241027016607408, 8.146259965442911e-05),
    (5.866281452842691, 0.0007489999008126033),
    (4.143361615785664, 0.0036322103705697666),
    (2.890854728180435, 0.011034276289801182),
    (1.9861543108624868, 0.023640513986955432),
    (1.33954556312966, 0.039026692631592835),
    (0.8831277621369714, 0.05317998406231929),
    (0.5652355776554346, 0.06315513638968588),
    (0.34700683974280966, 0.06824160075838019),
    (0.1998257624360341, 0.0694280794420737),
    (0.1032153204792167, 0.06834221663120203),
    (0.04308801755834877, 0.0664962012421923),
    (0.010367233766990419, 0.06497667430132721),
    (0.0, 0.0322020108007202),
])
# -s_i, so that -s_i - W = -(W + s_i) and its last row is -W, the argument of e^-W
_ERFC_NEG_POLES = -_ERFC_TABLE[:, :1]
_ERFC_WEIGHTS = _ERFC_TABLE[:, 1:].copy()
# erfc(sqrt W) < 2^-1075 from W = 741.3 on; from _ERFC_ZERO on it is taken as
# 0.0 with no rational evaluated
_ERFC_ZERO = 745.0
# l(W) for W < _W0 is W (l_1 + W h(W)), h = sum_{k=2}^{_K} l_k W^(k-2), with h
# _ELL_LEAD times the product of the eight quadratics W^2 + a W + b of its
# roots (near |W| = 6.6, and one at W = -67, so no factor cancels by more
# than 8% on [0, _W0]): eight ufunc calls where Horner's rule takes 36.
# W h is at most 0.034 of l_1 there, so the rounding of the product costs
# l(W) below half an ulp.  Rows (a, b):
_ELL_LEAD = -2.9074423638229054e-16
_ELL_QUADS = np.array([
    (-12.493128799667648, 45.27354065380526),
    (-9.679981096618036, 44.75365944064537),
    (-5.474798874745413, 43.67333920046259),
    (-0.5801675039474142, 41.401504919948174),
    (7.293245726456209, 43.39877433074767),
    (11.243933949051746, 45.692352875276775),
    (13.38823289653228, 46.578571686055135),
    (60.28217581916774, -451.7453334316246),
])
_ELL_A, _ELL_B = _ELL_QUADS[:, :1].copy(), _ELL_QUADS[:, 1:].copy()


# The most elements a kernel takes in one pass, and the per-thread scratch
# array each pass writes its (rows, elements) table into: at most 16 x 4096
# floats (512 KB), allocated once, so that no pass allocates (and faults in)
# a fresh table of that size.
_CHUNK = 4096
_SCRATCH = threading.local()


def _rows(k: int, n: int) -> np.ndarray:
    """A (k, n) view of this thread's scratch array, for k <= 16 rows and n <= _CHUNK."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None:
        buf = _SCRATCH.buf = np.empty(16 * _CHUNK)
    return buf[: k * n].reshape(k, n)


def _chunked(kernel: Callable, w: np.ndarray) -> np.ndarray:
    """kernel(w) for a 1-d w, in passes of at most _CHUNK elements."""
    if w.size <= _CHUNK:
        return kernel(w)
    return np.concatenate([kernel(w[i : i + _CHUNK]) for i in range(0, w.size, _CHUNK)])


def _by_branch(w, small: Callable, mid: Callable, far: Callable):
    """The one split of the kernels: small(W) where W < _W0 = 1/4, mid(W) where
    _W0 <= W < _ERFC_ZERO = 745, far(W) elsewhere (NaN included), a float for
    a 0-d W.  Each form runs in passes of at most _CHUNK elements (_chunked)
    on a 1-d array of only the elements that take it (w itself, raveled, when
    all do), so no element's value depends on the array it sits in."""
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    below = flat < _W0
    live = flat < _ERFC_ZERO
    n_below, n_live = np.count_nonzero(below), np.count_nonzero(live)
    out = None
    # _W0 < _ERFC_ZERO: below lies within live, and live ^ below takes mid
    for n, take, form in ((n_below, below, small), (n_live - n_below, live ^ below, mid),
                          (flat.size - n_live, ~live, far)):
        if n == flat.size:
            out = _chunked(form, flat)
            break
        if n:
            if out is None:
                out = np.empty_like(flat)
            out[take] = _chunked(form, flat[take])
    if w.ndim == 0:
        return float(out[0])
    return out.reshape(w.shape)


def _ell_series_pass(w: np.ndarray) -> np.ndarray:
    """sum_{k<=_K} l_k w^k as w (l_1 + w _ELL_LEAD prod_i (w^2 + a_i w + b_i)),
    w a 1-d array of at most _CHUNK elements, the factors multiplied in order of i."""
    f = np.add(_ELL_A, w, out=_rows(len(_ELL_A), w.size))
    f *= w
    f += _ELL_B
    t = np.multiply.reduce(f, axis=0)
    t *= w
    t *= _ELL_LEAD
    t += _ELL[0]
    t *= w
    return t


def _neg_erfc_pass(w: np.ndarray) -> np.ndarray:
    """-erfc(sqrt W) for _W0 <= W < _ERFC_ZERO, at most _CHUNK elements.  e^-W
    is taken of W itself, not of the square of a rounded sqrt(W), and each
    element takes the same ufunc calls whatever the array, so none depends on
    its neighbours."""
    t = np.subtract(_ERFC_NEG_POLES, w, out=_rows(len(_ERFC_NEG_POLES), w.size))
    e = np.exp(t[-1])
    # -v_i / (W + s_i), summed from the largest pole, the smallest term, on;
    # np.add.reduce adds the rows of t one after another, but sums a lone
    # column pairwise, so one element is summed as one of two
    np.divide(_ERFC_WEIGHTS, t, out=t)
    if w.size == 1:
        t = np.repeat(t, 2, axis=1)
    r = np.add.reduce(t, axis=0)[: w.size]
    r *= np.sqrt(w)
    r *= e
    return r


# The small and mid forms of ln Erf(sqrt W): ln(2/sqrt(pi)) + (1/2) ln W + l(W),
# where l is at most 0.08 and keeps its relative accuracy, so the sum is
# within about an ulp; and log1p(-erfc), which keeps the 1 - Erf tail where
# Erf rounds to 1
def _log_erf_small(w: np.ndarray) -> np.ndarray:
    out = np.log(w)
    out *= 0.5
    out += _LOG_2_OVER_SQRT_PI
    out += _ell_series_pass(w)
    return out


def _log_erf_mid(w: np.ndarray) -> np.ndarray:
    out = _neg_erfc_pass(w)
    return np.log1p(out, out=out)


def _log_erf_sqrt(w):
    """ln Erf(sqrt W) for W > 0, stable for both tiny and large W: _log_erf_small,
    _log_erf_mid, and -0.0 where erfc is 0.0."""
    return _by_branch(w, _log_erf_small, _log_erf_mid, lambda w: np.full(w.size, -0.0))


def _log_erf_over_sqrt(w):
    """l(W) = ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)) for W > 0.

    This is ln(Erf(sqrt W) / sqrt W) less its W -> 0 limit ln(2/sqrt(pi)),
    so it keeps relative accuracy as W -> 0 (l = -W/3 + O(W^2)).  Small W
    take the series sum_{k<=_K} l_k W^k (_ell_series_pass; the direct logs
    would cancel), truncated within _series_remainder(0, W), below
    1e-20 |l(W)|; mid W log1p(-erfc(sqrt W)) - (1/2) ln W - ln(2/sqrt(pi)),
    where sqrt W >= 1/2 keeps every log finite; far W, where erfc is 0.0,
    -(1/2) ln W - ln(2/sqrt(pi)).
    """
    return _by_branch(w, _ell_series_pass, lambda w: _log_erf_mid(w) - 0.5 * np.log(w) - _LOG_2_OVER_SQRT_PI,
                      lambda w: -0.5 * np.log(w) - _LOG_2_OVER_SQRT_PI)


def one_minus_zed(w):
    """1 - Z(W), accurate in relative terms even where Z(W) -> 1.

    For small W the direct subtraction cancels (1 - Z = 2W/3 + O(W^2)); we
    instead write Z = e^{-g(W)} with g = W + l(W), l(W) =
    ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)) = -W/3 + O(W^2) from
    _log_erf_over_sqrt, and use expm1.  g keeps its relative accuracy down
    to the smallest W, so 1 - Z does too, and W = 0.0 (a W_j that
    underflows) gives 1 - Z(0) = 0.0.
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr < 0):
        raise ValueError("one_minus_zed requires W >= 0")
    out = -np.expm1(-(w_arr + _log_erf_over_sqrt(w_arr)))
    if out.ndim == 0:
        return float(out)
    return out


def _sine_integral_tail(x: float) -> float:
    """pi/2 - Si(x) = int_x^inf sin(t) / t dt for a float x > 0, in ``math``.

    Up to x = 3 the power series of Si, whose terms and -pi/2 are summed
    exactly by fsum, so the difference is not taken of two rounded numbers;
    above, -Im(e^-ix E1(ix)), with E1(ix) e^ix the continued fraction
    1/(ix + 1 - 1/(ix + 3 - 4/(ix + 5 - 9/(...)))) evaluated from its
    (8 + 320/x)-th level back to the first: from about 160/x levels on its
    value no longer moves.  Within a few ulp of max(|value|, min(1, 1/x))
    over [1e-8, 1e8] (tests/test_velocity.py).
    """
    if x <= 3.0:
        x2 = x * x
        term, terms, k = x, [x, -0.5 * math.pi], 0
        while abs(term) > 1e-18:
            k += 1
            term *= -x2 / ((2 * k) * (2 * k + 1))
            terms.append(term / (2 * k + 1))
        return -math.fsum(terms)
    z = complex(0.0, x)
    t = 0.0
    for k in range(8 + int(320.0 / x), 0, -1):
        t = k * k / (z + (2 * k + 1) - t)
    return -(complex(math.cos(x), -math.sin(x)) / (z + 1.0 - t)).imag


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
