"""Mean-square-velocity series for the free and restricted path measures.

The common object is

    S(tau) = sum_j j^{-2} [sin(j pi (t0 + tau)) - sin(j pi t0)]^2 * w_j

with w_j = 1 for the unrestricted (Feynman) measure and
w_j = 1 - Z(W_j), W_j = (Abar / j^(alpha-1))^2, for the restricted one.
<v^2> at resolution eps is (2 hbar / m T) (T / pi eps)^2 S(eps / T).

Accuracy notes: a naive truncation of these series needs ~1e8 terms for
1e-9 absolute accuracy because the tail only decays like 1/N.  Instead
the partial sum is corrected and bounded analytically:

* the free series sums to S_F(tau) = (pi^2/2) tau (1 - tau) exactly, for
  every t0, which v2_feynman and scan_v2 use;
* s_diff sums the head of S_D = sum_j w_j s_j, s_j = sin^2(j pi tau)/j^2,
  up to n = 4096 * 4^k and certifies the tail R_n by the tighter of two
  bounds.  W-form: the weights 1 - Z(W_j) <= min(1, 2 W_j / 3) give a
  power-law integral bound, tight once n is well past j* = Abar^(1/(alpha-1)).
  Z-form: R_n = [S_F - sum_{j<=n} s_j] - sum_{j>n} Z_j s_j, and with
  f(t) = Z(W(t))/t^2 and sin^2 = (1 - cos(2 pi j tau))/2 the last sum is
  (1/2) int_{n+1/2}^inf f up to the midpoint-rule error
  (6 + k2)/(144 (n - 3/2)^3), plus (1/2) C_Z, C_Z = sum_{j>n} f(j) cos(j theta),
  theta = 2 pi tau.  k2 = 2 alpha (2 alpha + 1) bounds |(w/t^2)''| t^4 / w
  because W w'/w and |W (W w')'|/w are at most 1 for w = 1 - Z.  C_Z is 0
  within 2 sup f / sin(pi tau) (Abel; f rises once, then falls;
  sup f <= min(1/(n+1)^2, c/j*^2), c = max(1, 1.34 (p/e)^p), p = 1/2 + 1/(alpha-1),
  since Z(W) <= 2 sqrt(W/pi) e^-W / Erf(1) for W >= 1), or the exact free
  cosine sum minus C_w = sum_{j>n} u(j) cos(j theta), u = w/t^2 decreasing:
  C_w is -u(n+1) D_n (D_n the Dirichlet kernel) within
  int_{n+1}^inf |u''| / (2 sin^2(pi tau)) (Abel summation twice).  At
  small tau, C_w or C_Z is the Fourier integral from n+1/2 (QUADPACK,
  error estimate included) within the midpoint-rule error, bounded
  through k2 and the integrals and total variations of u and f.

The head's two factors each depend on one side only: the weights
w_j = 1 - Z(W_j) on (Abar, alpha), the sines s_j on tau.  So s_diff reads
both, for j <= special.BLOCK = 2^16, from read-only tables instead of
recomputing them per eps, per parameter set and per term count.  One rule
(``_table``) keeps both stores, the weights keyed by (Abar, alpha) and the
sines by tau: a table is filled on first use, extended (not recomputed)
when a later call needs more modes, and replaced whole, never edited; a
store that a new table would take past its bound starts over empty.  The
weight store holds at most BLOCK elements (512 KB: one full table, or
sixteen of s_diff's 4096-entry start), the sine store 2^18 (2 MB: 64 tau
at 4096).  A scan over A and alpha at one eps grid thus evaluates each
sine once.  A store and its tables are read once per use, so a thread
whose fill races another's may drop that table, which costs a refill and
no wrong value.  Blocks past BLOCK and u(n+1) for n >= BLOCK bypass the
tables.  Each entry is the kernel's own expression on the same j, so the
head sums are bit-identical with and without the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .paths import ModelParams
from .special import (BLOCK, ConvergenceError, SeriesValue, _check_tol, _sine_integral_tail, block_sum,
                      certify, hurwitz_zeta, one_minus_zed, tol_budget)

__all__ = [
    "RegimeReport",
    "v2_feynman",
    "s_diff",
    "v2_diff",
    "regime_report",
    "uv_plateau_scale",
    "crossing_eps",
    "FractalRegimeError",
    "ScanRow",
    "scan_v2",
]


@dataclass(frozen=True)
class RegimeReport:
    """Two-regime characterization of the restricted <v^2>.

    v2_uv = (pi A / T) sqrt(hbar / m T) is the scale of the UV plateau, not
    its value (see uv_plateau_scale); c_coeff the low-resolution correction
    coefficient C = (4/pi^3)(1/A)(hbar T/m)^{3/2}; epsilon_D separates the
    regimes; p_uv = m sqrt(v2_uv).  beta = (2/pi)^2 / p_uv^2 is the
    coefficient of the modified commutator [x, p] = hbar (1 - beta p^2),
    valid below p_D = sqrt(hbar m / epsilon_D).
    """

    v2_uv: float
    c_coeff: float
    epsilon_D: float
    p_uv: float
    beta: float
    p_D: float


def _cos_over_t2_integral(a: float, theta: float) -> float:
    """int_a^inf cos(theta t) / t^2 dt = cos(theta a) / a - theta (pi/2 - Si(theta a)), a > 0."""
    return math.cos(theta * a) / a - theta * _sine_integral_tail(theta * a)


def _s_feynman_exact(tau: float) -> float:
    """(pi^2/2) tau (1 - tau), the exact sum of the free series at any t0."""
    return 0.5 * math.pi**2 * tau * (1.0 - tau)


def _weight_terms(params: ModelParams, j: np.ndarray) -> np.ndarray:
    """w_j = 1 - Z(W_j)."""
    return one_minus_zed(params.mode_w(j))


def _sine_terms(tau: float, j: np.ndarray) -> np.ndarray:
    """s_j = sin^2(j pi tau) / j^2."""
    return (np.sin(j * (math.pi * tau)) / j) ** 2


# The head's two stores (module docstring): key -> read-only table of the
# entries j = 1..len, at most ``cap`` elements over all keys.
_WEIGHTS = SimpleNamespace(cap=BLOCK, tables={})  # (Abar, alpha) -> w_j
_SINES = SimpleNamespace(cap=1 << 18, tables={})  # tau -> s_j


def _table(store: SimpleNamespace, key, n: int, fill) -> np.ndarray:
    """Entries j = 1..n, n <= BLOCK, of key's table in ``store``, extended by
    ``fill(j)`` for the missing j if it is short."""
    tables = store.tables
    table = tables.get(key, np.empty(0))
    if table.size < n:
        table = np.concatenate((table, fill(np.arange(table.size + 1, n + 1, dtype=float))))
        table.flags.writeable = False
        tables = {k: t for k, t in tables.items() if k != key}
        if sum(t.size for t in tables.values()) + table.size > store.cap:
            tables = {}
        tables[key] = table
        store.tables = tables
    return table[:n]


def _head_terms(tau: float, params: ModelParams, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w_j s_j and s_j, s_j = sin^2(j pi tau) / j^2, evaluating the sines once.

    j is one block of consecutive indices; within the tables' reach its
    weights and sines are slices of the tables, and the returned s_j is
    read-only.
    """
    lo, hi = int(j[0]) - 1, int(j[-1])
    if hi <= BLOCK:
        s = _table(_SINES, tau, hi, lambda j: _sine_terms(tau, j))[lo:]
        return s * _table(_WEIGHTS, (params.a_bar, params.alpha), hi, lambda j: _weight_terms(params, j))[lo:], s
    s = _sine_terms(tau, j)
    return s * _weight_terms(params, j), s


def _zed_scalar(w: float) -> float:
    """Z(W) = (2/sqrt(pi)) sqrt(W) e^{-W} / Erf(sqrt W) for one float, by math, not numpy.

    QUADPACK calls it a few hundred times per integral, W = 0 (Z = 1) included.
    """
    r = math.sqrt(w)
    return 2.0 / math.sqrt(math.pi) * r * math.exp(-w) / math.erf(r) if w > 0.0 else 1.0


_Z_INTEGRALS: dict[tuple[float, float, float], tuple[float, float]] = {}


def _z_integral(a: float, a_bar: float, alpha: float) -> tuple[float, float]:
    """int_a^inf Z(W(t)) / t^2 dt = (1/(2 beta j*)) int_0^W(a) Z(W) W^(1/(2 beta) - 1) dW,
    with its quadrature error.  Z(800) underflows, so W stops there; no tau
    dependence, so a scan computes it once per n (up to 256 keys are kept)."""
    if (a, a_bar, alpha) not in _Z_INTEGRALS:
        from scipy.integrate import quad

        beta = alpha - 1.0
        pref = a_bar ** (-1.0 / beta) / (2.0 * beta)
        if not 0.0 < pref < math.inf:  # no quadrature for a product that cannot be formed
            raise OverflowError("Z integral prefactor beyond the float range")
        w_top = min((a_bar / a**beta) ** 2, 800.0)
        val, err = quad(_zed_scalar, 0.0, w_top, weight="alg", wvar=(0.5 / beta - 1.0, 0.0), limit=200)
        if not math.isfinite(pref * (val + err)):
            raise OverflowError("Z integral beyond the float range")
        if len(_Z_INTEGRALS) >= 256:
            _Z_INTEGRALS.clear()
        _Z_INTEGRALS[a, a_bar, alpha] = (pref * val, pref * abs(err))
    return _Z_INTEGRALS[a, a_bar, alpha]


def _w_cosine_integral(a: float, a_bar: float, alpha: float, theta: float, epsabs: float) -> tuple[float, float]:
    """int_a^inf (1 - Z(W(t))) cos(theta t) / t^2 dt by QUADPACK's Fourier routine,
    with its error estimate (inf where QUADPACK reports a failure)."""
    from scipy.integrate import quad

    beta = alpha - 1.0
    out = quad(lambda t: (1.0 - _zed_scalar((a_bar / t**beta) ** 2)) / (t * t), a, np.inf,
               weight="cos", wvar=theta, epsabs=epsabs, limlst=100, full_output=1)
    return out[0], (abs(out[1]) if len(out) == 3 else math.inf)


def _z_form(tau: float, params: ModelParams, n: int, head: float, free_head: float,
            budget: float) -> tuple[float, float]:
    """S_D and its error bound by the Z-form (module docstring).

    Of the estimates of the cosine sum C_Z, the first whose bound meets
    ``budget`` is kept, else the tightest.  Near alpha = 1, with a Z
    integral past the float range, no estimate: ``head`` and an inf bound.
    """
    abar = params.a_bar
    alpha = params.alpha
    beta = alpha - 1.0
    k2 = 2.0 * alpha * (2.0 * alpha + 1.0)  # |(w/t^2)''| <= k2 w / t^4
    a = n + 0.5
    theta = 2.0 * math.pi * tau
    sin_h = math.sin(math.pi * tau)
    rest = _s_feynman_exact(tau) - free_head  # sum_{j>n} s_j
    try:
        i_z, i_err = _z_integral(a, abar, alpha)
    except OverflowError:
        return head, math.inf
    base = (6.0 + k2) / (144.0 * (n - 1.5) ** 3) + 0.5 * i_err
    p = 0.5 + 1.0 / beta
    try:
        z_peak = max(1.0, 1.34 * (p / math.e) ** p) * abar ** (-2.0 / beta)  # >= sup Z/t^2
    except OverflowError:  # Z/t^2 <= 1/t^2 still holds
        z_peak = math.inf

    def w_moment(x: float, k: int) -> float:
        """>= int_x^inf (1 - Z) t^-k dt, from 1 - Z <= min(1, 2 W / 3)."""
        return min(x ** (1 - k) / (k - 1), (2.0 / 3.0) * abar**2 * x ** (1 - k - 2 * beta) / (k - 1 + 2 * beta))

    f_c = hurwitz_zeta(2.0, n + 1.0) - 2.0 * rest  # sum_{j>n} cos(j theta) / j^2
    # (1 - Z)/t^2 at n + 1
    w_1 = (_table(_WEIGHTS, (abar, alpha), n + 1, lambda j: _weight_terms(params, j))[n] if n < BLOCK
           else _weight_terms(params, np.float64(n + 1.0)))
    u_1 = float(w_1) / (n + 1.0) ** 2
    d_n = math.sin(a * theta) / (2.0 * sin_h)  # Dirichlet kernel
    estimates = [
        (0.0, 2.0 * min(1.0 / (n + 1.0) ** 2, z_peak) / sin_h),  # Abel on Z/t^2
        (f_c + u_1 * d_n, k2 * w_moment(n + 1.0, 4) / (2.0 * sin_h**2)),  # Abel twice on (1 - Z)/t^2
    ]
    c_hat, c_err = next((e for e in estimates if base + 0.5 * e[1] <= budget), min(estimates, key=lambda e: e[1]))
    # Fourier integral, within the midpoint-rule error on u cos(theta t) for
    # u = (1 - Z)/t^2 (e_w) or u = Z/t^2 (e_z)
    u_a = min(1.0, (2.0 / 3.0) * (abar / a**beta) ** 2) / a**2
    s_z = min(1.0 / a**2, z_peak)
    e_w = (k2 * w_moment(n - 0.5, 4) + 2.0 * theta * (u_a + k2 * w_moment(a, 4))
           + theta**2 * (w_moment(a, 2) + u_a)) / 24.0
    e_z = ((6.0 + k2) / (3.0 * (n - 0.5) ** 3) + 2.0 * theta * (2.0 * s_z + (6.0 + k2) / (3.0 * a**3))
           + theta**2 * (i_z + i_err + 2.0 * s_z)) / 24.0
    e_mid = min(e_w, e_z)
    if base + 0.5 * c_err > budget > base + 0.5 * e_mid:
        q, q_err = _w_cosine_integral(a, abar, alpha, theta, 0.5 * (budget - base - 0.5 * e_mid))
        if e_mid + q_err < c_err:
            c_hat = (f_c if e_w <= e_z else _cos_over_t2_integral(a, theta)) - q
            c_err = e_mid + q_err
    return head + rest - 0.5 * (i_z - c_hat), base + 0.5 * c_err


def s_diff(tau: float, params: ModelParams, tol: float = 1e-10) -> SeriesValue:
    """Restricted-measure series sum_j j^{-2} sin^2(j pi tau) (1 - Z(W_j)).

    t0 is fixed to 0 for the restricted measure (mean velocity at the
    origin); the free series does not depend on t0.  Tail bounds:
    module docstring; where the W-form meets tol the value is the head sum.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    if params.alpha <= 1:
        raise ValueError("s_diff requires alpha > 1")
    _check_tol(tol)
    if tau == 0.0:
        return SeriesValue(0.0, 0, 0.0, True)
    abar = params.a_bar
    if not math.isfinite(abar * abar):
        raise ValueError("s_diff requires a finite Abar^2 = m pi^2 A^2 / (4 hbar T)")
    alpha = params.alpha
    j_turn = 1.0 / (math.pi * tau)  # sin^2(j pi tau) <= min(1, (j pi tau)^2)
    # W-form tail: terms <= (2/3) Abar^2 * min(1, (pi tau j)^2) * j^{-2 alpha},
    # a piecewise integral over j > n, split at j_turn.
    pref = (2.0 / 3.0) * abar * abar
    p_low = 2.0 * (alpha - 1.0)  # exponent while sin^2 ~ (j pi tau)^2
    p_high = 2.0 * alpha

    def evaluate(n: int) -> tuple[float, float]:
        value, free_head = block_sum(lambda j: _head_terms(tau, params, j), [n])[0]
        hi_start = max(float(n), j_turn)
        tail = pref * hi_start ** (1.0 - p_high) / (p_high - 1.0)
        if j_turn > n:
            if abs(p_low - 1.0) < 1e-9:
                seg = math.log(j_turn / n)
            else:
                seg = (j_turn ** (1.0 - p_low) - float(n) ** (1.0 - p_low)) / (1.0 - p_low)
            tail += pref * (math.pi * tau) ** 2 * seg
        budget = tol_budget(value, tol)
        if not tail <= budget:
            z_value, z_tail = _z_form(tau, params, n, value, free_head, budget)
            if z_tail < tail:
                value, tail = z_value, z_tail
        return value, tail

    return certify(evaluate, tol, 1 << 12)


def _v2_prefactor(eps: float, params: ModelParams) -> float:
    """(2 hbar / m T)(T / pi eps)^2; ValueError where it overflows, as ModelParams
    refuses an Abar out of range."""
    eps = float(eps)  # float arithmetic: an overflow gives inf or OverflowError, no numpy warning
    try:
        pref = (2.0 * params.hbar / (params.m * params.T)) * (params.T / (math.pi * eps)) ** 2
    except OverflowError:
        pref = math.inf
    if pref == math.inf:
        raise ValueError(
            f"<v^2> prefactor 2 hbar / (m T) (T / (pi eps))^2 overflows at "
            f"m={params.m!r}, hbar={params.hbar!r}, T={float(params.T)!r}, eps={eps!r}"
        )
    return pref


def _check_eps(eps: float, params: ModelParams) -> None:
    if not 0.0 < eps < params.T:
        raise ValueError("eps must lie in (0, T)")


def v2_feynman(eps: float, params: ModelParams) -> float:
    """<v^2> at resolution eps for the free measure, exactly (hbar / m eps)(1 - eps / T)."""
    _check_eps(eps, params)
    return _v2_prefactor(eps, params) * _s_feynman_exact(eps / params.T)


def v2_diff(eps: float, params: ModelParams, tol: float = 1e-9) -> float:
    """<v^2> at resolution eps for the restricted measure."""
    _check_eps(eps, params)
    s = s_diff(eps / params.T, params, tol)
    if not s.converged:
        raise ConvergenceError("s_diff did not converge")
    return _v2_prefactor(eps, params) * s.value


class FractalRegimeError(ValueError):
    """alpha <= 2: the restricted velocity is not bounded."""


def regime_report(params: ModelParams) -> RegimeReport:
    """UV plateau scale, low-resolution correction coefficient, scales and
    the GUP coefficient beta with its validity boundary p_D.

    Requires alpha > 2 (bounded velocity); the identity
    v2_uv * c_coeff = (4/pi^2)(hbar/m)^2 holds with A cancelling, so beta
    equals c_coeff / hbar^2 (same algebra, two routes).
    """
    if params.alpha <= 2:
        raise FractalRegimeError("velocity is not bounded for alpha <= 2")
    v2_uv = uv_plateau_scale(params)
    eps_d = params.eps_d
    p_uv = params.m * math.sqrt(v2_uv)
    return RegimeReport(
        v2_uv=v2_uv,
        c_coeff=(4.0 / math.pi**3) / params.amplitude * (params.hbar * params.T / params.m) ** 1.5,
        epsilon_D=eps_d,
        p_uv=p_uv,
        beta=(2.0 / math.pi) ** 2 / p_uv**2,
        p_D=math.sqrt(params.hbar * params.m / eps_d),
    )


def uv_plateau_scale(params: ModelParams) -> float:
    """(pi A / T) sqrt(hbar / m T) without the alpha > 2 gate.

    A scale, not the plateau: as eps -> 0 the restricted <v^2> tends to
    exactly (2 hbar / m T) sum_j (1 - Z(W_j)), W_j = (Abar / j^(alpha-1))^2,
    which exists for any alpha > 3/2.  This scale equals (2 hbar / m T) Abar,
    while the exact sum grows like Abar^(1/(alpha-1)), so the two share
    their growth only at alpha = 2; at A = 10 the limit is 1.04 times the
    scale for alpha = 2.1 and 0.25 times it for alpha = 3.  The source
    abstract does not say where the alpha-independent form comes from.
    Useful as a comparison scale even when regime_report refuses.
    """
    a = params.amplitude
    return (math.pi * a / params.T) * math.sqrt(params.hbar / (params.m * params.T))


def crossing_eps(params: ModelParams) -> float:
    """eps where v2_diff falls to 50% of v2_feynman (regime boundary).

    The ratio v2_diff/v2_feynman is monotone in eps for practical
    parameters; bisection on log(eps) over [min(1e-6, 1e-3 eps_D), T/2].
    """
    lo, hi = min(1e-6, 1e-3 * params.eps_d), 0.5 * params.T

    def ratio(eps: float) -> float:
        return v2_diff(eps, params, 1e-7) / v2_feynman(eps, params)

    r_lo, r_hi = ratio(lo), ratio(hi)
    if not (r_lo < 0.5 < r_hi):
        raise ValueError(f"crossing not bracketed by [{lo!r}, {hi!r}]")
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if ratio(mid) < 0.5:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-6:
            break
    return math.sqrt(lo * hi)


@dataclass(frozen=True)
class ScanRow:
    eps: float
    v2: float
    n_terms: int
    tail_bound: float
    model: str
    converged: bool


def scan_v2(
    eps_grid: Iterable[float], params: ModelParams, model: str, tol: float = 1e-9
) -> list[ScanRow]:
    """Evaluate <v^2> over a grid for one model; rows keep truncation metadata."""
    if model not in ("feynman", "differentiable"):
        raise ValueError("model must be 'feynman' or 'differentiable'")
    rows = []
    for eps in eps_grid:
        _check_eps(eps, params)
        tau = eps / params.T
        if model == "feynman":
            s = SeriesValue(_s_feynman_exact(tau), 0, 0.0, True)
        else:
            s = s_diff(tau, params, tol)
        rows.append(
            ScanRow(
                eps=float(eps),
                v2=_v2_prefactor(eps, params) * s.value,
                n_terms=s.n_terms,
                tail_bound=s.tail_bound,
                model=model,
                converged=s.converged,
            )
        )
    return rows

