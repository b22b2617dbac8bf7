"""Harmonic-oscillator modification factor Pi(T), energy shifts, unitarity.

The restricted fluctuation integral divides out the unrestricted one,
leaving the infinite product

    Pi(T) = prod_n Erf(c_n sqrt(lambda_n + omega^2)) / Erf(c_n sqrt(lambda_n)),

lambda_n = (n pi / T)^2 and c_n = B / n^alpha.  Everything is computed in
log space (a direct product of 1e5 factors each ~1 denormalizes).  With
L(W) = ln(Erf(sqrt W) / sqrt W), each log factor splits into the free
Gaussian factor (1/2) ln(1 + omega^2 / lambda_n) plus a bracket
b_n = L(c_n^2 (lambda_n + omega^2)) - L(c_n^2 lambda_n), and the free
factors multiply to the fluctuation determinant sinh(omega T) / omega T:

    ln Pi(T) = (1/2) ln(sinh omega T / omega T) + sum_n b_n.

Since L'(W) = -(1 - Z(W)) / 2W lies in [-1/3, 0], every bracket obeys
max(-omega^2 c_n^2 / 3, -(1/2) ln(1 + omega^2 / lambda_n)) <= b_n <= 0:
it decays like n^(-2 alpha), not like the 1/n^2 of the log factors, so a
few hundred terms certify what the direct product needs millions for.
The uniform level shift is Delta omega = ln Pi(T) / T (Euclidean), so
E^D_n = hbar omega (n + 1/2) - hbar Delta omega with unchanged spacing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Optional

import numpy as np

from .paths import ModelParams, _write_metadata
from .special import _log_erf_over_sqrt, chunked_sum, log_erf

__all__ = [
    "PiResult",
    "SpectrumShift",
    "PartitionFunctions",
    "UnitarityReport",
    "log_pi",
    "spectrum_shift",
    "partition_functions",
    "unitarity_diagnostic",
    "scan_E0_vs_omega",
    "shift_rows_to_csv",
]

_CHUNK = 1 << 20
_ADAPTIVE_CAP = 1 << 24


@dataclass(frozen=True)
class PiResult:
    log_pi: float
    T: float
    n_terms: int
    tail_bound: float
    converged: bool
    params_snapshot: ModelParams


@dataclass(frozen=True)
class SpectrumShift:
    T: float
    delta_omega: float  # ln Pi(T) / T
    n_level: int
    energy: float  # E^D_n = hbar omega (n + 1/2) - hbar delta_omega
    e0: float  # ground state
    spacing: float  # hbar omega, unchanged by the shift


@dataclass(frozen=True)
class PartitionFunctions:
    z_f: float
    z_d: float
    log_z_f: float
    log_z_d: float


def _c_n(params: ModelParams, T: float, n: np.ndarray) -> np.ndarray:
    """Per-mode length scale c_n = B / n^alpha at total time T.

    B uses the amplitude at time T: constant A if A is primary, or the
    natural T-dependent A(T) when epsilon_D is primary, in which case
    c_n = (eps_D / 2)(T / (n eps_D))^alpha.
    """
    if params.epsilon_D is not None:
        sigma_t = math.sqrt(params.hbar * T / params.m)
        a_t = sigma_t * (T / params.epsilon_D) ** (params.alpha - 1.0)
    else:
        a_t = params.A
    b_len = a_t * math.sqrt(params.m * T / (4.0 * params.hbar))
    return b_len / n**params.alpha


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


def _sum_terms(n_max: int, terms: Callable[[np.ndarray], np.ndarray]) -> float:
    """sum_{n=1}^{n_max} terms(n), evaluated in chunks of 2^20 modes."""
    total = 0.0
    for start in range(1, n_max + 1, _CHUNK):
        total += chunked_sum(terms(np.arange(start, min(start + _CHUNK, n_max + 1), dtype=float)))
    return total


def _bracket_tail(n: int, omega: float, T: float, b_len: float, alpha: float) -> float:
    """Rigorous bound on |sum_{m>n} b_m|.

    From b_m >= -omega^2 c_m^2 / 3 and sum_{m>n} m^(-2 alpha) <= n^(1-2 alpha) / (2 alpha - 1),
    or from b_m >= -(1/2) ln(1 + omega^2 / lambda_m) >= -omega^2 T^2 / (2 pi^2 m^2).
    """
    tail = omega**2 * T**2 / (2.0 * math.pi**2 * n)
    if alpha > 0.5:
        tail = min(tail, omega**2 * b_len**2 * n ** (1.0 - 2.0 * alpha) / (3.0 * (2.0 * alpha - 1.0)))
    return tail


def _bracket_terms_needed(tol: float, omega: float, T: float, b_len: float, alpha: float) -> int:
    """Smallest N <= _ADAPTIVE_CAP whose bracket tail bound is <= tol (the cap if none is)."""
    if not tol > 0:
        return _ADAPTIVE_CAP
    log_n = 2.0 * math.log(omega * T) - math.log(2.0 * math.pi**2 * tol)
    if alpha > 0.5:
        k = 2.0 * alpha - 1.0
        log_n = min(log_n, (2.0 * math.log(omega * b_len) - math.log(3.0 * k * tol)) / k)
    n = min(max(1, math.ceil(math.exp(min(log_n, math.log(_ADAPTIVE_CAP))))), _ADAPTIVE_CAP)
    # the logs above round; step to the exact smallest N
    while n > 1 and _bracket_tail(n - 1, omega, T, b_len, alpha) <= tol:
        n -= 1
    while n < _ADAPTIVE_CAP and _bracket_tail(n, omega, T, b_len, alpha) > tol:
        n += 1
    return n


def log_pi(
    T: float,
    params: ModelParams,
    tol: float = 1e-6,
    n_terms: Optional[int] = None,
) -> PiResult:
    """ln Pi(T) with a rigorous tail bound.

    ``n_terms=None`` (adaptive): ln Pi = (1/2) ln(sinh wT / wT) + sum_{n<=N} b_n,
    with b_n = L(c_n^2 (lambda_n + w^2)) - L(c_n^2 lambda_n) and
    L(W) = ln(Erf(sqrt W) / sqrt W).  As L' lies in [-1/3, 0] (1 - Z(W) is
    2W times a tilted mean of u^2 over u in [0, 1], at most 2W/3), every
    b_n lies in [max(-w^2 c_n^2 / 3, -(1/2) ln(1 + w^2/lambda_n)), 0], so
    the terms after N sum to at most

        min(w^2 B^2 N^(1 - 2 alpha) / (3 (2 alpha - 1)), w^2 T^2 / (2 pi^2 N)).

    N is the smallest count whose bound is <= tol, up to 2^24 terms;
    ``n_terms`` of the result counts these bracket terms.  The value is
    clamped to the exact bounds [0, (1/2) ln(sinh wT / wT)].

    ``n_terms=N``: the exact sum of the first N log factors
    ln[Erf(c sqrt(l + w^2)) / Erf(c sqrt(l))].  Each omitted factor lies
    in [0, (1/2) ln(1 + w^2/l)] (Erf concavity: Erf(k x) <= k Erf(x)), so
    the tail is below w^2 T^2 / (2 pi^2 N).

    ``converged`` means tail_bound <= tol * max(1, |ln Pi|).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    omega = params.omega
    if omega < 0:
        raise ValueError("omega must be non-negative")
    if params.alpha <= 1 and params.epsilon_D is not None:
        raise ValueError("alpha > 1 required with epsilon_D primary")
    if omega == 0.0:
        return PiResult(0.0, T, 0, 0.0, True, params)

    if n_terms is not None:
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")

        def erf_ratio(n):
            c = _c_n(params, T, n)
            lam_sqrt = n * math.pi / T
            hi = log_erf(c * np.sqrt(lam_sqrt**2 + omega**2))
            lo = log_erf(c * lam_sqrt)
            # each factor is >= 0 exactly; clip roundoff-negative values
            return np.maximum(hi - lo, 0.0)

        n = int(n_terms)
        value = _sum_terms(n, erf_ratio)
        tail = omega**2 * T**2 / (2.0 * math.pi**2 * n)
    else:

        def bracket(n):
            c2 = _c_n(params, T, n) ** 2
            lam = (n * math.pi / T) ** 2
            # each bracket is <= 0 exactly; clip roundoff-positive values
            return np.minimum(_log_erf_over_sqrt(c2 * (lam + omega**2)) - _log_erf_over_sqrt(c2 * lam), 0.0)

        b_len = _c_n(params, T, 1.0)
        n = _bracket_terms_needed(tol, omega, T, b_len, params.alpha)
        free = 0.5 * _log_sinh_over_x(omega * T)
        value = min(max(free + _sum_terms(n, bracket), 0.0), free)
        tail = _bracket_tail(n, omega, T, b_len, params.alpha)
    return PiResult(value, T, n, tail, tail <= tol * max(1.0, abs(value)), params)


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
    d_omega = pi.log_pi / T
    h, w = params.hbar, params.omega
    return SpectrumShift(
        T=T,
        delta_omega=d_omega,
        n_level=n_level,
        energy=h * w * (n_level + 0.5) - h * d_omega,
        e0=h * w * 0.5 - h * d_omega,
        spacing=h * w,
    )


def partition_functions(
    T: float, params: ModelParams, tol: float = 1e-6, n_terms: Optional[int] = None
) -> PartitionFunctions:
    """Z_F and Z_D = Z_F Pi(T) in Euclidean time (beta = T / hbar)."""
    if params.omega <= 0:
        raise ValueError("partition function requires omega > 0")
    wt = params.omega * T
    log_z_f = -0.5 * wt - math.log1p(-math.exp(-wt))
    lp = log_pi(T, params, tol, n_terms).log_pi
    return PartitionFunctions(
        z_f=math.exp(log_z_f),
        z_d=math.exp(log_z_f + lp),
        log_z_f=log_z_f,
        log_z_d=log_z_f + lp,
    )


@dataclass(frozen=True)
class UnitarityReport:
    t_grid: tuple
    delta_omega: tuple
    mean_delta_omega: float  # over the T >= eps_D sub-grid
    max_rel_deviation: float  # over the T >= eps_D sub-grid
    sub_eps_mean: Optional[float]
    sub_eps_max_rel_deviation: Optional[float]
    verdicts: tuple  # per-T strings

    def as_dict(self) -> dict:
        return {
            "mean_delta_omega": self.mean_delta_omega,
            "max_rel_deviation": self.max_rel_deviation,
            "sub_eps_mean": self.sub_eps_mean,
            "sub_eps_max_rel_deviation": self.sub_eps_max_rel_deviation,
            "rows": [
                {"T": t, "delta_omega": dw, "verdict": v}
                for t, dw, v in zip(self.t_grid, self.delta_omega, self.verdicts)
            ],
        }


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
    merit.  The sub-eps_D points are reported separately — there the
    product is far from exponential and the deviation is expected O(1).
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("grid must be nonempty")
    eps_d = params.eps_d if params.alpha > 1 else 0.0
    dws = [spectrum_shift(t, params, 0, tol, n_terms).delta_omega for t in t_grid]

    def stats(idx):
        vals = [dws[i] for i in idx]
        if not vals:
            return None, None
        mean = sum(vals) / len(vals)
        if mean == 0.0:
            return mean, 0.0
        return mean, max(abs(v - mean) / abs(mean) for v in vals)

    above = [i for i, t in enumerate(t_grid) if t >= eps_d]
    below = [i for i, t in enumerate(t_grid) if t < eps_d]
    mean_above, dev_above = stats(above)
    mean_below, dev_below = stats(below)
    verdicts = []
    for i, t in enumerate(t_grid):
        if i in below:
            verdicts.append("sub-epsilon-D")
        elif mean_above and abs(dws[i] - mean_above) / abs(mean_above) <= threshold:
            verdicts.append("unitary-compatible")
        else:
            verdicts.append("non-exponential")
    return UnitarityReport(
        t_grid=tuple(t_grid),
        delta_omega=tuple(dws),
        mean_delta_omega=mean_above if mean_above is not None else math.nan,
        max_rel_deviation=dev_above if dev_above is not None else math.nan,
        sub_eps_mean=mean_below,
        sub_eps_max_rel_deviation=dev_below,
        verdicts=tuple(verdicts),
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
    """
    omegas = sorted(float(w) for w in omega_grid)
    if len(omegas) < 3:
        raise ValueError("need at least 3 grid points for the fit")
    if any(w <= 0 for w in omegas):
        raise ValueError("omega grid must be positive")
    rows = []
    for w in omegas:
        ss = spectrum_shift(T, params.with_omega(w), 0, tol, n_terms)
        rows.append((w, ss.e0))
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
    }


def shift_rows_to_csv(
    results: Iterable[PiResult], fh: IO[str], metadata: Optional[dict] = None
) -> None:
    """CSV `T,delta_omega,log_pi,n_terms` from a sequence of PiResults."""
    _write_metadata(fh, metadata)
    writer = csv.writer(fh)
    writer.writerow(["T", "delta_omega", "log_pi", "n_terms"])
    for r in results:
        writer.writerow(
            [
                repr(float(r.T)),
                repr(float(r.log_pi / r.T)),
                repr(float(r.log_pi)),
                int(r.n_terms),
            ]
        )
