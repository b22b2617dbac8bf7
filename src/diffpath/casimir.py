"""One-dimensional Casimir toy model: the sum-minus-integral delta and the eps_D bound.

The vacuum energy between two points a distance L apart is a divergent
mode sum; what survives regularization is the sum-minus-integral

    delta = lim_{n_c -> inf} [sum_{n>=0} f(n) g(n/n_c) - int_0^inf f(n) g(n/n_c) dn],

independent of the smooth cutoff g and equal, by Euler-Maclaurin, to
-sum_k B_k/k! f^{(k-1)}(0).  The standard spectrum f(n) = n gives the
famous -1/12; the bounded-frequency toy spectrum
f_D(n) = (L omega_D / c pi) tanh(c pi n / L omega_D) shifts it by
O(x^2), x = pi c / (L omega_D), which an experiment constrains.
``casimir_energy`` evaluates delta in closed form with a rigorous bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .special import bernoulli

__all__ = [
    "CasimirConfig",
    "CasimirResult",
    "EpsilonDBound",
    "euler_maclaurin_delta",
    "tanh_model_derivs",
    "casimir_energy",
    "epsilon_d_bound",
]


@dataclass(frozen=True)
class CasimirConfig:
    """One Casimir point.  n_c and regulator (an exp or gauss cutoff at
    index n_c) are checked but not used: ``casimir_energy`` takes the
    cutoff-independent limit."""

    L: float  # plate separation
    omega_D: float  # bounded-frequency scale
    c: float = 1.0  # speed (natural units default)
    hbar: float = 1.0
    n_c: int = 10_000  # regulator cutoff index
    regulator: str = "exp"

    def __post_init__(self):
        if min(self.L, self.omega_D, self.c, self.hbar) <= 0:
            raise ValueError("all config scales must be positive")
        if self.n_c < 10:
            raise ValueError(f"n_c must be >= 10, got {self.n_c}")
        if self.regulator not in ("exp", "gauss"):
            raise ValueError(f"unknown regulator {self.regulator!r}")

    @property
    def x(self) -> float:
        """Smallness parameter pi c / (L omega_D)."""
        return math.pi * self.c / (self.L * self.omega_D)


@dataclass(frozen=True)
class CasimirResult:
    energy: float
    delta: float  # dimensionless sum-minus-integral coefficient
    model: str
    x: float
    n_terms: int  # series terms or summed modes behind delta
    tail_bound: float  # rigorous bound on the truncation error of delta
    route: str  # "exact", "em" or "direct"


def euler_maclaurin_delta(derivs_at_0: Sequence[float], K: int) -> float:
    """-sum_{k=1..K} B_k / k! * f^{(k-1)}(0) for a regularized f."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if len(derivs_at_0) < K:
        raise ValueError("need f^{(k)}(0) for k = 0..K-1")
    return -math.fsum(
        bernoulli(k) / math.factorial(k) * derivs_at_0[k - 1] for k in range(1, K + 1)
    )


def tanh_model_derivs(x: float, K: int) -> list[float]:
    """Derivatives at 0 of f_D(n) = (1/x) tanh(x n), k = 0..K-1.

    f_D^{(k)}(0) = x^{k-1} tanh^{(k)}(0), with tanh^{(2j)}(0) = 0 and the
    tangent numbers tanh^{(2j-1)}(0) = 2^{2j} (2^{2j} - 1) B_{2j} / (2j);
    computed analytically (a finite-difference route is far too noisy inside
    Bernoulli sums).  K is at most 60, the range of ``bernoulli``.
    """
    if K > 60:
        raise ValueError(f"tanh derivatives available only up to order 59, got K = {K}")
    derivs = [0.0] * K
    for k in range(1, K, 2):
        p = 4 ** ((k + 1) // 2)
        derivs[k] = x ** (k - 1) * (p * (p - 1) * bernoulli(k + 1) / (k + 1))
    return derivs


# The em route's series, built on its first use: ((B_k / k!, k - 2, t_k) for
# even k <= 24, |B_24|), with f_D^{(k-1)}(0) = x^(k-2) t_k and
# t_k = tanh_model_derivs(1.0, 24)[k - 1].  Its terms are those of
# euler_maclaurin_delta(tanh_model_derivs(x, 24), 24) bit for bit, less the
# zero odd-k ones.
_EM_TABLE = None


def _build_em_table() -> tuple:
    global _EM_TABLE
    t = tanh_model_derivs(1.0, 24)
    _EM_TABLE = (
        tuple((bernoulli(k) / math.factorial(k), k - 2, t[k - 1]) for k in range(2, 25, 2)),
        abs(bernoulli(24)),
    )
    return _EM_TABLE


def casimir_energy(config: CasimirConfig, model: str = "standard") -> CasimirResult:
    """Delta E(L) = (1/2)(hbar c pi / L) * delta, delta evaluated without a regulator.

    config.n_c and config.regulator are ignored.  ``standard``, f(n) = n:
    delta = -1/12 exactly (route "exact").  ``tanh``, f = tanh(x n)/x =
    1/x - h, h(t) = (2/x)/(e^{2xt} + 1): the regulated constant gives
    g(0)/(2x), h needs no regulator and int_0^inf h = ln 2/x^2, so
    delta = 1/(2x) + ln 2/x^2 - (2/x) sum_{n>=0} 1/(e^{2xn} + 1).

    Route "direct" (x > 1/8) sums n < N = ceil(38/x); the dropped terms are
    below e^{-2xn}, so tail_bound = (2/x) e^{-2xN}/(1 - e^{-2x}).  The
    leading terms cancel to ~ -1/12, which costs digits as x -> 0.

    Route "em" (x <= 1/8) is Euler-Maclaurin through B_2K, K = 12:
    delta = -sum_{k<=K} B_2k/(2k)! f^{(2k-1)}(0) + R, with
    |R| <= |B_2K|/(2K)! int_0^inf |f^{(2K)}| since |B_2K({t})| <= |B_2K|, and
    f^{(m)}(t) = x^{m-1} tanh^{(m)}(xt).  For m >= 1, tanh^{(m)} =
    (tanh - 1)^{(m)}; Cauchy's estimate on |z - u| = r < pi/2 bounds it by
    m! r^{-m} max |tanh z - 1|, and there |tanh z - 1| = |e^{-z}/cosh z| <=
    e^{r-u}/cos r, as |cosh(a + ib)| >= |cos b|.  Integrating over u >= 0,
    |R| <= |B_2K| x^{2K-2} e^r / (r^{2K} cos r): the tail_bound at r = 3/2,
    at most 4.4e-18 at x = 1/8.  The series diverges as x grows.  Its 12
    terms come from a table of B_2k/(2k)! and f^{(2k-1)}(0) / x^{2k-2},
    built once, on the first em call, from ``bernoulli`` and
    ``tanh_model_derivs``; the value is bit for bit
    ``euler_maclaurin_delta(tanh_model_derivs(x, 24), 24)``.
    """
    x = config.x
    if model == "standard":
        delta, n_terms, tail_bound, route = -1.0 / 12.0, 0, 0.0, "exact"
    elif model == "tanh":
        if x <= 0.125:
            table, b_24 = _EM_TABLE or _build_em_table()
            delta = -math.fsum(b * (x**e * t) for b, e, t in table)
            tail_bound = b_24 * x**22 * math.exp(1.5) / (1.5**24 * math.cos(1.5))
            n_terms, route = 12, "em"
        else:
            n_terms = math.ceil(38.0 / x)
            s = math.fsum(1.0 / (np.exp(2.0 * x * np.arange(n_terms)) + 1.0))
            delta = 0.5 / x + math.log(2.0) / (x * x) - 2.0 / x * s
            tail_bound = 2.0 / x * math.exp(-2.0 * x * n_terms) / -math.expm1(-2.0 * x)
            route = "direct"
    else:
        raise ValueError("model must be 'standard' or 'tanh'")
    energy = 0.5 * config.hbar * config.c * math.pi / config.L * delta
    return CasimirResult(energy=energy, delta=delta, model=model, x=x,
                         n_terms=n_terms, tail_bound=tail_bound, route=route)


@dataclass(frozen=True)
class EpsilonDBound:
    epsilon_d: float  # headline order-of-magnitude bound ~ L_exp / c
    epsilon_d_exact: float  # from solving the stated inequality literally
    omega_d_min: float  # exact inequality solution for omega_D
    omega_d_min_order: float  # order-of-magnitude form c / L_exp


def epsilon_d_bound(L_exp: float, rel_error: float, c: float) -> EpsilonDBound:
    """Experimental bound on eps_D from a Casimir accuracy requirement.

    Demanding the O(x^2) correction stay below rel_error of the -1/12
    term, x^2/40 <= rel_error/12, gives omega_D >= (pi c / L) sqrt(12/(40 rel_error)),
    i.e. omega_D > c/L up to O(1) factors; with eps_D ~ 1/omega_D the
    headline bound is the order-of-magnitude form L_exp/c (O(1) constant
    set to 1), and the literal inequality solution is reported alongside.
    The x^2/40 is the inequality as stated; the tanh model's own correction
    is delta + 1/12 = -x^2/360 + O(x^4), a relative x^2/30, which would
    give omega_D >= (pi c / L) sqrt(1/(30 rel_error)) instead.  A field
    that is 0 or past the float range raises one ValueError naming it,
    L_exp, rel_error and c.
    """
    if L_exp <= 0 or c <= 0:
        raise ValueError("L_exp and c must be positive")
    if not 0.0 < rel_error < 1.0:
        raise ValueError("rel_error must lie in (0, 1)")

    def checked(name: str, value: float) -> float:
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} = {value!r} is not a positive finite float at L_exp={L_exp!r}, "
                             f"rel_error={rel_error!r}, c={c!r}")
        return value

    x_max = math.sqrt(rel_error * 40.0 / 12.0)
    omega_min = checked("omega_D,min = pi c / (L_exp sqrt(40 rel_error / 12))",
                        math.pi * c / (L_exp * x_max) if L_exp * x_max > 0.0 else math.inf)
    return EpsilonDBound(
        epsilon_d=checked("epsilon_d = L_exp / c", L_exp / c),
        epsilon_d_exact=checked("epsilon_d_exact = 1 / omega_D,min", 1.0 / omega_min),
        omega_d_min=omega_min,
        omega_d_min_order=checked("omega_d_min_order = c / L_exp", c / L_exp),
    )
