"""One-dimensional Casimir toy model: regularized sums and the eps_D bound.

The vacuum energy between two points a distance L apart is a divergent
mode sum; what survives regularization is the sum-minus-integral

    delta = sum_{n>=0} f(n) g(n/n_c) - int_0^inf f(n) g(n/n_c) dn,

independent of the smooth cutoff g as n_c -> infinity and equal, by
Euler-Maclaurin, to -sum_k B_k/k! f^{(k-1)}(0).  The standard spectrum
f(n) = n gives the famous -1/12; the bounded-frequency toy spectrum
f_D(n) = (L omega_D / c pi) tanh(c pi n / L omega_D) shifts it by
O(x^2), x = pi c / (L omega_D), which an experiment constrains.  delta is
summed as local differences that cancel inside each unit interval, then
extrapolated in 1/n_c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .special import bernoulli, block_sum

__all__ = [
    "CasimirConfig",
    "CasimirResult",
    "EpsilonDBound",
    "REGULATORS",
    "euler_maclaurin_delta",
    "tanh_model_derivs",
    "sum_minus_integral",
    "extrapolated_delta",
    "casimir_energy",
    "epsilon_d_bound",
]

# Named smooth regulators g(x); their specific form is irrelevant in the
# n_c -> infinity limit, which is what the regulator cross-check tests.
REGULATORS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": lambda x: np.exp(-x),
    "gauss": lambda x: np.exp(-(x**2)),
}

# How far (in units of n_c) each regulator needs to be summed before the
# remaining terms are below 1e-18 relative.
_REG_RANGE = {"exp": 45.0, "gauss": 7.0}

# Unit intervals per block: 128 KB temporaries (2^16 blocks, mmap'd, ran 2x slower).
_BLOCK = 1 << 14


@dataclass(frozen=True)
class CasimirConfig:
    L: float  # plate separation
    omega_D: float  # bounded-frequency scale
    c: float = 1.0  # speed (natural units default)
    hbar: float = 1.0
    n_c: int = 10_000  # largest regulator cutoff index
    regulator: str = "exp"

    def __post_init__(self):
        if min(self.L, self.omega_D, self.c, self.hbar) <= 0:
            raise ValueError("all config scales must be positive")
        if self.n_c < 10:
            raise ValueError(f"n_c must be >= 10, got {self.n_c}")
        if self.regulator not in REGULATORS:
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


def euler_maclaurin_delta(derivs_at_0: Sequence[float], K: int) -> float:
    """-sum_{k=1..K} B_k / k! * f^{(k-1)}(0) for a regularized f."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if len(derivs_at_0) < K:
        raise ValueError("need f^{(k)}(0) for k = 0..K-1")
    return -math.fsum(
        bernoulli(k) / math.factorial(k) * derivs_at_0[k - 1] for k in range(1, K + 1)
    )


# tanh^{(k)}(0) for k = 0..9; odd pattern 1, -2, 16, -272, 7936 (tangent numbers).
_TANH_DERIVS = [0.0, 1.0, 0.0, -2.0, 0.0, 16.0, 0.0, -272.0, 0.0, 7936.0]


def tanh_model_derivs(x: float, K: int) -> list[float]:
    """Derivatives at 0 of f_D(n) = (1/x) tanh(x n), k = 0..K-1.

    f_D^{(k)}(0) = x^{k-1} tanh^{(k)}(0); computed analytically (a
    finite-difference route is far too noisy inside Bernoulli sums).
    """
    if K > len(_TANH_DERIVS):
        raise ValueError(f"tanh derivatives tabulated only up to order {len(_TANH_DERIVS) - 1}")
    return [x ** (k - 1) * _TANH_DERIVS[k] if k > 0 else 0.0 for k in range(K)]


def sum_minus_integral(
    f: Callable[[np.ndarray], np.ndarray], regulator: str, n_c: int
) -> float:
    """sum_{n>=0} F(n) - int_0^inf F(n) dn for F(n) = f(n) g(n/n_c).

    Adds the local differences F(n) - int_n^{n+1} F (12-node Gauss-Legendre)
    over n < N = _REG_RANGE[regulator] n_c + 1, f seeing at most 2^14 points at
    a time.  For F decreasing beyond N, the dropped remainder is in [0, F(N)].
    """
    if n_c < 10:
        raise ValueError("n_c must be >= 10")
    g = REGULATORS[regulator]
    F = lambda t: np.asarray(f(t), dtype=float) * g(t / n_c)
    x, w = np.polynomial.legendre.leggauss(12)
    n_max = int(_REG_RANGE[regulator] * n_c) + 1

    def local_differences(n):
        d = F(n)
        for xk, wk in zip(0.5 * (x + 1.0), 0.5 * w):
            d -= wk * F(n + xk)
        return d

    return block_sum(local_differences, n_max - 1, start=0, block=_BLOCK)


def extrapolated_delta(
    f: Callable[[np.ndarray], np.ndarray],
    regulator: str = "exp",
    n_c_seq: Sequence[int] = (100, 1000, 10000),
) -> float:
    """Richardson extrapolation of sum_minus_integral over increasing n_c.

    The finite-n_c error is polynomial in h = 1/n_c^2 (only odd
    derivatives survive in Euler-Maclaurin), so successive polynomial
    elimination in h converges fast along a geometric n_c sequence.
    """
    if len(n_c_seq) < 1:
        raise ValueError("need at least one n_c")
    vals = [sum_minus_integral(f, regulator, nc) for nc in n_c_seq]
    h = [1.0 / nc**2 for nc in n_c_seq]
    # Neville tableau in h.
    tab = list(vals)
    for level in range(1, len(tab)):
        for i in range(len(tab) - 1, level - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * h[i] / (h[i - level] - h[i])
    return tab[-1]


def _model_f(config: CasimirConfig, model: str) -> Callable[[np.ndarray], np.ndarray]:
    if model == "standard":
        return lambda n: n
    if model == "tanh":
        scale = config.L * config.omega_D / (config.c * math.pi)  # = 1/x
        return lambda n: scale * np.tanh(n / scale)
    raise ValueError("model must be 'standard' or 'tanh'")


def casimir_energy(config: CasimirConfig, model: str = "standard") -> CasimirResult:
    """Delta E(L) = (1/2)(hbar c pi / L) * delta for the chosen mode spectrum."""
    n_c_seq = sorted({max(10, config.n_c // 100), max(10, config.n_c // 10), config.n_c})
    delta = extrapolated_delta(_model_f(config, model), config.regulator, n_c_seq)
    energy = 0.5 * config.hbar * config.c * math.pi / config.L * delta
    return CasimirResult(energy=energy, delta=delta, model=model, x=config.x)


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
    """
    if L_exp <= 0 or c <= 0:
        raise ValueError("L_exp and c must be positive")
    if not 0.0 < rel_error < 1.0:
        raise ValueError("rel_error must lie in (0, 1)")
    x_max = math.sqrt(rel_error * 40.0 / 12.0)
    omega_min = math.pi * c / (L_exp * x_max)
    return EpsilonDBound(
        epsilon_d=L_exp / c,
        epsilon_d_exact=1.0 / omega_min,
        omega_d_min=omega_min,
        omega_d_min_order=c / L_exp,
    )
