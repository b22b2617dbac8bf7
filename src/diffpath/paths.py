"""Fourier sine-series paths, the amplitude restriction, and the model parameters.

Paths are deviations from the classical trajectory, x(t) = sum_n a_n
sin(n pi t / T), so they vanish at both endpoints by construction.  The
restriction |a_n| <= A / n^alpha makes them (alpha-1)-fold continuously
differentiable and introduces the time scale epsilon_D via
(T / epsilon_D)^(alpha-1) = A / sqrt(hbar T / m).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "ModelParams",
    "FourierPath",
    "eval_path",
    "sample_brownian",
    "differentiable_twin",
    "RNG_ALGORITHM",
]

# Recorded in every sampling-related output so runs are reproducible
# across implementations of the same generator.
RNG_ALGORITHM = "numpy-PCG64-SeedSequence"


@dataclass(frozen=True)
class ModelParams:
    """Physical and control parameters; the single source of unit conventions.

    Exactly one of ``A`` (amplitude bound, length) and ``epsilon_D``
    (differentiable time scale) must be given; the other is derived.
    When ``epsilon_D`` is primary the amplitude is the T-dependent
    A(T) = sqrt(hbar T / m) (T / epsilon_D)^(alpha - 1).  Inputs whose
    Abar overflows, or whose Abar^2 falls below the normal floats, raise
    ValueError; an Abar^2 that overflows is refused by the series that
    square it.
    """

    m: float = 1.0
    hbar: float = 1.0
    T: float = 1.0
    alpha: float = 2.1
    A: Optional[float] = None
    epsilon_D: Optional[float] = None
    omega: float = 0.0

    def __post_init__(self):
        for name in ("m", "hbar", "T", "alpha", "A", "epsilon_D", "omega"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for name in ("m", "hbar", "T", "alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if (self.A is None) == (self.epsilon_D is None):
            raise ValueError("exactly one of A and epsilon_D must be given")
        if self.A is not None and self.A <= 0:
            raise ValueError("A must be positive")
        if self.epsilon_D is not None and self.epsilon_D <= 0:
            raise ValueError("epsilon_D must be positive")
        if self.omega < 0:
            raise ValueError("omega must be non-negative")
        if self.A is not None or self.alpha > 1:  # else ``amplitude`` refuses A(T)
            self._check_abar(self.T)

    def _check_abar(self, T: float) -> float:
        """Abar at time T, or ValueError where it leaves the float range."""
        # every restricted series reads the restriction through
        # W_j = Abar^2 / j^(2 alpha - 2): an Abar^2 below the normal floats
        # leaves them no precision, and an amplitude that overflows no value;
        # T and Abar as Python floats, so that neither A(T) nor the square of
        # Abar (here and in every caller) warns where a numpy float64 from a
        # grid T would overflow: Python raises OverflowError or gives inf
        T = float(T)
        try:
            a_bar = float(self._a_bar_at(T))
        except OverflowError:
            a_bar = math.inf
        if math.isfinite(a_bar) and a_bar * a_bar >= sys.float_info.min:
            return a_bar
        inputs = f"m={self.m!r}, hbar={self.hbar!r}, T={T!r}, "
        if self.A is not None:
            inputs += f"A={self.A!r}"
        else:
            inputs += f"epsilon_D={self.epsilon_D!r}, alpha={self.alpha!r}"
        if math.isfinite(a_bar):
            raise ValueError(f"Abar^2 = m pi^2 A^2 / (4 hbar T) = {a_bar * a_bar!r} underflows at {inputs}")
        raise ValueError(f"Abar = sqrt(m pi^2 / (4 hbar T)) A overflows at {inputs}")

    # -- derived scales -----------------------------------------------------
    # Each is a function of the time T; the properties take the field T, and
    # ``a_bar_at`` another T without building a copy.

    def _sigma_at(self, T: float) -> float:
        return math.sqrt(self.hbar * T / self.m)

    def _amplitude_at(self, T: float) -> float:
        if self.A is not None:
            return self.A
        if self.alpha <= 1:
            raise ValueError("A(T) from epsilon_D requires alpha > 1")
        return self._sigma_at(T) * (T / self.epsilon_D) ** (self.alpha - 1.0)

    def _eps_d_at(self, T: float) -> float:
        if self.epsilon_D is not None:
            return self.epsilon_D
        if self.alpha <= 1:
            raise ValueError("epsilon_D from A requires alpha > 1")
        try:
            return T * (self.A / self._sigma_at(T)) ** (-1.0 / (self.alpha - 1.0))
        except OverflowError:  # its A / sigma -> 0 limit
            return math.inf

    def _a_bar_at(self, T: float) -> float:
        return math.sqrt(self.m * math.pi**2 / (4.0 * self.hbar * T)) * self._amplitude_at(T)

    @property
    def sigma(self) -> float:
        """Brownian coefficient scale sqrt(hbar T / m)."""
        return self._sigma_at(self.T)

    @property
    def amplitude(self) -> float:
        """The amplitude bound A (given directly or as A(T) from epsilon_D)."""
        return self._amplitude_at(self.T)

    @property
    def eps_d(self) -> float:
        """Differentiable time scale from (T/eps_D)^(alpha-1) = A/sigma; inf past the float range."""
        return self._eps_d_at(self.T)

    @property
    def a_bar(self) -> float:
        """Dimensionless amplitude sqrt(m pi^2 / 4 hbar T) * A.

        With epsilon_D primary it is (pi / 2)(T / epsilon_D)^(alpha - 1).
        """
        return self._a_bar_at(self.T)

    def a_bar_at(self, T: float) -> float:
        """``replace(self, T=T).a_bar``, with the same checks and errors, without the copy.

        So with epsilon_D primary and alpha <= 1, where the constructor
        accepts an undefined A(T), it raises as ``amplitude`` does.
        """
        if not math.isfinite(T):
            raise ValueError("T must be finite")
        if not T > 0:
            raise ValueError("T must be positive")
        return self._check_abar(T)

    def mode_w(self, j, a_bar: Optional[float] = None):
        """W_j = (Abar / j^(alpha-1))^2, the per-mode number through which the
        restriction enters every restricted weight and factor.  ``a_bar``
        (default: ``self.a_bar``) gives W_j at another time, as from ``a_bar_at``.
        ``j`` is a numpy float or array: a j^(alpha-1) past the float range then
        gives W_j = 0.0, the float it underflows to (a Python float would raise)."""
        if a_bar is None:
            a_bar = self.a_bar
        with np.errstate(over="ignore"):
            return (a_bar / j ** (self.alpha - 1.0)) ** 2

    @property
    def j_d(self) -> int:
        """Crossover Fourier index floor((A/sigma)^(1/(alpha-1)))."""
        if self.alpha <= 1:
            raise ValueError("j_D requires alpha > 1")
        try:
            return int(math.floor((self.amplitude / self.sigma) ** (1.0 / (self.alpha - 1.0))))
        except OverflowError:
            raise ValueError(f"j_D overflows at A={self.amplitude!r}, alpha={self.alpha!r}") from None

    def with_omega(self, omega: float) -> "ModelParams":
        return replace(self, omega=omega)


@dataclass(frozen=True)
class FourierPath:
    """Truncated sine series x(t) = sum_{n=1}^{N} a_n sin(n pi t / T)."""

    T: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.coeffs.ndim != 1 or self.coeffs.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D vector")

    def restriction_satisfied(self, A: float, alpha: float, rtol: float = 1e-12) -> bool:
        """Whether |a_n| <= A / n^alpha holds for every stored mode."""
        n = np.arange(1, self.coeffs.size + 1, dtype=float)
        with np.errstate(over="ignore"):  # an n^alpha past the float range caps a_n at 0.0
            cap = A / n**alpha
        return bool(np.all(np.abs(self.coeffs) <= cap * (1.0 + rtol)))


def _split(x):
    """x = hi + lo exactly, hi with at most 26 significant bits (Veltkamp's split)."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def eval_path(p: FourierPath, t):
    """x(t): the finite sum over the stored coefficients, within a few ulps of sum |a_n|.

    With M = isqrt(N), B = ceil(N / M) and n = b M + m (1 <= m <= M), the
    product-to-sum identity gives
    x = sum_b [sin(b M theta) C_b + cos(b M theta) S_b], theta = pi t / T,
    C_b = sum_m a_{bM+m} cos(m theta) and S_b = sum_m a_{bM+m} sin(m theta):
    2 (M + B) sines per point in place of N.  Each is sin(pi k u) or
    cos(pi k u) of u = t / T, whose rounding is carried in a low part
    (Dekker's product), with k u reduced exactly (for k < 2^27) to an
    argument within pi/2 of 0: no phase error grows with n, and x(0) and
    x(T) are 0.0.  Both contractions are ``einsum`` sums without BLAS, so
    the value does not depend on which BLAS kernel the CPU selects.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > p.T):
        raise ValueError("t outside [0, T]")
    n_modes = p.coeffs.size
    m = math.isqrt(n_modes)
    b = -(-n_modes // m)
    a = np.zeros(b * m)
    a[:n_modes] = p.coeffs
    a = a.reshape(b, m)
    # u = hi + lo = t / T: t and T scaled by 2^-e exactly, then the remainder
    # t - u T of the rounded quotient, exact to O(eps^2), moved into lo
    mant, e = math.frexp(p.T)
    ts = np.ldexp(t.reshape(-1), -e)
    u = ts / mant
    hi, lo = _split(u)
    mant_hi, mant_lo = _split(mant)
    lo += ((((ts - hi * mant_hi) - hi * mant_lo) - lo * mant_hi) - lo * mant_lo) / mant
    k = np.concatenate((np.arange(1.0, m + 1.0), m * np.arange(float(b))))
    phase = np.multiply.outer(hi, k)  # exact: k hi has at most 53 bits
    phase -= 2.0 * np.rint(0.5 * phase)  # exact: k hi mod 2, in [-1, 1]
    near = np.rint(phase)  # -1, 0 or 1
    phase -= near  # exact: in [-1/2, 1/2]
    phase += np.multiply.outer(lo, k)
    # sin(pi k u) = (-1)^near sin(pi phase) and cos(pi k u) = (-1)^near
    # sin(pi (1/2 - |phase|)): sines of arguments within pi/2 of 0, the sign
    # taken into the argument, as sin is odd
    np.abs(near, out=near)
    near *= -2.0 * math.pi
    near += math.pi
    sines = np.empty((2,) + phase.shape)
    np.multiply(phase, near, out=sines[0])
    np.abs(phase, out=phase)
    np.subtract(0.5, phase, out=phase)
    np.multiply(phase, near, out=sines[1])
    np.sin(sines, out=sines)
    sin_m, sin_b = sines[0, :, :m], sines[0, :, m:]
    cos_m, cos_b = sines[1, :, :m], sines[1, :, m:]
    c_b = np.einsum("gm,bm->gb", cos_m, a, optimize=False)
    s_b = np.einsum("gm,bm->gb", sin_m, a, optimize=False)
    out = np.einsum("gb,gb->g", sin_b, c_b, optimize=False)
    out += np.einsum("gb,gb->g", cos_b, s_b, optimize=False)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def sample_brownian(params: ModelParams, N: int, seed: int) -> FourierPath:
    """Random Fourier path a_j = sigma N_j / j with N_j ~ Uniform(-1, 1).

    The N_j law is uniform on [-1, 1]: the simplest i.i.d. mean-zero
    choice with |N_j| <= 1.  Deterministic given the seed.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n_j = rng.uniform(-1.0, 1.0, size=N)
    j = np.arange(1, N + 1, dtype=float)
    return FourierPath(T=params.T, coeffs=params.sigma * n_j / j)


def differentiable_twin(p: FourierPath, params: ModelParams) -> dict:
    """Clamp the high modes of ``p`` onto the restricted path space.

    Modes j <= j_D are copied verbatim; modes above are clamped to
    sign(a_j) min(|a_j|, A/j^alpha).  Idempotent, and the twin always
    satisfies the restriction for a path sampled via sample_brownian.
    """
    if params.alpha <= 1:
        raise ValueError("differentiable twin requires alpha > 1 (no finite j_D)")
    j_d = params.j_d
    a = params.amplitude
    j = np.arange(1, p.coeffs.size + 1, dtype=float)
    with np.errstate(over="ignore"):  # a j^alpha past the float range caps a_j at 0.0
        cap = a / j**params.alpha
    clamped = np.sign(p.coeffs) * np.minimum(np.abs(p.coeffs), cap)
    coeffs = np.where(j <= j_d, p.coeffs, clamped)
    return {"twin": FourierPath(T=p.T, coeffs=coeffs), "j_D": j_d}

