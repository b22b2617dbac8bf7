"""Oracles shared by the test modules."""

import mpmath as mp
import pytest


def _s_feynman_closed(tau: float, t0: float = 0.0) -> float:
    """The free series sum_j j^-2 [sin(j pi (t0 + tau)) - sin(j pi t0)]^2 in mpmath, as its
    dilogarithm sum: with C(x) = Re Li2(e^{i pi x}) = sum_j cos(j pi x) / j^2 it is
    zeta(2) - C(2 t0 + 2 tau)/2 - C(2 t0)/2 - C(tau) + C(2 t0 + tau), at t0 = 0
    zeta(2)/2 - C(2 tau)/2 = (pi^2/2) tau (1 - tau)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    with mp.workdps(40):
        tau, t0 = mp.mpf(tau), mp.mpf(t0)
        c = lambda x: mp.re(mp.polylog(2, mp.expjpi(x)))
        return float(mp.zeta(2) - c(2 * t0 + 2 * tau) / 2 - c(2 * t0) / 2 - c(tau) + c(2 * t0 + tau))


def _regulated_linear_delta(regulator: str, n_c: int) -> float:
    """sum_{n>=0} n g(n/n_c) - int_0^inf n g(n/n_c) dn for f(n) = n, in mpmath.  exp,
    g(x) = e^-x: q/(1-q)^2 - n_c^2 with q = e^(-1/n_c).  gauss, g(x) = e^(-x^2): the sum
    taken directly over n <= 7 n_c (the rest is below 3e-14 at n_c = 1e4), less n_c^2/2."""
    if regulator == "exp":
        with mp.workdps(40):
            q = mp.exp(-mp.mpf(1) / n_c)
            return float(q / (1 - q) ** 2 - mp.mpf(n_c) ** 2)
    with mp.workdps(25):
        return float(mp.fsum(n * mp.exp(-(mp.mpf(n) / n_c) ** 2) for n in range(1, 7 * n_c + 1))
                     - mp.mpf(n_c) ** 2 / 2)


@pytest.fixture
def s_feynman_closed():
    return _s_feynman_closed


@pytest.fixture
def regulated_linear_delta():
    return _regulated_linear_delta
