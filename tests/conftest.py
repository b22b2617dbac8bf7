"""Oracles shared by the test modules."""

import mpmath as mp
import pytest


def _s_feynman_closed(tau: float) -> float:
    """The dilogarithm closed form of the free series at t0 = 0,
    S_F(tau) = zeta(2)/2 - Re Li2(e^{2 pi i tau}) / 2 = (pi^2/2) tau (1 - tau), in mpmath."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    with mp.workdps(40):
        return float(mp.zeta(2) / 2 - mp.re(mp.polylog(2, mp.expjpi(2 * mp.mpf(tau)))) / 2)


@pytest.fixture
def s_feynman_closed():
    return _s_feynman_closed
