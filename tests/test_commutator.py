"""Commutator identities, regimes, and the GUP coefficient of the regime report."""

import math

import pytest

from diffpath.commutator import commutator_expectation, momentum_squared
from diffpath.paths import ModelParams
from diffpath.velocity import regime_report, v2_diff, v2_feynman

FIG2 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, A=10.0)


def test_feynman_model_near_hbar():
    # exact value is hbar (1 - eps/T); small eps keeps it within 2%
    rep = commutator_expectation(0.01, FIG2, "feynman")
    assert rep.value == pytest.approx(FIG2.hbar, rel=2e-2)


def test_definitional_identity_both_models():
    for model, v2 in (("feynman", v2_feynman), ("differentiable", v2_diff)):
        for eps in (0.01, 0.2):
            rep = commutator_expectation(eps, FIG2, model)
            assert rep.value == pytest.approx(FIG2.m * eps * v2(eps, FIG2), rel=1e-12)


def test_vanishes_linearly_at_small_eps():
    r1 = commutator_expectation(1e-5, FIG2, "differentiable")
    r2 = commutator_expectation(2e-5, FIG2, "differentiable")
    assert r1.value < 0.05
    assert r2.value / r1.value == pytest.approx(2.0, rel=1e-2)
    assert r1.regime == "sub_eps_D"


def test_low_resolution_form():
    # eps well above eps_D: value ~ hbar (1 - eps/T) - m C / eps, within the
    # Appendix-style bound slack (the bound coefficient over eps)
    eps = 0.5
    rep = commutator_expectation(eps, FIG2, "differentiable")
    c = (4.0 / math.pi**3) / FIG2.amplitude
    expected = FIG2.hbar * (1.0 - eps / FIG2.T) - FIG2.m * c / eps
    slack = (2.0 * FIG2.hbar * FIG2.T / (math.pi**2 * FIG2.m * FIG2.a_bar)) / eps
    assert abs(rep.value - expected) <= slack
    assert rep.regime == "super_eps_D"


def test_continuity_across_regime_boundary():
    eps_d = FIG2.eps_d
    below = commutator_expectation(eps_d * 0.999, FIG2, "differentiable").value
    above = commutator_expectation(eps_d * 1.001, FIG2, "differentiable").value
    assert abs(above - below) < 1e-3


def test_differentiable_below_feynman():
    for eps in (0.01, 0.1, 0.4):
        d = commutator_expectation(eps, FIG2, "differentiable").value
        f = commutator_expectation(eps, FIG2, "feynman").value
        assert d <= f + 1e-12


def test_momentum_squared_conversion():
    eps = 0.05
    assert momentum_squared(eps, FIG2, "differentiable") == pytest.approx(
        FIG2.m**2 * v2_diff(eps, FIG2), rel=1e-12
    )


def test_gup_coefficient_identity():
    params = ModelParams(alpha=3.0, A=10.0)
    rep = regime_report(params)
    # beta = (2/pi)^2 / p_uv^2 must equal C / hbar^2 (two formula routes)
    assert rep.beta == pytest.approx(rep.c_coeff / params.hbar**2, rel=1e-12)
    assert rep.beta == pytest.approx((2.0 / math.pi) ** 2 / (params.m**2 * 10.0 * math.pi), rel=1e-12)
    assert rep.p_D == pytest.approx(math.sqrt(params.hbar * params.m / params.eps_d), rel=1e-12)
    fig2 = regime_report(FIG2)
    assert fig2.beta > 0 and fig2.p_D > 0


def test_gup_beta_vanishes_with_amplitude():
    b_small = regime_report(ModelParams(alpha=3.0, A=10.0)).beta
    b_large = regime_report(ModelParams(alpha=3.0, A=1e9)).beta
    assert 0.0 < b_large < b_small


def test_domain_errors():
    with pytest.raises(ValueError):
        commutator_expectation(0.0, FIG2)
    with pytest.raises(ValueError):
        commutator_expectation(0.1, FIG2, "bogus")
