"""Casimir toy model: Euler-Maclaurin, regulated sums, eps_D bound."""

import math

import mpmath
import numpy as np
import pytest

from diffpath.casimir import (
    CasimirConfig,
    casimir_energy,
    epsilon_d_bound,
    euler_maclaurin_delta,
    extrapolated_delta,
    sum_minus_integral,
    tanh_model_derivs,
)


def test_euler_maclaurin_linear_spectrum():
    # f(n) = n: derivatives (0, 1, 0, 0) -> -1/12
    assert euler_maclaurin_delta([0.0, 1.0, 0.0, 0.0], 4) == pytest.approx(-1.0 / 12.0, abs=0)


def test_euler_maclaurin_zero_function():
    assert euler_maclaurin_delta([0.0] * 6, 6) == 0.0


def test_euler_maclaurin_only_first_derivative():
    fp = 2.7
    assert euler_maclaurin_delta([0.0, fp, 0.0, 0.0], 4) == pytest.approx(-fp / 12.0, rel=1e-15)


def test_euler_maclaurin_insufficient_derivs():
    with pytest.raises(ValueError):
        euler_maclaurin_delta([0.0, 1.0], 4)


def test_tanh_derivs_and_em_coefficient():
    # f_D^{(1)}(0) = 1, f_D^{(3)}(0) = -2 x^2: EM gives -1/12 - x^2/360
    x = 0.1
    d = tanh_model_derivs(x, 5)
    assert d[1] == 1.0 and d[2] == 0.0
    assert d[3] == pytest.approx(-2.0 * x**2, rel=1e-15)
    val = euler_maclaurin_delta(d, 5)
    assert val == pytest.approx(-1.0 / 12.0 - x**2 / 360.0, rel=1e-12)


def test_sum_minus_integral_standard_exp_regulator():
    # single n_c, modest accuracy; extrapolation test tightens it
    val = sum_minus_integral(lambda n: n, "exp", 1000)
    assert val == pytest.approx(-1.0 / 12.0, abs=1e-4)


@pytest.mark.parametrize("n_c", [10, 100, 1000, 10_000])
def test_sum_minus_integral_linear_exp_closed_form(n_c):
    # sum_n n q^n = q/(1-q)^2 with q = e^(-1/n_c), and int_0^inf n e^(-n/n_c) dn = n_c^2;
    # the sum and the integral each carry a few ulps of n_c^2
    with mpmath.workdps(40):
        q = mpmath.exp(-mpmath.mpf(1) / n_c)
        exact = q / (1 - q) ** 2 - mpmath.mpf(n_c) ** 2
        err = abs(sum_minus_integral(lambda n: n, "exp", n_c) - exact)
    assert err <= 2.0 * np.finfo(float).eps * n_c**2


@pytest.mark.parametrize("regulator, n_max", [("exp", 450_001), ("gauss", 70_001)])
def test_sum_minus_integral_works_in_blocks(regulator, n_max):
    # one point and 12 Gauss-Legendre nodes per unit interval, in blocks of
    # at most 2^14 points: no array of the size of the whole range
    sizes = []

    def f(n):
        sizes.append(np.size(n))
        return n

    sum_minus_integral(f, regulator, 10_000)
    assert max(sizes) <= 1 << 14
    assert sum(sizes) == 13 * n_max


def test_sum_minus_integral_zero_function():
    assert sum_minus_integral(lambda n: np.zeros_like(n), "exp", 100) == 0.0


def test_extrapolated_standard_both_regulators():
    v_exp = extrapolated_delta(lambda n: n, "exp")
    v_gauss = extrapolated_delta(lambda n: n, "gauss")
    assert v_exp == pytest.approx(-1.0 / 12.0, abs=1e-4)
    assert v_gauss == pytest.approx(-1.0 / 12.0, abs=1e-4)
    # regulator swap invariance of the extrapolated value
    assert abs(v_exp - v_gauss) < 1e-4


def test_cross_method_agreement_tanh():
    # sum-minus-integral vs Euler-Maclaurin across x, to O(x^4)
    for x in (0.05, 0.1, 0.2):
        cfg = CasimirConfig(L=1.0, omega_D=math.pi / x)
        numeric = casimir_energy(cfg, "tanh").delta
        analytic = euler_maclaurin_delta(tanh_model_derivs(x, 5), 5)
        assert abs(numeric - analytic) < 2.0 * x**4 / 100.0 + 1e-7


def test_casimir_energy_standard():
    cfg = CasimirConfig(L=2.0, omega_D=100.0)
    res = casimir_energy(cfg, "standard")
    assert res.energy == pytest.approx(0.5 * math.pi / 2.0 * (-1.0 / 12.0), rel=1e-4)


def test_tanh_approaches_standard_monotonically():
    deltas = []
    for omega_d in (20.0, 40.0, 80.0, 160.0):
        cfg = CasimirConfig(L=1.0, omega_D=omega_d)
        deltas.append(casimir_energy(cfg, "tanh").delta)
    # correction is negative and shrinks toward -1/12 as omega_D grows
    assert deltas == sorted(deltas)
    assert deltas[-1] == pytest.approx(-1.0 / 12.0, abs=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        CasimirConfig(L=0.0, omega_D=1.0)
    with pytest.raises(ValueError):
        CasimirConfig(L=1.0, omega_D=1.0, regulator="nope")
    with pytest.raises(ValueError, match="n_c"):
        CasimirConfig(L=1.0, omega_D=1.0, n_c=5)
    with pytest.raises(ValueError):
        sum_minus_integral(lambda n: n, "exp", 5)


def test_epsilon_d_bound_order_of_magnitude():
    res = epsilon_d_bound(1e-7, 0.01, 3e8)
    # headline is the paper-style order-of-magnitude form L/c ~ 1e-15 s
    assert 1e-16 <= res.epsilon_d <= 1e-14
    assert res.omega_d_min > res.omega_d_min_order  # omega_D > c/L holds a fortiori
    assert res.epsilon_d_exact < res.epsilon_d


def test_epsilon_d_bound_monotonicity():
    loose = epsilon_d_bound(1e-7, 0.5, 3e8)
    tight = epsilon_d_bound(1e-7, 0.001, 3e8)
    assert loose.epsilon_d_exact > tight.epsilon_d_exact
    bigger_l = epsilon_d_bound(1e-6, 0.01, 3e8)
    assert bigger_l.epsilon_d_exact > epsilon_d_bound(1e-7, 0.01, 3e8).epsilon_d_exact


def test_epsilon_d_bound_validation():
    with pytest.raises(ValueError):
        epsilon_d_bound(-1.0, 0.01, 3e8)
    with pytest.raises(ValueError):
        epsilon_d_bound(1e-7, 1.5, 3e8)
