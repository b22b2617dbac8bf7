"""Casimir toy model: Euler-Maclaurin, closed-form delta against regulated sums, eps_D bound."""

import math

import mpmath
import numpy as np
import pytest

from diffpath import casimir
from diffpath.casimir import (
    CasimirConfig,
    casimir_energy,
    epsilon_d_bound,
    euler_maclaurin_delta,
    tanh_model_derivs,
)

EPS = np.finfo(float).eps


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


def test_tanh_derivs_first_ten_exact():
    # tanh^{(k)}(0), k = 0..9: the tangent numbers 1, -2, 16, -272, 7936 at odd k
    assert tanh_model_derivs(1.0, 10) == [0.0, 1.0, 0.0, -2.0, 0.0, 16.0, 0.0, -272.0, 0.0, 7936.0]


def test_tanh_derivs_against_mpmath_taylor():
    # at the default 15 digits mpmath's numerical derivatives are far off by
    # k ~ 23; at 50 digits they agree with the tangent numbers to ~1e-33
    with mpmath.workdps(50):
        ref = [float(c * mpmath.factorial(k)) for k, c in enumerate(mpmath.taylor(mpmath.tanh, 0, 25))]
    d = tanh_model_derivs(1.0, 26)
    for k in range(26):
        if k % 2:
            assert abs(d[k] - ref[k]) <= 1e-14 * abs(ref[k]), k
        else:
            assert d[k] == 0.0 and abs(ref[k]) < 1e-30, k


def test_tanh_derivs_order_cap():
    assert len(tanh_model_derivs(0.1, 60)) == 60
    with pytest.raises(ValueError, match="order"):
        tanh_model_derivs(0.1, 61)


def test_sum_minus_integral_standard_exp_regulator(regulated_linear_delta):
    # single n_c, modest accuracy: the O(1/n_c^2) regulator error
    delta = casimir_energy(CasimirConfig(L=1.0, omega_D=1.0, n_c=1000), "standard").delta
    assert regulated_linear_delta("exp", 1000) == pytest.approx(delta, abs=1e-4)


@pytest.mark.parametrize("n_c", [10, 100, 1000, 10_000])
def test_sum_minus_integral_linear_exp_closed_form(regulated_linear_delta, n_c):
    # sum_n n q^n - int_0^inf n e^(-n/n_c) dn = q/(1-q)^2 - n_c^2 = 1/(4 sinh^2(h/2)) - 1/h^2,
    # q = e^-h, h = 1/n_c: -1/12 + h^2/240 - h^4/6048 + h^6/172800, within the next term
    # h^8/5322240, is delta plus its regulator terms; both sides round -1/12 by an ulp or less
    h = 1.0 / n_c
    delta = casimir_energy(CasimirConfig(L=1.0, omega_D=1.0, n_c=n_c), "standard").delta
    err = regulated_linear_delta("exp", n_c) - delta - (h**2 / 240 - h**4 / 6048 + h**6 / 172800)
    assert abs(err) <= h**8 / 5322240 + EPS / 8


def test_sum_minus_integral_standard_gauss_regulator(regulated_linear_delta):
    v_exp = regulated_linear_delta("exp", 1000)
    v_gauss = regulated_linear_delta("gauss", 1000)
    delta = casimir_energy(CasimirConfig(L=1.0, omega_D=1.0, n_c=1000, regulator="gauss"), "standard").delta
    assert v_gauss == pytest.approx(delta, abs=1e-4)
    # regulator swap invariance
    assert abs(v_exp - v_gauss) < 1e-4


def test_cross_method_agreement_tanh():
    # closed-form delta vs five Euler-Maclaurin terms across x, to O(x^4)
    for x in (0.05, 0.1, 0.2):
        cfg = CasimirConfig(L=1.0, omega_D=math.pi / x)
        closed = casimir_energy(cfg, "tanh").delta
        analytic = euler_maclaurin_delta(tanh_model_derivs(x, 5), 5)
        assert abs(closed - analytic) < 2.0 * x**4 / 100.0 + 1e-7


def _mpmath_tanh_delta(x):
    # delta = 1/(2x) + ln2/x^2 - (2/x) sum_{n>=0} 1/(e^{2xn} + 1) at 50 digits:
    # summed directly to e^{-2xn} < e^{-100} for x >= 1e-3, by mpmath's
    # Euler-Maclaurin nsum below
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        term = lambda n: 1 / (mpmath.exp(2 * x * n) + 1)
        if x >= mpmath.mpf("1e-3"):
            s = mpmath.fsum(term(n) for n in range(int(mpmath.ceil(50 / x))))
        else:
            s = mpmath.nsum(term, [0, mpmath.inf], method="euler-maclaurin")
        return 1 / (2 * x) + mpmath.log(2) / x**2 - 2 / x * s


@pytest.mark.parametrize("x", [*np.geomspace(1e-6, 10.0, 20), 0.125, 0.12500001])
def test_tanh_delta_against_mpmath(x):
    # within tail_bound plus rounding: the cancelling 1/(2x) + ln2/x^2 on the
    # direct route, a few ulps of delta on the Euler-Maclaurin one
    r = casimir_energy(CasimirConfig(L=math.pi / x, omega_D=1.0), "tanh")
    assert r.route == ("em" if r.x <= 0.125 else "direct")
    if r.route == "direct":
        rounding = 8.0 * EPS * (0.5 / r.x + math.log(2.0) / r.x**2)
    else:
        rounding = 64.0 * EPS * abs(r.delta)
    assert r.tail_bound <= 1e-15
    assert abs(mpmath.mpf(r.delta) - _mpmath_tanh_delta(r.x)) <= r.tail_bound + rounding


def test_tanh_x2_coefficient():
    # the model's O(x^2) correction is -x^2/360, a relative x^2/30 of -1/12
    r = casimir_energy(CasimirConfig(L=math.pi / 1e-3, omega_D=1.0), "tanh")
    assert (r.delta + 1.0 / 12.0) / r.x**2 == pytest.approx(-1.0 / 360.0, rel=1e-6)


def test_casimir_energy_records_route():
    cfg = CasimirConfig(L=2.0, omega_D=100.0)
    r = casimir_energy(cfg, "standard")
    assert (r.delta, r.n_terms, r.tail_bound, r.route) == (-1.0 / 12.0, 0, 0.0, "exact")
    r = casimir_energy(cfg, "tanh")
    assert (r.route, r.n_terms) == ("em", 12)
    r = casimir_energy(CasimirConfig(L=2.0, omega_D=1.0), "tanh")  # x = pi/2
    assert (r.route, r.n_terms) == ("direct", 25)
    with pytest.raises(ValueError, match="model"):
        casimir_energy(cfg, "cubic")


def test_tanh_em_table_matches_the_series_bit_for_bit():
    # the em route sums a table built once; its delta, tail bound and energy
    # are those of the series through euler_maclaurin_delta, in hex
    for x in np.geomspace(1e-8, 0.125, 1200):
        cfg = CasimirConfig(L=math.pi / x, omega_D=1.0, c=1.0, hbar=0.7)
        x = cfg.x
        delta = euler_maclaurin_delta(tanh_model_derivs(x, 24), 24)
        tail = abs(casimir.bernoulli(24)) * x**22 * math.exp(1.5) / (1.5**24 * math.cos(1.5))
        energy = 0.5 * cfg.hbar * cfg.c * math.pi / cfg.L * delta
        r = casimir_energy(cfg, "tanh")
        assert r.route == "em" and r.x == x
        assert (r.delta.hex(), r.tail_bound.hex(), r.energy.hex()) == (delta.hex(), tail.hex(), energy.hex())


def test_tanh_direct_route_unchanged():
    for x in np.geomspace(0.12500001, 10.0, 200):
        cfg = CasimirConfig(L=math.pi / x, omega_D=1.0)
        x = cfg.x
        n = math.ceil(38.0 / x)
        s = math.fsum(1.0 / (np.exp(2.0 * x * np.arange(n)) + 1.0))
        delta = 0.5 / x + math.log(2.0) / (x * x) - 2.0 / x * s
        tail = 2.0 / x * math.exp(-2.0 * x * n) / -math.expm1(-2.0 * x)
        r = casimir_energy(cfg, "tanh")
        assert (r.route, r.n_terms) == ("direct", n)
        assert (r.delta.hex(), r.tail_bound.hex()) == (delta.hex(), tail.hex())


def test_tanh_em_table_built_on_first_em_call(monkeypatch):
    monkeypatch.setattr(casimir, "_EM_TABLE", None)
    casimir_energy(CasimirConfig(L=1.0, omega_D=100.0), "standard")
    casimir_energy(CasimirConfig(L=1.0, omega_D=1.0), "tanh")  # x = pi: direct
    assert casimir._EM_TABLE is None
    casimir_energy(CasimirConfig(L=1.0, omega_D=100.0), "tanh")
    table, b_24 = casimir._EM_TABLE
    assert [e for _, e, _ in table] == list(range(0, 23, 2)) and b_24 == abs(casimir.bernoulli(24))


@pytest.mark.parametrize("model", ["standard", "tanh"])
def test_casimir_energy_never_sums_regulated(model):
    # delta is the n_c -> infinity limit: n_c and regulator are ignored
    results = [
        casimir_energy(CasimirConfig(L=1.0, omega_D=omega_d, n_c=n_c, regulator=reg), model)
        for omega_d in (1.0, 100.0)
        for n_c in (10, 10_000)
        for reg in ("exp", "gauss")
    ]
    assert len({(r.delta, r.route) for r in results}) == (1 if model == "standard" else 2)


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
    # omega_D,min is 0.0, or inf (also where L_exp x_max underflows): named, not divided by
    for args in ((1e300, 1e-300, 1e-300), (1e-300, 0.5, 1e300), (1e-300, 1e-300, 1.0)):
        with pytest.raises(ValueError, match=r"^omega_D,min = .* is not a positive finite float at L_exp="):
            epsilon_d_bound(*args)
    # omega_D,min is finite, epsilon_d = L_exp / c is not: the same error, naming epsilon_d
    with pytest.raises(ValueError) as err:
        epsilon_d_bound(1e300, 1e-300, 1e-20)
    assert str(err.value) == ("epsilon_d = L_exp / c = inf is not a positive finite float"
                              " at L_exp=1e+300, rel_error=1e-300, c=1e-20")
