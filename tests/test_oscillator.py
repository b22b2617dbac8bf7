"""Oscillator factor Pi(T): log-space product, shifts, unitarity, fits."""

import math

import mpmath as mp
import numpy as np
import pytest

from diffpath.oscillator import (
    _log_sinh_over_x,
    log_pi,
    partition_functions,
    scan_E0_vs_omega,
    spectrum_shift,
    unitarity_diagnostic,
)
from diffpath.paths import ModelParams

FIG4 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, epsilon_D=0.1, omega=1.0)


def mpmath_log_pi(params, T, n_terms):
    """Independent 50-digit oracle for the truncated log product."""
    mp.mp.dps = 50
    sigma_t = mp.sqrt(params.hbar * T / params.m)
    a_t = sigma_t * (T / mp.mpf(params.epsilon_D)) ** (params.alpha - 1)
    b_len = a_t * mp.sqrt(params.m * T / (4 * params.hbar))
    total = mp.mpf(0)
    for n in range(1, n_terms + 1):
        c = b_len / mp.mpf(n) ** params.alpha
        lam = (n * mp.pi / T) ** 2
        total += mp.log(mp.erf(c * mp.sqrt(lam + params.omega**2)) / mp.erf(c * mp.sqrt(lam)))
    return float(total)


def test_log_pi_zero_omega_exact():
    assert log_pi(1.0, FIG4.with_omega(0.0)).log_pi == 0.0


def test_log_pi_feynman_limit():
    params = ModelParams(alpha=2.1, A=1e12, omega=1.0)
    assert abs(log_pi(1.0, params, n_terms=100_000).log_pi) < 1e-8


def test_log_pi_against_mpmath_oracle():
    res = log_pi(1.0, FIG4, n_terms=400)
    ref = mpmath_log_pi(FIG4, 1.0, 400)
    assert res.log_pi == pytest.approx(ref, rel=1e-11)


def test_log_pi_nonnegative_and_monotone_in_omega():
    vals = [log_pi(1.0, FIG4.with_omega(w), n_terms=5000).log_pi for w in (0.5, 1.0, 2.0, 8.0)]
    assert all(v >= 0.0 for v in vals)
    assert vals == sorted(vals)


def test_log_pi_tail_bound_honest_under_doubling():
    r1 = log_pi(1.0, FIG4, n_terms=20_000)
    r2 = log_pi(1.0, FIG4, n_terms=40_000)
    assert abs(r2.log_pi - r1.log_pi) <= r1.tail_bound


def test_log_pi_adaptive_converges():
    res = log_pi(1.0, FIG4, tol=1e-6)
    assert res.converged
    assert res.tail_bound <= 1e-6 * max(1.0, abs(res.log_pi))


def test_log_pi_domain():
    with pytest.raises(ValueError):
        log_pi(0.0, FIG4)


def mp_log_erf_over_sqrt(w):
    """L(W) = ln(Erf(sqrt W) / sqrt W) in mpmath."""
    z = mp.sqrt(w)
    return mp.log(mp.erf(z) / z)


def test_bracket_lemma_mpmath():
    # 0 <= L(W) - L(k^2 W) <= (k^2 - 1) W / 3: the bound behind every bracket
    mp.mp.dps = 50
    rng = np.random.default_rng(11)
    for log_w, k in zip(rng.uniform(-8.0, 4.0, 200), 1.0 + 10.0 ** rng.uniform(-6.0, 1.5, 200)):
        w = mp.mpf(10.0) ** log_w
        k2 = mp.mpf(k) ** 2
        drop = mp_log_erf_over_sqrt(w) - mp_log_erf_over_sqrt(k2 * w)
        assert 0 <= drop <= (k2 - 1) * w / 3


@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0])
@pytest.mark.parametrize("primary", [{"A": 100.0}, {"epsilon_D": 0.1}])
def test_log_pi_adaptive_within_tail_bound(alpha, primary):
    for T, omega_t in ((0.5, 0.1), (1.0, 2.0), (5.0, 2.0), (1.0, 25.0), (5.0, 25.0)):
        params = ModelParams(alpha=alpha, omega=omega_t / T, **primary)
        coarse = log_pi(T, params, tol=1e-6)
        fine = log_pi(T, params, tol=1e-13)
        assert coarse.converged and fine.converged
        assert coarse.tail_bound <= 1e-6 and fine.tail_bound <= 1e-13
        assert abs(coarse.log_pi - fine.log_pi) <= coarse.tail_bound


def test_log_pi_adaptive_between_exact_bounds():
    mp.mp.dps = 30
    cases = [
        (ModelParams(alpha=2.05, epsilon_D=0.02), (1e-4, 0.3, 1.0, 5.0, 50.0)),
        (ModelParams(alpha=4.0, A=1.0), (1e-4, 1.0, 25.0)),
        (ModelParams(alpha=2.1, A=1e12), (1e-3, 1.0, 3.0)),  # Feynman limit: ln Pi -> 0
        (ModelParams(alpha=0.8, A=10.0), (0.5, 2.0)),  # the n^(1-2 alpha) bound is the weaker one
    ]
    for params, omega_ts in cases:
        for omega_t in omega_ts:
            upper = 0.5 * float(mp.log(mp.sinh(omega_t) / omega_t))
            assert 0.5 * _log_sinh_over_x(omega_t) == pytest.approx(upper, rel=1e-14)
            for tol in (1e-4, 1e-7):
                res = log_pi(1.0, params.with_omega(omega_t), tol=tol)
                assert 0.0 <= res.log_pi <= upper * (1.0 + 1e-14)


def test_spectrum_shift_values():
    ss = spectrum_shift(1.0, FIG4, n_level=0, n_terms=100_000)
    assert ss.delta_omega == pytest.approx(log_pi(1.0, FIG4, n_terms=100_000).log_pi, rel=1e-12)
    assert ss.e0 == pytest.approx(0.5 - ss.delta_omega, rel=1e-12)
    assert ss.energy == ss.e0
    assert ss.spacing == FIG4.hbar * FIG4.omega


def test_spectrum_shift_unmodified_limit():
    params = ModelParams(alpha=2.1, A=1e12, omega=1.0)
    ss = spectrum_shift(1.0, params, 3, n_terms=10_000)
    assert ss.energy == pytest.approx(3.5, abs=1e-8)


def test_level_spacing_invariance():
    for n in (0, 5, 50):
        lo = spectrum_shift(1.0, FIG4, n, n_terms=20_000)
        hi = spectrum_shift(1.0, FIG4, n + 1, n_terms=20_000)
        got = hi.energy - lo.energy
        assert abs(got - FIG4.hbar * FIG4.omega) <= 1e-12 * FIG4.hbar * FIG4.omega


def test_partition_functions():
    params = FIG4.with_omega(math.log(2.0))  # omega T = ln 2
    pf = partition_functions(1.0, params, n_terms=5000)
    assert pf.z_f == pytest.approx(math.sqrt(2.0), rel=1e-12)
    lp = log_pi(1.0, params, n_terms=5000).log_pi
    assert pf.log_z_d - pf.log_z_f == pytest.approx(lp, rel=1e-12)
    big = partition_functions(1.0, ModelParams(alpha=2.1, A=1e12, omega=1.0), n_terms=2000)
    assert big.z_d == pytest.approx(big.z_f, rel=1e-10)
    with pytest.raises(ValueError):
        partition_functions(1.0, FIG4.with_omega(0.0))


def test_unitarity_above_eps_d_constant():
    rep = unitarity_diagnostic(np.linspace(0.2, 5.0, 10), FIG4, tol=1e-4)
    assert rep.max_rel_deviation <= 0.1
    assert all(v == "unitary-compatible" for v in rep.verdicts)


def test_unitarity_sub_eps_d_large_deviation():
    rep = unitarity_diagnostic(np.linspace(0.01, 0.05, 6), FIG4, tol=1e-3)
    assert rep.sub_eps_max_rel_deviation is not None
    assert rep.sub_eps_max_rel_deviation > 0.5
    assert all(v == "sub-epsilon-D" for v in rep.verdicts)


def test_unitarity_single_point_and_empty():
    rep = unitarity_diagnostic([1.0], FIG4, tol=1e-4)
    assert rep.max_rel_deviation == 0.0
    with pytest.raises(ValueError):
        unitarity_diagnostic([], FIG4)


def test_scan_e0_recovers_free_ground_state():
    params = ModelParams(alpha=2.1, A=1e12, omega=1.0)
    fit = scan_E0_vs_omega([1.0, 2.0, 5.0, 10.0], params, 1.0, n_terms=2000)
    assert fit["a"] == pytest.approx(0.0, abs=1e-6)
    assert fit["b"] == pytest.approx(0.5, abs=1e-6)


def test_scan_e0_shift_grows_with_alpha():
    omegas = np.linspace(100.0, 2000.0, 6)
    slopes = []
    for alpha in (2.1, 3.0, 5.0):
        params = ModelParams(alpha=alpha, epsilon_D=0.1, omega=1.0)
        fit = scan_E0_vs_omega(omegas, params, 1.0, n_terms=20_000)
        assert fit["b"] < 0.5
        slopes.append(fit["b"])
    # larger differentiability exponent -> stronger depression of E0
    assert slopes == sorted(slopes, reverse=True)


def test_scan_e0_requires_three_points():
    with pytest.raises(ValueError):
        scan_E0_vs_omega([1.0, 2.0], FIG4, 1.0)
