"""Path representation, restriction, sampling, twin, and the derived scales of ModelParams."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from diffpath.paths import (
    FourierPath,
    ModelParams,
    differentiable_twin,
    eval_path,
    sample_brownian,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(A=10.0, epsilon_D=0.1)  # both given
    with pytest.raises(ValueError):
        ModelParams(A=None, epsilon_D=None)
    with pytest.raises(ValueError):
        ModelParams(A=-1.0)
    with pytest.raises(ValueError):
        ModelParams(A=1.0, T=0.0)
    for name in ("m", "hbar", "T", "alpha", "A", "epsilon_D", "omega"):
        for bad in (math.inf, -math.inf, math.nan):
            amplitude = {} if name in ("A", "epsilon_D") else {"A": 10.0}
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                ModelParams(**amplitude, **{name: bad})


def test_params_refuse_scales_out_of_float_range():
    # A(T) = (T / epsilon_D)^(alpha - 1) = 1e400, and Abar = sqrt(m pi^2 / 4) A
    # with m * pi^2 past the float range
    for bad in ({"epsilon_D": 1e-200, "alpha": 3.0}, {"m": 1e308, "A": 10.0}):
        with pytest.raises(ValueError, match="^Abar = .* overflows at m="):
            ModelParams(**bad)
    # Abar^2 below the normal floats, from a subnormal mass or a tiny A
    for bad in ({"m": 1e-320, "A": 10.0}, {"A": 1e-160}):
        with pytest.raises(ValueError, match=r"^Abar\^2 = .* underflows at m="):
            ModelParams(**bad)
    # the edges stay accepted: Abar^2 overflowing is refused by the series that
    # square it, and A(T) from epsilon_D needs alpha > 1 only when it is read
    huge, tiny = ModelParams(A=1e154).a_bar, ModelParams(m=1e-300, A=10.0).a_bar
    assert huge * huge == math.inf and tiny * tiny > 0.0
    ModelParams(epsilon_D=1e-200, alpha=0.5)


def test_scales_at_another_time_match_a_copy():
    # a_bar_at / eps_d_at give what a copy with that T gives, checks and errors included
    from dataclasses import replace

    for params in (ModelParams(A=3.0, m=0.7, hbar=1.3), ModelParams(epsilon_D=0.2, alpha=2.6),
                   ModelParams(epsilon_D=1e-3, alpha=30.0), ModelParams(A=1e-150)):
        for T in (1e-300, 1e-3, 0.7, 5, 1e300, 0.0, -1.0, math.inf, math.nan):
            try:
                copy = replace(params, T=T)
            except ValueError as exc:
                for method in (params.a_bar_at, params.eps_d_at):
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        method(T)
                continue
            assert params.a_bar_at(T).hex() == copy.a_bar.hex()
            assert params.eps_d_at(T).hex() == copy.eps_d.hex()
    # epsilon_D primary with alpha <= 1: the copy has no A(T), and T is still checked
    params = ModelParams(epsilon_D=0.2, alpha=0.5)
    with pytest.raises(ValueError, match=r"^A\(T\) from epsilon_D requires alpha > 1$"):
        replace(params, T=2.0).a_bar
    with pytest.raises(ValueError, match=r"^A\(T\) from epsilon_D requires alpha > 1$"):
        params.a_bar_at(2.0)
    assert params.eps_d_at(2.0) == replace(params, T=2.0).eps_d == 0.2
    for method in (params.a_bar_at, params.eps_d_at):
        with pytest.raises(ValueError, match="^T must be positive$"):
            method(0.0)


def test_single_mode_path_values():
    p = FourierPath(T=1.0, coeffs=np.array([1.0]))
    assert eval_path(p, 0.0) == 0.0
    assert eval_path(p, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert eval_path(p, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_eval_domain_error():
    p = FourierPath(T=1.0, coeffs=np.array([1.0]))
    with pytest.raises(ValueError):
        eval_path(p, -0.1)
    with pytest.raises(ValueError):
        eval_path(p, 1.5)


def test_sample_brownian_bounds_and_determinism():
    params = ModelParams(alpha=2.1, A=10.0)
    p1 = sample_brownian(params, 500, seed=42)
    p2 = sample_brownian(params, 500, seed=42)
    np.testing.assert_array_equal(p1.coeffs, p2.coeffs)
    j = np.arange(1, 501)
    assert np.all(np.abs(p1.coeffs) * j / params.sigma <= 1.0)
    assert not np.array_equal(p1.coeffs, sample_brownian(params, 500, seed=43).coeffs)


def test_sample_brownian_mean_zero():
    params = ModelParams(alpha=2.1, A=10.0)
    a1 = np.array([sample_brownian(params, 1, seed=s).coeffs[0] for s in range(3000)])
    stderr = a1.std(ddof=1) / math.sqrt(a1.size)
    assert abs(a1.mean()) < 3.0 * stderr


def test_twin_clamps_and_is_idempotent():
    params = ModelParams(alpha=2.1, A=10.0)
    p = sample_brownian(params, 400, seed=7)
    out = differentiable_twin(p, params)
    twin = out["twin"]
    assert twin.restriction_satisfied(params.amplitude, params.alpha)
    again = differentiable_twin(twin, params)["twin"]
    np.testing.assert_array_equal(twin.coeffs, again.coeffs)
    # low modes copied verbatim
    jd = out["j_D"]
    np.testing.assert_array_equal(twin.coeffs[:jd], p.coeffs[:jd])


def test_twin_identity_when_amplitude_huge():
    params = ModelParams(alpha=2.1, A=1e12)
    p = sample_brownian(params, 100, seed=1)
    out = differentiable_twin(p, params)
    np.testing.assert_array_equal(out["twin"].coeffs, p.coeffs)


def test_twin_j_d_example():
    # A/sigma = 10, alpha = 2 -> j_D = 10
    params = ModelParams(alpha=2.0, A=10.0, m=1.0, hbar=1.0, T=1.0)
    assert differentiable_twin(sample_brownian(params, 20, 0), params)["j_D"] == 10


def test_twin_requires_alpha_above_one():
    params = ModelParams(alpha=0.9, A=10.0)
    p = sample_brownian(params, 10, seed=0)
    with pytest.raises(ValueError):
        differentiable_twin(p, params)


def test_twin_coarse_grid_proximity():
    # pointwise |x - x_twin| below sum_{j>j_D} 2 A / j^alpha on a coarse grid
    params = ModelParams(alpha=2.1, A=10.0)
    jd = params.j_d
    p = sample_brownian(params, 2 * jd, seed=11)
    twin = differentiable_twin(p, params)["twin"]
    eps_d = params.eps_d
    grid = np.arange(0.0, params.T + 1e-12, 2.0 * eps_d)
    diff = np.abs(eval_path(p, grid) - eval_path(twin, grid))
    j = np.arange(jd + 1, 2 * jd + 1)
    bound = float(np.sum(2.0 * params.amplitude / j**params.alpha))
    assert np.all(diff < bound)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(deadline=None, max_examples=20)
def test_restriction_implies_sup_bound(seed):
    params = ModelParams(alpha=2.1, A=2.0)
    p = sample_brownian(params, 50, seed=seed)
    twin = differentiable_twin(p, params)["twin"]
    grid = np.linspace(0.0, params.T, 1000)
    assert np.max(np.abs(eval_path(twin, grid))) <= params.amplitude * float(zeta(2.1))


def test_mode_w_is_the_per_mode_number():
    j = np.arange(1.0, 1001.0)
    eps_primary = ModelParams(alpha=3.0, epsilon_D=0.1, T=2.5, m=3.0, hbar=0.5)
    for params in (ModelParams(alpha=2.1, A=10.0), eps_primary):
        assert np.array_equal(params.mode_w(j), (params.a_bar / j ** (params.alpha - 1.0)) ** 2)
    # with epsilon_D primary, a_bar = (pi / 2)(T / eps_D)^(alpha - 1) whatever m and hbar are
    assert eps_primary.a_bar == pytest.approx(0.5 * math.pi * 25.0**2, rel=1e-14)


def test_eps_d_fig2_value():
    params = ModelParams(alpha=2.1, A=10.0, T=1.0, m=1.0, hbar=1.0)
    # 50-digit solve of (T/eps)^(alpha-1) = A/sigma
    mp.mp.dps = 50
    ref = float(mp.mpf(10) ** (-1 / mp.mpf("1.1")))
    assert params.eps_d == pytest.approx(ref, rel=1e-12)


def test_amplitude_from_eps_d():
    params = ModelParams(alpha=2.1, epsilon_D=0.1, T=1.0, m=1.0, hbar=1.0)
    assert params.amplitude == pytest.approx(10.0 ** 1.1, rel=1e-12)
    assert params.amplitude == pytest.approx(12.589, rel=1e-3)


@given(st.floats(min_value=0.5, max_value=1e6))
@settings(deadline=None, max_examples=60)
def test_eps_d_amplitude_round_trip(a):
    eps_d = ModelParams(alpha=2.1, A=a).eps_d
    back = ModelParams(alpha=2.1, epsilon_D=eps_d).amplitude
    assert abs(back - a) / a <= 1e-12


def test_amplitude_grows_as_eps_d_falls():
    a1 = ModelParams(alpha=2.1, epsilon_D=1e-3).amplitude
    a2 = ModelParams(alpha=2.1, epsilon_D=1e-6).amplitude
    assert a2 > a1 > 0


def test_eps_d_and_j_d_past_the_float_range():
    # (A / sigma)^(-1 / (alpha - 1)) = 1e2000: eps_D takes its A / sigma -> 0 limit
    tiny = ModelParams(alpha=1.05, A=1e-100)
    assert tiny.eps_d == math.inf and tiny.eps_d_at(5.0) == math.inf
    # (A / sigma)^(1 / (alpha - 1)) = 1e1000 has no integer j_D
    with pytest.raises(ValueError, match=r"j_D overflows at A=10000000000\.0, alpha=1\.01"):
        ModelParams(alpha=1.01, A=1e10).j_d


def test_eps_d_j_d_amplitude_need_alpha_above_one():
    params = ModelParams(alpha=1.0, A=10.0)
    with pytest.raises(ValueError):
        params.eps_d
    with pytest.raises(ValueError):
        params.j_d
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, epsilon_D=0.1).amplitude
