"""Velocity-series tests: brute-force oracles, closed forms, regime bounds."""

import functools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath import velocity
from diffpath.paths import ModelParams
from diffpath.special import _sine_integral_tail, hurwitz_zeta, one_minus_zed
from diffpath.velocity import (
    FractalRegimeError,
    crossing_eps,
    regime_report,
    s_diff,
    scan_v2,
    uv_plateau_scale,
    v2_diff,
    v2_feynman,
)

FIG2 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, A=10.0)
EPS = np.finfo(float).eps


def brute_s_feynman(tau, t0, n):
    j = np.arange(1, n + 1)
    ds = np.sin(j * math.pi * (t0 + tau)) - np.sin(j * math.pi * t0)
    return float(np.sum((ds / j) ** 2))


def brute_s_diff(tau, params, n):
    j = np.arange(1, n + 1, dtype=float)
    w = (params.a_bar / j ** (params.alpha - 1.0)) ** 2
    # naive weights are fine at this tolerance; cross-checks the library's
    # cancellation-safe branch from the outside
    weights = one_minus_zed(w)
    return float(np.sum((np.sin(j * math.pi * tau) / j) ** 2 * weights))


@pytest.mark.dispatch
@pytest.mark.parametrize("k", range(7))
def test_trigamma_is_hurwitz_zeta_at_the_certified_term_counts(k):
    # the Z-form takes psi_1(n + 1) as zeta(2, n + 1) at every n = 4096 * 4^k
    # that certify runs: within 2 ulp of mpmath's trigamma
    n = 4096 * 4**k
    with mp.workdps(60):
        ref = mp.psi(1, n + 1)
        value = hurwitz_zeta(2.0, n + 1.0)
        assert abs(value - ref) <= 2 * math.ulp(float(ref))


def test_s_feynman_small_tau_limit(s_feynman_closed):
    # (pi^2/2) tau to O(tau^2), the value of the series at t0 = 0.3 too
    value = velocity._s_feynman_exact(1e-6)
    assert value == pytest.approx(math.pi**2 / 2.0 * 1e-6, rel=1e-2)
    assert value == pytest.approx(s_feynman_closed(1e-6, 0.3), rel=1e-12)


def test_s_feynman_brute_force_oracle():
    # the closed form v2_feynman takes, for the series at any t0
    for tau, t0 in [(0.1, 0.0), (0.01, 0.3), (0.37, 0.12)]:
        ref = brute_s_feynman(tau, t0, 2_000_000)
        # brute truncation itself is ~1/N; compare at its level
        assert velocity._s_feynman_exact(tau) == pytest.approx(ref, abs=5e-6)


def test_s_feynman_exact_closed_value(s_feynman_closed):
    # the series sums to (pi^2/2) tau (1 - tau) exactly
    for tau in (0.001, 0.05, 0.25, 0.9):
        assert velocity._s_feynman_exact(tau) == pytest.approx(s_feynman_closed(tau), abs=2e-10)


def test_s_feynman_needs_no_quadpack(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("the free series called QUADPACK")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    rows = scan_v2([1e-3, 0.3], FIG2, "feynman", 1e-12)
    assert [r.v2 for r in rows] == [v2_feynman(1e-3, FIG2), v2_feynman(0.3, FIG2)]


def test_cos_over_t2_integral_against_mpmath():
    # int_a^inf cos(theta t) / t^2 dt; mpmath's oscillatory quadrature is the oracle
    for a, theta in [(4.5, 2.0), (16384.5, 2.0 * math.pi * 1e-3), (1e6 + 0.5, 1e-4), (65536.5, 1e-6)]:
        with mp.workdps(30):
            ref = mp.quadosc(lambda t: mp.cos(theta * t) / t**2, [a, mp.inf], omega=theta)
        got = velocity._cos_over_t2_integral(a, theta)
        assert abs(got - float(ref)) <= 4.0 * EPS * (1.0 / a + theta), (a, theta)


@pytest.mark.dispatch
def test_sine_integral_tail_against_mpmath():
    # pi/2 - Si(x) from 1e-8 to 1e8, on both sides of the series/fraction switch at
    # x = 3: within 4 ulp of max(|value|, min(1, 1/x)), its size where it crosses 0
    xs = np.concatenate([np.geomspace(1e-8, 1e8, 1500), np.linspace(2.5, 3.5, 101), np.linspace(0.5, 40.0, 400)])
    with mp.workdps(40):
        for x in xs.tolist():
            ref = mp.pi / 2 - mp.si(x)
            scale = max(abs(ref), mp.mpf(min(1.0, 1.0 / x)))
            assert abs(_sine_integral_tail(x) - ref) <= 4 * EPS * scale, x


def test_s_feynman_t0_independence(s_feynman_closed):
    base = velocity._s_feynman_exact(0.01)
    for t0 in (0.1, 0.3, 0.7):
        assert abs(s_feynman_closed(0.01, t0) - base) <= 1e-8


def test_s_feynman_domain():
    # the free route takes tau = eps / T in (0, 1) only
    for eps in (1.2, -0.2, 0.0):
        with pytest.raises(ValueError):
            v2_feynman(eps, FIG2)
        with pytest.raises(ValueError):
            scan_v2([eps], FIG2, "feynman")


def test_s_feynman_closed_matches_series(s_feynman_closed):
    for tau in (0.001, 0.01, 0.1):
        assert s_feynman_closed(tau) == pytest.approx(velocity._s_feynman_exact(tau), abs=1e-8)


def test_s_feynman_closed_small_tau(s_feynman_closed):
    tau = 1e-5
    assert s_feynman_closed(tau) == pytest.approx(math.pi**2 / 2.0 * tau, rel=1e-4)


def test_v2_feynman_leading_order():
    assert v2_feynman(0.01, FIG2) == pytest.approx(100.0, rel=2e-2)
    assert v2_feynman(0.005, FIG2) == pytest.approx(2.0 * v2_feynman(0.01, FIG2), rel=3e-2)


def test_v2_feynman_brute_force_oracle():
    # 4e6 terms push the oracle's own 1/N truncation below the tolerance
    ref = (2.0 / 1.0) * (1.0 / (math.pi * 0.1)) ** 2 * brute_s_feynman(0.1, 0.0, 4_000_000)
    assert v2_feynman(0.1, FIG2) == pytest.approx(ref, rel=1e-6)


def test_s_diff_zero_and_domain():
    assert s_diff(0.0, FIG2).value == 0.0
    with pytest.raises(ValueError):
        s_diff(0.1, ModelParams(alpha=0.9, A=10.0))


def test_s_diff_brute_force_oracle():
    for tau in (0.001, 0.01, 0.2):
        sv = s_diff(tau, FIG2, 1e-9)
        ref = brute_s_diff(tau, FIG2, 1_000_000)
        assert sv.converged
        assert sv.value == pytest.approx(ref, rel=1e-6)


def test_s_diff_feynman_limit_large_amplitude():
    params = ModelParams(alpha=2.1, A=1e12)
    for tau in (0.01, 0.1):
        sd = s_diff(tau, params, 1e-9)
        assert sd.converged
        assert abs(sd.value - velocity._s_feynman_exact(tau)) <= 1e-9


def test_s_diff_small_tau_envelope():
    # Rigorous small-tau bound: S_D <= (pi tau)^2 sum_j min(1, 2 W_j / 3).
    # The coarser envelope ~ Abar (pi tau)^2 only holds as an order of
    # magnitude (the plateau overshoots it by ~4%), so it gets a 10% slack.
    tau = 0.001
    sv = s_diff(tau, FIG2, 1e-9)
    j = np.arange(1, 2_000_001, dtype=float)
    w = (FIG2.a_bar / j ** (FIG2.alpha - 1.0)) ** 2
    rigorous = (math.pi * tau) ** 2 * float(np.minimum(1.0, 2.0 * w / 3.0).sum())
    assert sv.value <= rigorous
    assert sv.value <= 1.1 * FIG2.a_bar * (math.pi * tau) ** 2


@given(st.floats(min_value=1e-4, max_value=0.99))
@settings(deadline=None, max_examples=25)
def test_s_diff_below_s_feynman(tau):
    sd = s_diff(tau, FIG2, 1e-8).value
    assert 0.0 <= sd <= velocity._s_feynman_exact(tau) + 1e-12


def test_v2_diff_plateau():
    lo = v2_diff(1e-6, FIG2, 1e-9)
    hi = v2_diff(1e-5, FIG2, 1e-9)
    assert abs(hi - lo) / lo < 0.05


def test_v2_diff_monotone_in_amplitude():
    vals = [v2_diff(0.01, ModelParams(alpha=2.1, A=a), 1e-8) for a in (2.0, 5.0, 10.0, 20.0, 40.0)]
    assert vals == sorted(vals)


def test_v2_diff_below_v2_feynman():
    for eps in (0.001, 0.05, 0.3):
        assert v2_diff(eps, FIG2, 1e-9) <= v2_feynman(eps, FIG2)


def test_low_resolution_correction_bound():
    # 0 <= v2_F - v2_D <= (2 hbar T / pi^2 m Abar) / eps^2 for eps above eps_D
    coeff = 2.0 * FIG2.hbar * FIG2.T / (math.pi**2 * FIG2.m * FIG2.a_bar)
    for eps in (0.37, 0.6, 0.9):
        gap = v2_feynman(eps, FIG2) - v2_diff(eps, FIG2, 1e-9)
        assert 0.0 <= gap <= coeff / eps**2


def test_regime_report_values_and_identity():
    params = ModelParams(alpha=3.0, A=10.0)
    rep = regime_report(params)
    assert rep.c_coeff == pytest.approx(4.0 / (10.0 * math.pi**3), rel=1e-12)
    assert rep.v2_uv == pytest.approx(10.0 * math.pi, rel=1e-12)
    assert rep.v2_uv * rep.c_coeff == pytest.approx(4.0 / math.pi**2, rel=1e-12)
    assert rep.p_uv == pytest.approx(math.sqrt(rep.v2_uv), rel=1e-12)


def test_regime_report_feynman_trend():
    small = regime_report(ModelParams(alpha=3.0, A=10.0))
    big = regime_report(ModelParams(alpha=3.0, A=1e6))
    assert big.v2_uv > small.v2_uv
    assert big.c_coeff < small.c_coeff


def test_regime_report_fractal_error():
    with pytest.raises(FractalRegimeError):
        regime_report(ModelParams(alpha=2.0, A=10.0))


def test_crossing_eps_band():
    eps = crossing_eps(FIG2)
    assert 0.005 <= eps <= 0.1


def test_crossing_eps_below_1e_6():
    # eps_D = 2.7e-9: the bracket starts at 1e-3 eps_D, not at 1e-6
    params = ModelParams(alpha=2.05, A=1e9)
    eps = crossing_eps(params)
    assert eps < params.eps_d
    assert v2_diff(eps, params, 1e-7) / v2_feynman(eps, params) == pytest.approx(0.5, abs=1e-6)


def test_scan_v2():
    # a decade step in the small-eps regime scales the result by ~10; at
    # larger eps the exact (1 - eps/T) factor skews the ratio visibly
    rows = scan_v2([0.01, 0.001], FIG2, "feynman", 1e-8)
    assert rows[1].v2 / rows[0].v2 == pytest.approx(10.0, rel=3e-2)
    assert scan_v2([], FIG2, "differentiable") == []
    with pytest.raises(ValueError):
        scan_v2([0.1], FIG2, "nope")


def test_uv_plateau_scale_matches_regime_report():
    assert uv_plateau_scale(ModelParams(alpha=3.0, A=10.0)) == pytest.approx(
        regime_report(ModelParams(alpha=3.0, A=10.0)).v2_uv, rel=1e-14
    )


def test_v2_feynman_is_the_closed_form(s_feynman_closed):
    # (2 hbar / m T)(T / pi eps)^2 (pi^2/2) tau (1 - tau) = (hbar / m eps)(1 - eps / T)
    for eps in (1e-4, 0.01, 0.3, 0.9):
        exact = 2.0 * (1.0 / (math.pi * eps)) ** 2 * (0.5 * math.pi**2 * eps * (1.0 - eps))
        assert v2_feynman(eps, FIG2) == exact
        assert v2_feynman(eps, FIG2) == pytest.approx((1.0 - eps) / eps, rel=1e-14)
    rows = scan_v2([0.01, 0.3], FIG2, "feynman")
    assert [r.v2 for r in rows] == [v2_feynman(0.01, FIG2), v2_feynman(0.3, FIG2)]
    assert all(r.n_terms == 0 and r.tail_bound == 0.0 and r.converged for r in rows)
    # the series, summed in mpmath, has the same value
    assert abs(0.5 * math.pi**2 * 0.3 * 0.7 - s_feynman_closed(0.3, 0.5)) <= 1e-15


# W-form values at Fig. 2 parameters, pinned in hex: where the W-form bound
# meets tol the value is the plain head sum, unchanged bit for bit, and
# within a few ulp of the exact head (test_s_diff_w_form_pins_are_the_exact_head).
PINNED_W_FORM = [
    (FIG2, 1e-4, "0x1.b1bd1d79e9cd8p-20", 4096),
    (FIG2, 1e-3, "0x1.4fdfd17bfd76cp-13", 4096),
    (FIG2, 0.01, "0x1.cd6de7633ba17p-7", 4096),
    (FIG2, 0.2, "0x1.7ed0a7deacebep-1", 4096),
    (FIG2, 0.5, "0x1.3125f88feeea8p+0", 4096),
    (FIG2, 0.9, "0x1.9de5b6116b6f3p-2", 4096),
]


@pytest.mark.parametrize("params, tau, value_hex, n_terms", PINNED_W_FORM)
def test_s_diff_w_form_values_pinned(params, tau, value_hex, n_terms):
    sv = s_diff(tau, params, 1e-9)
    assert sv.converged
    assert (sv.value.hex(), sv.n_terms) == (value_hex, n_terms)


def _mp_zed(w):
    r = mp.sqrt(w)
    return 2 / mp.sqrt(mp.pi) * r * mp.exp(-w) / mp.erf(r)


@functools.lru_cache(maxsize=None)
def _mp_head_weights(a_bar, alpha, n):
    """(j, (1 - Z(W_j)) / j^2) for j = 1..n in 30-digit mpmath."""
    with mp.workdps(30):
        return tuple(
            (mp.mpf(j), (1 - _mp_zed((mp.mpf(a_bar) / mp.mpf(j) ** (mp.mpf(alpha) - 1)) ** 2)) / j**2)
            for j in range(1, n + 1)
        )


@pytest.mark.parametrize("params, tau, value_hex, n_terms", PINNED_W_FORM)
def test_s_diff_w_form_pins_are_the_exact_head(params, tau, value_hex, n_terms):
    # each pin lies within 8 ulp of the exact n-term head sum
    value = float.fromhex(value_hex)
    with mp.workdps(30):
        x = mp.pi * mp.mpf(tau)
        head = mp.fsum(w * mp.sin(j * x) ** 2 for j, w in _mp_head_weights(params.a_bar, params.alpha, n_terms))
    assert abs(value - head) <= 8 * math.ulp(value)


def _mp_s_diff_reference(tau, a_bar, alpha):
    """(S_D(tau), error bound) from Poisson summation, in mpmath.

    With f(t) = Z(W(t)) / t^2, S_D = S_F - sum_j f(j) sin^2(pi tau j).  f is
    smooth and flat to all orders at t = 0, so the sum equals
    int_0^inf f(t) sin^2(pi tau t) dt up to aliases of order j*^-3, where
    j* = Abar^(1/(alpha-1)); every case below has j* > 7e4.  In u = t / j*
    the integral is (J0 - Jc) / (2 j*), J0 = int g, Jc = int g cos(Omega u),
    g(u) = Z(u^(-2 beta)) / u^2, Omega = 2 pi tau j*.  For Omega >= 1e4, Jc
    is dropped: g rises once and falls, with max g <= 1 for alpha <= 4, so
    integration by parts gives |Jc| <= 2 / Omega.
    """
    with mp.workdps(20):
        beta = mp.mpf(alpha) - 1
        j_star = mp.mpf(a_bar) ** (1 / beta)

        def g(u):
            return _mp_zed(u ** (-2 * beta)) / u**2

        j0 = mp.quad(g, [0, 0.25, 0.5, 1, 2, 4, 16, mp.inf])
        omega = 2 * mp.pi * mp.mpf(tau) * j_star
        if omega < 1e4:
            jc = mp.quadosc(lambda u: g(u) * mp.cos(omega * u), [0, mp.inf], omega=omega)
            err = 0
        else:
            jc, err = 0, 1 / (omega * j_star)
        t = mp.mpf(tau)
        return float(mp.pi**2 / 2 * t * (1 - t) - (j0 - jc) / (2 * j_star)), float(err)


# Large amplitudes, where the weights fall only beyond j* ~ 1e5 - 1e8: the
# Z-form certifies the tail after 4096 terms, its cosine half by the Abel
# bound or, where sin(pi tau) is too small for that (tau = 1e-4 and the
# j* ~ 4e5 - 1e6 points), by the Fourier integral.  These small-tau points
# took 262144 to 4194304 terms under the Abel bound alone.
@pytest.mark.parametrize(
    "A, alpha, tau",
    [(1e9, 2.1, 1e-4), (1e9, 2.1, 0.01), (1e9, 2.1, 0.2), (1e9, 2.1, 0.5),
     (1e12, 3.5, 1e-4), (3e10, 2.8, 1e-3), (1e6, 2.1, 1e-4), (6.85e6, 2.216, 2.6e-4),
     (1.8e8, 2.4, 1e-4)],
)
def test_s_diff_large_amplitude_against_mpmath(A, alpha, tau):
    params = ModelParams(alpha=alpha, A=A)
    ref, ref_err = _mp_s_diff_reference(tau, params.a_bar, alpha)
    sv = s_diff(tau, params, 1e-9)
    assert sv.converged and sv.n_terms == 4096
    assert abs(sv.value - ref) <= sv.tail_bound + ref_err + 1e-15


def _brute_s_diff_bracket(params, taus, n=1 << 21):
    """(S_D, bound) per tau: the first n terms summed with math.fsum, plus the
    remainder bound (2/3) Abar^2 n^(1 - 2 alpha) / (2 alpha - 1) from
    1 - Z <= 2 W / 3, independent of the tail forms under test."""
    j = np.arange(1, n + 1, dtype=float)
    w = one_minus_zed((params.a_bar / j ** (params.alpha - 1.0)) ** 2) / j**2
    rem = (2.0 / 3.0) * params.a_bar**2 * float(n) ** (1.0 - 2.0 * params.alpha) / (2.0 * params.alpha - 1.0)
    return [(math.fsum(np.sin(j * (math.pi * tau)) ** 2 * w), rem) for tau in taus]


# j* = Abar^(1/(alpha-1)) from 3e2 to 1e4, where the head ends near j* and
# both halves of the tail matter: the cosine half goes by the first- or
# second-order Abel bound or by the Fourier integral, in at most 16384 terms
# (the W-form bound alone took up to 262144).
@pytest.mark.parametrize("A, alpha", [(3.58e3, 2.5), (1.27e3, 2.1), (4.51e3, 2.1), (6.37e5, 2.5), (1.6e9, 3.5)])
def test_s_diff_near_j_star_against_brute_force(A, alpha):
    params = ModelParams(alpha=alpha, A=A)
    taus = (1e-4, 3.2e-3, 0.012, 0.06, 0.4)
    for tau, (ref, ref_err) in zip(taus, _brute_s_diff_bracket(params, taus)):
        sv = s_diff(tau, params, 1e-9)
        assert sv.converged and sv.n_terms <= 16384
        assert abs(sv.value - ref) <= sv.tail_bound + ref_err + 1e-15


def _mp_log_w_derivatives(w):
    """phi = 1 - Z(W) and its log-derivatives D phi, D^2 phi, D = W d/dW.

    D ln Z = 1/2 - W - Z/2, from d ln Erf(sqrt W)/dW = Z / (2 W).
    """
    z = _mp_zed(w)
    dz = z * (mp.mpf(1) / 2 - w - z / 2)
    ddz = dz * (mp.mpf(1) / 2 - w - z / 2) + z * (-w - dz / 2)
    return 1 - z, -dz, -ddz


def test_weight_log_derivative_ratios_at_most_one():
    # These give |(phi / t^2)''| <= 2 alpha (2 alpha + 1) phi / t^4, the
    # midpoint-rule constant of the Z-form.
    with mp.workdps(50):
        for k in range(0, 131):
            w = mp.mpf(10) ** (-10 + k / 10)
            phi, d1, d2 = _mp_log_w_derivatives(w)
            assert 0 <= d1 <= phi
            assert abs(d2) <= phi


def _mp_peak_profile(beta):
    """h(W) = Z(W) W^(1/beta) on a log grid; Z(W(t))/t^2 = h(W(t)) / j*^2."""
    with mp.workdps(30):
        grid = [mp.mpf(10) ** (-6 + k / 200) for k in range(1801)]
        return grid, [_mp_zed(w) * w ** (1 / beta) for w in grid]


@pytest.mark.parametrize("alpha", [2.01, 2.5, 3.0, 3.5, 4.0, 1.5, 1.2])
def test_abel_peak_constant_bounds_z_over_t_squared(alpha):
    beta = alpha - 1.0
    p = 0.5 + 1.0 / beta
    c_beta = max(1.0, 1.34 * (p / math.e) ** p)
    # Z(W) <= (2/sqrt(pi)) sqrt(W) e^-W / Erf(1) for W >= 1, and
    # max_W W^p e^-W = (p/e)^p
    assert 2 / mp.sqrt(mp.pi) / mp.erf(1) <= 1.34
    grid, h = _mp_peak_profile(beta)
    assert max(h) <= c_beta
    # h rises once and then falls: its log-slope 1/2 - W - Z/2 + 1/beta
    # changes sign exactly once, so Z(W(t))/t^2 has a single maximum
    slopes = [0.5 - w - _mp_zed(w) / 2 + 1 / mp.mpf(beta) for w in grid]
    assert all(b < a for a, b in zip(slopes, slopes[1:]))
    assert slopes[0] > 0 > slopes[-1]


# The weight store: one read-only array per (Abar, alpha) in
# velocity._WEIGHTS.tables; the sine store: one per tau in
# velocity._SINES.tables.  Values pinned in hex were computed without the
# tables; a row must not depend on what the tables held before the call.
TABLE_P = ModelParams(alpha=2.22, A=1.54e5)
TABLE_FAR = ModelParams(alpha=3.49, A=7.76e11)
TABLE_PINS = [
    # (params, tau, tol, value, n_terms, tail_bound); 0.3 needs 4096 terms,
    # 0.006 65536 (the table is extended twice), and the last point 262144,
    # past the table's reach
    (TABLE_P, 0.3, 1e-9, "0x1.094a3befcb0c5p+0", 4096, "0x1.a432341397132p-35"),
    (TABLE_P, 0.05, 1e-9, "0x1.e00484538d5ffp-3", 16384, "0x1.49c709cd4e006p-36"),
    (TABLE_P, 0.006, 1e-9, "0x1.e1e17d5ffec56p-6", 65536, "0x1.afaf4dc14f98cp-41"),
    (TABLE_FAR, 0.01, 1e-9, "0x1.902903cf5811ep-5", 65536, "0x1.c44dd67b52b4fp-38"),
    (TABLE_FAR, 0.01, 1e-12, "0x1.902903cf7bca0p-5", 262144, "0x1.1f8fb181defafp-53"),
]


def _weights(params, n):
    return velocity._table(velocity._WEIGHTS, (params.a_bar, params.alpha), n,
                           lambda j: velocity._weight_terms(params, j))


def _sines(tau, n):
    return velocity._table(velocity._SINES, tau, n, lambda j: velocity._sine_terms(tau, j))


def _clear_weights():
    velocity._WEIGHTS.tables = {}


def _clear_sines():
    velocity._SINES.tables = {}


def _clear_table():
    _clear_weights()
    _clear_sines()


@pytest.fixture
def empty_table(monkeypatch):
    # monkeypatch puts the module's tables back after the test
    monkeypatch.setattr(velocity._WEIGHTS, "tables", {})
    monkeypatch.setattr(velocity._SINES, "tables", {})


def _row(sv):
    return (sv.value.hex(), sv.n_terms, sv.tail_bound.hex(), sv.converged)


def _scan_rows(params, grid):
    return [(r.v2.hex(), r.n_terms, r.tail_bound.hex(), r.converged)
            for r in scan_v2(grid, params, "differentiable")]


@pytest.mark.dispatch
def test_weight_table_rows_independent_of_table_state(empty_table):
    grid = [1e-4, 0.003, 0.05, 0.3, 0.7]
    other = replace(TABLE_P, alpha=2.1)  # same Abar, other weights
    cold = {}
    for params in (TABLE_P, other):
        _clear_table()
        cold[params] = (_scan_rows(params, grid), _row(s_diff(0.05, params)))
    # after the other parameters, then after the same ones
    for params in (TABLE_P, other, other, TABLE_P, TABLE_P):
        assert (_scan_rows(params, grid), _row(s_diff(0.05, params))) == cold[params]


@pytest.mark.dispatch
@pytest.mark.parametrize("params, tau, tol, value_hex, n_terms, tail_hex", TABLE_PINS)
def test_weight_table_values_pinned(empty_table, params, tau, tol, value_hex, n_terms, tail_hex):
    pinned = (value_hex, n_terms, tail_hex, True)
    assert _row(s_diff(tau, params, tol)) == pinned  # empty table
    assert _row(s_diff(tau, params, tol)) == pinned  # warm table
    _clear_table()
    s_diff(0.3, params)  # a shorter point first (4096 or 16384 terms), then the extension
    assert _row(s_diff(tau, params, tol)) == pinned


@pytest.mark.dispatch
def test_weight_table_extension_matches_one_pass(empty_table):
    for n in (4096, 4097, 16384, 16385, 65536):
        grown = _weights(TABLE_P, n)
    j = np.arange(1, 65537, dtype=float)
    assert [x.hex() for x in grown] == [x.hex() for x in one_minus_zed(TABLE_P.mode_w(j))]


@pytest.mark.dispatch
def test_weight_store_read_only_and_bounded(empty_table):
    # the store starts over when a table would take it past BLOCK = 2^16
    # elements (512 KB): one full table, or several 4096-entry ones
    cap = velocity._WEIGHTS.cap
    assert cap == 1 << 16 and cap * 8 <= 512 * 1024
    cases = [(params, tau, tol) for params, tau, tol, *_ in TABLE_PINS]
    cases += [(ModelParams(alpha=2.1 + k / 50, A=10.0 ** (k % 7)), 0.3, 1e-9) for k in range(40)]
    for params, tau, tol in cases + [(FIG2, 0.2, 1e-9)]:
        s_diff(tau, params, tol)
        tables = velocity._WEIGHTS.tables
        assert (params.a_bar, params.alpha) in tables
        assert sum(t.size for t in tables.values()) <= cap
        for table in tables.values():
            assert table.ndim == 1 and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0


def test_weight_store_keeps_alternating_parameter_sets(empty_table, monkeypatch):
    # three 4096-term parameter sets fit in the store together, so a scan
    # that alternates them computes each weight once
    sizes = []

    def counted(w):
        sizes.append(np.size(w))
        return one_minus_zed(w)

    monkeypatch.setattr(velocity, "one_minus_zed", counted)
    cases = [TABLE_P, replace(TABLE_P, alpha=2.1), FIG2]
    first = [_row(s_diff(0.3, params)) for params in cases]
    computed = sum(sizes)
    assert computed == sum(t.size for t in velocity._WEIGHTS.tables.values()) < 4 * 4096
    for _ in range(2):
        assert [_row(s_diff(0.3, params)) for params in cases] == first
    assert sum(sizes) == computed


@pytest.mark.dispatch
def test_weight_table_shared_by_threads(empty_table):
    # the stores are read once per call and replaced whole, so threads that
    # switch parameter sets under each other still get their own weights
    import sys
    import threading

    # switch tau under each other too (0.05 needs 16384 terms, 0.3 and 0.2 4096)
    cases = [(TABLE_P, 0.05), (replace(TABLE_P, alpha=2.1), 0.05), (FIG2, 0.2), (TABLE_P, 0.3), (FIG2, 0.05)]
    cold = {}
    for case in cases:
        _clear_table()
        cold[case] = _row(s_diff(case[1], case[0]))
    wrong = []

    def work(k):
        for i in range(15):
            case = cases[(k + i) % len(cases)]
            if _row(s_diff(case[1], case[0])) != cold[case]:
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_readme_v2_computes_each_weight_once(empty_table, monkeypatch, capsys):
    from diffpath import cli

    sizes = []

    def counted(w):
        sizes.append(np.size(w))
        return one_minus_zed(w)

    monkeypatch.setattr(velocity, "one_minus_zed", counted)
    argv = "v2 --A 10 --alpha 2.1 --eps-min 1e-4 --eps-max 0.5 --points 40".split()
    assert cli.main(argv) == 0
    # 40 points of 4096 terms each: 163840 elements without the table
    assert 0 < sum(sizes) <= 1 << 16


@pytest.mark.dispatch
def test_sine_table_rows_independent_of_table_state(empty_table):
    grid = [1e-4, 0.003, 0.05, 0.3, 0.7]
    others = [replace(TABLE_P, alpha=2.1), TABLE_FAR, FIG2]  # other weights, same tau
    cold = {}
    for params in [TABLE_P] + others:
        rows = []
        for tau in grid:  # each point with both tables empty
            _clear_table()
            rows.append(_row(s_diff(tau, params)))
        cold[params] = rows
    # sines warm from other (A, alpha), with the weights cold or warm
    for params in [TABLE_P] + others + [TABLE_P]:
        _clear_weights()
        assert [_row(s_diff(tau, params)) for tau in grid] == cold[params]
        assert [_row(s_diff(tau, params)) for tau in grid] == cold[params]
    # after other tau, some an ulp or a few 1e-4 off the grid, then after the same ones
    _clear_sines()
    for tau in (2e-4, math.nextafter(0.003, 1.0), 0.0501, math.nextafter(0.3, 0.0), 0.6):
        s_diff(tau, FIG2)
    for params in [TABLE_P] + others:
        assert [_row(s_diff(tau, params)) for tau in grid] == cold[params]


@pytest.mark.dispatch
@pytest.mark.parametrize("params, tau, tol, value_hex, n_terms, tail_hex", TABLE_PINS)
def test_sine_table_values_pinned_with_one_table_warm(empty_table, params, tau, tol, value_hex, n_terms, tail_hex):
    pinned = (value_hex, n_terms, tail_hex, True)
    other = replace(params, alpha=params.alpha + 0.5)
    s_diff(tau, other, tol)  # warm sines, other weights
    assert _row(s_diff(tau, params, tol)) == pinned
    _clear_sines()  # warm weights, cold sines
    assert _row(s_diff(tau, params, tol)) == pinned
    _clear_table()
    _sines(tau, 4096)  # a shorter table first, then the extension
    assert _row(s_diff(tau, params, tol)) == pinned


@pytest.mark.dispatch
def test_sine_table_extension_matches_one_pass(empty_table):
    tau = 0.137
    for n in (4096, 4097, 16384, 65536):
        grown = _sines(tau, n)
    j = np.arange(1, 65537, dtype=float)
    assert [x.hex() for x in grown] == [x.hex() for x in (np.sin(j * (math.pi * tau)) / j) ** 2]


def test_sine_store_read_only_and_bounded(empty_table):
    # 4096 sines for each of 100 tau, a few extended to 2^16: the store starts
    # over when a table would take it past 2^18 elements
    cap = velocity._SINES.cap
    assert cap * 8 <= 2 * 1024 * 1024
    for k in range(100):
        tau = (k + 0.5) / 100
        _sines(tau, 1 << 16 if k % 17 == 0 else 4096)
        store = velocity._SINES.tables
        assert tau in store
        assert sum(t.size for t in store.values()) <= cap
    s_diff(0.05, TABLE_P)
    for table in velocity._SINES.tables.values():
        assert table.ndim == 1 and table.size <= 1 << 16
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    weighted, s = velocity._head_terms(0.05, TABLE_P, np.arange(1.0, 4097.0))
    assert not s.flags.writeable and weighted.flags.writeable


def test_readme_v2_computes_each_sine_once(empty_table, monkeypatch, capsys):
    # the sines depend on tau only: a second scan of the README grid with
    # other (A, alpha) reads every sine from the store
    from diffpath import cli

    sizes = []
    sine_terms = velocity._sine_terms

    def counted(tau, j):
        sizes.append(np.size(j))
        return sine_terms(tau, j)

    monkeypatch.setattr(velocity, "_sine_terms", counted)
    argv = "v2 --A 10 --alpha 2.1 --eps-min 1e-4 --eps-max 0.5 --points 40".split()
    assert cli.main(argv) == 0
    first = sum(sizes)
    # 40 points of 4096 terms each
    assert first == 40 * 4096
    for other in (["--A", "1e6", "--alpha", "3"], ["--A", "10", "--alpha", "2.5"]):
        assert cli.main(argv[:1] + other + argv[5:]) == 0
    assert sum(sizes) == first


def test_s_diff_refuses_overflowing_abar_squared():
    with pytest.raises(ValueError, match="finite Abar"):
        s_diff(0.1, ModelParams(A=1e154))
    with pytest.raises(ValueError, match="finite Abar"):
        v2_diff(0.1, ModelParams(A=1e160))
    assert s_diff(0.1, ModelParams(A=1e150)).converged


@pytest.mark.dispatch
@pytest.mark.parametrize("params", [FIG2, ModelParams(alpha=3.0, A=1e6)])
def test_weight_table_matches_mc_second_moments(empty_table, params):
    # mc computes each mode's <a_j^2> = (1 - Z(b_j B_j^2)) / 2 b_j on its own
    # route (b_j B_j^2 = W_j); at the README oracle point (eps = 0.05, 500
    # modes) prefactor * head_N is the exact N-mode <v^2> the oracle samples
    from diffpath import mc
    from diffpath.special import block_sum

    n, eps = 500, 0.05
    second = [mc.mode_second_moment_reference(params, j) for j in range(1, n + 1)]
    b = [mc._mode_params(params, j)[0] for j in range(1, n + 1)]
    weights = _weights(params, n)
    np.testing.assert_allclose(weights, 2.0 * np.array(b) * np.array(second), rtol=1e-14, atol=0.0)
    tau = eps / params.T
    head, _ = block_sum(lambda j: velocity._head_terms(tau, params, j), [n])[0]
    exact = math.fsum(math.sin(j * math.pi * tau) ** 2 * a2 / eps**2 for j, a2 in zip(range(1, n + 1), second))
    assert velocity._v2_prefactor(eps, params) * head == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("amp", [10.0, 0.01])
def test_z_form_near_alpha_one_gives_no_estimate(amp):
    # alpha = 1.001, beta = 1e-3: Abar^(-1/beta) and the Z integral leave the
    # float range, so the Z-form returns the head with an infinite bound
    params = ModelParams(alpha=1.001, A=amp)
    assert velocity._z_form(1e-4, params, 4096, 0.5, 0.25, 1e-12) == (0.5, math.inf)


def test_z_integral_past_the_float_range_runs_no_quadrature(monkeypatch):
    # A = 1e4, alpha = 1.001: the prefactor Abar^(-1/beta) / (2 beta) underflows
    # to 0, so the Z integral cannot be formed and QUADPACK is never called
    import scipy.integrate

    def no_quad(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    monkeypatch.setattr(scipy.integrate, "quad", no_quad)
    params = ModelParams(alpha=1.001, A=1e4)
    assert params.a_bar ** (-1.0 / (params.alpha - 1.0)) == 0.0
    with pytest.raises(OverflowError):
        velocity._z_integral(4096.5, params.a_bar, params.alpha)
    assert velocity._z_form(1e-4, params, 4096, 0.5, 0.25, 1e-12) == (0.5, math.inf)
    res = velocity.s_diff(1e-4, params, tol=1e-9)
    assert res.n_terms == 1 << 24 and not res.converged


def test_z_form_near_alpha_one_with_sup_bound_past_float_range():
    # (p / e)^p = e^5911 overflows while the Z integral is in range: sup Z/t^2
    # is bounded by 1/t^2 alone and the Z-form still gives a finite estimate
    params = ModelParams(alpha=1.001, epsilon_D=0.1)
    value, bound = velocity._z_form(1e-4, params, 4096, 0.5, 0.25, 1e-12)
    assert math.isfinite(value) and math.isfinite(bound)
