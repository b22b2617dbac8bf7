"""Oscillator factor Pi(T): log-space product, shifts, unitarity, fits."""

import itertools
import math
import re
from dataclasses import astuple, replace

import mpmath as mp
import numpy as np
import pytest

from diffpath import oscillator, special
from diffpath.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_USAGE, main
from diffpath.oscillator import (
    _head,
    _log_sinh_over_x,
    log_pi,
    log_pi_grid,
    scan_E0_vs_omega,
    spectrum_shift,
    unitarity_diagnostic,
)
from diffpath.paths import ModelParams
from diffpath.special import TERM_CAP, _log_erf_sqrt, _series_remainder

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

FIG4 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, epsilon_D=0.1, omega=1.0)
EPS = np.finfo(float).eps


def mpmath_log_pi(params, T, n_terms, head=64, growth=2):
    """Independent 30-digit oracle for the truncated log product.

    The first ``head`` log factors are summed directly; the rest by
    Euler-Maclaurin: the integral (over panels growing by ``growth``), the
    end-point half terms and the B_2, B_4, B_6 derivative terms.  The
    factor is analytic at distance O(n) from every n > head, so the
    omitted remainder is far below 1e-20.
    """
    mp.mp.dps = 30
    T = mp.mpf(T)
    if params.epsilon_D is not None:
        sigma_t = mp.sqrt(params.hbar * T / params.m)
        a_t = sigma_t * (T / mp.mpf(params.epsilon_D)) ** (params.alpha - 1)
    else:
        a_t = mp.mpf(params.A)
    b_len = a_t * mp.sqrt(params.m * T / (4 * params.hbar))
    w2 = mp.mpf(params.omega) ** 2

    def factor(n):
        c = b_len / n**params.alpha
        lam = (n * mp.pi / T) ** 2
        return mp.log(mp.erf(c * mp.sqrt(lam + w2)) / mp.erf(c * mp.sqrt(lam)))

    h = min(n_terms, head)
    total = mp.fsum(factor(n) for n in range(1, h + 1))
    if n_terms > h:
        a, b = mp.mpf(h + 1), mp.mpf(n_terms)
        cuts = [a]
        while growth * cuts[-1] < b:
            cuts.append(growth * cuts[-1])
        total += mp.quad(factor, cuts + [b]) + (factor(a) + factor(b)) / 2
        for m in (1, 2, 3):
            d_b, d_a = mp.diff(factor, b, 2 * m - 1), mp.diff(factor, a, 2 * m - 1)
            total += mp.bernoulli(2 * m) / mp.factorial(2 * m) * (d_b - d_a)
    return total


def a_bar_at(params, T):
    return replace(params, T=T).a_bar


def head_rounding(params, T, n1, value):
    """Rounding allowance of a direct sum of n1 differences of ln Erf (cf. bench/workloads.py)."""
    x = math.sqrt(replace(params, T=T).mode_w(float(n1)))
    return 8.0 * EPS * n1 * max(abs(math.log(math.erf(x))), 1.0) + 64.0 * EPS * abs(value)


def test_log_pi_zero_omega_exact():
    assert log_pi(1.0, FIG4.with_omega(0.0)).log_pi == 0.0


def test_log_pi_feynman_limit():
    params = ModelParams(alpha=2.1, A=1e12, omega=1.0)
    assert abs(log_pi(1.0, params, n_terms=100_000).log_pi) < 1e-8


def test_log_pi_against_mpmath_oracle():
    res = log_pi(1.0, FIG4, n_terms=400)
    ref = mpmath_log_pi(FIG4, 1.0, 400)
    assert res.log_pi == pytest.approx(ref, rel=1e-11)


@pytest.mark.dispatch
@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0])
@pytest.mark.parametrize("primary", [{"A": 100.0}, {"epsilon_D": 0.1}])
def test_log_pi_fixed_n_against_mpmath(alpha, primary):
    # the head/closed-form split at N = n1 (all direct), n1 + 1 (one mode in
    # closed form), 2 n1 and 1e5; omega = 1e4 puts n1 at 4 wT / pi
    for T, omega in ((1.0, 1.0), (0.5, 0.1), (1.0, 1e4)):
        params = ModelParams(alpha=alpha, omega=omega, **primary)
        n1 = _head(100_000, omega * T, a_bar_at(params, T), alpha)[0]
        assert n1 < 50_000
        if omega == 1e4:
            assert n1 == math.ceil(4e4 / math.pi)
        for n in (n1, n1 + 1, 2 * n1, 100_000):
            res = log_pi(T, params, n_terms=n)
            ref = mpmath_log_pi(params, T, n)
            free_tail = omega**2 * T**2 / (2.0 * math.pi**2 * n)
            assert res.n_terms == n
            assert res.tail_bound >= free_tail
            # the series part of tail_bound, plus rounding
            allowed = res.tail_bound - free_tail + head_rounding(params, T, n1, res.log_pi)
            assert abs(res.log_pi - float(ref)) <= allowed, (T, omega, n, n1)


@pytest.mark.dispatch
@pytest.mark.parametrize("T", [0.5, 1.0])
def test_log_pi_fixed_n_huge_n_against_mpmath(T):
    # N = 1e15: every zeta(s, N + 1) term but the first few is dropped by its bound
    n = 10**15
    res = log_pi(T, FIG4, n_terms=n)
    # panels growing 16-fold agree with 2-fold ones to 1e-25 here, at a quarter of the cost
    ref = mpmath_log_pi(FIG4, T, n, growth=16)
    n1 = _head(n, FIG4.omega * T, a_bar_at(FIG4, T), FIG4.alpha)[0]
    assert res.converged and res.n_terms == n
    assert abs(res.log_pi - float(ref)) <= res.tail_bound + head_rounding(FIG4, T, n1, res.log_pi)



@pytest.mark.xfail(strict=True, reason="ROADMAP finding 1, item 1 step 1")
def test_log_pi_fixed_n_huge_n_within_its_bound_at_large_a():
    # A = 1e6, alpha = 2.05: a certified value 1.5e5 times its tail bound
    # off the oracle; the fix of the ln factor's accuracy removes the marker
    params = ModelParams(A=1e6, alpha=2.05, omega=1.0)
    res = log_pi(0.5, params, 1e-6, 10**15)
    assert res.converged
    assert abs(res.log_pi - float(mpmath_log_pi(params, 0.5, 10**15))) <= res.tail_bound

def direct_log_pi(params, T, n_terms):
    """The N-mode sum term by term, as the direct route computes it (N <= 2^20)."""
    n = np.arange(1, n_terms + 1, dtype=float)
    w = replace(params, T=T).mode_w(n)
    hi = _log_erf_sqrt(w * (1.0 + (params.omega * T / (n * math.pi)) ** 2))
    lo = _log_erf_sqrt(w)
    x = np.maximum(hi - lo, 0.0)
    return math.fsum(float(x[i : i + (1 << 16)].sum()) for i in range(0, x.size, 1 << 16))


@pytest.mark.parametrize(
    "params, n_terms",
    [
        (ModelParams(alpha=0.8, A=10.0, omega=2.0), 5000),  # alpha <= 1: n1 = N
        (ModelParams(alpha=2.1, A=1e12, omega=1.0), 100_000),  # W_n > 1/4 for every n <= N
        (FIG4, 29),  # N = n1
    ],
)
@pytest.mark.dispatch
def test_log_pi_fixed_n_direct_up_to_n1(params, n_terms):
    assert _head(n_terms, params.omega, a_bar_at(params, 1.0), params.alpha)[0] == n_terms
    res = log_pi(1.0, params, n_terms=n_terms)
    assert res.log_pi == direct_log_pi(params, 1.0, n_terms)
    assert res.tail_bound == params.omega**2 / (2.0 * math.pi**2 * n_terms)


@pytest.mark.dispatch
def test_log_pi_fixed_n_head_stops_at_the_term_cap(capsys):
    # alpha < 1 keeps every W_n above 1/4, so the head would run to N = 1e15
    res = log_pi(1.0, ModelParams(A=10.0, alpha=0.9, omega=1.0), tol=1e-6, n_terms=10**15)
    assert res.n_terms == TERM_CAP == 1 << 24
    assert res.tail_bound == 1.0 / (2.0 * math.pi**2 * (1 << 24))
    assert res.log_pi >= 0.0 and res.converged
    argv = ["spectrum", "--A", "10", "--alpha", "0.9", "--omega", "1", "--points", "1",
            "--T-grid-min", "1", "--T-grid-max", "2", "--n-terms", "1000000000000000"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].split(",")[3] == "16777216"


@pytest.mark.parametrize("params", [ModelParams(A=10.0, alpha=0.9, omega=1.0), ModelParams(A=1e9, alpha=2.05, omega=2.0)])
def test_log_pi_head_cut_at_the_cap_is_its_direct_sum(monkeypatch, params):
    # with the cap lowered where block_sum and oscillator both read it, a head
    # that reaches it is the sum of its first TERM_CAP factors, with no closed-form tail
    under_cap = hexed(log_pi(1.0, FIG4, n_terms=10**6))
    cap = 1 << 10
    monkeypatch.setattr(special, "TERM_CAP", cap)
    monkeypatch.setattr(oscillator, "TERM_CAP", cap)
    res = log_pi(1.0, params, n_terms=10**6)
    assert res.n_terms == cap
    assert res.log_pi == direct_log_pi(params, 1.0, cap)
    assert res.tail_bound == params.omega**2 / (2.0 * math.pi**2 * cap)
    # a head below the cap (n1 = 29) still takes the closed-form tail to N
    assert hexed(log_pi(1.0, FIG4, n_terms=10**6)) == under_cap


@pytest.mark.dispatch
def test_log_pi_fixed_n_evaluates_only_the_head(monkeypatch):
    elems = []

    def counting_log_erf(w):
        elems.append(np.size(w))
        return _log_erf_sqrt(w)

    monkeypatch.setattr(oscillator, "_log_erf_sqrt", counting_log_erf)
    res = log_pi(1.0, FIG4, n_terms=100_000)
    n1 = _head(100_000, FIG4.omega, FIG4.a_bar, FIG4.alpha)[0]
    assert n1 == 29
    assert sum(elems) <= 2 * n1
    assert res.n_terms == 100_000


@pytest.mark.dispatch
def test_log_pi_fixed_n_evaluates_only_the_non_negligible_zetas(monkeypatch):
    elems = []
    zeta = oscillator.hurwitz_zeta

    def counting_zeta(s, q, m):
        elems.append(np.size(s))
        return zeta(s, q, m)

    monkeypatch.setattr(oscillator, "hurwitz_zeta", counting_zeta)
    res = log_pi(1.0, FIG4, n_terms=100_000)
    # one call for both halves; the full series has 189 terms per half
    assert len(elems) == 1 and elems[0] <= 64
    assert res.converged


def _by_dispatch(x86_v4: str, x86_v2: str) -> str:
    """The pin of the dispatch level numpy runs at: its AVX-512 kernels (X86_V4) of exp, log,
    log1p and power round otherwise than its AVX2 (X86_V3) and baseline (X86_V2) ones, which agree.
    A numpy without the X86_V4 group names the same level AVX512_SKX."""
    return x86_v4 if __cpu_features__.get("X86_V4", __cpu_features__.get("AVX512_SKX", False)) else x86_v2


@pytest.mark.parametrize(
    "params, T, n_terms, n1, log_pi_hex, tail_hex",
    [
        (ModelParams(epsilon_D=0.1, alpha=2.5, omega=1.0), 2.0, 10**5, 43,
         _by_dispatch("0x1.e78d46d87f4e4p-8", "0x1.e78d46d87f71cp-8"), "0x1.0ffb6320f6b58p-19"),
        (FIG4, 1.0, 10**15, 29, _by_dispatch("0x1.c1413f9c5a842p-9", "0x1.c1413f9c5a7dap-9"),
         "0x1.d344562d02a39p-55"),
        (ModelParams(A=1.4e6, alpha=2.05, omega=1.0), 1.0, 10**15, 2122909,
         _by_dispatch("0x1.974667d121c9ep-25", "0x1.97467bcada58cp-25"), "0x1.d342f0c171454p-55"),
    ],
)
@pytest.mark.dispatch
def test_log_pi_fixed_n_tail_keeps_its_values(params, T, n_terms, n1, log_pi_hex, tail_hex):
    # pinned fixed-N values, the last with a 2.1e6-mode head: how the tail
    # prunes its zeta rows may tighten tail_bound, never loosen it or move a value
    assert _head(n_terms, params.omega * T, a_bar_at(params, T), params.alpha)[0] == n1
    res = log_pi(T, params, n_terms=n_terms)
    assert res.log_pi.hex() == log_pi_hex and res.n_terms == n_terms and res.converged == (n_terms > 10**5)
    assert res.tail_bound <= float.fromhex(tail_hex)


@pytest.mark.dispatch
def test_log_pi_fixed_n_head_past_the_float_range(capsys):
    # alpha = 3000: n^(alpha - 1) overflows from n = 2 on, and W_2 = (Abar / 2^2999)^2
    # underflows, so each head factor past n = 1 is the free one, (1/2) ln(1 + x_n), and
    # W_1 = Abar^2 = 2.5e6 makes the first one 0
    params = ModelParams(A=1e3, alpha=3000.0, omega=1.0)
    n = 100_000
    # the plan: a head of n1 = 2 modes, W_1 to the kernel, the second mode free
    assert _head(n, 1.0, params.a_bar, params.alpha) == (2, 1, 1)
    for T in (1.0, 2.0):
        res = log_pi(T, params, n_terms=n)
        ref = math.fsum(0.5 * math.log1p((T / (k * math.pi)) ** 2) for k in range(2, n + 1))
        assert res.n_terms == n and abs(res.log_pi - ref) <= 1e-14 * ref, T
    # 1e5 terms meet tol 1e-6 at T = 1 (tail bound 5.1e-7) but not at T = 2: exit 2, no traceback
    argv = ["spectrum", "--A", "1e3", "--alpha", "3000", "--omega", "1", "--T-grid-min", "1",
            "--T-grid-max", "2", "--points", "2"]
    assert main(argv + ["--n-terms", "100000"]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == ""
    # the adaptive route takes the same W_n = 0.0 past n = 1, with no overflow warning
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.dispatch
def test_log_pi_fixed_n_tail_past_s_1074_at_a_power_of_two_head(monkeypatch):
    # alpha = 50 with n_W = 512 = n1: the tail's kept rows reach s > 1074 at
    # m = n1 = 2^9, where mant^s alone would leave the float range; the tail
    # stays finite and within its error of an mpmath sum (modes n1 < m <= 1500
    # summed, the rest the free part, W_1500 < 1e-46)
    a_bar = 0.5 * 511.5**49
    params = ModelParams(A=2.0 * a_bar / math.pi, alpha=50.0, omega=1.0)
    assert _head(10**15, 1.0, a_bar_at(params, 1.0), 50.0)[0] == 512
    seen, tails = [], []
    zeta, tail = oscillator.hurwitz_zeta, oscillator._log_factor_tail

    def spy_zeta(s, q, m):
        seen.append((max(s), m))
        return zeta(s, q, m)

    def spy_tail(*args):
        tails.append((args, tail(*args)))
        return tails[-1][1]

    monkeypatch.setattr(oscillator, "hurwitz_zeta", spy_zeta)
    monkeypatch.setattr(oscillator, "_log_factor_tail", spy_tail)
    res = log_pi(1.0, params, n_terms=10**15)
    assert seen[0][0] > 1074 and seen[0][1] == 512.0
    assert math.isfinite(res.log_pi) and math.isfinite(res.tail_bound) and res.converged
    ((n1, n, wt, a_b, _, _), (value, err)), = tails
    with mp.workdps(40):
        w = lambda k: (mp.mpf(a_b) / mp.mpf(k) ** 49) ** 2
        x = lambda k: (mp.mpf(wt) / (k * mp.pi)) ** 2
        a = mp.mpf(wt) / mp.pi
        ref = mp.fsum(mp.log(mp.erf(mp.sqrt(w(k) * (1 + x(k))))) - mp.log(mp.erf(mp.sqrt(w(k))))
                      for k in range(n1 + 1, 1501))
        ref += (mp.log(mp.sinh(mp.pi * a) / (mp.pi * a)) - mp.fsum(mp.log(1 + x(k)) for k in range(1, 1501))) / 2
        # sum_{m>n} (1/2) ln(1 + x_m) to within 1e-45
        ref -= a**2 / (2 * mp.mpf(n))
        assert abs(value - ref) <= err + 4e-16 * ref


def test_log_pi_all_zero_head_calls_no_kernel(monkeypatch, capsys):
    # W_n >= 1.7e3 up to the capped head's last mode: every Erf ratio is 1.0
    # in floats, so no factor is evaluated, and n_terms and the tail bound are
    # still those of the 2^24-term head
    params = ModelParams(A=1e9, alpha=2.05, omega=1.0)
    calls = []
    kernel = oscillator._log_erf_sqrt

    def counting_kernel(w):
        # one call takes both arguments of each mode
        calls.append(w.size // 2)
        return kernel(w)

    monkeypatch.setattr(oscillator, "_log_erf_sqrt", counting_kernel)
    res = log_pi(1.0, params, n_terms=10**15)
    assert calls == [] and _head(10**15, 1.0, params.a_bar, params.alpha) == (TERM_CAP, 0, 0)
    assert hexed(res) == hexed(oscillator.PiResult(0.0, 1.0, TERM_CAP, float.fromhex("0x1.9f02f6222c720p-29"), True))
    # a grid of a point with no head to sum (T = 1) and one with (T = 1e14,
    # W_10 = 196): the kernel sees the second point's 10 modes only, and
    # each value is log_pi's
    singles = [hexed(log_pi(t, params, n_terms=10)) for t in (1.0, 1e14)]
    assert float.fromhex(singles[1][0]) > 0.0
    calls.clear()
    assert [hexed(r) for r in log_pi_grid([1.0, 1e14], params, n_terms=10)] == singles
    assert calls == [10]
    calls.clear()
    argv = ["spectrum", "--A", "1e9", "--alpha", "2.05", "--omega", "1", "--points", "1",
            "--T-grid-min", "1", "--T-grid-max", "2", "--n-terms", "1000000000000000"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "1.0,0.0,0.0,16777216"
    assert calls == []


@pytest.mark.parametrize("w, x", [(1e-6, 1 / 16), (0.01, 0.05), (0.1, 1e-8), (0.2, 1 / 16), (0.235, 1 / 16)])
def test_tail_table_rows_sum_to_the_kernel(w, x):
    # at m = n1 every row's (n1 / m)^s is 1: its term is its coefficient, with
    # the z, W and U of _log_factor_tail at x, w and w x
    coef = oscillator._TAIL_C * x**oscillator._TAIL_I * w**oscillator._TAIL_J * (w * x) ** oscillator._TAIL_U
    free = oscillator._TAIL_I > 0
    assert np.count_nonzero(free) == 18 and coef.size == 189
    with mp.workdps(40 + int(-math.log10(w * x))):
        half_log1p = mp.log1p(mp.mpf(x)) / 2
        ell = [mp.log(mp.hyp1f1(0.5, 1.5, -v)) for v in (mp.mpf(w) + mp.mpf(w * x), mp.mpf(w))]
        bracket = ell[0] - ell[1]
    for rows, ref, truncation in (
        (free, half_log1p, x**19 / 38),  # alternating: the first omitted term
        (~free, bracket, _series_remainder(w, w * x)),
    ):
        # plus the rounding of rows of a few operations each
        allowed = truncation + 8 * EPS * math.fsum(np.abs(coef[rows]).tolist())
        assert abs(math.fsum(coef[rows].tolist()) - ref) <= allowed


def test_log_pi_refuses_a_term_count_that_is_no_count():
    # checked before any point, also where omega T = 0 needs no sum and for an empty grid
    with_omega = ModelParams(epsilon_D=0.1, omega=1.0)
    for call in (
        lambda n: log_pi(1.0, ModelParams(epsilon_D=0.1), n_terms=n),
        lambda n: log_pi(1.0, with_omega, n_terms=n),
        lambda n: log_pi_grid([], with_omega, n_terms=n),
    ):
        for n in (0, -5, -3, 2.5):
            with pytest.raises(ValueError, match=f"^n_terms must be an integer >= 1, not {re.escape(repr(n))}$"):
                call(n)
    # an integral float is a term count
    assert hexed(log_pi(1.0, with_omega, n_terms=1e5)) == hexed(log_pi(1.0, with_omega, n_terms=100_000))


def test_epsilon_d_primary_with_alpha_at_most_one_has_no_abar(capsys):
    params = ModelParams(epsilon_D=0.1, alpha=0.9, omega=1.0)
    message = r"^A\(T\) from epsilon_D requires alpha > 1$"
    for call in (
        lambda: log_pi(1.0, params),
        lambda: log_pi(1.0, params, n_terms=100),
        lambda: log_pi_grid([0.5, 1.0], params),
        lambda: unitarity_diagnostic([0.5, 1.0], params),
        lambda: scan_E0_vs_omega([1.0, 2.0, 3.0], params),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert main(["spectrum", "--epsilon-D", "0.1", "--alpha", "0.9", "--points", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: A(T) from epsilon_D requires alpha > 1\n"


def test_log_pi_adaptive_one_kernel_call_per_block(monkeypatch):
    sizes = []
    kernel = oscillator._log_erf_over_sqrt

    def counting_kernel(w):
        sizes.append(np.size(w))
        return kernel(w)

    monkeypatch.setattr(oscillator, "_log_erf_over_sqrt", counting_kernel)
    res = log_pi(1.0, ModelParams(alpha=2.1, A=1e3, omega=1.0), tol=1e-12)
    assert res.converged and res.n_terms == 134865  # three blocks of 2^16
    assert sizes == [2 << 16, 2 << 16, 2 * (res.n_terms - (2 << 16))]


def hexed(record):
    """A record's fields with every float as float.hex, so -0.0 and NaN compare exactly."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(record))


def term_counts(params, t_grid, route):
    """Terms each grid point sums: N for the adaptive route, n1 for the fixed-N head."""
    if "n_terms" in route:
        return [_head(route["n_terms"], params.omega * t, a_bar_at(params, t), params.alpha)[0] for t in t_grid]
    return [log_pi(t, params, **route).n_terms for t in t_grid]


def assert_packing(sizes, mixed):
    """Points of at most 2^16 terms fill more than one shared kernel call, or
    (``mixed``) some points take block_sum's blocks alone beside packed ones."""
    small = [n for n in sizes if n <= 1 << 16]
    if mixed:
        assert small and len(small) < len(sizes)
    else:
        assert len(small) == len(sizes) and sum(small) > 1 << 16


@pytest.mark.parametrize(
    "params, route, mixed",
    [
        (ModelParams(alpha=2.1, A=1e3, omega=1.0), {"tol": 1e-9}, False),
        (ModelParams(alpha=2.1, epsilon_D=0.01, omega=1.0), {"tol": 1e-12}, True),
        (ModelParams(alpha=2.1, A=6.4e4, omega=1.0), {"n_terms": 100_000}, True),
        (ModelParams(alpha=2.1, epsilon_D=3e-4, omega=1.0), {"n_terms": 100_000}, False),
    ],
)
@pytest.mark.dispatch
def test_log_pi_grid_is_log_pi_per_point(monkeypatch, params, route, mixed):
    t_grid = np.linspace(0.2, 5.0, 12)
    assert_packing(term_counts(params, t_grid, route), mixed)
    singles = [hexed(log_pi(t, params, **route)) for t in t_grid]
    sizes = []
    name = "_log_erf_sqrt" if "n_terms" in route else "_log_erf_over_sqrt"
    kernel = getattr(oscillator, name)

    def counting_kernel(x):
        sizes.append(np.size(x))
        return kernel(x)

    monkeypatch.setattr(oscillator, name, counting_kernel)
    grid = log_pi_grid(t_grid, params, **route)
    assert [hexed(r) for r in grid] == singles
    # no kernel call takes more than one block of 2^16 terms, two arguments each
    assert max(sizes) <= 2 << 16 and len(sizes) > 1


@pytest.mark.parametrize(
    "params, T, route, mixed",
    [
        (ModelParams(alpha=2.5, A=1e2), 1.0, {"tol": 1e-12}, False),
        (ModelParams(alpha=2.1, A=1e3), 1.7, {"tol": 1e-10}, True),
        (ModelParams(alpha=2.1, epsilon_D=1e-4), 1.0, {"n_terms": 100_000}, False),
    ],
)
def test_scan_e0_is_spectrum_shift_per_omega(params, T, route, mixed):
    omegas = np.linspace(0.5, 30.0, 9).tolist()
    assert_packing([term_counts(params.with_omega(w), [T], route)[0] for w in omegas], mixed)
    fit = scan_E0_vs_omega(omegas, params, T, **route)
    shifts = [spectrum_shift(T, params.with_omega(w), 0, **route) for w in omegas]
    assert [(w.hex(), e0.hex()) for w, e0 in fit["rows"]] == [(w.hex(), s.e0.hex()) for w, s in zip(omegas, shifts)]
    assert fit["converged"] == all(s.converged for s in shifts)


@pytest.mark.dispatch
def test_unitarity_grid_shares_one_kernel_call(monkeypatch):
    t_grid = np.linspace(0.2, 5.0, 12)
    total = sum(term_counts(FIG4, t_grid, {"tol": 1e-4}))
    assert total <= 1 << 16
    sizes = []
    kernel = oscillator._log_erf_over_sqrt

    def counting_kernel(w):
        sizes.append(np.size(w))
        return kernel(w)

    monkeypatch.setattr(oscillator, "_log_erf_over_sqrt", counting_kernel)
    rep = unitarity_diagnostic(t_grid, FIG4, tol=1e-4)
    assert sizes == [2 * total]
    assert rep.delta_omega == tuple(log_pi(t, FIG4, tol=1e-4).log_pi / t for t in t_grid.tolist())


def test_scaled_zeta_mpmath():
    # m^s zeta(s, q), including zeta values far below the double range
    mp.mp.dps = 50
    cases = [
        (4.2, 30.0, 29.0), (8.0, 1e5 + 1.0, 29.0), (61.0, 1e5 + 1.0, 1e5), (80.0, 1e5 + 1.0, 1e5),
        (150.0, 1e7 + 1.0, 1e7), (44.0, 2e7 + 1.0, 1e7), (300.0, 1e4 + 1.0, 1e4),
    ]
    for si, q, m in cases:
        value = special.hurwitz_zeta(np.array([si]), q, m)[0]
        sm, qm = mp.mpf(si), mp.mpf(q)
        if q > 10 * si:
            # Euler-Maclaurin for q^s zeta(s, q); mpmath's zeta loses digits here
            em = qm / (sm - 1) + mp.mpf(1) / 2 + sm / (12 * qm)
            em -= sm * (sm + 1) * (sm + 2) / (720 * qm**3)
            ref = (mp.mpf(m) / qm) ** sm * em
        else:
            ref = mp.mpf(m) ** sm * mp.zeta(sm, qm)
        assert abs(value - ref) <= 1e-13 * ref, (si, q, m)


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
    with pytest.raises(ValueError, match="T must be positive"):
        log_pi(0.0, FIG4)
    # Abar(T)^2 = (pi^2 / 4T) A^2 overflows at T = 0.2, not at T = 5
    huge = ModelParams(A=1e154, omega=1.0)
    for n_terms in (None, 100):
        with pytest.raises(ValueError, match=r"finite Abar\(T\)\^2 .* at T=0.2$"):
            log_pi(0.2, huge, n_terms=n_terms)
        assert math.isfinite(log_pi(5.0, huge, n_terms=n_terms).log_pi)
    assert log_pi(0.2, replace(huge, omega=0.0)).log_pi == 0.0
    # refused before any sum: (omega T)^2 overflows at the Python-float T = 1e300,
    # and (omega T Abar / pi)^2 = 2.5e399 at A = omega = 1e100
    for T, params in ((1e300, ModelParams(A=10.0, omega=1.0)), (1.0, ModelParams(A=1e100, omega=1e100))):
        for n_terms in (None, 100):
            with pytest.raises(ValueError, match=re.escape(f"/ pi)^2 at T={T!r} (omega T = ")):
                log_pi(T, params, n_terms=n_terms)


def _amplitude_for(a_bar, m, hbar, T):
    """An A whose a_bar at (m, hbar, T) equals ``a_bar`` to the last bit."""
    A = a_bar / math.sqrt(m * math.pi**2 / (4.0 * hbar * T))
    for _ in range(4):
        got = ModelParams(m=m, hbar=hbar, T=T, A=A).a_bar
        if got == a_bar:
            return A
        A = math.nextafter(A, math.inf if got < a_bar else -math.inf)
    raise AssertionError("no A gives this a_bar")


@pytest.mark.parametrize("route", [{"tol": 1e-6}, {"tol": 1e-12}, {"n_terms": 500}, {"n_terms": 100_000}])
def test_log_pi_depends_on_omega_t_a_bar_and_alpha_only(route):
    # the same a_bar(T) from epsilon_D, from A, and from A at other m and hbar
    for alpha, eps_d, omega, T in itertools.product((2.05, 4.0), (0.02, 0.1), (0.5, 5.0), (0.2, 5.0)):
        ref_params = ModelParams(alpha=alpha, epsilon_D=eps_d, omega=omega)
        ref = log_pi(T, ref_params, **route)
        a_bar = a_bar_at(ref_params, T)
        for m, hbar in ((1.0, 1.0), (5.0, 3.0), (1e-3, 7.0)):
            A = _amplitude_for(a_bar, m, hbar, T)
            res = log_pi(T, ModelParams(m=m, hbar=hbar, alpha=alpha, A=A, omega=omega), **route)
            assert res.log_pi == pytest.approx(ref.log_pi, rel=1e-13, abs=0.0)
            assert (res.n_terms, res.converged) == (ref.n_terms, ref.converged)


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


def test_unitarity_above_eps_d_constant():
    rep = unitarity_diagnostic(np.linspace(0.2, 5.0, 10), FIG4, tol=1e-4)
    assert rep.converged
    assert rep.max_rel_deviation <= 0.1
    short = unitarity_diagnostic(np.linspace(0.2, 5.0, 10), FIG4, tol=1e-4, n_terms=1000)
    assert not short.converged
    assert all(v == "unitary-compatible" for v in rep.verdicts)
    assert rep.verdict == "unitary-compatible"


def test_unitarity_sub_eps_d_large_deviation():
    rep = unitarity_diagnostic(np.linspace(0.01, 0.05, 6), FIG4, tol=1e-3)
    assert rep.sub_eps_max_rel_deviation is not None
    assert rep.sub_eps_max_rel_deviation > 0.5
    assert all(v == "sub-epsilon-D" for v in rep.verdicts)
    assert rep.verdict == "sub-epsilon-D"


@pytest.mark.dispatch
def test_unitarity_eps_d_per_grid_t():
    # A primary: eps_D(T) is 0.096, 1 and 10.4 at T = 0.2, 1 and 5
    params = ModelParams(alpha=2.1, A=1.0, omega=1.0)
    rep = unitarity_diagnostic([0.2, 1.0, 5.0], params, tol=1e-4)
    assert rep.verdicts[2] == "sub-epsilon-D" and "sub-epsilon-D" not in rep.verdicts[:2]
    assert rep.sub_eps_mean == rep.delta_omega[2]
    assert rep.mean_delta_omega == pytest.approx(sum(rep.delta_omega[:2]) / 2.0, rel=1e-15)
    assert rep.verdict == "non-exponential" and rep.max_rel_deviation > 0.1


def test_unitarity_deviation_past_tail_bounds_stays():
    # deviations far larger than the tail bounds are still non-exponential
    params = ModelParams(A=1e3, alpha=2.5, omega=1.0)
    rep = unitarity_diagnostic(np.linspace(0.2, 5.0, 12), params, tol=1e-4)
    assert "sub-epsilon-D" not in rep.verdicts
    assert rep.verdict == "non-exponential" and rep.max_rel_deviation > 1.0


def test_unitarity_zero_omega_every_row_compatible():
    # omega = 0: ln Pi = 0 at every T, so every deviation from the mean 0 is 0
    rep = unitarity_diagnostic([0.5, 1.0, 2.0], ModelParams(epsilon_D=0.1, omega=0.0))
    assert rep.delta_omega == (0.0, 0.0, 0.0)
    assert rep.max_rel_deviation == 0.0
    assert rep.verdicts == ("unitary-compatible",) * 3
    assert rep.verdict == "unitary-compatible"


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


def test_shift_scans_report_convergence():
    # N = 1000 misses tol 1e-6 at every omega here (tail bounds 5.1e-5 to 5.1e-3);
    # N = 1e5 meets it at omega = 1 only
    params = ModelParams(alpha=2.1, epsilon_D=0.1, omega=1.0)
    omegas = [1.0, 2.0, 5.0, 10.0]
    short = scan_E0_vs_omega(omegas, params, 1.0, n_terms=1000)
    assert short["converged"] is False
    assert [w for w, _ in short["rows"]] == omegas
    assert scan_E0_vs_omega(omegas, params, 1.0, n_terms=100_000)["converged"] is False
    assert scan_E0_vs_omega(omegas, params, 1.0)["converged"] is True
    assert not spectrum_shift(1.0, params, n_terms=1000).converged
    assert spectrum_shift(1.0, params).converged


def test_scan_e0_requires_three_points():
    with pytest.raises(ValueError):
        scan_E0_vs_omega([1.0, 2.0], FIG4, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_scan_e0_refuses_non_finite_omega(bad):
    with pytest.raises(ValueError, match="omega must be finite"):
        scan_E0_vs_omega([1.0, 2.0, bad], FIG4, 1.0)
