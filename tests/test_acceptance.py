"""Acceptance gate: fifteen end-to-end criteria at pinned tolerances.

Every criterion is a set of named clauses (a bound on a computed value,
and a runtime cap).  All clauses are evaluated before ``_report`` prints
one PASS/FAIL line per clause (run with `pytest -s` or rely on the
captured output of failing tests), so a failing clause never hides the
state of the others, and the assertion message names each clause that
failed.

Two criteria check against exact references rather than leading-order
scales:

* criterion 4 (magnitude): as eps -> 0 the restricted <v^2> tends to
  P = (2 hbar / m T) sum_j (1 - Z(W_j)), W_j = (Abar / j^(alpha-1))^2.
  Each partial sum of the eps > 0 series lies below P (sin^2 x <= x^2 and
  the terms are non-negative), so the plateau must lie in
  [(1 - 1e-3) P, P]; tol 1e-9 certifies the truncation to 3.9e-4 P.  P is
  evaluated in mpmath, independently of ``diffpath``: a direct sum over
  j <= 2000 plus the monotone tail bracketed between the integrals from
  2001 and from 2000.  For Fig. 2 parameters P = 32.76548 (bracket
  1.8e-5 wide) and v2_diff(1e-6) = 32.75280, 3.9e-4 P below it.  The
  scale (pi A / T) sqrt(hbar / m T) = 10 pi is not a bound: P exceeds it
  by 4.3% here and is a quarter of it at alpha = 3.
* criterion 7 (hbar recovery): beyond epsilon_D the restricted commutator
  must recover usual quantum mechanics, whose value at finite resolution
  is the free-measure hbar (1 - eps/T) = 0.7 hbar at eps = 0.3, not hbar.
  The restricted value 0.67183 hbar sits 0.028 hbar from it, inside the
  stated 0.03 hbar.
"""

import math
import time

import mpmath as mp
import numpy as np

from diffpath.casimir import (
    CasimirConfig,
    casimir_energy,
    epsilon_d_bound,
    euler_maclaurin_delta,
    extrapolated_delta,
    tanh_model_derivs,
)
from diffpath.commutator import commutator_expectation
from diffpath.mc import estimate_v2, mode_second_moment_reference, sample_truncated_gaussian
from diffpath.oscillator import log_pi, scan_E0_vs_omega, spectrum_shift, unitarity_diagnostic
from diffpath.paths import ModelParams
from diffpath.special import truncated_gaussian_ratio
from diffpath.velocity import crossing_eps, s_feynman, s_feynman_closed, v2_diff, v2_feynman

FIG2 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, A=10.0)
FIG4 = ModelParams(m=1.0, hbar=1.0, T=1.0, alpha=2.1, epsilon_D=0.1, omega=1.0)


def _report(number, description, clauses):
    """One PASS/FAIL line per named clause and one for the criterion.

    The criterion's line and the assertion message name every clause that
    failed.
    """
    for name, ok in clauses.items():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d} [{name}]")
    failed = [name for name, ok in clauses.items() if not ok]
    label = f" [{', '.join(failed)}]" if failed else ""
    print(f"{'FAIL' if failed else 'PASS'} criterion {number:2d}{label}: {description}")
    assert not failed, f"criterion {number} failed on {', '.join(failed)}: {description}"


def _within_runtime(start, cap):
    return time.monotonic() - start < cap


def _plateau_limit_bracket(params):
    """Bracket [lo, hi] on P = (2 hbar / m T) sum_j (1 - Z(W_j)), in mpmath.

    1 - Z(W) = (2W/3) 1F1(3/2; 5/2; -W) / 1F1(1/2; 3/2; -W), free of
    cancellation at small W.  It is 2b times the second moment of a
    Gaussian e^{-b a^2} truncated to |a| <= sqrt(W/b), so it increases with
    W and the summand decreases in j: the tail beyond n_direct lies between
    its integrals from n_direct + 1 and from n_direct.  The substitution
    j = n u^(-1/p), p = 2 alpha - 3, makes the tail integrand nearly
    constant on u in (0, 1]; the quadrature error estimate widens the bracket.
    """
    n_direct = 2000
    with mp.workdps(25):
        m, hbar, T = (mp.mpf(v) for v in (params.m, params.hbar, params.T))
        abar = mp.sqrt(m * mp.pi**2 / (4 * hbar * T)) * params.amplitude
        a1 = mp.mpf(params.alpha) - 1
        p = 2 * a1 - 1

        def weight(j):
            w = (abar / mp.mpf(j) ** a1) ** 2
            return 2 * w / 3 * mp.hyp1f1(1.5, 2.5, -w) / mp.hyp1f1(0.5, 1.5, -w)

        def tail(n):
            integrand = lambda u: weight(n * u ** (-1 / p)) * u ** (-1 / p - 1)  # noqa: E731
            value, err = mp.quad(integrand, [0, 1], error=True)
            return n / p * value, n / p * err

        head = mp.fsum(weight(j) for j in range(1, n_direct + 1))
        tail_lo, err_lo = tail(n_direct + 1)
        tail_hi, err_hi = tail(n_direct)
        pref = 2 * hbar / (m * T)
        return float(pref * (head + tail_lo - err_lo)), float(pref * (head + tail_hi + err_hi))


def test_criterion_01_feynman_velocity_law():
    start = time.monotonic()
    ratios = [v2_feynman(eps, FIG2) * FIG2.m * eps / FIG2.hbar for eps in (1e-2, 1e-3, 1e-4)]
    _report(
        1,
        "v2_feynman * (m eps / hbar) within [0.97, 1.03]",
        {
            "velocity law": all(0.97 <= r <= 1.03 for r in ratios),
            "runtime": _within_runtime(start, 30.0),
        },
    )


def test_criterion_02_t0_independence():
    start = time.monotonic()
    base = s_feynman(0.01, 0.0, 1e-10).value
    _report(
        2,
        "s_feynman independent of t0 to 1e-8",
        {
            "t0 independence": all(
                abs(s_feynman(0.01, t0, 1e-10).value - base) <= 1e-8 for t0 in (0.1, 0.3, 0.7)
            ),
            "runtime": _within_runtime(start, 30.0),
        },
    )


def test_criterion_03_closed_form_vs_series():
    start = time.monotonic()
    _report(
        3,
        "dilogarithm closed form matches series to 1e-8",
        {
            "closed form": all(
                abs(s_feynman_closed(tau) - s_feynman(tau, 0.0, 1e-10).value) <= 1e-8
                for tau in (0.001, 0.01, 0.1)
            ),
            "runtime": _within_runtime(start, 30.0),
        },
    )


def test_criterion_04_plateau_regularization():
    # the exact eps -> 0 limit, bracketed; computed before the timed region
    p_lo, p_hi = _plateau_limit_bracket(FIG2)
    start = time.monotonic()
    lo = v2_diff(1e-6, FIG2, 1e-9)
    hi = v2_diff(1e-5, FIG2, 1e-9)
    # Partial sums of the eps > 0 series never exceed P; at tol 1e-9 the
    # certified truncation is 3.9e-4 P and the sin^2 x / x^2 defect < 1e-5 P.
    # Measured: lo = 32.75280, hi = 32.75270, P = 32.76548.
    in_band = [(1.0 - 1e-3) * p_lo <= v <= p_hi for v in (lo, hi)]
    _report(
        4,
        "plateau flat to 5% and within [(1 - 1e-3) P, P], P its exact eps -> 0 limit",
        {
            "flatness": abs(hi - lo) / lo < 0.05,
            "magnitude": all(in_band),
            "runtime": _within_runtime(start, 60.0),
        },
    )


def test_criterion_05_bifurcation_location():
    start = time.monotonic()
    eps = crossing_eps(FIG2)
    _report(
        5,
        f"50%-of-Feynman crossing at eps = {eps:.4f} in [0.005, 0.1]",
        {"crossing": 0.005 <= eps <= 0.1, "runtime": _within_runtime(start, 60.0)},
    )


def test_criterion_06_low_resolution_correction():
    start = time.monotonic()
    eps_d = FIG2.eps_d  # ~0.1233, so 3..10 eps_D reaches past T; clip into (0, T)
    grid = np.clip(np.linspace(3.0 * eps_d, 10.0 * eps_d, 5), None, 0.99 * FIG2.T)
    coeff = 2.0 * FIG2.hbar * FIG2.T / (math.pi**2 * FIG2.m * FIG2.a_bar)
    gaps = [
        (float(eps), v2_feynman(float(eps), FIG2) - v2_diff(float(eps), FIG2, 1e-9))
        for eps in grid
    ]
    _report(
        6,
        "0 <= v2_F - v2_D <= (2 hbar T / pi^2 m Abar)/eps^2 on [3,10] eps_D",
        {
            "correction bound": all(0.0 <= gap <= coeff / eps**2 for eps, gap in gaps),
            "runtime": _within_runtime(start, 60.0),
        },
    )


def test_criterion_07_commutator_regimes():
    start = time.monotonic()
    plateau = v2_diff(1e-6, FIG2, 1e-8)
    slope = commutator_expectation(1e-5, FIG2, "differentiable").value / 1e-5
    # Usual quantum mechanics at resolution eps is the free measure, whose
    # commutator is exactly hbar (1 - eps/T) = 0.7 hbar here.  Measured:
    # restricted value 0.67183 hbar, 0.028 hbar from that reference.
    eps = 0.3
    usual_qm = FIG2.hbar * (1.0 - eps / FIG2.T)
    val = commutator_expectation(eps, FIG2, "differentiable").value
    _report(
        7,
        "commutator: linear vanishing slope, and within 0.03 hbar of the usual-QM"
        " value hbar (1 - eps/T) at eps=0.3",
        {
            "slope": abs(slope - FIG2.m * plateau) / (FIG2.m * plateau) <= 0.20,
            "hbar recovery": abs(val - usual_qm) / FIG2.hbar <= 0.03,
            "runtime": _within_runtime(start, 30.0),
        },
    )


def test_criterion_08_monte_carlo_oracle():
    start = time.monotonic()
    v2_ok = True
    for eps in (0.001, 0.05):
        est = estimate_v2(FIG2, eps, 0.0, 1000, 100_000, seed=12345)
        ref = v2_diff(eps, FIG2, 1e-9)
        v2_ok = v2_ok and abs(est.mean - ref) < 3.0 * est.stderr
    # per-mode second moments vs analytic truncated-Gaussian moment
    modes_ok = True
    for j in (1, 5, 50):
        rng = np.random.Generator(np.random.PCG64(j))
        b_j = FIG2.m * FIG2.T * (j * math.pi / FIG2.T) ** 2 / (4.0 * FIG2.hbar)
        big_b = FIG2.amplitude / j**FIG2.alpha
        x = sample_truncated_gaussian(b_j, big_b, rng, size=100_000)
        m2 = x**2
        ref_m = truncated_gaussian_ratio(b_j, big_b)
        assert ref_m == mode_second_moment_reference(FIG2, j)
        modes_ok = modes_ok and abs(m2.mean() - ref_m) < 3.0 * m2.std(ddof=1) / math.sqrt(m2.size)
    _report(
        8,
        "MC oracle matches v2_diff and per-mode moments within 3 sigma",
        {"v2": v2_ok, "mode moments": modes_ok, "runtime": _within_runtime(start, 120.0)},
    )


def test_criterion_09_oscillator_trivial_limits():
    start = time.monotonic()
    free = log_pi(1.0, FIG4.with_omega(0.0)).log_pi
    big = ModelParams(alpha=2.1, A=1e12, omega=1.0)
    unrestricted = log_pi(1.0, big, n_terms=100_000).log_pi
    _report(
        9,
        "log_pi = 0 at omega = 0 and |log_pi| < 1e-8 in the A -> inf limit",
        {
            "omega = 0": free == 0.0,
            "A -> inf": abs(unrestricted) < 1e-8,
            "runtime": _within_runtime(start, 30.0),
        },
    )


def test_criterion_10_shift_magnitudes():
    start = time.monotonic()
    # shift fraction of the ground-state energy: hbar*dw / (hbar w/2) = 2 dw / w
    s1 = spectrum_shift(1.0, FIG4.with_omega(1.0), 0, n_terms=100_000)
    frac1 = 2.0 * s1.delta_omega / 1.0
    s2 = spectrum_shift(1.0, FIG4.with_omega(1e4), 0, n_terms=100_000)
    frac2 = 2.0 * s2.delta_omega / 1e4
    _report(
        10,
        f"ground-state shifts {100*frac1:.2f}% (~1%) and {100*frac2:.1f}% (~90%)",
        {
            "omega = 1": 0.002 <= frac1 <= 0.05,
            "omega = 1e4": 0.50 <= frac2 <= 1.00,
            "runtime": _within_runtime(start, 300.0),
        },
    )


def test_criterion_11_unitarity():
    start = time.monotonic()
    above = unitarity_diagnostic(np.linspace(0.2, 5.0, 12), FIG4, tol=1e-4)
    below = unitarity_diagnostic(np.linspace(0.01, 0.05, 8), FIG4, tol=1e-3)
    _report(
        11,
        "delta_omega constant above eps_D (<=10%) and scattered below (>50%)",
        {
            "above eps_D": above.max_rel_deviation <= 0.10,
            "below eps_D": below.sub_eps_max_rel_deviation > 0.50,
            "runtime": _within_runtime(start, 300.0),
        },
    )


def test_criterion_12_level_spacing():
    start = time.monotonic()
    spacing_ok = True
    for n in (0, 5, 50):
        lo = spectrum_shift(1.0, FIG4, n, n_terms=20_000)
        hi = spectrum_shift(1.0, FIG4, n + 1, n_terms=20_000)
        spacing_ok = spacing_ok and (
            abs((hi.energy - lo.energy) - FIG4.hbar * FIG4.omega) <= 1e-12 * FIG4.hbar * FIG4.omega
        )
    _report(
        12,
        "level spacing hbar*omega to 1e-12 relative",
        {"spacing": spacing_ok, "runtime": _within_runtime(start, 10.0)},
    )


def test_criterion_13_large_omega_linearity():
    start = time.monotonic()
    fit = scan_E0_vs_omega(np.linspace(1e2, 1e4, 25), FIG4, 1.0, n_terms=100_000)
    _report(
        13,
        f"E0(omega) linear fit relative residual {100*fit['residual']:.2f}% <= 5%",
        {"linearity": fit["residual"] <= 0.05, "runtime": _within_runtime(start, 300.0)},
    )


def test_criterion_14_casimir():
    start = time.monotonic()
    v_exp = extrapolated_delta(lambda n: n, "exp")
    v_gauss = extrapolated_delta(lambda n: n, "gauss")
    x = 0.1
    tanh_val = casimir_energy(CasimirConfig(L=1.0, omega_D=math.pi / x), "tanh").delta
    # target as stated, with O(x^4)-scale slack; the x^2 coefficient itself
    # is cross-checked in unit tests against Euler-Maclaurin
    em = euler_maclaurin_delta(tanh_model_derivs(x, 5), 5)
    _report(
        14,
        "Casimir: -1/12 to 1e-4, regulator-invariant, tanh correction O(x^2)",
        {
            "-1/12": abs(v_exp + 1.0 / 12.0) <= 1e-4,
            "regulator invariance": abs(v_exp - v_gauss) < 1e-4,
            "Euler-Maclaurin": abs(tanh_val - em) <= 1e-4,
            # O(x^4)-level band
            "tanh correction": abs(tanh_val - (-1.0 / 12.0 - x**2 / 40.0)) <= 2.5e-4,
            "runtime": _within_runtime(start, 30.0),
        },
    )


def test_criterion_15_epsilon_d_bound():
    start = time.monotonic()
    res = epsilon_d_bound(1e-7, 0.01, 3e8)
    _report(
        15,
        f"eps_D bound {res.epsilon_d:.2e} s within [1e-16, 1e-14]",
        {"bound": 1e-16 <= res.epsilon_d <= 1e-14, "runtime": _within_runtime(start, 10.0)},
    )
