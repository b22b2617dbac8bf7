"""Compute the pinned high-precision references in ``references.json`` with mpmath.

Run once from the repository root and commit the output:

    python3 bench/make_references.py

It takes a few minutes.  The cases are the fixed reference requests that
every benchmark run sends (``workloads.py`` reads them from the JSON file):

* ``v2_diff`` on both ``s_diff`` routes: A=10 and A=1e6 take the direct
  route, A=1e9 the via-Feynman route (all at alpha=2.1, T=m=hbar=1);
* ``log_pi`` up to T=5 for the README ``spectrum`` parameters
  (epsilon_D=0.1, alpha=2.1, omega=1), plus one omega=2 point whose
  adaptive sum needs ~1.7e7 terms.

Each entry stores the value and an estimate of its own error, which is
far below the accuracy any checked result is held to.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import mpmath as mp

DPS = 50
mp.mp.dps = DPS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "references.json")


def one_minus_zed(w):
    """1 - Z(W), Z(W) = (2/sqrt(pi)) sqrt(W) e^-W / erf(sqrt(W))."""
    s = mp.sqrt(w)
    return 1 - 2 / mp.sqrt(mp.pi) * s * mp.exp(-w) / mp.erf(s)


def zed(w):
    s = mp.sqrt(w)
    return 2 / mp.sqrt(mp.pi) * s * mp.exp(-w) / mp.erf(s)


def s_diff_direct(tau, a_bar, alpha, n_direct, n_diff=12):
    """sum_j sin^2(j pi tau)(1 - Z(W_j))/j^2 by partial sum plus tails.

    With f(j) = (1 - Z(W_j))/j^2 smooth and decreasing, sin^2 = 1/2 -
    cos(2 pi j tau)/2.  The smooth tail (1/2) sum_{j>N} f(j) is summed by
    Euler-Maclaurin (mpmath.nsum, method 'e'; the default Richardson and
    Shanks methods are off by ~1e-13 on these tails).  The oscillatory
    tail comes from repeated summation by parts,

        sum_{j>=M} z^j f(j) = z^M/(1-z) sum_k (z/(1-z))^k (Delta^k f)(M),

    z = e^{2 pi i tau}, whose terms shrink like (alpha/(M|1-z|))^k; the
    last term kept is returned as the error estimate.
    """
    tau = mp.mpf(tau)
    f = lambda j: one_minus_zed(a_bar**2 / mp.mpf(j) ** (2 * (alpha - 1))) / mp.mpf(j) ** 2
    partial = mp.fsum(mp.sin(j * mp.pi * tau) ** 2 * f(j) for j in range(1, n_direct + 1))
    smooth_tail = mp.nsum(f, [n_direct + 1, mp.inf], method="e")
    m = n_direct + 1
    z = mp.expjpi(2 * tau)
    vals = [f(m + i) for i in range(n_diff + 1)]
    osc, term = mp.mpc(0), mp.mpc(0)
    for k in range(n_diff + 1):
        delta = mp.fsum((-1) ** (k - i) * mp.binomial(k, i) * vals[i] for i in range(k + 1))
        term = z**m / (1 - z) * (z / (1 - z)) ** k * delta
        osc += term
    return partial + (smooth_tail - osc.real) / 2, abs(term)


def s_diff_integral(tau, a_bar, alpha):
    """S_F(tau) - (1/2) sum_j Z(W_j)/j^2 for j* = a_bar^(1/(alpha-1)) >> 1/tau.

    g(t) = Z(W(t))/t^2 vanishes like e^-W for t << j* and varies on the
    scale j*, so every Euler-Maclaurin endpoint term at t=1 is ~e^-W_1 and
    sum_j g(j) equals the integral of g to far below double precision.
    The oscillatory part sum_j cos(2 pi j tau) g(j) is, by Poisson
    summation, the Fourier transform of g at frequency ~tau*j* >> 1,
    which is negligible for the same reason.  ``s_diff_direct`` on A=1e3
    cross-checks this route (see ``main``).
    """
    tau = mp.mpf(tau)
    j_star = a_bar ** (1 / (alpha - 1))
    g = lambda t: zed(a_bar**2 / t ** (2 * (alpha - 1))) / t**2
    pts = [mp.mpf(1)] + [j_star * mp.mpf(10) ** k for k in range(-3, 4)] + [mp.inf]
    pts = [p for i, p in enumerate(pts) if i == 0 or p > pts[0]]
    integral = mp.quad(g, pts)
    s_f = mp.pi**2 / 2 * tau * (1 - tau)
    return s_f - integral / 2


def v2_from_s(eps, s):
    eps = mp.mpf(eps)
    return 2 * (1 / (mp.pi * eps)) ** 2 * s  # (2 hbar/m T)(T/pi eps)^2 S with T=m=hbar=1


def log_pi(T, omega, epsilon_d, alpha, n_direct):
    """ln Pi(T) = (1/2) ln(sinh wT / wT) + sum_n b_n.

    b_n = ln erf(c_n sqrt(l_n + w^2)) - ln erf(c_n sqrt(l_n)) - (1/2) ln(1 + w^2/l_n)
    decays like n^(-2 alpha); the product formula sinh x / x =
    prod (1 + x^2 / n^2 pi^2) supplies the removed Gaussian factor exactly.
    """
    T, omega = mp.mpf(T), mp.mpf(omega)
    a_t = mp.sqrt(T) * (T / epsilon_d) ** (alpha - 1)
    big_b = a_t * mp.sqrt(T / 4)

    def b(n):
        n = mp.mpf(n)
        c = big_b / n**alpha
        lam = (n * mp.pi / T) ** 2
        return (
            mp.log(mp.erf(c * mp.sqrt(lam + omega**2)))
            - mp.log(mp.erf(c * mp.sqrt(lam)))
            - mp.log1p(omega**2 / lam) / 2
        )

    x = omega * T
    head = mp.log(mp.sinh(x) / x) / 2
    partial = mp.fsum(b(n) for n in range(1, n_direct + 1))
    tail = mp.nsum(b, [n_direct + 1, mp.inf], method="e")
    # Error estimate: change in the tail estimate when N doubles.
    check = mp.fsum(b(n) for n in range(n_direct + 1, 2 * n_direct + 1)) + mp.nsum(
        b, [2 * n_direct + 1, mp.inf], method="e"
    )
    return head + partial + tail, abs(check - tail)


def main() -> int:
    alpha = mp.mpf(2.1)  # the binary double the program receives
    half_pi = mp.pi / 2  # a_bar = sqrt(m pi^2 / 4 hbar T) A with T=m=hbar=1
    v2_cases = []

    def add_v2(route, A, eps, value_s, err_s):
        v2_cases.append(
            {
                "route": route,
                "A": A,
                "alpha": 2.1,
                "eps": eps,
                "v2": float(v2_from_s(eps, value_s)),
                "v2_err": float(v2_from_s(eps, err_s)),
                "s": mp.nstr(value_s, 30),
            }
        )
        print(route, A, eps, v2_cases[-1]["v2"], v2_cases[-1]["v2_err"], flush=True)

    for eps in (1e-3, 0.05, 0.5):
        s, err = s_diff_direct(eps, half_pi * 10, alpha, 20000)
        add_v2("direct", 10.0, eps, s, err)

    # Cross-check of the integral route where the direct sum is still cheap.
    s_direct, err_direct = s_diff_direct(0.05, half_pi * 1000, alpha, 60000)
    s_int = s_diff_integral(0.05, half_pi * 1000, alpha)
    cross = abs(s_direct - s_int)
    print("integral route cross-check at A=1e3:", mp.nstr(cross, 5), flush=True)
    if cross > 1e-17:
        raise SystemExit("integral route disagrees with the direct sum")

    for A, route, eps_list in ((1e6, "direct", (0.01,)), (1e9, "via_feynman", (0.01, 0.2))):
        for eps in eps_list:
            s = s_diff_integral(eps, half_pi * mp.mpf(A), alpha)
            add_v2(route, A, eps, s, cross)

    pi_cases = []
    for omega, T in ((1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (1.0, 5.0), (2.0, 5.0)):
        value, err = log_pi(T, omega, mp.mpf(0.1), alpha, 20000)
        pi_cases.append(
            {"epsilon_D": 0.1, "alpha": 2.1, "omega": omega, "T": T,
             "log_pi": float(value), "log_pi_err": float(err)}
        )
        print("log_pi", omega, T, float(value), float(err), flush=True)

    doc = {
        "generator": "bench/make_references.py",
        "mpmath_version": mp.__version__,
        "mpmath_dps": DPS,
        "python": platform.python_version(),
        "units": "T = m = hbar = 1 unless a case gives T",
        "v2_diff": v2_cases,
        "log_pi": pi_cases,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote", OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
