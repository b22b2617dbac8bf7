"""Derive the coefficient tables of the erf/erfc kernels in ``diffpath.special``.

Run ``python tools/erf_tables.py`` (needs mpmath, a test extra; about two
minutes) and compare its output with the tables in special.py.  All the
work is done in 60-digit mpmath; only the printed tables are rounded.

* ``_ERFC_TABLE``, rows (s_i, v_i), the largest pole first:
  f(z) = sqrt(pi) x erfcx(x), z = 1/W = 1/x^2, is a Stieltjes function of
  z (f(z) = int_0^inf e^-u (1 + u z)^-1/2 du), so its best rational
  approximations have real, interlacing zeros and poles.  A
  relative-minimax fit of degree 15 in z on W in [1/4, 745] (linearized
  least squares, then Lawson reweighting) has all 15 poles at
  W = -s_i < 0 and is W sum_i v_i / (W + s_i) with every v_i > 0 and one
  s_i = 0; the weights are printed divided by sqrt(pi), so that
  erfc(sqrt W) = e^-W sqrt(W) sum_i v_i / (W + s_i).
* ``_ELL_QUADS``: l(W) = W (l_1 + W h(W)), h = sum_{k=2}^{18} l_k W^(k-2)
  of the exact table special._ELL, written as l_18 and the eight
  W-quadratics of h.
"""

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 60

W_MIN, W_MAX, DEGREE = mp.mpf(1) / 4, mp.mpf(745), 15


def quadratics(coeffs):
    """Leading coefficient and the (a, b) of W^2 + a W + b over the roots of a polynomial
    (coefficients highest first): conjugate pairs, then the real roots in pairs."""
    roots = mp.polyroots(coeffs, maxsteps=1000, extraprec=1000)
    pairs = [(-2 * mp.re(r), abs(r) ** 2) for r in roots if mp.im(r) > 0]
    real = sorted(mp.re(r) for r in roots if mp.im(r) == 0 or abs(mp.im(r)) < mp.mpf(10) ** -40)
    pairs += [(-(real[i] + real[i + 1]), real[i] * real[i + 1]) for i in range(0, len(real), 2)]
    return coeffs[0], sorted(pairs)


def erfc_fit():
    """(s_i, v_i / sqrt(pi)) of the degree-13 fit, and its largest relative error on a dense grid."""

    def f(z):
        x = 1 / mp.sqrt(z)
        return mp.sqrt(mp.pi) * x * mp.exp(x * x) * mp.erfc(x)

    n, m = DEGREE, 8 * DEGREE + 40
    lo, hi = -mp.log(W_MAX), -mp.log(W_MIN)
    zs = [mp.exp((lo + hi) / 2 + (hi - lo) / 2 * mp.cos(mp.pi * (k + mp.mpf(1) / 2) / m)) for k in range(m)]
    fs = [f(z) for z in zs]

    def ev(c, z):  # 1 + sum_k c_k z^k
        return 1 + sum(ck * z ** (k + 1) for k, ck in enumerate(c))

    weights, dprev = [mp.mpf(1)] * m, [mp.mpf(1)] * m
    for it in range(40):
        rows, rhs = [], []
        for z, fz, w, dp in zip(zs, fs, weights, dprev):
            s = mp.sqrt(w) / (fz * dp)
            rows.append([s * z ** k for k in range(1, n + 1)] + [-s * fz * z ** k for k in range(1, n + 1)])
            rhs.append(s * (fz - 1))
        sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        num, den = [sol[i] for i in range(n)], [sol[n + i] for i in range(n)]
        errs = [abs(ev(num, z) / ev(den, z) / fz - 1) for z, fz in zip(zs, fs)]
        if it < 6:
            dprev = [ev(den, z) for z in zs]
        else:
            total = sum(w * e for w, e in zip(weights, errs))
            weights = [w * e / total * m for w, e in zip(weights, errs)]
    grid = [mp.exp(lo + (hi - lo) * k / 3000) for k in range(3001)]
    worst = max(abs(ev(num, z) / ev(den, z) / f(z) - 1) for z in grid)
    # poles in z at the roots of den, at W = -s_i; R(W) = 1 + sum r_i / (W + s_i)
    zroots = mp.polyroots(list(reversed(den)) + [1], maxsteps=1000, extraprec=1000)
    assert all(abs(mp.im(r)) < mp.mpf(10) ** -40 for r in zroots)
    poles = sorted(-1 / mp.re(r) for r in zroots)
    res = []
    for s in poles:
        z = -1 / s
        dden = sum((k + 1) * c * z ** k for k, c in enumerate(den))
        res.append(ev(num, z) / dden * (-(z ** -2)))
    r0 = 1 + sum(r / s for r, s in zip(res, poles))
    v = [r0] + [-r / s for r, s in zip(res, poles)]
    assert all(x > 0 for x in v)
    k = 1 / mp.sqrt(mp.pi)
    return [mp.mpf(0)] + poles, [x * k for x in v], worst


def ell_quads():
    f = [Fraction((-1) ** k, math.factorial(k) * (2 * k + 1)) for k in range(19)]
    g = [Fraction(0)] * 19
    for k in range(1, 19):
        g[k] = f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k
    h = [mp.mpf(x.numerator) / x.denominator for x in reversed(g[2:])]
    return quadratics(h)


def show(name, rows):
    print(f"{name} = [")
    for row in rows:
        print("    (" + ", ".join(repr(float(x)) for x in row) + "),")
    print("]")


if __name__ == "__main__":
    s, v, worst = erfc_fit()
    print(f"# erfc fit: largest relative error {float(worst):.2e}")
    show("_ERFC_TABLE", list(zip(s, v))[::-1])
    lead, quads = ell_quads()
    print("_ELL_LEAD =", repr(float(lead)))
    show("_ELL_QUADS", quads)
