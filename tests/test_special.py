"""Special-function tests against independent oracles (quadrature, mpmath)."""

import math
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.special as sc
from scipy.integrate import quad

from diffpath import special, velocity
from diffpath.paths import ModelParams
from diffpath.special import (
    BLOCK,
    TERM_CAP,
    ZETA_RTOL,
    ZETA_S_MAX,
    _ELL,
    _ELL_M,
    _ELL_R,
    _K,
    _W0,
    SeriesValue,
    _log_erf_over_sqrt,
    _log_erf_sqrt,
    _series_remainder,
    _zeta_plan,
    bernoulli,
    block_sum,
    certify,
    hurwitz_zeta,
    one_minus_zed,
    tol_budget,
    truncated_gaussian_ratio,
)

mp.mp.dps = 50


def test_log_erf_difference_huge_args_mpmath_oracle():
    ref = float(mp.log(mp.erf(10) / mp.erf(20)))
    # ln Erf(sqrt W) at sqrt W = 10 and 20
    assert _log_erf_sqrt(100.0) - _log_erf_sqrt(400.0) == pytest.approx(ref, abs=1e-13)


def _by_passes(kernel, w):
    """A pass kernel of special over a whole 1-d array, in passes of 1000 elements."""
    return np.concatenate([kernel(w[i:i + 1000]) for i in range(0, w.size, 1000)])


def _log_erf_both_branches(w):
    """The three-way formula of _log_erf_sqrt, each form over the whole raveled array."""
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    small, far = flat < 0.25, flat >= 745.0
    ws = np.where(small, flat, 0.125)
    with np.errstate(divide="ignore"):
        lo = 0.5 * np.log(ws) + math.log(2.0 / math.sqrt(math.pi)) + _by_passes(special._ell_series_pass, ws)
    hi = np.log1p(_by_passes(special._neg_erfc_pass, np.where(small | far, 1.0, flat)))
    # past 745 erfc is 0.0 unevaluated, so ln Erf is -0.0
    return np.where(small, lo, np.where(far, -0.0, hi)).reshape(w.shape)


def _log_erf_over_sqrt_both_branches(w):
    """The three-way formula of _log_erf_over_sqrt, each form over the whole raveled array."""
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    small, far = flat < 0.25, flat >= 745.0
    series = _by_passes(special._ell_series_pass, np.where(small, flat, 0.0))
    wl = np.where(small, 1.0, flat)
    c = math.log(2.0 / math.sqrt(math.pi))
    direct = np.log1p(_by_passes(special._neg_erfc_pass, np.where(far, 1.0, wl))) - 0.5 * np.log(wl) - c
    # past 745 erfc is 0.0 unevaluated: l(W) = -(1/2) ln W - ln(2/sqrt(pi))
    return np.where(small, series, np.where(far, -0.5 * np.log(wl) - c, direct)).reshape(w.shape)


def _masked_kernel_inputs(split):
    rng = np.random.default_rng(5)
    near = np.concatenate([x + np.arange(-64, 65) * np.spacing(x) for x in (split, 745.0)])
    spread = np.geomspace(1e-300, 1e4, 3000)
    shuffled = rng.permutation(np.concatenate([near, spread, 10.0 ** rng.uniform(-300, 4, 4000)]))
    return np.concatenate([near, spread, shuffled])


@pytest.mark.dispatch
def test_log_erf_masked_branches_bit_identical():
    w = _masked_kernel_inputs(0.25)
    whole = _log_erf_sqrt(w)
    assert np.array_equal(whole, _log_erf_both_branches(w))
    assert np.array_equal(_log_erf_sqrt(w.reshape(-1, 2)), _log_erf_both_branches(w.reshape(-1, 2)))
    # every element keeps its bits in any slice of the array
    for a in range(0, 4000, 397):
        for length in (1, 2, 3, 7, 64, 129):
            assert np.array_equal(_log_erf_sqrt(w[a:a + length]), whole[a:a + length]), (a, length)
    for w0 in (0.25, np.nextafter(0.25, 0.0), 1e-300, 16.0, 30.0, np.nextafter(745.0, 0.0), 745.0, 900.0):
        got = _log_erf_sqrt(np.float64(w0))
        assert type(got) is float
        assert got == float(_log_erf_both_branches(w0))


@pytest.mark.dispatch
def test_log_erf_over_sqrt_masked_branches_bit_identical():
    w = _masked_kernel_inputs(0.25)
    whole = _log_erf_over_sqrt(w)
    assert np.array_equal(whole, _log_erf_over_sqrt_both_branches(w))
    for a in range(0, 4000, 397):
        for length in (1, 2, 3, 7, 64, 129):
            assert np.array_equal(_log_erf_over_sqrt(w[a:a + length]), whole[a:a + length]), (a, length)
    for w0 in (0.25, np.nextafter(0.25, 0.0), 1e-300, 16.0, 30.0, np.nextafter(745.0, 0.0), 745.0, 900.0):
        got = _log_erf_over_sqrt(w0)
        assert type(got) is float
        assert got == float(_log_erf_over_sqrt_both_branches(w0))


def test_kernels_keep_their_values_across_threads():
    # each thread's kernel passes write into a scratch array of its own
    w = _masked_kernel_inputs(0.25)
    want = (_log_erf_sqrt(w), _log_erf_over_sqrt(w))
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda _: (_log_erf_sqrt(w), _log_erf_over_sqrt(w)), range(8)))
    assert all(np.array_equal(a, want[0]) and np.array_equal(b, want[1]) for a, b in got)


def _mp_ell(w):
    """ln(sqrt(pi) Erf(sqrt W) / (2 sqrt W)) = ln 1F1(1/2; 3/2; -W) in mpmath."""
    # 1F1 = 1 - W/3 + ...: carry enough digits past the 1
    with mp.workdps(30 + int(max(0.0, -math.log10(w)))):
        return mp.log(mp.hyp1f1(0.5, 1.5, -mp.mpf(float(w))))


def test_log_erf_over_sqrt_against_mpmath():
    rng = np.random.default_rng(9)
    small = np.concatenate([np.geomspace(1e-300, 0.25, 200, endpoint=False),
                            10.0 ** rng.uniform(-20.0, math.log10(0.25), 200)])
    got = _log_erf_over_sqrt(small)
    for w, g in zip(small, got):
        ref = _mp_ell(w)
        # series branch: relative, within 4 ulp
        assert abs(g - ref) <= 4 * np.spacing(abs(float(ref))), w
    large = np.concatenate([[0.25], np.linspace(0.25, 2.0, 200), np.geomspace(2.0, 700.0, 200)])
    got = _log_erf_over_sqrt(large)
    for w, g in zip(large, got):
        # direct branch: absolute, scaled above |value| = 1
        assert abs(g - _mp_ell(w)) <= 4.5e-16 * max(1.0, abs(g)), w


def test_one_minus_zed_relative_against_mpmath():
    for w in np.geomspace(1e-300, 700.0, 401):
        # 1 - Z cancels to 2W/3: carry enough digits past it
        with mp.workdps(30 + int(max(0.0, -math.log10(w)))):
            x = mp.mpf(float(w))
            r = mp.sqrt(x)
            ref = 1 - 2 / mp.sqrt(mp.pi) * r * mp.exp(-x) / mp.erf(r)
            assert abs(one_minus_zed(w) - ref) <= 1e-15 * ref, w


@pytest.mark.dispatch
def test_one_minus_zed_is_position_independent():
    # velocity's weight table computes 1 - Z once for j = 1..n and serves
    # slices of it; every element must be the value it has in any other array
    # (both sides of 1/4, and past 745, where erfc is 0.0 unevaluated)
    w = np.random.default_rng(3).permutation(np.geomspace(1e-12, 2000.0, 97))
    whole = [x.hex() for x in one_minus_zed(w)]
    for a in range(9):
        for length in range(1, 34):
            assert [x.hex() for x in one_minus_zed(w[a:a + length])] == whole[a:a + length], (a, length)
    assert [one_minus_zed(np.array(x)).hex() for x in w] == whole  # 0-d


def _ulps(got, ref):
    """|got - ref| in ulps of ref (a 40-digit mpf)."""
    return float(abs(mp.mpf(float(got)) - ref) / mp.mpf(math.ulp(float(ref))))


@pytest.mark.dispatch
def test_erfc_sqrt_against_mpmath():
    # erfc(sqrt W) at exact W from 1/4 to past its underflow: within 8 ulp where
    # it is a normal float, within one subnormal step below, 0.0 from W = 745 on
    rng = np.random.default_rng(11)
    w = np.concatenate([np.geomspace(0.25, 760.0, 1500), 10.0 ** rng.uniform(math.log10(0.25), math.log10(745.0), 1500),
                        745.0 + np.arange(-40, 41) * np.spacing(745.0)])
    live = w < 745.0
    neg = _by_passes(special._neg_erfc_pass, w[live])
    # from W = 745 on no erfc is evaluated: ln Erf(sqrt W) = log1p(-erfc) is -0.0
    far = _log_erf_sqrt(w[~live])
    assert np.all(np.signbit(neg)) and np.all(np.signbit(far)) and np.all(far == 0.0)
    got = np.empty_like(w)
    got[live], got[~live] = -neg, -far
    with mp.workdps(40):
        for x, g in zip(w, got):
            ref = mp.erfc(mp.sqrt(mp.mpf(float(x))))
            if ref >= mp.mpf(2) ** -1022:
                assert _ulps(g, ref) <= 8, x
            else:
                assert abs(mp.mpf(float(g)) - ref) <= mp.mpf(2) ** -1074, x
            if x >= 745.0:
                assert g == 0.0


def _mp_log_erf(w):
    """ln Erf(sqrt W) in mpmath, through log1p(-erfc) where Erf is near 1."""
    r = mp.sqrt(mp.mpf(float(w)))
    return mp.log(mp.erf(r)) if w < 1 else mp.log1p(-mp.erfc(r))


def _old_ell_series(w):
    """The Horner form of sum_{k<=18} l_k W^k that the product form replaced."""
    acc = np.full_like(w, _ELL[17])
    for k in range(17, 0, -1):
        acc = acc * w + _ELL[k - 1]
    return acc * w


def _kernel_points():
    rng = np.random.default_rng(12)
    return np.concatenate([np.geomspace(1e-300, 700.0, 700), 10.0 ** rng.uniform(-300, math.log10(700.0), 700),
                           np.linspace(0.01, 40.0, 300), np.linspace(0.25, 0.8, 1000)])


def _ulp_errors(got, refs):
    return np.array([_ulps(g, r) for g, r in zip(got, refs) if r != 0])


@pytest.mark.dispatch
def test_log_erf_no_less_accurate_than_the_scipy_form():
    # ln Erf(sqrt W) against log(erf(sqrt W)) below 1/4 and log1p(-erfc(sqrt W))
    # from 1/4 on, scipy's erf and erfc of the rounded sqrt W, at the same points
    w = _kernel_points()
    wl = np.where(w < 0.25, 1.0, w)
    with np.errstate(divide="ignore"):
        theirs = np.where(w < 0.25, np.log(sc.erf(np.sqrt(w))), np.log1p(-sc.erfc(np.sqrt(wl))))
    with mp.workdps(40):
        refs = [_mp_log_erf(x) for x in w]
    e_ours, e_theirs = _ulp_errors(_log_erf_sqrt(w), refs), _ulp_errors(theirs, refs)
    assert e_ours.max() <= min(6.0, e_theirs.max()) and e_ours.mean() <= e_theirs.mean()


@pytest.mark.dispatch
def test_ell_and_one_minus_zed_no_less_accurate_than_before():
    # l(W) and 1 - Z(W) against their previous forms at the same points: the
    # Horner series below 1/4, log1p(-erfc) - ln(W)/2 - ln(2/sqrt(pi)) with
    # scipy's erfc of the rounded sqrt W from 1/4 on.  Just above 1/4,
    # l = ln g with g = sqrt(pi) Erf(sqrt W) / (2 sqrt W) near 0.92 turns an
    # ulp of Erf into about 12 of l in either form; which point rounds worst
    # there decides the largest error (about 24 ulp for both, 1.07 times
    # the old one for ours), so the largest is held within 10% and the mean
    # and the 99th percentile to the old ones
    w = _kernel_points()
    wl = np.where(w < 0.25, 1.0, w)
    old_ell = np.where(w < 0.25, _old_ell_series(np.where(w < 0.25, w, 0.0)),
                       np.log1p(-sc.erfc(np.sqrt(wl))) - 0.5 * np.log(wl) - math.log(2.0 / math.sqrt(math.pi)))
    for ours, theirs, ref_of in (
        (_log_erf_over_sqrt(w), old_ell, _mp_ell),
        (one_minus_zed(w), -np.expm1(-(w + old_ell)), lambda x: -mp.expm1(-(mp.mpf(float(x)) + _mp_ell(x)))),
    ):
        with mp.workdps(40):
            refs = [ref_of(x) for x in w]
        e_ours, e_theirs = _ulp_errors(ours, refs), _ulp_errors(theirs, refs)
        assert e_ours.mean() <= e_theirs.mean()
        assert np.percentile(e_ours, 99) <= np.percentile(e_theirs, 99)
        assert e_ours.max() <= 1.1 * e_theirs.max()


@pytest.mark.dispatch
def test_erfc_table_is_a_relative_minimax_fit():
    # the table itself, evaluated in mpmath: within 1.4e-20 of erfc(sqrt W) e^W
    # over [1/4, 745] before its entries were rounded to floats, within 1e-17
    # after; the poles s_i fall to 0 and every weight v_i > 0
    s_col, v_col = special._ERFC_TABLE[:, 0], special._ERFC_TABLE[:, 1]
    assert s_col[-1] == 0.0 and np.all(np.diff(s_col) < 0) and np.all(v_col > 0)
    with mp.workdps(40):
        for w in np.geomspace(0.25, 745.0, 400):
            x = mp.mpf(float(w))
            fit = mp.sqrt(x) * mp.fsum(mp.mpf(float(v)) / (x + mp.mpf(float(s))) for s, v in zip(s_col, v_col))
            assert abs(fit / (mp.erfc(mp.sqrt(x)) * mp.exp(x)) - 1) <= 1e-17, w


def test_ell_quadratics_are_the_series():
    # _ELL_LEAD times the product of the quadratics W^2 + a W + b expands to
    # h(W) = sum_{k=2}^{18} l_k W^(k-2), up to the rounding of the table
    with mp.workdps(40):
        poly = [mp.mpf(special._ELL_LEAD)]  # in ascending powers of W
        for a, b in special._ELL_QUADS:
            new = [mp.mpf(0)] * (len(poly) + 2)
            for i, c in enumerate(poly):
                new[i] += c * float(b)
                new[i + 1] += c * float(a)
                new[i + 2] += c
            poly = new
    assert len(poly) == _K - 1
    errs = [float(abs(c / _ELL[k - 1] - 1)) for k, c in enumerate(poly, start=2)]
    assert max(errs) <= 1e-13, errs


def test_truncated_gaussian_ratio_flat_limit_relative():
    # B^2/3 (1 - O(b B^2)); abs=0, since pytest.approx's default 1e-12 would pass 0.0
    for big_b in (1e-9, 1e-150):
        assert truncated_gaussian_ratio(1.0, big_b) == pytest.approx(big_b**2 / 3.0, rel=1e-15, abs=0.0)
    # B^2 = 1e-320 is subnormal, where one step (4.9e-324) is 1.5e-3 relative
    assert abs(truncated_gaussian_ratio(1.0, 1e-160) - 1e-320 / 3.0) <= math.ulp(0.0)


def test_zed_small_w_branch():
    assert one_minus_zed(1e-6) == pytest.approx(2.0 / 3.0 * 1e-6, rel=1e-2)
    # W = 0.0, a W_j that underflows, weighs 1 - Z(0) = 0.0; a negative W is refused
    assert one_minus_zed(0.0) == 0.0 and np.array_equal(one_minus_zed(np.array([0.0, 1e-300])), [0.0, 2e-300 / 3.0])
    with pytest.raises(ValueError, match="W >= 0"):
        one_minus_zed(np.array([1.0, -1e-300]))


def test_zed_at_one_quadrature_oracle():
    # 1 - Z(1) is the normalized second moment of e^{-x^2} on |x| <= 1 times 2
    num, _ = quad(lambda x: x * x * math.exp(-x * x), -1, 1)
    den, _ = quad(lambda x: math.exp(-x * x), -1, 1)
    assert one_minus_zed(1.0) == pytest.approx(2.0 * num / den, abs=1e-10)
    assert one_minus_zed(1.0) == pytest.approx(1.0 - 0.4926, abs=1e-3)


@given(st.floats(min_value=1e-8, max_value=700.0))
@settings(deadline=None, max_examples=100)
def test_zed_range(w):
    # 0 < Z < 1; the strict upper inequality on 1 - Z holds only up to
    # rounding: 1 - Z(700) is 1.0 in doubles
    assert 0.0 < one_minus_zed(w) <= 1.0


def test_zed_monotone_decreasing_past_maximum():
    ws = np.linspace(0.6, 20.0, 50)
    assert np.all(np.diff(one_minus_zed(ws)) > 0)


def test_truncated_gaussian_ratio_limits():
    # untruncated limit
    assert truncated_gaussian_ratio(2.0, 100.0) == pytest.approx(0.25, abs=1e-12)
    # flat-Gaussian limit: uniform variance B^2/3
    assert truncated_gaussian_ratio(1.0, 0.01) == pytest.approx(0.01**2 / 3.0, rel=1e-3)


def test_truncated_gaussian_ratio_quadrature_oracle():
    num, _ = quad(lambda x: x * x * math.exp(-(x**2)), -1, 1)
    den, _ = quad(lambda x: math.exp(-(x**2)), -1, 1)
    assert truncated_gaussian_ratio(1.0, 1.0) == pytest.approx(num / den, abs=1e-10)


@given(st.floats(min_value=0.05, max_value=5.0))
@settings(deadline=None, max_examples=40)
def test_truncated_gaussian_ratio_monotone_in_b(b):
    vals = [truncated_gaussian_ratio(b, big_b) for big_b in (0.3, 0.6, 1.2, 2.4)]
    assert vals == sorted(vals)
    assert all(v < 0.5 / b for v in vals)


def test_truncated_gaussian_ratio_domain():
    for bad in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)]:
        with pytest.raises(ValueError):
            truncated_gaussian_ratio(*bad)


def test_s_feynman_closed_against_mpmath(s_feynman_closed):
    # (pi^2/2) tau (1 - tau) from the polylog form, on both sides of tau = 1/2
    half = np.geomspace(1e-9, 0.5, 200)
    for tau in np.concatenate((half, 1.0 - half)):
        t = mp.mpf(float(tau))
        assert abs(s_feynman_closed(float(tau)) - float(mp.pi**2 / 2 * t * (1 - t))) <= 4e-15, tau
    for tau in half:
        assert abs(s_feynman_closed(float(tau)) - s_feynman_closed(float(1.0 - tau))) <= 4e-15


@pytest.mark.dispatch
def test_block_sum_compensates_across_blocks(monkeypatch):
    # block totals 1e16, 1, -1e16: adding them in order would give 0.0
    terms = lambda n: np.where(n == 1.0, 1e16, np.where(n == 2.0, 1.0, -1e16))
    monkeypatch.setattr(special, "BLOCK", 1)
    assert block_sum(terms, [3]) == [1.0]


@pytest.mark.dispatch
def test_block_sum_ranges_and_blocks(monkeypatch):
    seen = []

    def terms(n):
        seen.append(n.copy())
        return n

    assert block_sum(terms, [0]) == [0.0] and seen == []  # empty range
    monkeypatch.setattr(special, "BLOCK", 4)
    assert block_sum(terms, [10]) == [55.0]
    assert [list(n) for n in seen] == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10]]  # ragged last block
    monkeypatch.setattr(special, "BLOCK", 3)
    assert block_sum(lambda n: (n, n * n), [10]) == [(55.0, 385.0)]


@pytest.mark.dispatch
@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_block_sum_of_many_ranges_is_block_sum_per_range(monkeypatch, block):
    monkeypatch.setattr(special, "BLOCK", block)

    def f(c, n):
        return np.sin(n * c) / (n + c) ** 1.5

    sizes = [0, 1, block - 1, block, block + 1, 3 * block + 5]
    params = [0.7, 1.3, 2.9, 0.2, 5.1, 3.3]  # distinct, so each arg names its range
    rng = np.random.default_rng(7)
    orders = [list(range(6)), list(range(5, -1, -1))] + [rng.permutation(6).tolist() for _ in range(4)]
    shared = 0
    for order in orders:
        stops = [sizes[k] for k in order]
        cs = [params[k] for k in order]
        calls, seen = [], []

        def terms(n, c, stop):
            nonlocal shared
            calls.append(n.size)
            if isinstance(c, float):
                # a call of one range: its own values, as floats
                assert isinstance(stop, int) and (c, stop) in zip(cs, stops)
                c_n, stop_n = np.full(n.shape, c), np.full(n.shape, stop)
            else:
                # a packed call: one value per element, from several ranges
                shared += 1
                assert c.shape == n.shape and stop.shape == n.shape and len(set(c.tolist())) > 1
                c_n, stop_n = c, stop
            for ck, sk, nk in zip(c_n.tolist(), stop_n.tolist(), n.tolist()):
                k = cs.index(ck)
                assert sk == stops[k] and 1 <= nk <= stops[k]
                seen.append((k, nk))
            return f(c, n)

        got = block_sum(terms, stops, cs, stops)
        want = [block_sum(lambda n, ck=ck: f(ck, n), [stop])[0] for ck, stop in zip(cs, stops)]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        # every term once, at most ``block`` per call
        assert max(calls) <= block and sum(calls) == sum(stops)
        assert sorted(seen) == [(k, float(m)) for k, stop in enumerate(stops) for m in range(1, stop + 1)]
        # tuple outputs: a tuple of sums per range, 0.0 for an empty one; no cols, so terms(n)
        pairs = block_sum(lambda n: (n, n * n), stops)
        assert pairs == [(m * (m + 1) / 2, m * (m + 1) * (2 * m + 1) / 6) if m else 0.0 for m in stops]
        assert block_sum(lambda n, c: (c * n, n), stops, cs) == [
            block_sum(lambda n, c=c: (c * n, n), [stop])[0] for c, stop in zip(cs, stops)
        ]
    # blocks of several ranges shared calls
    assert shared or block == 1


@pytest.mark.dispatch
def test_block_sum_refuses_a_range_past_the_term_cap():
    def terms(n, *args):
        raise AssertionError("no term may be evaluated")

    message = f"^block_sum sums at most TERM_CAP = {TERM_CAP} terms per range, not {TERM_CAP + 1}$"
    for stops, cols in (([TERM_CAP + 1], ()), ([3, TERM_CAP + 1, 0], ([0.5, 1.5, 2.5],))):
        with pytest.raises(ValueError, match=message):
            block_sum(terms, stops, *cols)
    # a range of TERM_CAP terms is summed, in calls of BLOCK terms
    sizes = []
    assert block_sum(lambda n: (sizes.append(n.size), np.ones_like(n))[1], [TERM_CAP]) == [TERM_CAP]
    assert sizes == [BLOCK] * (TERM_CAP // BLOCK)


@pytest.mark.dispatch
def test_block_sum_bit_identical_to_blocked_fsum():
    n = np.arange(1, 200_001, dtype=float)
    terms = lambda n: np.sin(n) / n**2
    x = terms(n)
    ref = math.fsum(float(x[i : i + (1 << 16)].sum()) for i in range(0, x.size, 1 << 16))
    assert block_sum(terms, [200_000]) == [ref]


def test_s_diff_head_blocks_are_bounded(monkeypatch):
    # no tail bound meets the smallest positive tol, so the x4 loop runs to the (lowered) cap of 2^18
    sizes = []
    head_terms = velocity._head_terms

    def recording(tau, params, j):
        sizes.append(j.size)
        return head_terms(tau, params, j)

    monkeypatch.setattr(velocity, "_head_terms", recording)
    monkeypatch.setattr(special, "TERM_CAP", 1 << 18)
    res = velocity.s_diff(0.1, ModelParams(alpha=2.1, A=10.0), tol=5e-324)
    assert res.n_terms == 1 << 18 and not res.converged
    assert max(sizes) == 1 << 16 and sum(sizes) == (1 << 12) + (1 << 14) + (1 << 16) + (1 << 18)


def test_tol_budget_rule():
    assert tol_budget(0.5, 1e-3) == 1e-3  # absolute below |value| = 1
    assert tol_budget(-20.0, 1e-3) == 20.0 * 1e-3  # relative above


def test_certify_returns_first_n_meeting_budget(monkeypatch):
    calls = []

    def evaluate(n):
        calls.append(n)
        return 100.0, 50.0 / n  # budget tol * 100

    assert certify(evaluate, 1e-2, 1) == SeriesValue(100.0, 64, 50.0 / 64, True)
    assert calls == [1, 4, 16, 64]
    assert certify(lambda n: (0.5, 1.0 / n), 1e-3, 1).n_terms == 1024
    # s_diff's n0 = 2^12, and an n0 of 2^14, step to the cap, 2^24, and stop there
    for n0 in (1 << 12, 1 << 14):
        calls.clear()
        assert certify(evaluate, 0.0, n0) == SeriesValue(100.0, TERM_CAP, 50.0 / TERM_CAP, False)
        assert calls[-1] == TERM_CAP == 1 << 24
    monkeypatch.setattr(special, "TERM_CAP", 64)
    assert certify(lambda n: (0.5, 1.0 / n), 1e-3, 1) == SeriesValue(0.5, 64, 1.0 / 64, False)


def test_bernoulli_values():
    assert bernoulli(0) == 1.0
    assert bernoulli(1) == -0.5
    assert bernoulli(2) == pytest.approx(1.0 / 6.0, abs=0)
    assert bernoulli(4) == pytest.approx(-1.0 / 30.0, abs=0)
    assert bernoulli(3) == 0.0
    assert bernoulli(12) == pytest.approx(-691.0 / 2730.0, rel=1e-15)


def test_bernoulli_domain():
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        bernoulli(1000)


def mp_log_erf_series(w):
    """L(W) - L(0) = ln(Erf(sqrt W) sqrt(pi) / (2 sqrt W)) = ln 1F1(1/2; 3/2; -W)."""
    return mp.log(mp.hyp1f1(0.5, 1.5, -w))


def test_log_erf_series_table_mpmath():
    mp.mp.dps = 40
    taylor = mp.taylor(mp_log_erf_series, 0, _K + 1)
    assert len(_ELL) == _K
    for k in range(1, _K + 1):
        assert _ELL[k - 1] == pytest.approx(float(taylor[k]), rel=1e-14, abs=0.0)


def test_log_erf_series_cauchy_constant():
    # the series converges for |W| < |z0|^2, z0 Erf's first complex zero
    mp.mp.dps = 20
    z0 = mp.findroot(mp.erf, mp.mpc(1.45, 1.88))
    assert abs(mp.erf(z0)) < 1e-15 and _ELL_R < abs(z0) ** 2 - 1.0
    # max |L - L(0)| on |W| = _ELL_R; the principal log is the analytic
    # branch there (no jump of 2 pi between neighbouring points)
    values = [mp_log_erf_series(_ELL_R * mp.expj(2 * mp.pi * i / 2000)) for i in range(2001)]
    assert max(abs(b - a) for a, b in zip(values, values[1:])) < 0.1
    assert max(abs(v) for v in values) * 1.02 <= _ELL_M


def test_series_remainder_bounds_the_omitted_terms():
    # W + u up to 1.07 W0: past n1, W_n <= W0 and u_n <= W_n / 16
    mp.mp.dps = 80
    taylor = mp.taylor(mp_log_erf_series, 0, _K + 1)
    w_max = 1.07 * _W0
    for w in np.linspace(0.0, w_max, 12):
        for u in (1e-12, 1e-6 * w, w / 16.0, w_max - w):
            if u <= 0.0 or w + u > w_max:
                continue
            wm, um = mp.mpf(w), mp.mpf(u)
            bound = _series_remainder(w, u)
            assert abs(taylor[_K + 1] * ((wm + um) ** (_K + 1) - wm ** (_K + 1))) <= bound
            if w >= _W0 / 8:
                # the whole remainder, where 80 digits resolve it
                exact = mp_log_erf_series(wm + um) - mp_log_erf_series(wm)
                head = mp.fsum(taylor[k] * ((wm + um) ** k - wm**k) for k in range(1, _K + 1))
                assert abs(exact - head) <= bound


# the Hurwitz zeta grid: s = 1.01, 1.5, 2, 2 alpha for alpha in (1, 4], and on to
# 300; each q with m = 1 and m = q - 1
ZETA_S = [1.01, 1.5, 2.0, 2.1, 4.2, 6.0, 8.0, 20.0, 77.6, 144.0, 300.0]
ZETA_Q = [1.0, 2.0, 17.0, 151.0, 4097.0, 1e6 + 1.0, 1e15 + 1.0]
ZETA_QM = [(q, m) for q in ZETA_Q for m in sorted({1.0, q - 1.0} - {0.0})]


def zeta_em(s, q, m, n, m_terms):
    """m^s zeta(s, q) by Euler-Maclaurin in mpmath: n direct terms, then m_terms Bernoulli terms."""
    s, q, m = mp.mpf(s), mp.mpf(q), mp.mpf(m)
    big_q = q + n
    em = big_q / (s - 1) + mp.mpf(1) / 2 + mp.fsum(
        mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1) / big_q ** (2 * j - 1)
        for j in range(1, m_terms + 1))
    return mp.fsum((m / (q + k)) ** s for k in range(n)) + (m / big_q) ** s * em


def zeta_reference(s, q, m):
    """Well past the terms the code takes: q + n >= 3 s + 60 and 40 Bernoulli terms,
    a remainder below 1e-70 of the value; mpmath's own zeta(s, q) loses digits here."""
    return zeta_em(s, q, m, max(0, math.ceil(3 * s + 60 - q)), 40)


def johansson_bound(s, q, m, n, m_terms):
    """Johansson's bound on the Euler-Maclaurin remainder after n direct and m_terms Bernoulli terms."""
    s, big_q = mp.mpf(s), mp.mpf(q) + n
    return (4 * (mp.mpf(m) / big_q) ** s * big_q * mp.rf(s, 2 * m_terms)
            / ((2 * mp.pi * big_q) ** (2 * m_terms) * (s + 2 * m_terms - 1)))


@pytest.mark.dispatch
@pytest.mark.parametrize("q, m", ZETA_QM)
def test_hurwitz_zeta_against_mpmath(q, m):
    # the array path over the whole s grid and, for m = 1, the scalar path;
    # a value below the float range is 0.0 or subnormal
    with mp.workdps(60):
        refs = [zeta_reference(s, q, m) for s in ZETA_S]
        values = hurwitz_zeta(np.array(ZETA_S), q, m)
        scalars = [hurwitz_zeta(s, q) for s in ZETA_S] if m == 1.0 else values
        for s, ref, value, scalar in zip(ZETA_S, refs, values, scalars):
            for v in (value, scalar):
                assert abs(v - ref) <= 1e-14 * ref + 4 * 2.0**-1074, (s, q, m, v, ref)


@pytest.mark.dispatch
@pytest.mark.parametrize("q, m", ZETA_QM)
def test_hurwitz_zeta_remainder_bound_covers_the_truncation(q, m):
    # the terms the code takes: one plan for the whole s grid (the array call
    # above) and one per s (a scalar call); for each, the truncation error,
    # measured against many more terms, lies within Johansson's bound, and
    # that bound within ZETA_RTOL / 2 of the value
    with mp.workdps(60):
        plans = [(s, _zeta_plan(max(ZETA_S), q)) for s in ZETA_S] + [(s, _zeta_plan(s, q)) for s in ZETA_S]
        for s, (n, m_terms) in plans:
            ref = zeta_reference(s, q, m)
            error = abs(zeta_em(s, q, m, n, m_terms) - ref)
            bound = johansson_bound(s, q, m, n, m_terms)
            # 1e-50 of the value is the floor of these 60-digit sums
            assert error <= bound + mp.mpf(10) ** -50 * ref, (s, q, m, n, m_terms)
            assert bound <= ZETA_RTOL / 2 * ref, (s, q, m, n, m_terms)


@pytest.mark.parametrize("s_max, q", [(60.0, 29.0), (100.0, 17.0), (70.0, 4.0), (1100.0, 1.0), (60000.0, 3.0)])
def test_zeta_plan_bounds_every_smaller_s(s_max, q):
    # one (N, M) serves a row of s up to s_max: at every s in (1, s_max],
    # Johansson's bound stays within ZETA_RTOL / 2 of the larger of the two
    # lower bounds of the value, q^-s and q^(1-s) / (s - 1); the cases take
    # each branch of the plan (x <= 2M - 1, x < 2M sigma / L, and beyond)
    n, m_terms = _zeta_plan(s_max, q)
    with mp.workdps(40):
        for s in [1.0 + 1e-6, 1.01, 1.5] + [s_max * k / 40 for k in range(1, 41)]:
            if s <= 1.0:
                continue
            lower = max(mp.mpf(q) ** -s, mp.mpf(q) ** (1 - s) / (s - 1))
            assert johansson_bound(s, q, 1.0, n, m_terms) <= ZETA_RTOL / 2 * lower, (s, q, n, m_terms)


@pytest.mark.dispatch
@pytest.mark.parametrize("q, m", [(1.0, 1.0), (1.5, 1.0), (513.0, 512.0)])
def test_hurwitz_zeta_past_s_512_against_mpmath(q, m):
    # mant^s alone would leave the float range past s = 1074 (mant = 1/2 at
    # m = 1 and m = 512), and its base's power would overflow
    with mp.workdps(60):
        s_grid = [1030.0, 1100.0]
        values = hurwitz_zeta(np.array(s_grid), q, m)
        scalars = [hurwitz_zeta(s, q) for s in s_grid] if m == 1.0 else values
        for s, value, scalar in zip(s_grid, values, scalars):
            ref = zeta_reference(s, q, m)
            for v in (value, scalar):
                assert abs(v - ref) <= 1e-14 * ref, (s, q, m, v, ref)


@pytest.mark.dispatch
def test_hurwitz_zeta_table_takes_each_q_its_terms():
    # the ln Pi tail's call: one row of s at q = n1 + 1 and q = N + 1, N = 1e15;
    # each q takes the direct terms of its own plan and the call's largest M,
    # within Johansson's bound, which stays within ZETA_RTOL / 2 at both q
    n1, qs = 28.0, [29.0, 1e15 + 1.0]
    plans = [_zeta_plan(max(ZETA_S), q) for q in qs]
    m_terms = max(m for _, m in plans)
    assert plans[1][1] < m_terms
    with mp.workdps(60):
        values = hurwitz_zeta(np.array(ZETA_S), qs, n1)
        assert values.shape == (2, len(ZETA_S))
        for row, q, (n, _) in zip(values, qs, plans):
            for s, value in zip(ZETA_S, row):
                ref = zeta_reference(s, q, n1)
                bound = johansson_bound(s, q, n1, n, m_terms)
                assert abs(zeta_em(s, q, n1, n, m_terms) - ref) <= bound + mp.mpf(10) ** -50 * ref, (s, q)
                assert bound <= ZETA_RTOL / 2 * ref, (s, q)
                assert abs(value - ref) <= 1e-14 * ref + 4 * 2.0**-1074, (s, q, value, ref)


@pytest.mark.dispatch
def test_hurwitz_zeta_tables_q_against_s():
    # a table of shape q.shape + s.shape for one m; floats give a float
    with mp.workdps(60):
        s = np.array([2.0, 4.2, 77.6])
        q = np.array([[3.0, 151.0, 1e6 + 1.0]])
        values = hurwitz_zeta(s, q, 2.0)
        assert values.shape == (1, 3, 3)
        for j, i in np.ndindex(3, 3):
            ref = zeta_reference(s[i], q[0, j], 2.0)
            # a value below the float range is 0.0 or subnormal
            assert abs(values[0, j, i] - ref) <= 1e-14 * ref + 4 * 2.0**-1074
            assert abs(hurwitz_zeta(s[i], q[0, j:j + 1], 2.0)[0] - ref) <= 1e-14 * ref + 4 * 2.0**-1074
        assert hurwitz_zeta(s, 151.0, 2.0).shape == (3,)
        assert isinstance(hurwitz_zeta(2.0, 17.0, 16.0), float)
        with pytest.raises(ValueError, match="1 < s < 65536"):
            hurwitz_zeta(1.0, 17.0)
        for s_big in (ZETA_S_MAX, math.inf):
            with pytest.raises(ValueError, match="s < 65536"):
                hurwitz_zeta(np.array([2.0, s_big]), 2.0)
