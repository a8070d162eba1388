"""Empirical and analytic first exponential rates, hypothesis-testing
exponents, and the empirical interval-estimation rate."""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betainc

from ldshift.estimators import EstimatorSpec
from ldshift.families import make_family
from ldshift.quadrature import panel_nodes
from ldshift.rates import (InsufficientEventsError, WindowError,
                           alpha2_estimate, chernoff_test_rate, hoeffding_rate,
                           ht_simulate, lr_rate_identity, mc_tail_rate,
                           mle_chernoff_rate, order_stat_rates)

UNIFORM = make_family("uniform")
GAUSS = make_family("gaussian")
BETA22 = make_family("beta", (2, 2))


def test_order_stat_rates_uniform():
    r = order_stat_rates(UNIFORM, 0.1, lam=0.5)
    assert r.min_shift_plus == pytest.approx(-math.log(0.9))
    assert r.min_shift_minus == math.inf
    assert r.max_shift_plus == math.inf
    assert r.max_shift_minus == pytest.approx(-math.log(0.9))
    assert r.combo_plus == pytest.approx(-math.log(0.8))
    assert r.combo_minus == pytest.approx(-math.log(0.8))


def test_order_stat_rates_beta():
    r = order_stat_rates(BETA22, 0.1)
    # -log integral_{0.1}^{1} 6x(1-x) dx = -log(1 - F(0.1))
    want = -math.log(1.0 - (3 * 0.01 - 2 * 0.001))
    assert r.max_shift_minus == pytest.approx(want, rel=1e-12)
    # asymmetric: the min overshoots past a + eps, the max undershoots b - eps
    F = lambda x: betainc(2, 3, x)
    r = order_stat_rates(make_family("beta", (2, 3)), 0.1, lam=0.3)
    assert r.min_shift_plus == pytest.approx(-math.log(1.0 - F(0.1)), rel=1e-10)
    assert r.max_shift_minus == pytest.approx(-math.log(F(0.9)), rel=1e-10)
    assert r.combo_plus == pytest.approx(-math.log(1.0 - F(0.1 / 0.3)), rel=1e-10)
    assert r.combo_minus == pytest.approx(-math.log(F(1.0 - 0.1 / 0.7)), rel=1e-10)


def test_order_stat_rates_windows():
    with pytest.raises(WindowError):
        order_stat_rates(UNIFORM, 1.5)
    with pytest.raises(WindowError):
        order_stat_rates(UNIFORM, 0.3, lam=0.25)  # eps/lam exceeds width
    with pytest.raises(ValueError):
        order_stat_rates(GAUSS, 0.1)


def test_order_stat_monotone_in_eps():
    vals = [order_stat_rates(UNIFORM, e).min_shift_plus
            for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mc_min_shift_uniform():
    est = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.1,
                       n_grid=(8, 16, 24, 32, 48, 64), trials=40_000, seed=1)
    assert est.beta_minus == math.inf          # never undershoots
    want = -math.log(0.9)
    assert abs(est.beta_plus - want) <= max(0.10 * want, 3 * est.slope_stderr)
    assert est.beta == est.beta_plus


def test_mc_convex_combo_uniform():
    est = mc_tail_rate(UNIFORM, EstimatorSpec("convex_combo", lam=0.5), 0.0, 0.1,
                       n_grid=(8, 16, 24, 32), trials=40_000, seed=2)
    want = -math.log(0.8)
    assert abs(est.beta_plus - want) <= max(0.10 * want, 3 * est.slope_stderr)
    assert abs(est.beta_minus - want) <= max(0.10 * want, 3 * est.slope_stderr)


def test_mc_matches_analytic_within_stderr():
    est = mc_tail_rate(BETA22, EstimatorSpec("max_shift"), 0.0, 0.1,
                       n_grid=(32, 64, 128, 256), trials=40_000, seed=3)
    ana = order_stat_rates(BETA22, 0.1)
    tol = max(0.10 * ana.max_shift_minus, 3.0 * est.slope_stderr)
    assert abs(est.beta_minus - ana.max_shift_minus) <= tol


def test_mc_insufficient_events():
    # a tiny eps window with huge exponent: no events at these n
    with pytest.raises(InsufficientEventsError):
        mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.9,
                     n_grid=(64, 128, 256, 512), trials=200, seed=4)


def test_mc_determinism():
    a = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.1,
                     n_grid=(8, 16, 32), trials=5_000, seed=11)
    b = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.1,
                     n_grid=(8, 16, 32), trials=5_000, seed=11)
    assert np.array_equal(a.p_plus, b.p_plus)
    assert a.beta == b.beta


def test_mle_chernoff_gaussian():
    # sup_t (t eps - t^2/2) = eps^2/2
    for eps in (0.25, 0.5):
        for side in ("plus", "minus"):
            got = mle_chernoff_rate(GAUSS, eps, side)
            assert got == pytest.approx(eps * eps / 2.0, rel=1e-6)
    assert mle_chernoff_rate(GAUSS, 0.0, "plus") == 0.0


def test_mle_chernoff_trapezoid_cross_check():
    # independent coarse trapezoid oracle for beta(3,3), eps = 0.05
    fam = make_family("beta", (3, 3))
    eps = 0.05
    got = mle_chernoff_rate(fam, eps, "plus")

    def integral(t):
        x = np.linspace(eps + 1e-9, 1.0 - 1e-9, 400_001)
        u = x - eps
        sc = 2.0 / u - 2.0 / (1.0 - u)
        f = 30.0 * x ** 2 * (1.0 - x) ** 2
        y = np.exp(-t * sc) * f
        return np.trapezoid(y, x) if hasattr(np, "trapezoid") else np.trapz(y, x)

    ts = np.linspace(0.0, 0.2, 2001)
    vals = np.array([-math.log(integral(t)) for t in ts])
    assert got == pytest.approx(float(vals.max()), abs=1e-6)


def test_mle_chernoff_requires_log_concave():
    with pytest.raises(ValueError):
        mle_chernoff_rate(make_family("weibull", (0.8,)), 0.1, "plus")
    with pytest.raises(ValueError):
        mle_chernoff_rate(GAUSS, 0.1, "sideways")


def test_chernoff_test_rate_gaussians():
    rate = chernoff_test_rate((GAUSS, 0.0), (GAUSS, 1.0))
    assert rate == pytest.approx(0.125, rel=1e-6)
    assert chernoff_test_rate((GAUSS, 0.3), (GAUSS, 0.3)) == 0.0


def test_chernoff_test_rate_uniform_overlap():
    rate = chernoff_test_rate((UNIFORM, 0.0), (UNIFORM, 0.1))
    assert rate == pytest.approx(-math.log(0.9), rel=1e-9)
    assert chernoff_test_rate((UNIFORM, 0.0), (UNIFORM, 1.5)) == math.inf


def test_hoeffding_examples():
    r0 = hoeffding_rate((GAUSS, 0.0), (GAUSS, 1.0), 0.0)
    assert r0.value == pytest.approx(0.5, rel=1e-3)   # relative entropy
    assert r0.at_boundary
    c = chernoff_test_rate((GAUSS, 0.0), (GAUSS, 1.0))
    rc = hoeffding_rate((GAUSS, 0.0), (GAUSS, 1.0), c)
    assert rc.value == pytest.approx(c, rel=1e-5)     # trade-off fixed point
    rbig = hoeffding_rate((GAUSS, 0.0), (GAUSS, 1.0), 50.0)
    assert rbig.value == 0.0 and rbig.clamped
    with pytest.raises(ValueError):
        hoeffding_rate((GAUSS, 0.0), (GAUSS, 1.0), -1.0)


def test_hoeffding_dominates_chernoff():
    rng = np.random.default_rng(5)
    fams = [UNIFORM, BETA22, GAUSS, make_family("weibull", (1.5,))]
    for _ in range(20):
        fam = fams[rng.integers(len(fams))]
        d = float(rng.uniform(0.05, 0.5))
        pq = ((fam, 0.0), (fam, d))
        assert hoeffding_rate(*pq, 0.0).value >= chernoff_test_rate(*pq) - 1e-9


def test_testing_rates_two_families():
    p = (make_family("gamma", (2,)), 0.0)
    q = (make_family("weibull", (2,)), 0.1)
    c = chernoff_test_rate(p, q)
    assert c == pytest.approx(chernoff_test_rate(q, p), rel=1e-9)
    # sup_s I^s is at least I^(1/2) = -log int sqrt(pq)
    bc, _ = integrate.quad(
        lambda x: math.sqrt(stats.gamma(2).pdf(x) * stats.weibull_min(2).pdf(x - 0.1)),
        0.1, np.inf, epsabs=1e-13, epsrel=1e-12)
    assert c >= -math.log(bc) - 1e-12
    assert hoeffding_rate(p, q, 0.0).value >= c - 1e-9


def test_ht_simulate_uniform():
    res = ht_simulate((UNIFORM, 0.0), (UNIFORM, 0.3), n_grid=(4, 8, 16, 24),
                      trials=40_000, seed=6)
    assert res.slope == pytest.approx(-math.log(0.7), rel=0.10)


def test_ht_simulate_identical():
    res = ht_simulate((GAUSS, 0.0), (GAUSS, 0.0), n_grid=(4, 8, 16),
                      trials=2_000, seed=7)
    assert abs(res.slope) < 0.02


def test_lr_rate_identity_gaussian():
    lhs, rhs = lr_rate_identity(GAUSS, 0.0, 0.25, n_grid=(32, 64, 128, 192),
                                trials=30_000, seed=8)
    assert rhs == pytest.approx((2 * 0.25) ** 2 / 8.0, rel=1e-6)
    assert lhs == pytest.approx(rhs, rel=0.15)


def test_lr_rate_identity_beta():
    lhs, rhs = lr_rate_identity(BETA22, 0.0, 0.1, n_grid=(16, 32, 64, 96),
                                trials=30_000, seed=9)
    want = chernoff_test_rate((BETA22, -0.1), (BETA22, 0.1))
    assert rhs == want
    assert lhs == pytest.approx(rhs, rel=0.15)


def test_data_processing_cap():
    # empirical rates cannot beat the testing exponent of the eps-separated pair
    est = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.1,
                       n_grid=(8, 16, 32, 64), trials=40_000, seed=10)
    cap = chernoff_test_rate((UNIFORM, -0.1), (UNIFORM, 0.1))
    assert est.beta <= cap + 3.0 * est.slope_stderr


def test_rate_shift_invariance():
    a = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.1,
                     n_grid=(8, 16, 32), trials=20_000, seed=12)
    b = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 2.5, 0.1,
                     n_grid=(8, 16, 32), trials=20_000, seed=12)
    assert a.beta == pytest.approx(b.beta, rel=1e-12)  # same draws, shifted


def test_alpha2_estimate_uniform_combo():
    est = alpha2_estimate(UNIFORM, EstimatorSpec("convex_combo", lam=0.5), 0.0,
                          "abs", eps_ladder=(0.1, 0.05, 0.025),
                          n_grid=(16, 32, 64, 128, 256), trials=30_000, seed=13)
    assert 1.8 <= est.value <= 2.2          # A1 + A2 = 2
    # window-center infimum collapses up to Monte Carlo noise
    assert est.window_spread < 0.35


def test_alpha2_estimate_shifted_min():
    est = alpha2_estimate(UNIFORM, EstimatorSpec("shifted_min", eps=0.1), 0.0,
                          "abs", eps_ladder=(0.1, 0.05, 0.025),
                          n_grid=(16, 32, 64, 128, 256), trials=30_000, seed=14)
    assert 1.8 <= est.value <= 2.2          # 2 A1 = 2


def test_alpha2_estimate_gaussian_mle():
    est = alpha2_estimate(GAUSS, EstimatorSpec("mle"), 0.0, "square",
                          eps_ladder=(0.5, 0.4, 0.3),
                          n_grid=(8, 16, 24, 32, 48, 64), trials=30_000, seed=15)
    assert est.value == pytest.approx(0.5, rel=0.15)
