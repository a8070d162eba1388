"""Special-function values against an independent high-precision oracle
(mpmath, frozen below), plus the identity and monotonicity properties the
closed-form bounds rely on."""

import math
import time

import numpy as np
import pytest

from ldshift.families import make_family
from ldshift.special import (EULER_GAMMA, beta_fn, digamma, l8_derivative,
                             log_beta, log_gamma, solve_t0, t0_residual)

# frozen mpmath (dps=30) oracle values
LOG_GAMMA_ORACLE = {
    0.001: 6.90717888538385368,
    0.5: 0.572364942924700087,
    3.7: 1.42807232666538792,
    184.2: 774.902655085520048,
    1000.0: 5905.22042320918121,
}
DIGAMMA_ORACLE = {
    0.001: -1000.5755719318103,
    0.6: -1.54061921389319041,
    1.0: -0.577215664901532861,
    42.5: 3.73769323650009362,
}


def test_log_gamma_trivial():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0


def test_log_gamma_oracle():
    for x, want in LOG_GAMMA_ORACLE.items():
        assert abs(log_gamma(x) - want) <= 1e-12 * max(1.0, abs(want))


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.5)


def test_beta_values():
    assert abs(beta_fn(0.5, 0.5) - math.pi) < 1e-13
    assert abs(beta_fn(2.0, 3.0) - 1.0 / 12.0) < 1e-15
    for y in (0.3, 1.0, 7.5):
        assert abs(beta_fn(1.0, y) - 1.0 / y) < 1e-13
    with pytest.raises(ValueError):
        beta_fn(-1.0, 2.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, 0.0)


def test_beta_symmetry_and_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(0.05, 20.0, 2)
        b = beta_fn(x, y)
        assert abs(b - beta_fn(y, x)) <= 1e-10 * b
        assert abs(beta_fn(x + 1.0, y) - b * x / (x + y)) <= 1e-10 * b


def test_digamma_oracle():
    for x, want in DIGAMMA_ORACLE.items():
        assert abs(digamma(x) - want) <= 1e-10 * max(1.0, abs(want))
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-12
    with pytest.raises(ValueError):
        digamma(-0.2)


def test_digamma_recurrence():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.01, 100.0, 100)
    for xi in x:
        assert abs(digamma(xi + 1.0) - digamma(xi) - 1.0 / xi) < 1e-10


def test_digamma_reflection():
    rng = np.random.default_rng(13)
    for xi in rng.uniform(0.01, 0.99, 100):
        if abs(xi - 0.5) < 1e-3:
            continue
        want = math.pi / math.tan(math.pi * xi)
        assert abs(digamma(1.0 - xi) - digamma(xi) - want) < 1e-8
    # reflection at x = 1/4 gives exactly pi
    assert abs((digamma(0.75) - digamma(0.25)) - math.pi) < 1e-12


def test_t0_value_and_speed():
    solve_t0.cache_clear()  # time a real solve, not a memo hit
    start = time.perf_counter()
    t0 = solve_t0()
    elapsed = time.perf_counter() - start
    assert abs(t0 - 0.432646) <= 1e-5
    assert abs(t0_residual(t0)) < 1e-12
    assert elapsed < 1e-3


def test_t0_residual_endpoints():
    assert t0_residual(0.0) == -1.0
    assert type(t0_residual(0.5)) is float      # a float in, a float out
    # residual at 1/2 equals (psi(3/2) - psi(1))/4
    want = (digamma(1.5) - digamma(1.0)) / 4.0
    assert abs(t0_residual(0.5) - want) < 1e-14
    assert abs(want - 0.15342640972002735) < 1e-15


def test_t0_residual_monotone():
    grid = np.linspace(1e-4, 0.5 - 1e-4, 100)
    res = t0_residual(grid)
    assert np.all(np.diff(res) > 0)
    assert res[0] < 0 < res[-1]


def _mid_objective(s, k):
    return s * (1.0 - s * (k - 1.0)) * beta_fn(s + k * (1.0 - s), 2.0 - k)


def test_l8_derivative_values():
    # frozen from the mpmath oracle
    assert abs(l8_derivative(1.5, "mid") - 1.02967959373172) < 1e-12
    assert abs(l8_derivative(0.5, "low") - 1.88203427970784) < 1e-12
    # spec's explicit forms
    want_mid = 0.5 * 1.5 / 4.0 * math.pi * math.tan(math.pi / 4.0) * beta_fn(1.25, 0.5)
    assert abs(l8_derivative(1.5, "mid") - want_mid) < 1e-13
    want_low = 0.25 * math.pi / math.tan(math.pi / 4.0) * beta_fn(0.75, 0.5)
    assert abs(l8_derivative(0.5, "low") - want_low) < 1e-13


def test_digamma_and_residual_match_scipy_psi():
    from scipy.special import psi

    x = np.concatenate([np.geomspace(1e-3, 50.0, 2001), np.linspace(1e-3, 50.0, 2001)])
    want = psi(x)
    got = np.array([digamma(v) for v in x])
    assert np.all(np.abs(got - want) <= 3e-15 * np.maximum(1.0, np.abs(want)))
    # the array path of the residual, on the grid the lemma check uses and a
    # finer one: the scalar path elementwise, and scipy's psi to rounding
    for t in (np.linspace(1e-4, 0.5 - 1e-4, 100), np.linspace(0.0, 0.5, 5001)):
        res = t0_residual(t)
        assert np.array_equal(res, [t0_residual(float(v)) for v in t])
        res_want = 2.0 * t + t * (1.0 - t) * (psi(1.0 + t) - psi(1.0)) - 1.0
        assert np.all(np.abs(res - res_want) <= 2e-15)


# the shapes of every beta, gamma and closed-form power task of the benchmark
# configs: beta (p, q), gamma k, and the B((1+k)/2, 2-k) and B((1+k)/2, 1-k)
# of the power_mid and power_low closed forms
BETA_SHAPES = [(0.3, 0.3), (0.5, 3.0), (1.5, 1.5), (2.0, 3.0)]
GAMMA_SHAPES = [1.5, 2.0, 3.0]
CLOSED_FORM_SHAPES = ([((1.0 + k) / 2.0, 2.0 - k) for k in (1.3, 1.5, 1.8)]
                      + [((1.0 + k) / 2.0, 1.0 - k) for k in (0.3, 0.5)])


def test_log_gamma_and_log_beta_match_mpmath():
    import mpmath as mp

    pairs = BETA_SHAPES + CLOSED_FORM_SHAPES
    xs = set(GAMMA_SHAPES).union(*({x, y, x + y} for x, y in pairs))
    with mp.workdps(40):
        for x in sorted(xs):
            want = mp.loggamma(mp.mpf(x))
            assert abs(log_gamma(x) - want) <= 4e-16 * max(1.0, abs(want)), x
        for x, y in pairs:
            want = mp.log(mp.beta(mp.mpf(x), mp.mpf(y)))
            assert abs(log_beta(x, y) - want) <= 4e-16 * max(1.0, abs(want)), (x, y)


def test_exact_on_integers():
    assert beta_fn(2, 3) == 1.0 / 12.0
    assert log_gamma(3) == math.log(2.0)
    assert make_family("beta", (2, 3)).A1 == 12.0


def test_log_beta_domain():
    with pytest.raises(ValueError):
        log_beta(0.0, 1.0)
    with pytest.raises(ValueError):
        log_beta(1.0, float("nan"))


def test_l8_derivative_vs_central_difference():
    h = 1e-7
    for k in (1.2, 1.5, 1.8):
        cd = (_mid_objective(0.5 + h, k) - _mid_objective(0.5 - h, k)) / (2.0 * h)
        assert abs(cd - l8_derivative(k, "mid")) < 1e-6
    for k in (0.3, 0.5, 0.7):
        f = lambda s: s * beta_fn(s + k * (1.0 - s), 1.0 - k)
        cd = (f(0.5 + h) - f(0.5 - h)) / (2.0 * h)
        assert abs(cd - l8_derivative(k, "low")) < 1e-6


def test_l8_domain():
    with pytest.raises(ValueError):
        l8_derivative(2.5, "mid")
    with pytest.raises(ValueError):
        l8_derivative(1.5, "low")
    with pytest.raises(ValueError):
        l8_derivative(1.5, "sideways")


def test_l13_minimizer_at_half():
    # the symmetric objective of the shared-minimizer lemma
    for k in (1.2, 1.5, 1.8):
        grid = np.linspace(0.01, 0.99, 4001)
        vals = [(1.0 - s * (k - 1.0)) * beta_fn(s + k * (1.0 - s), 2.0 - k) / (1.0 - s)
                + (1.0 - (1.0 - s) * (k - 1.0)) * beta_fn(1.0 - s + k * s, 2.0 - k) / s
                for s in grid]
        s_min = grid[int(np.argmin(vals))]
        assert abs(s_min - 0.5) <= 1e-3
