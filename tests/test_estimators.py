"""Estimator values, equivariance, and the structural properties tying the
likelihood-ratio estimator to the two-point likelihood comparison."""

import math

import numpy as np
import pytest
from scipy import special as sp

from ldshift.estimators import (EstimatorSpec, _row_extremes, estimate, estimate_many,
                                extreme_events, tail_events)
from ldshift.families import log_density, make_family, sample


def test_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec("nope")
    with pytest.raises(ValueError):
        EstimatorSpec("lr")                 # missing eps
    with pytest.raises(ValueError):
        EstimatorSpec("shifted_min", eps=-0.1)
    with pytest.raises(ValueError):
        EstimatorSpec("convex_combo", lam=1.5)


def test_order_statistic_examples():
    u = make_family("uniform")
    batch = np.array([0.2, 0.9])
    assert estimate(EstimatorSpec("min_shift"), u, batch) == pytest.approx(0.2)
    assert estimate(EstimatorSpec("max_shift"), u, batch) == pytest.approx(-0.1)
    got = estimate(EstimatorSpec("convex_combo", lam=0.5), u, batch)
    assert got == pytest.approx(0.05)
    got = estimate(EstimatorSpec("shifted_min", eps=0.05), u, batch)
    assert got == pytest.approx(0.15)


def test_min_shift_needs_finite_edge():
    g = make_family("gaussian")
    with pytest.raises(ValueError):
        estimate(EstimatorSpec("min_shift"), g, np.array([0.0, 1.0]))


def test_mle_gaussian_is_mean():
    g = make_family("gaussian")
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(2.0, 1.0, rng.integers(1, 40))
        got = estimate(EstimatorSpec("mle"), g, x)
        assert abs(got - x.mean()) < 1e-10


def test_mle_uniform_is_midrange():
    u = make_family("uniform")
    x = np.array([0.21, 0.55, 0.87])
    got = estimate(EstimatorSpec("mle"), u, x)
    want = 0.5 * ((0.87 - 1.0) + 0.21)
    assert got == pytest.approx(want, abs=1e-12)


def test_mle_monotone_density_equals_min_shift():
    # exponential density: score identically -1, likelihood rises to the
    # right endpoint of the admissible interval
    e = make_family("gamma", (1.0,))
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.exponential(1.0, 25) + 0.3
        mle = estimate(EstimatorSpec("mle"), e, x)
        assert mle == estimate(EstimatorSpec("min_shift"), e, x)


def test_mle_beta_interior_root():
    b = make_family("beta", (2, 2))
    x = sample(b, 0.4, 200, seed=5).values
    theta_hat = estimate(EstimatorSpec("mle"), b, x)
    assert x.max() - 1.0 < theta_hat < x.min()
    from ldshift.estimators import _score_sum
    s = _score_sum(b, x[None, :], np.array([theta_hat]))[0]
    assert abs(s) < 1e-6 * len(x)


def test_mle_requires_log_concave():
    w = make_family("weibull", (0.7,))
    with pytest.raises(ValueError):
        estimate(EstimatorSpec("mle"), w, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        estimate(EstimatorSpec("lr", eps=0.1), w, np.array([0.5, 1.0]))


def test_lr_gaussian_is_mean():
    g = make_family("gaussian")
    rng = np.random.default_rng(3)
    x = rng.normal(-1.0, 1.0, 30)
    got = estimate(EstimatorSpec("lr", eps=0.2), g, x)
    assert abs(got - x.mean()) < 1e-9


def test_lr_uniform_midrange():
    u = make_family("uniform")
    # wide batch: narrow-interval midpoint rule
    x = np.array([0.05, 0.97])
    got = estimate(EstimatorSpec("lr", eps=0.1), u, x)
    assert got == pytest.approx(0.5 * (0.05 + (0.97 - 1.0)))
    # flat k on the admissible interval gives the same midpoint
    x = np.array([0.4, 0.6])
    got = estimate(EstimatorSpec("lr", eps=0.05), u, x)
    assert got == pytest.approx(0.5 * (0.4 + (0.6 - 1.0)))


def test_shift_equivariance():
    rng = np.random.default_rng(4)
    cases = [
        (make_family("uniform"), ["min_shift", "max_shift", "mle"]),
        (make_family("beta", (2, 2)), ["min_shift", "convex_combo", "mle", "lr"]),
        (make_family("gaussian"), ["mle", "lr"]),
        (make_family("weibull", (1.5,)), ["min_shift", "shifted_min", "mle", "lr"]),
    ]
    for fam, kinds in cases:
        x = sample(fam, 0.0, 40, seed=8).values
        for kind in kinds:
            spec = EstimatorSpec(kind, eps=0.07 if kind in ("lr", "shifted_min") else None,
                                 lam=0.3 if kind == "convex_combo" else None)
            base = estimate(spec, fam, x)
            for c in (-3.2, 0.001, 11.0):
                shifted = estimate(spec, fam, x + c)
                assert abs(shifted - (base + c)) < 1e-12 * max(1.0, abs(base + c)), (
                    fam.kind, kind, c)


def test_lr_bracketing_property():
    # stronger likelihood at theta - eps pushes the estimate below theta,
    # and conversely
    rng = np.random.default_rng(6)
    for fam in (make_family("gaussian"), make_family("beta", (2, 2))):
        theta = 0.3
        eps = 0.15
        spec = EstimatorSpec("lr", eps=eps)
        for trial in range(40):
            n = int(rng.integers(3, 25))
            x = sample(fam, theta, n, seed=1000 + trial).values
            ll_lo = np.sum(log_density(fam, theta - eps, x))
            ll_hi = np.sum(log_density(fam, theta + eps, x))
            est = estimate(spec, fam, x)
            if ll_lo > ll_hi:
                assert est <= theta + 1e-9
            elif ll_hi > ll_lo:
                assert est >= theta - 1e-9


def test_order_statistics_bracket_truth():
    rng = np.random.default_rng(7)
    for fam in (make_family("uniform"), make_family("beta", (2, 2))):
        for trial in range(20):
            theta = float(rng.uniform(-1, 1))
            x = sample(fam, theta, 30, seed=trial).values
            assert estimate(EstimatorSpec("min_shift"), fam, x) >= theta
            assert estimate(EstimatorSpec("max_shift"), fam, x) <= theta


def test_vectorized_matches_scalar():
    fam = make_family("beta", (2, 2))
    X = np.vstack([sample(fam, 0.1, 20, seed=i).values for i in range(8)])
    for kind, kw in (("mle", {}), ("lr", {"eps": 0.1}),
                     ("convex_combo", {"lam": 0.4})):
        spec = EstimatorSpec(kind, **kw)
        vec = estimate_many(spec, fam, X)
        for i in range(8):
            assert vec[i] == pytest.approx(estimate(spec, fam, X[i]), abs=1e-12)


def test_mirrored_support_negates_estimates():
    # gamma(3) reflected onto (-inf, 0): a right-bounded, left-unbounded
    # support.  The estimates on -X are the negatives of those on X up to
    # the solvers' stopping rules: |k| <= 1e-12 n is decided from opposite
    # sides of the band, and the custom score is a central difference.
    g = make_family("gamma", (3,))
    m = make_family("custom", logpdf=lambda u: 2.0 * np.log(-u) - (-u) - sp.gammaln(3.0),
                    support=(-math.inf, 0.0), edge=(math.inf, 0.0, 3.0, 0.5),
                    log_concave=True)
    for n in (1, 2, 5, 20):
        X = np.vstack([sample(g, 0.0, n, seed=s).values for s in range(100)])
        for spec, tol in ((EstimatorSpec("lr", eps=0.3), 1e-9), (EstimatorSpec("mle"), 1e-8)):
            got = estimate_many(spec, m, -X)
            want = -estimate_many(spec, g, X)
            assert np.max(np.abs(got - want)) < tol, (n, spec.kind)


# density 1/11 on (0, 10] with an exponential tail: at n = 1 the LR log-ratio
# k(z) is exactly 0 for z in [x - 10 + eps, x - eps]
FLAT = make_family(
    "custom", logpdf=lambda u: -math.log(11.0) - np.maximum(u - 10.0, 0.0),
    support=(0.0, math.inf), edge=(1.0, 1.0 / 11.0, math.inf, 0.0), log_concave=True,
    breakpoints=(10.0,),
    sampler=lambda rng, n: np.where(rng.uniform(0.0, 1.0, n) < 10.0 / 11.0,
                                    rng.uniform(0.0, 10.0, n), 10.0 + rng.exponential(1.0, n)))


def test_lr_midpoint_of_flat_stretch():
    # the LR estimate is the stretch's midpoint x - 5.  The bracket must
    # reach past the stretch: ending on it made the estimate depend on the
    # first guess (x - 1.4).  k rises continuously into the zero band at the
    # stretch's left end, so a probe there missed it (x - 9.7 on 133 rows).
    x = np.linspace(0.05, 20.0, 400)
    d = estimate_many(EstimatorSpec("lr", eps=0.3), FLAT, x[:, None]) - x
    assert np.all(np.abs(d + 5.0) < 1e-9)


def test_row_extremes_match_min_max():
    rng = np.random.default_rng(5)
    for m, n in ((0, 3), (1, 1), (7, 1), (5, 4), (300, 48)):
        X = rng.standard_normal((m, n))
        if m * n > 3:
            X.flat[[0, 1, -1]] = np.inf, np.nan, -np.inf
        x_min, x_max = _row_extremes(X)
        assert np.array_equal(x_min, X.min(axis=1), equal_nan=True)
        assert np.array_equal(x_max, X.max(axis=1), equal_nan=True)


# beta(2, 2) as a custom family, whose log-ratio is the plain difference
CUSTOM_BETA22 = make_family(
    "custom", logpdf=lambda u: np.log(6.0 * u * (1.0 - u)), support=(0.0, 1.0),
    edge=(2.0, 6.0, 2.0, 6.0), log_concave=True, sampler=lambda rng, n: rng.beta(2.0, 2.0, n))


@pytest.mark.parametrize("kind, eps, fam", [
    ("lr", 0.5, make_family("gaussian")),
    ("lr", 0.6, make_family("gamma", (3,))),
    ("lr", 0.1, make_family("beta", (2, 2))),
    ("lr", 0.3, make_family("beta", (2, 2))),      # narrow rows from n = 3 on
    ("lr", 0.3, FLAT),
    ("lr", 0.3, make_family("weibull", (1.5,))),
    ("lr", 0.1, make_family("triangular", (0.3,))),
    ("lr", 0.1, make_family("beta", (1.5, 1.5))),
    ("lr", 0.1, make_family("uniform")),
    ("lr", 0.1, CUSTOM_BETA22),
    ("mle", None, make_family("gamma", (3,))),
    ("mle", None, make_family("beta", (1.5, 1.5))),
    ("mle", None, make_family("weibull", (2,))),
], ids=["lr-gaussian", "lr-gamma-3", "lr-beta-2-2", "lr-beta-2-2-narrow", "lr-flat",
        "lr-weibull-1.5", "lr-triangular-0.3", "lr-beta-1.5-1.5", "lr-uniform",
        "lr-custom-beta-2-2", "mle-gamma-3", "mle-beta-1.5-1.5", "mle-weibull-2"])
def test_tail_events_match_full_estimator(kind, eps, fam):
    spec = EstimatorSpec(kind, eps=eps)
    a, b = fam.support
    inset = eps if kind == "lr" else 0.0
    half = eps if kind == "lr" else 0.2
    undecided = []
    for n in (1, 3, 8):
        X = sample(fam, 0.1, 1000 * n, seed=n).values.reshape(1000, n)
        t = estimate_many(spec, fam, X)
        lo, hi = X.max(axis=1) - b + inset, X.min(axis=1) - a - inset
        # inside the bracket, beyond every bracket, on the finite bracket
        # ends of the first two rows, and past the finite ends of three
        # quarters of the rows
        thresholds = [(0.1 + half, 0.1 - half), (0.1 + half / 3, 0.1 - half / 5), (50.0, -50.0)]
        ends = [X[0].max() - b + inset, X[1].min() - a - inset]
        ends += [np.quantile(hi, 0.75)] if math.isfinite(a) else []
        ends += [np.quantile(lo, 0.25)] if math.isfinite(b) else []
        thresholds += [(e, e) for e in ends if math.isfinite(e)]
        for up, dn in thresholds:
            above, below = tail_events(spec, fam, X, up, dn)
            assert np.array_equal(above, t > up), (n, up)
            assert np.array_equal(below, t < dn), (n, dn)
            undecided += [np.mean((lo < thr) & (thr < hi)) for thr in (up, dn)]
    # the estimating function is evaluated on the undecided rows, gathered
    # unless every row is: some thresholds left a minority undecided, some a
    # majority
    if math.isfinite(a) or math.isfinite(b):
        assert any(0.0 < u < 0.5 for u in undecided)
    assert any(u >= 0.5 for u in undecided)


@pytest.mark.parametrize("spec", [
    EstimatorSpec("min_shift"), EstimatorSpec("max_shift"), EstimatorSpec("shifted_min", eps=0.05),
    EstimatorSpec("convex_combo", lam=0.5), EstimatorSpec("convex_combo", lam=0.3),
], ids=["min_shift", "max_shift", "shifted_min", "combo-0.5", "combo-0.3"])
def test_extreme_events_match_full_estimator(spec):
    # the events of the extremes' masses are those of the estimate itself
    fam = make_family("beta", (1.5, 1.5))
    X = sample(fam, 0.0, 20_000 * 4, seed=3).values.reshape(20_000, 4)
    t = estimate_many(spec, fam, X)
    # the family is symmetric: the mass above x is F(1 - x)
    f_min = sp.betainc(1.5, 1.5, X.min(axis=1))
    s_max = sp.betainc(1.5, 1.5, 1.0 - X.max(axis=1))
    for eps in (0.02, 0.05, 0.1):
        above, below = extreme_events(spec, fam, f_min, s_max, eps, -eps)
        assert np.array_equal(above, t > eps), eps
        assert np.array_equal(below, t < -eps), eps


def test_empty_batch():
    u = make_family("uniform")
    with pytest.raises(ValueError):
        estimate(EstimatorSpec("min_shift"), u, np.array([]))
