"""Estimator values, equivariance, and the structural properties tying the
likelihood-ratio estimator to the two-point likelihood comparison."""

import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from ldshift import estimators
from ldshift import families as fam_mod
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
    ("mle", None, make_family("gaussian")),        # the row mean, by the sign test
], ids=["lr-gaussian", "lr-gamma-3", "lr-beta-2-2", "lr-beta-2-2-narrow", "lr-flat",
        "lr-weibull-1.5", "lr-triangular-0.3", "lr-beta-1.5-1.5", "lr-uniform",
        "lr-custom-beta-2-2", "mle-gamma-3", "mle-beta-1.5-1.5", "mle-weibull-2",
        "mle-gaussian"])
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
        above, below = extreme_events(spec, fam, eps, -eps)(f_min, s_max)
        assert np.array_equal(above, t > eps), eps
        assert np.array_equal(below, t < -eps), eps


def test_tail_events_read_extremes_at_finite_edges_only(monkeypatch):
    # a gaussian row's bracket ends are infinite: no row extreme is taken;
    # a gamma row's lower end is its minimum, and the maxima are not taken,
    # nor the minima of gamma(3) mirrored onto (-inf, 0)
    mirrored = make_family("custom", logpdf=lambda u: 2.0 * np.log(-u) + u - math.log(2.0),
                           support=(-math.inf, 0.0), edge=(math.inf, 0.0, 3.0, 0.5),
                           log_concave=True, sampler=lambda rng, n: -rng.gamma(3.0, size=n))
    reduced = []
    row_reduce = estimators._row_reduce
    monkeypatch.setattr(estimators, "_row_reduce",
                        lambda ufunc, X: reduced.append(ufunc.__name__) or row_reduce(ufunc, X))
    for fam, specs, want in (
            (make_family("gaussian"), [EstimatorSpec("lr", eps=0.5)], []),
            (make_family("gamma", (3,)), [EstimatorSpec("lr", eps=0.6), EstimatorSpec("mle")],
             ["minimum"]),
            (mirrored, [EstimatorSpec("lr", eps=0.6), EstimatorSpec("mle")], ["maximum"])):
        X = sample(fam, 0.0, 2000 * 8, seed=9).values.reshape(2000, 8)
        for spec in specs:
            reduced.clear()
            above, below = tail_events(spec, fam, X, 0.5, -0.5)
            assert reduced == want, (fam.kind, spec.kind)
            t = estimate_many(spec, fam, X)
            assert np.array_equal(above, t > 0.5) and np.array_equal(below, t < -0.5)


@pytest.mark.parametrize("spec", [EstimatorSpec("mle"), EstimatorSpec("lr", eps=0.6)],
                         ids=["mle", "lr"])
def test_tail_events_at_an_end_in_a_wide_block(spec):
    # a gamma row's threshold within 1e-10 of its bracket end min x - a -
    # inset, in a block whose spread (a value at 1000) is far above the
    # row's: the slack takes the block's spread, and the row's indicator is
    # that of its full estimate
    fam = make_family("gamma", (3,))
    X = np.array([[1.0, 1.5, 2.0, 2.5], [1.0, 2.0, 3.0, 1000.0], [2.0, 2.2, 2.4, 2.6]])
    t = estimate_many(spec, fam, X)
    end = X[0].min() - (spec.eps or 0.0)
    for thr in (end - 5e-11, end - 1e-12, end + 5e-11):
        above, below = tail_events(spec, fam, X, thr, thr)
        assert np.array_equal(above, t > thr), thr
        assert np.array_equal(below, t < thr), thr


# the convex combination's oracle: families on (0, 1) with scipy's law of
# each
COMBO_LAWS = [
    (make_family("beta", (1.5, 1.5)), stats.beta(1.5, 1.5)),
    (make_family("beta", (0.3, 0.3)), stats.beta(0.3, 0.3)),
    (make_family("beta", (0.5, 3)), stats.beta(0.5, 3)),
    (make_family("triangular", (0.3,)), stats.triang(0.3)),
    (make_family("uniform"), stats.uniform()),
]
COMBO_IDS = ["beta-1.5-1.5", "beta-0.3-0.3", "beta-0.5-3", "triangular-0.3", "uniform"]


@pytest.mark.parametrize("fam, law", COMBO_LAWS[:3], ids=COMBO_IDS[:3])
def test_boundary_masses_hold_past_half_the_support(fam, law):
    # a boundary mass read from the far end loses the distance to a
    # singular far edge to rounding (1.1e-8 relative on beta(0.3, 0.3) at
    # 1e-14 from it, above the bins' widening); read from the nearer end
    # it keeps ulps
    t = np.concatenate([np.linspace(0.5, 1.0, 2001)[1:-1], 1.0 - np.logspace(-14, -2, 50)])
    for upper, want in ((False, law.cdf(t)), (True, law.sf(1.0 - t))):
        got = fam_mod._near_mass(fam, t, upper)
        assert np.all(np.abs(got / want - 1.0) <= 1e-14), upper


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("fam, law", COMBO_LAWS[1:], ids=COMBO_IDS[1:])
def test_convex_events_match_full_estimator(fam, law, lam):
    # sampled rows, the masses beyond their extremes from scipy's law
    spec = EstimatorSpec("convex_combo", lam=lam)
    events = 0
    for n in (1, 2, 4, 16):
        X = sample(fam, 0.0, 4000 * n, seed=n).values.reshape(4000, n)
        t = estimate_many(spec, fam, X)
        f_min, s_max = law.cdf(X.min(axis=1)), law.sf(X.max(axis=1))
        for eps in (0.02, 0.1):
            above, below = extreme_events(spec, fam, eps, -eps)(f_min, s_max)
            assert np.array_equal(above, t > eps), (n, eps)
            assert np.array_equal(below, t < -eps), (n, eps)
            events += np.count_nonzero(above) + np.count_nonzero(below)
    assert events > 0


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("fam, law", COMBO_LAWS, ids=COMBO_IDS)
def test_convex_events_on_placed_rows(fam, law, lam, monkeypatch):
    # rows placed where the boundary bins and the mass tables end: masses on
    # bin edges j / K, at 0, at and beyond a table's last mass, and within
    # 1e-12 of the boundaries G_up, G_dn themselves (from scipy's quantiles);
    # each against the estimate of a two-value sample with those extremes
    spec, eps, K = EstimatorSpec("convex_combo", lam=lam), 0.05, estimators._BINS
    g_up = lambda f: law.sf(1.0 - (lam * law.ppf(f) - eps) / (1.0 - lam))
    g_dn = lambda s: law.cdf((-eps + (1.0 - lam) * (1.0 - law.isf(s))) / lam)
    edges = np.arange(0, K + 1, 61) / K
    ends = [fam_mod._mass_table(fam, upper).mass[-1] for upper in (False, True)]
    beyond = [np.nextafter(e, 2.0) for e in ends]
    near = [1.0 - 1e-12, 1.0 + 1e-12]
    f = [edges, [0.0, ends[0], beyond[0], 1.0]]
    s = [edges, [0.0, ends[1], beyond[1], 1.0]]
    f_grid, s_grid = (np.concatenate(v) for v in (f, s))
    rows = [(x, y) for x in f_grid for y in s_grid]
    grid_rows = len(rows)
    rows += [(x, g * r) for x, g in zip(edges, g_up(edges)) if 0.0 < g < 1.0 for r in near]
    rows += [(g * r, y) for y, g in zip(edges, g_dn(edges)) if 0.0 < g < 1.0 for r in near]
    # where G leaves 0: the lowest dl, dr that can cross a threshold
    rows += [(law.cdf(eps / lam) * r, 0.0) for r in near]
    rows += [(0.0, law.sf(1.0 - eps / (1.0 - lam)) * r) for r in near]
    f_min, s_max = np.array(rows).T
    placed = np.arange(len(rows)) >= grid_rows
    X = np.column_stack([law.ppf(f_min), law.isf(s_max)])
    # a sample has its minimum below its maximum (estimate_many rejects the
    # others); a row whose estimate lies within rounding of a threshold has
    # no side
    sample = (f_min + s_max <= 1.0) & (X[:, 0] <= X[:, 1])
    f_min, s_max, placed = f_min[sample], s_max[sample], placed[sample]
    t = estimate_many(spec, fam, X[sample])
    keep = (np.abs(t - eps) > 1e-14) & (np.abs(t + eps) > 1e-14)
    f_min, s_max, t, placed = f_min[keep], s_max[keep], t[keep], placed[keep]
    solved = []
    quantile = fam_mod._quantile
    monkeypatch.setattr(fam_mod, "_quantile",
                        lambda family, p, *args, **kw: solved.append(np.size(p))
                        or quantile(family, p, *args, **kw))
    above, below = extreme_events(spec, fam, eps, -eps)(f_min, s_max)
    assert np.array_equal(above, t > eps)
    assert np.array_equal(below, t < -eps)
    # the rows next to G straddle their bins and take the exact quantile
    assert np.count_nonzero(placed) >= 20
    assert sum(solved) >= np.count_nonzero(placed)


def test_empty_batch():
    u = make_family("uniform")
    with pytest.raises(ValueError):
        estimate(EstimatorSpec("min_shift"), u, np.array([]))


IMPOSSIBLE_SPECS = [EstimatorSpec("mle"), EstimatorSpec("lr", eps=0.1), EstimatorSpec("min_shift"),
                    EstimatorSpec("convex_combo", lam=0.5)]


def test_estimate_rejects_impossible_samples():
    # a range beyond the support width, 1, fits no shift of beta(2,2), and a
    # nan no sample; a range equal to the width fits the one shift 0.25
    fam = make_family("beta", (2, 2))
    for spec in IMPOSSIBLE_SPECS:
        with pytest.raises(ValueError, match="range exceeds the support width"):
            estimate(spec, fam, [0.0, 1.5])
        for batch in ([0.2, 0.3, math.nan], [0.2, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                estimate(spec, fam, batch)
        assert estimate(spec, fam, [0.25, 1.25]) == 0.25, spec.kind


def test_estimate_many_rejects_impossible_samples():
    # one impossible row fails the whole matrix; an open support has no width
    fam = make_family("beta", (2, 2))
    good = np.array([[0.1, 0.5, 0.9], [0.2, 0.3, 0.4]])
    for spec in IMPOSSIBLE_SPECS:
        wide, bad = good.copy(), good.copy()
        wide[1, 2] = np.nextafter(1.2, 2.0)
        bad[0, 1] = -math.inf
        with pytest.raises(ValueError, match="range exceeds the support width"):
            estimate_many(spec, fam, wide)
        with pytest.raises(ValueError, match="finite"):
            estimate_many(spec, fam, bad)
        edge = good.copy()
        edge[1, 2] = 1.2
        assert estimate_many(spec, fam, edge)[1] == pytest.approx(0.2, abs=1e-15), spec.kind
    gauss = make_family("gaussian")
    assert estimate_many(EstimatorSpec("mle"), gauss, [[-1e300, 1e300]])[0] == 0.0
