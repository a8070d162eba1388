"""Empirical and analytic first exponential rates, hypothesis-testing
exponents, and the empirical interval-estimation rate."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy.special import betainc

from ldshift import families as fam_mod
from ldshift import rates, renyi
from ldshift.estimators import EstimatorSpec, _strip_width, estimate_many, tail_events
from ldshift.families import _draw, log_density, make_family
from ldshift.rates import (InsufficientEventsError, WindowError, _child_seeds,
                           alpha2_estimate, chernoff_test_rate, hoeffding_rate,
                           ht_simulate, lr_rate_identity, mc_tail_rate,
                           mle_chernoff_rate, order_stat_rates)
from ldshift.verify import check_mc_identities

import record_goldens

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


def _strip_mass_mp(kind, params, lo, hi):
    """Exact mass of the family over [lo, hi] (float ends), in mpmath."""
    import mpmath as mp

    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if kind == "uniform":
        return hi - lo
    if kind == "beta":
        return mp.betainc(*params, lo, hi, regularized=True)
    c = mp.mpf(params[0])
    F = lambda u: u * u / c if u <= c else 1 - (1 - u) ** 2 / (1 - c)
    return F(hi) - F(lo)


@pytest.mark.parametrize("kind, params", [
    ("beta", (0.5, 3.0)), ("beta", (2.0, 3.0)), ("triangular", (0.3,)), ("uniform", ()),
])
def test_order_stat_rates_match_mpmath(kind, params):
    # all four sides against 40-digit strip masses over the same float
    # windows; where the cut-off mass m is tiny, -log F(b - eps) with F ~ 1
    # keeps only F's absolute precision (4.3e-9 relative on beta(0.5, 3))
    import mpmath as mp

    fam = make_family(kind, params)
    lam = 0.3
    with mp.workdps(40):
        for eps in (0.003125, 0.01, 0.1):
            r = order_stat_rates(fam, eps, lam=lam)
            windows = {"min_shift_plus": (0.0, eps), "max_shift_minus": (1.0 - eps, 1.0),
                       "combo_plus": (0.0, eps / lam),
                       "combo_minus": (1.0 - eps / (1.0 - lam), 1.0)}
            for side, (lo, hi) in windows.items():
                want = -mp.log1p(-_strip_mass_mp(kind, params, lo, hi))
                got = getattr(r, side)
                assert abs(got - want) <= 1e-13 * want, (side, eps, got, float(want))


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


@pytest.mark.parametrize("spec, fam, eps, n_grid", [
    (EstimatorSpec("min_shift"), make_family("gamma", (2,)), 0.3, (1, 4, 16, 64)),
    (EstimatorSpec("shifted_min", eps=0.1), make_family("gamma", (2,)), 0.1, (1, 4, 16, 64)),
    (EstimatorSpec("min_shift"), make_family("beta", (0.5, 3)), 0.001, (1, 4, 16, 64)),
    (EstimatorSpec("shifted_min", eps=0.0005), make_family("beta", (0.5, 3)), 0.0005,
     (1, 4, 16, 64)),
    (EstimatorSpec("max_shift"), make_family("beta", (2, 3)), 0.3, (1, 4, 16, 64)),
    (EstimatorSpec("convex_combo", lam=0.3), make_family("beta", (1.5, 1.5)), 0.05,
     (2, 4, 8, 16)),
    (EstimatorSpec("convex_combo", lam=0.3), make_family("triangular", (0.3,)), 0.05,
     (2, 4, 8, 16)),
], ids=["min-shift-gamma-2", "shifted-min-gamma-2", "min-shift-beta-0.5-3",
        "shifted-min-beta-0.5-3", "max-shift-beta-2-3", "combo-beta-1.5-1.5",
        "combo-triangular-0.3"])
def test_extreme_draws_match_direct_draws(spec, fam, eps, n_grid):
    # the exact (min, max) draws against n draws per row through the full
    # estimator, at every n and on both sides
    trials = 20_000
    est = mc_tail_rate(fam, spec, 0.0, eps, n_grid=n_grid, trials=trials, seed=5)
    rng = np.random.default_rng(99)
    for i, n in enumerate(n_grid):
        t = estimate_many(spec, fam, _draw(fam, rng, trials * n).reshape(trials, n))
        for p, hits in ((est.p_plus[i], t > eps), (est.p_minus[i], t < -eps)):
            q = hits.mean()
            stderr = math.sqrt((p * (1 - p) + q * (1 - q)) / trials)
            assert abs(p - q) <= 4.0 * stderr, (n, p, q)


@pytest.mark.parametrize("spec", [EstimatorSpec("min_shift"),
                                  EstimatorSpec("convex_combo", lam=0.5)],
                         ids=["min_shift", "convex_combo"])
def test_extreme_draws_do_not_depend_on_chunking(spec, monkeypatch):
    fam = make_family("beta", (1.5, 1.5))
    args = (fam, spec, 0.0, 0.1)
    kw = dict(n_grid=(8, 32), trials=5_000, seed=17)
    a = mc_tail_rate(*args, **kw)
    monkeypatch.setattr(rates, "_CHUNK_VALUES", 1_000)
    b = mc_tail_rate(*args, **kw)
    assert np.array_equal(a.p_plus, b.p_plus)
    assert np.array_equal(a.p_minus, b.p_minus)


def test_gaussian_mle_mean_rows_match_exact_tail():
    # each row draws the sample mean from its law theta + sigma Z / sqrt(n):
    # the tail is 0.5 erfc(eps sqrt(n) / (sigma sqrt 2)) on both sides
    sigma, eps, trials = 1.5, 0.3, 40_000
    n_grid = (2, 8, 32, 128)
    est = mc_tail_rate(make_family("gaussian", (sigma,)), EstimatorSpec("mle"), 2.0, eps,
                       n_grid=n_grid, trials=trials, seed=41)
    for i, n in enumerate(n_grid):
        p = 0.5 * math.erfc(eps * math.sqrt(n) / (sigma * math.sqrt(2.0)))
        stderr = math.sqrt(p * (1.0 - p) / trials)
        assert abs(est.p_plus[i] - p) <= 4.0 * stderr, (n, est.p_plus[i], p)
        assert abs(est.p_minus[i] - p) <= 4.0 * stderr, (n, est.p_minus[i], p)


def test_gaussian_mle_mean_rows_do_not_depend_on_chunking(monkeypatch):
    args = (GAUSS, EstimatorSpec("mle"), 0.0, 0.2)
    kw = dict(n_grid=(8, 64), trials=5_000, seed=43)
    a = mc_tail_rate(*args, **kw)
    monkeypatch.setattr(rates, "_CHUNK_VALUES", 1_000)    # 125 rows a chunk
    b = mc_tail_rate(*args, **kw)
    assert np.array_equal(a.p_plus, b.p_plus)
    assert np.array_equal(a.p_minus, b.p_minus)


@pytest.mark.parametrize("fam, spec, eps, n_grid", [
    (make_family("gamma", (3,)), EstimatorSpec("mle"), 0.5, (8, 16)),
    (make_family("gamma", (3,)), EstimatorSpec("lr", eps=0.6), 0.6, (4, 32)),
], ids=["mle-gamma-3", "lr-gamma-3"])
def test_shared_rows_do_not_depend_on_chunking(fam, spec, eps, n_grid, monkeypatch):
    # gamma(3) has an open upper edge, so one shared stream (seed, n) draws
    # every row of a rung; 1,000 values a block splits a rung into many
    # blocks, each ending mid-stream
    kw = dict(n_grid=n_grid, trials=3_000, seed=57)
    a = mc_tail_rate(fam, spec, 0.0, eps, **kw)
    monkeypatch.setattr(rates, "_CHUNK_VALUES", 1_000)
    b = mc_tail_rate(fam, spec, 0.0, eps, **kw)
    assert np.array_equal(a.p_plus, b.p_plus)
    assert np.array_equal(a.p_minus, b.p_minus)
    assert a.p_plus.min() > 0 and a.p_minus.min() > 0


def _traced_peak(run):
    """The peak of the memory Python allocates during run(), after one
    untraced call has built what the family caches (its mass tables)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


GAMMA3, BETA15 = make_family("gamma", (3,)), make_family("beta", (1.5, 1.5))


@pytest.mark.parametrize("run, blocks", [
    (lambda: mc_tail_rate(GAMMA3, EstimatorSpec("mle"), 0.0, 0.5, n_grid=(48,),
                          trials=20_000, seed=1), 2),
    (lambda: mc_tail_rate(GAMMA3, EstimatorSpec("lr", eps=0.6), 0.0, 0.6, n_grid=(32,),
                          trials=8_000, seed=1), 2),
    (lambda: mc_tail_rate(BETA15, EstimatorSpec("convex_combo", lam=0.5), 0.0, 0.1,
                          n_grid=(8,), trials=200_000, seed=1), 1.5),
    (lambda: mc_tail_rate(BETA15, EstimatorSpec("mle"), 0.0, 0.1, n_grid=(32,),
                          trials=20_000, seed=1), 2),
    (lambda: ht_simulate((GAMMA3, 0.0), (GAMMA3, 0.2), n_grid=(48,), trials=20_000,
                         seed=1), 2),
], ids=["mle-gamma-3-shared", "lr-gamma-3-shared", "convex-combo-summary",
        "mle-beta-1.5-1.5-strip-free", "ht-gamma-3"])
def test_a_call_works_in_a_few_blocks(run, blocks):
    # a call holds one block at a time and what deciding it takes: slices
    # of it in the sign test and the likelihood test, whose rejection draws
    # come in slice-sized pieces too (at 8 MB blocks the gamma(3) MLE call
    # held 23.5 MiB; with block-sized draws and two block-sized log-density
    # passes the likelihood test held 3.3 blocks)
    assert _traced_peak(run) < blocks * rates._CHUNK_VALUES * 8


def test_n_value_streams_are_pinned():
    # counts recorded at these seeds.  gamma(3) has an open upper edge, so
    # its LR rungs draw all n values of shared rows, as does the beta MLE at
    # n = 8, where strip-free samples per side would draw more values; the
    # beta MLE at n = 16 and 32 and the likelihood test draw strip-free rows
    gamma3, beta15 = make_family("gamma", (3,)), make_family("beta", (1.5, 1.5))
    lr = mc_tail_rate(gamma3, EstimatorSpec("lr", eps=0.6), 0.0, 0.6, n_grid=(4, 8, 16),
                      trials=2_000, seed=31)
    assert np.array_equal(lr.p_plus, np.array([490, 198, 46]) / 2_000)
    assert np.array_equal(lr.p_minus, np.array([179, 85, 17]) / 2_000)
    mle = mc_tail_rate(beta15, EstimatorSpec("mle"), 0.0, 0.1, n_grid=(8, 16, 32),
                       trials=1_000, seed=32)
    assert np.array_equal(mle.p_plus, np.array([94, 16, 1]) / 1_000)
    assert np.array_equal(mle.p_minus, np.array([98, 26, 0]) / 1_000)
    ht = ht_simulate((beta15, 0.0), (beta15, 0.2), n_grid=(8, 16, 24), trials=1_000, seed=33)
    assert np.array_equal(ht.error_sums, [173.0, 42.0, 10.0])


GOLDEN_COUNTS = json.loads((record_goldens.DATA / "mc_counts.json").read_text())
MC_COUNTS = [c for c in GOLDEN_COUNTS if "estimator" in c]
HT_COUNTS = [c for c in GOLDEN_COUNTS if "points" in c]


@pytest.mark.parametrize("case", MC_COUNTS, ids=[c["id"] for c in MC_COUNTS])
def test_mc_counts_are_pinned(case):
    # tail counts of the MLE, LR and order-statistic streams, recorded by the
    # call made here (record_goldens.mc_counts): a change to the estimating
    # functions, the sign test or the extremes' rule that moves one row's
    # side shows here
    assert record_goldens.mc_counts(case) == (case["p_plus"], case["p_minus"])


@pytest.mark.parametrize("case", HT_COUNTS, ids=[c["id"] for c in HT_COUNTS])
def test_ht_error_sums_are_pinned(case):
    # error sums of the likelihood test with q above p and below it,
    # recorded by the call made here (record_goldens.ht_error_sums): the
    # window kernel's lower point and sign differ between the two, and
    # between the hypotheses
    assert record_goldens.ht_error_sums(case) == case["error_sums"]


def _splits(fam, spec, eps, n):
    """Whether mc_tail_rate draws strip-free samples per side at n."""
    w = _strip_width(spec, fam, eps)
    masses = (fam_mod._strip_mass(fam, w, -math.inf), fam_mod._strip_mass(fam, -math.inf, w))
    return sum((1.0 - m) ** (n - 1) for m in masses) < 1.0


@pytest.mark.parametrize("fam, spec, eps, n_grid", [
    (make_family("beta", (1.5, 1.5)), EstimatorSpec("mle"), 0.1, (16, 32)),
    (make_family("beta", (1.5, 1.5)), EstimatorSpec("lr", eps=0.1), 0.1, (8, 16)),
    (make_family("beta", (2, 3)), EstimatorSpec("mle"), 0.15, (18, 24)),
    (make_family("beta", (2, 3)), EstimatorSpec("lr", eps=0.05), 0.1, (20, 32)),
    (make_family("triangular", (0.3,)), EstimatorSpec("mle"), 0.2, (10, 16)),
    (make_family("triangular", (0.3,)), EstimatorSpec("lr", eps=0.1), 0.1, (10, 16)),
    (UNIFORM, EstimatorSpec("mle"), 0.05, (16, 24)),
    (UNIFORM, EstimatorSpec("lr", eps=0.15), 0.05, (8, 12)),
], ids=["mle-beta-1.5-1.5", "lr-beta-1.5-1.5", "mle-beta-2-3", "lr-beta-2-3-narrower",
        "mle-triangular-0.3", "lr-triangular-0.3", "mle-uniform", "lr-uniform-wider"])
def test_strip_free_rows_match_direct_draws(fam, spec, eps, n_grid):
    # one strip-free sample per side against the tail events of n draws per
    # row (tail_events gives those of the full estimates); the LR
    # estimators' own eps differs from the tail's on two rows, so both arms
    # of the strip width eps + min(inset, eps) are run
    assert all(_splits(fam, spec, eps, n) for n in n_grid)
    trials = 20_000
    est = mc_tail_rate(fam, spec, 0.0, eps, n_grid=n_grid, trials=trials, seed=51)
    rng = np.random.default_rng(98)
    for i, n in enumerate(n_grid):
        X = _draw(fam, rng, trials * n).reshape(trials, n)
        for p, hits in zip((est.p_plus[i], est.p_minus[i]), tail_events(spec, fam, X, eps, -eps)):
            q = hits.mean()
            stderr = math.sqrt((p * (1 - p) + q * (1 - q)) / trials)
            assert abs(p - q) <= 4.0 * stderr, (n, p, q)
    assert est.p_plus[0] > 0     # the beta(2, 3) MLE is never seen below -eps here


def _direct_error_sum(fam, tp, tq, n, trials, rng):
    """e1 + e2 of the likelihood test from n full draws per row, its
    log-likelihood ratio summed from log_density at both shifts, so it
    checks the window kernel rather than sharing it.  A value in a strip,
    where the other density is -inf, makes its row's sum infinite, on the
    side that is no error."""
    errors = 0
    for h, t in enumerate((tp, tq)):
        X = _draw(fam, rng, trials * n).reshape(trials, n) + t
        llr = np.sum(log_density(fam, tp, X) - log_density(fam, tq, X), axis=1)
        errors += np.count_nonzero(llr < 0 if h == 0 else llr >= 0)
    return errors


@pytest.mark.parametrize("fam, tq", [
    (make_family("beta", (1.5, 1.5)), 0.2),
    (make_family("beta", (2, 3)), -0.15),
], ids=["shift-up", "shift-down"])
def test_ht_strip_free_rows_match_direct_draws(fam, tq):
    trials, n_grid = 20_000, (8, 16)
    res = ht_simulate((fam, 0.0), (fam, tq), n_grid=n_grid, trials=trials, seed=52)
    rng = np.random.default_rng(97)
    for n, got in zip(n_grid, res.error_sums):
        want = _direct_error_sum(fam, 0.0, tq, n, trials, rng)
        # two independent sums of two binomial counts each
        stderr = math.sqrt(2.0 * (got + want))
        assert abs(got - want) <= 4.0 * stderr, (n, got, want)
        assert got > 0


def test_ht_uniform_error_sum_is_the_strip_free_count():
    # under U(0, 1) every strip-free row ties and is accepted, no error; under
    # U(0.3, 1.3) every strip-free row is an error: the sum is the binomial
    # count that hypothesis' stream draws first, Binomial(trials, 0.7^n)
    trials, seed, n_grid = 10_000, 53, (2, 4, 8, 16)
    res = ht_simulate((UNIFORM, 0.0), (UNIFORM, 0.3), n_grid=n_grid, trials=trials, seed=seed)
    for n, got in zip(n_grid, res.error_sums):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, 1)))
        assert got == rng.binomial(trials, 0.7 ** n), n


def test_strip_free_rows_do_not_depend_on_chunking(monkeypatch):
    beta15 = make_family("beta", (1.5, 1.5))
    runs = [lambda: mc_tail_rate(beta15, EstimatorSpec("mle"), 0.0, 0.1, n_grid=(16, 32),
                                 trials=5_000, seed=54),
            lambda: mc_tail_rate(beta15, EstimatorSpec("lr", eps=0.1), 0.0, 0.1,
                                 n_grid=(8, 16), trials=5_000, seed=55),
            lambda: ht_simulate((beta15, 0.0), (beta15, 0.2), n_grid=(8, 16),
                                trials=5_000, seed=56)]
    before = [run() for run in runs]
    monkeypatch.setattr(rates, "_CHUNK_VALUES", 1_000)
    after = [run() for run in runs]
    for a, b in zip(before[:2], after[:2]):
        assert np.array_equal(a.p_plus, b.p_plus)
        assert np.array_equal(a.p_minus, b.p_minus)
    assert np.array_equal(before[2].error_sums, after[2].error_sums)


def test_ht_draws_only_undecided_rows(monkeypatch):
    # the benchmark's likelihood test: beta(1.5, 1.5) at shifts 0 and 0.2
    drawn = []

    def counting_draw(family, rng, n):
        drawn.append(n)
        return _draw(family, rng, n)

    monkeypatch.setattr(fam_mod, "_draw", counting_draw)
    beta15 = make_family("beta", (1.5, 1.5))
    n_grid, trials = (8, 16, 24, 32, 40, 48), 4_000
    ht_simulate((beta15, 0.0), (beta15, 0.2), n_grid=n_grid, trials=trials, seed=7)
    assert 0 < sum(drawn) < trials * sum(n_grid) / 10


@pytest.mark.parametrize("spec", [EstimatorSpec("min_shift"), EstimatorSpec("max_shift"),
                                  EstimatorSpec("shifted_min", eps=0.05),
                                  EstimatorSpec("convex_combo", lam=0.5)],
                         ids=["min_shift", "max_shift", "shifted_min", "convex_combo"])
def test_order_stat_mc_needs_no_sampler(spec):
    # beta(2, 2) as a custom family without a sampler: the same draws and
    # events as the built-in family
    custom = make_family("custom", logpdf=lambda u: np.log(6.0 * u * (1.0 - u)),
                         support=(0.0, 1.0), edge=(2.0, 6.0, 2.0, 6.0), log_concave=True)
    kw = dict(n_grid=(8, 16, 32), trials=20_000, seed=21)
    got = mc_tail_rate(custom, spec, 0.0, 0.1, **kw)
    want = mc_tail_rate(BETA22, spec, 0.0, 0.1, **kw)
    assert np.array_equal(got.p_plus, want.p_plus)
    assert np.array_equal(got.p_minus, want.p_minus)


def test_mle_chernoff_gaussian():
    # sup_t (t eps - t^2/2) = eps^2/2
    for eps in (0.25, 0.5):
        for side in ("plus", "minus"):
            got = mle_chernoff_rate(GAUSS, eps, side)
            assert got == pytest.approx(eps * eps / 2.0, rel=1e-6)
    assert mle_chernoff_rate(GAUSS, 0.0, "plus") == 0.0


# sup over t of -log int f exp(-+ t psi) over the window, psi the shifted
# point's score, in 40-digit mpmath: mpmath.quad, the stationary t by
# bisection and secant on the tilted mean of psi
MLE_CHERNOFF_MPMATH = [
    (("gamma", (3,)), 0.01, "plus", 4.835820447122320346374555e-05),
    (("gamma", (3,)), 0.01, "minus", 5.099808698144623500930297e-05),
    (("gamma", (3,)), 0.3, "plus", 0.03108047581731144859380041),
    (("gamma", (3,)), 0.3, "minus", 0.05525430305367536018313755),
    # an edge strip outside the window on either side: its mass enters D
    (("beta", (1.5, 1.5)), 0.1, "plus", 0.1482263213922751675555039),
    (("beta", (1.5, 1.5)), 0.1, "minus", 0.1482263213922751675555039),
]


@pytest.mark.parametrize("family, eps, side, want", MLE_CHERNOFF_MPMATH,
                         ids=[f"{f[0]}-{e}-{s}" for f, e, s, _ in MLE_CHERNOFF_MPMATH])
def test_mle_chernoff_matches_mpmath(family, eps, side, want):
    # the D form keeps F's relative precision where F is small; the
    # -log(sum ~ 1) form missed gamma(3) at eps 0.01 by 5e-12
    got = mle_chernoff_rate(make_family(*family), eps, side)
    assert abs(got - want) <= 1e-13 * want


def test_mle_chernoff_past_exp_overflow():
    # on beta(1.5, 1.5) at eps 1e-4 the minus side's score reaches 5,000 at
    # the window's lower end, so the bracket's first t = 1 overflows exp
    # there; unshifted, F reads -inf at t = 1 and 1/2 and the bracket runs
    # off (1.7e-6); the bracket then shrinks to [t_hi / 4, t_hi] about
    # t* = 1.4e-4, so the search stops relative to t*: 4.4e-14 off (mpmath)
    got = mle_chernoff_rate(make_family("beta", (1.5, 1.5)), 1e-4, "minus")
    assert got == pytest.approx(5.324614365853597887397326e-06, rel=1e-12)
    # a score below 0 all over the window: F grows without bound, as the
    # MLE of beta(1, 2), min(x) - a, never falls below theta
    assert mle_chernoff_rate(make_family("beta", (1.0, 2.0)), 0.1, "minus") == math.inf


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

    # the objective is concave in t: a coarse scan brackets its maximum on
    # [0, 0.2] and a bounded Brent search refines it inside that bracket
    def objective(t):
        return -math.log(integral(t))

    ts = np.linspace(0.0, 0.2, 41)
    vals = np.array([objective(t) for t in ts])
    i = int(np.argmax(vals))
    res = optimize.minimize_scalar(lambda t: -objective(t), method="bounded",
                                   bounds=(ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]),
                                   options={"xatol": 1e-9})
    best = max(float(vals[i]), -float(res.fun))
    assert got == pytest.approx(best, abs=1e-6)


def test_mle_chernoff_requires_log_concave():
    with pytest.raises(ValueError):
        mle_chernoff_rate(make_family("weibull", (0.8,)), 0.1, "plus")
    with pytest.raises(ValueError):
        mle_chernoff_rate(GAUSS, 0.1, "sideways")


def test_mle_chernoff_rejects_negative_or_non_finite_eps():
    gamma3 = make_family("gamma", (3,))
    for eps in (-0.3, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite"):
            mle_chernoff_rate(gamma3, eps, "plus")
    assert mle_chernoff_rate(gamma3, 0.0, "plus") == 0.0
    with pytest.raises(WindowError):  # wider than the trimmed support
        mle_chernoff_rate(make_family("beta", (1.5, 1.5)), 5.0, "plus")


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


@pytest.mark.parametrize("fam, twice, at_zero", [
    (UNIFORM, 0.22314355131420976, True),
    (make_family("gamma", (3,)), 0.010320097709514453, False),
    (make_family("beta", (2, 3)), 0.039331612525683214, False),
], ids=["uniform", "gamma-3", "beta-2-3"])
def test_hoeffding_infinite_below_the_outside_mass(fam, twice, at_zero):
    # p = f has mass m_p below q = f(. - 0.2)'s support: I^s -> -log1p(-m_p)
    # as s -> 1, so for r below that the exponent is +inf; above it the sup
    # is finite (``twice`` was recorded before the rule).  The uniform's I^s
    # is -log 0.8 at every s, so its sup is the s -> 0 limit -log 0.8;
    # beta(2,3)'s limit there, 0.0276, is below its interior sup
    p, q = (fam, 0.0), (fam, 0.2)
    threshold = -math.log1p(-fam_mod._mass_within(fam, 0.2))
    for r in (0.0, threshold / 2):
        h = hoeffding_rate(p, q, r)
        assert h.value == math.inf and h.at_boundary and not h.clamped, (r, h)
    h = hoeffding_rate(p, q, 2 * threshold)
    assert h.value == pytest.approx(twice, rel=1e-12) and h.at_boundary == at_zero
    assert (h.s_star == 0.0) == at_zero


def test_hoeffding_takes_the_limit_at_s_zero():
    # q = f(. - 0.2) has mass m_q above p's support: I^s -> -log1p(-m_q) as
    # s -> 0, and so does (-s r + I^s) / (1 - s) whatever r, so the exponent
    # is at least that limit, at the boundary s = 0, for r = inf too
    fam = make_family("beta", (2, 2))
    p, q = (fam, 0.0), (fam, 0.2)
    limit = -math.log1p(-renyi._pair_nodes(fam, 0.0, 0.2).m_q)
    assert limit == pytest.approx(0.109815, abs=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.5, 2.0, 5.0, 50.0, math.inf):
            h = hoeffding_rate(p, q, r)
            assert (h.value, h.s_star, h.at_boundary, h.clamped) == (limit, 0.0, True, False), r
    # the objective near s = 0 is below the limit and tends to it
    s = 1e-6
    near = (-s * 0.5 + renyi.renyi_divergence(fam, 0.0, 0.2, s)) / (1.0 - s)
    assert 0.10977 <= near <= limit


def test_hoeffding_at_infinite_r_without_outside_mass():
    # q inside p's support (m_q = 0): at r = inf the objective is -inf at
    # every s > 0, so the exponent is the s -> 0 limit 0, at s = 0, with
    # no floating-point warning
    gamma3 = make_family("gamma", (3,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, q in (((GAUSS, 0.0), (GAUSS, 1.0)), ((gamma3, 0.0), (gamma3, 0.3))):
            h = hoeffding_rate(p, q, math.inf)
            assert (h.value, h.s_star, h.at_boundary, h.clamped) == (0.0, 0.0, True, False), p


def test_hoeffding_rejects_nan_constraint():
    beta = make_family("beta", (1.5, 1.5))
    with pytest.raises(ValueError, match="r must be >= 0"):
        hoeffding_rate((beta, 0.0), (beta, 0.2), math.nan)


def test_hoeffding_dominates_chernoff():
    rng = np.random.default_rng(5)
    fams = [UNIFORM, BETA22, GAUSS, make_family("weibull", (1.5,))]
    for _ in range(20):
        fam = fams[rng.integers(len(fams))]
        d = float(rng.uniform(0.05, 0.5))
        pq = ((fam, 0.0), (fam, d))
        assert hoeffding_rate(*pq, 0.0).value >= chernoff_test_rate(*pq) - 1e-9


def test_hoeffding_tiny_divergence_keeps_the_sup():
    # two unit gaussians 1e-6 apart (KL 5e-13): a scan that spreads by less
    # than 1e-12 is still not a constant objective
    h = hoeffding_rate((GAUSS, 0.0), (GAUSS, 1e-6), 0.0)
    assert 3.5e-13 < h.value < 5.5e-13
    assert h.s_star != 0.5


def test_testing_rates_need_one_family():
    # a pair is two shifts of one family; two families are rejected
    p, q = (make_family("gamma", (2,)), 0.0), (make_family("weibull", (2,)), 0.1)
    for call in (lambda: chernoff_test_rate(p, q), lambda: hoeffding_rate(p, q, 0.0),
                 lambda: ht_simulate(p, q, n_grid=(4,), trials=10)):
        with pytest.raises(ValueError, match="one family"):
            call()


@pytest.mark.parametrize("rate", [
    chernoff_test_rate, lambda p, q: hoeffding_rate(p, q, 0.5),
    lambda p, q: ht_simulate(p, q, n_grid=(4,), trials=10),
], ids=["chernoff", "hoeffding", "ht_simulate"])
def test_testing_rates_reject_nan_shift(rate):
    # a nan shift is no shift of the family
    beta = make_family("beta", (2, 2))
    for tp, tq in ((0.0, math.nan), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="nan"):
            rate((beta, tp), (beta, tq))


def test_ht_simulate_uniform():
    res = ht_simulate((UNIFORM, 0.0), (UNIFORM, 0.3), n_grid=(4, 8, 16, 24),
                      trials=40_000, seed=6)
    assert res.slope == pytest.approx(-math.log(0.7), rel=0.10)


def test_ht_simulate_identical():
    res = ht_simulate((GAUSS, 0.0), (GAUSS, 0.0), n_grid=(4, 8, 16),
                      trials=2_000, seed=7)
    assert abs(res.slope) < 0.02


def test_lr_rate_identity_gaussian():
    # the full-level lemma check makes this lr_rate_identity call (gaussian,
    # eps 0.25, n 32..192, 30k trials, rel 0.15) besides its order-statistic
    # and data-processing parts
    check = check_mc_identities(seed=8)
    assert check.passed, check.detail
    rhs = chernoff_test_rate((GAUSS, -0.25), (GAUSS, 0.25))
    assert rhs == pytest.approx((2 * 0.25) ** 2 / 8.0, rel=1e-6)


def test_lr_rate_identity_beta():
    lhs, rhs = lr_rate_identity(BETA22, 0.1, n_grid=(16, 32, 64, 96), trials=30_000, seed=9)
    want = chernoff_test_rate((BETA22, -0.1), (BETA22, 0.1))
    assert rhs == want
    assert lhs == pytest.approx(rhs, rel=0.15)


def test_data_processing_cap():
    # empirical rates cannot beat the testing exponent of the eps-separated pair
    est = mc_tail_rate(UNIFORM, EstimatorSpec("min_shift"), 0.0, 0.1,
                       n_grid=(8, 16, 32, 64), trials=40_000, seed=10)
    cap = chernoff_test_rate((UNIFORM, -0.1), (UNIFORM, 0.1))
    assert est.beta <= cap + 3.0 * est.slope_stderr


def _same_at_two_thetas(fam, spec):
    """Whether mc_tail_rate gives the same counts and slope at theta 0 and 2.5."""
    a = mc_tail_rate(fam, spec, 0.0, 0.1, n_grid=(8, 16, 32), trials=20_000, seed=12)
    b = mc_tail_rate(fam, spec, 2.5, 0.1, n_grid=(8, 16, 32), trials=20_000, seed=12)
    return (np.array_equal(a.p_plus, b.p_plus) and np.array_equal(a.p_minus, b.p_minus)
            and a.beta == b.beta)


def test_rate_shift_invariance():
    # every row kind simulates at 0: theta changes no count
    assert _same_at_two_thetas(UNIFORM, EstimatorSpec("min_shift"))


def test_n_value_rows_ignore_theta():
    assert _same_at_two_thetas(make_family("gamma", (3,)), EstimatorSpec("mle"))


def test_empty_ladder_and_bad_grids_raise():
    spec = EstimatorSpec("min_shift")
    with pytest.raises(ValueError, match="eps_ladder"):
        alpha2_estimate(UNIFORM, spec, 1.0, eps_ladder=())
    for n_grid in ((), (8, 4), (0, 4)):
        with pytest.raises(ValueError, match="n_grid"):
            mc_tail_rate(UNIFORM, spec, 0.0, 0.1, n_grid=n_grid, trials=100)
    with pytest.raises(ValueError, match="trial"):
        mc_tail_rate(UNIFORM, spec, 0.0, 0.1, n_grid=(4,), trials=0)
    with pytest.raises(ValueError, match="trial"):
        ht_simulate((UNIFORM, 0.0), (UNIFORM, 0.3), n_grid=(4,), trials=0)
    with pytest.raises(ValueError, match="n_grid"):
        ht_simulate((UNIFORM, 0.0), (UNIFORM, 0.3), n_grid=(4, 4), trials=10)


def test_alpha2_estimate_uniform_combo():
    est = alpha2_estimate(UNIFORM, EstimatorSpec("convex_combo", lam=0.5), 1.0,
                          eps_ladder=(0.1, 0.05, 0.025),
                          n_grid=(16, 32, 64, 128, 256), trials=30_000, seed=13)
    assert 1.8 <= est.value <= 2.2          # A1 + A2 = 2


def test_alpha2_estimate_shifted_min():
    est = alpha2_estimate(UNIFORM, EstimatorSpec("shifted_min", eps=0.1), 1.0,
                          eps_ladder=(0.1, 0.05, 0.025),
                          n_grid=(16, 32, 64, 128, 256), trials=30_000, seed=14)
    assert 1.8 <= est.value <= 2.2          # 2 A1 = 2


def test_alpha2_estimate_gaussian_mle():
    n_grid = (8, 16, 24, 32, 48, 64)
    est = alpha2_estimate(GAUSS, EstimatorSpec("mle"), math.inf,
                          eps_ladder=(0.5, 0.4, 0.3),
                          n_grid=n_grid, trials=30_000, seed=15)
    assert est.value == pytest.approx(0.5, rel=0.15)
    # value and stderr are the last rung's, both divided by g(0.3) = 0.09
    last = mc_tail_rate(GAUSS, EstimatorSpec("mle"), 0.0, 0.3, n_grid=n_grid,
                        trials=30_000, seed=_child_seeds(15, 3)[2])
    assert (est.value, est.stderr) == (last.beta / 0.09, last.slope_stderr / 0.09)


def test_negative_shifts_raise():
    # a tail shift or a rung must be positive, not read as a negative rate
    beta = make_family("beta", (1.5, 1.5))
    with pytest.raises(ValueError, match="eps_ladder"):
        mc_tail_rate(beta, EstimatorSpec("min_shift"), 0.0, -0.1, n_grid=(8, 16), trials=200)
    with pytest.raises(ValueError, match="eps_ladder"):
        alpha2_estimate(UNIFORM, EstimatorSpec("min_shift"), 1.0,
                        eps_ladder=[0.1, -0.05], n_grid=(8, 16), trials=200)
