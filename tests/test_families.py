"""Family construction, edge metadata, evaluation, sampling, and Fisher
information."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaincinv, gammainc, gammaln

from ldshift.estimators import EstimatorSpec, _k_rows, estimate_many, tail_events
from ldshift.families import (_KINDS, _dists, _edge_depths, _log_ratio, _mass_table,
                              _mass_within, _quantile, _score3, _trimmed_support, cdf,
                              fisher_information, log_density, make_family, sample, score)
from ldshift.quadrature import _GAUSS_ORDER, panel_nodes
from ldshift.special import log_beta, log_gamma

ALL_BUILTINS = [
    ("uniform", ()),
    ("beta", (2.0, 2.0)),
    ("beta", (0.7, 1.6)),
    ("gamma", (1.8,)),
    ("weibull", (1.5,)),
    ("gaussian", (1.0,)),
    ("triangular", (0.3,)),
]

WEIBULL15_MEAN = 0.90274529295093361   # Gamma(1 + 2/3), mpmath
WEIBULL15_VAR = 0.375690284813932


def _fam(kind, params):
    return make_family(kind, params)


def test_all_builtins_covers_every_kind():
    assert {kind for kind, _ in ALL_BUILTINS} == set(_KINDS)


def test_metadata_uniform():
    f = make_family("uniform")
    assert (f.kappa1, f.A1, f.kappa2, f.A2) == (1.0, 1.0, 1.0, 1.0)
    assert f.log_concave


def test_metadata_beta22():
    f = make_family("beta", (2, 2))
    assert f.kappa1 == 2.0 and f.kappa2 == 2.0
    assert abs(f.A1 - 6.0) < 1e-12 and abs(f.A2 - 6.0) < 1e-12


def test_metadata_weibull():
    f = make_family("weibull", (1.5,))
    assert (f.kappa1, f.A1, f.A2) == (1.5, 1.5, 0.0)
    assert f.support == (0.0, math.inf)


def test_metadata_gamma():
    f = make_family("gamma", (2.5,))
    assert f.kappa1 == 2.5
    assert abs(f.A1 - 1.0 / math.gamma(2.5)) < 1e-12
    assert f.A2 == 0.0


def test_invalid_params():
    # a wrong count is a ValueError too, not the TypeError of a bare signature
    for kind, params in [
        ("beta", (0.0, 1.0)), ("weibull", (-1.0,)), ("nonesuch", ()),
        ("gaussian", (1.0, 5.0)), ("triangular", (0.3, 9.0)), ("beta", (2.0,)), ("gamma", ()),
        ("gamma", (math.inf,)), ("gaussian", (math.nan,)), ("beta", (2.0, math.inf)),
        ("uniform", (0.0, 2.0)), ("triangular", (1.0,)),
        # shapes whose edge amplitude under- or overflows
        ("gamma", (180.0,)), ("beta", (600.0, 600.0)),
    ]:
        with pytest.raises(ValueError):
            make_family(kind, params)


def test_default_params():
    assert make_family("gaussian").params == (1.0,)
    assert make_family("triangular").params == (0.5,)
    assert make_family("uniform", (0, 1)).params == ()


def test_log_density_examples():
    u = make_family("uniform")
    assert log_density(u, 0.0, 0.5) == 0.0
    assert log_density(u, 0.0, 1.5) == -math.inf
    g = make_family("gaussian")
    assert abs(log_density(g, 0.0, 0.0) - (-0.91893853320467274)) < 1e-14


def _gathered_logpdf(fam, u):
    """Reference log f: the inside points gathered from u, each kind's
    formula evaluated on them alone, -inf scattered elsewhere."""
    a, b = fam.support
    dl = u - a if math.isfinite(a) else np.full_like(u, math.inf)
    dr = b - u if math.isfinite(b) else np.full_like(u, math.inf)
    inside = (dl > 0) & (dr > 0)
    ui, li, ri = u[inside], dl[inside], dr[inside]
    kind, params = fam.kind, fam.params
    with np.errstate(divide="ignore", over="ignore"):
        if kind == "uniform":
            val = np.zeros_like(ui)
        elif kind == "beta":
            p, q = params
            val = (p - 1.0) * np.log(li) + (q - 1.0) * np.log(ri) - log_beta(p, q)
        elif kind == "gamma":
            k, = params
            val = (k - 1.0) * np.log(li) - li - log_gamma(k)
        elif kind == "weibull":
            k, = params
            val = math.log(k) + (k - 1.0) * np.log(li) - li ** k
        elif kind == "gaussian":
            s, = params
            val = -0.5 * (ui / s) ** 2 - math.log(s * math.sqrt(2.0 * math.pi))
        else:
            c, = params
            val = np.where(ui <= c, np.log(2.0 * li / c), np.log(2.0 * ri / (1.0 - c)))
    out = np.full(u.shape, -math.inf)
    out[inside] = val
    return inside, out


@pytest.mark.parametrize("kind, params", ALL_BUILTINS + [("gaussian", (0.3,))],
                         ids=lambda v: str(v))
def test_log_density_one_path(kind, params):
    # the whole sample matrix is evaluated at once: values at inside points
    # are bit-identical to an evaluation on them alone, -inf outside, and no
    # floating-point warning escapes from the points outside or at an edge
    f = _fam(kind, params)
    a, b = _trimmed_support(f)
    rng = np.random.default_rng(12)
    pts = np.concatenate([
        a + (b - a) * rng.uniform(0.0, 1.0, 60),                 # inside
        [a, b, np.nextafter(a, b), np.nextafter(b, a)],          # at and next to the edges
        [a - 1.0, a - 1e-300, b + 1e-12, b + 3.0, -1e200, 1e200, 1.0, 0.3],
        rng.beta(1.5, 1.5, 36) + 0.2,                            # the alternative of a test
    ]).reshape(4, 27)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_density(f, 0.0, pts)
    inside, want = _gathered_logpdf(f, pts)
    assert got.shape == pts.shape
    assert np.array_equal(got[inside], want[inside])
    assert np.all(got[~inside] == -math.inf)
    if math.isfinite(f.a):
        assert not inside.all()


def _strict_beta22(u):
    u = np.asarray(u)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise AssertionError("custom logpdf called outside its support")
    return np.log(6.0 * u * (1.0 - u))


def test_custom_logpdf_sees_inside_points_only():
    strict = make_family("custom", logpdf=_strict_beta22, support=(0.0, 1.0),
                         edge=(2.0, 6.0, 2.0, 6.0), log_concave=True)
    beta22 = make_family("beta", (2, 2))
    x = np.array([[-0.5, 0.0, 0.3, 1.0, 1e-12], [1.5, 0.7, 0.999, 1e-3, 1.0 - 1e-12]])
    got = log_density(strict, 0.0, x)
    assert np.all(got[x <= 0.0] == -math.inf) and np.all(got[x >= 1.0] == -math.inf)
    np.testing.assert_allclose(got, log_density(beta22, 0.0, x), rtol=1e-13)
    # the LR estimator's log-ratio shifts rows by z -+ eps past the edges;
    # a custom family's is the plain difference, -inf where a point leaves
    X = np.random.default_rng(5).beta(2, 2, (6, 8))
    z = np.linspace(-0.3, 0.3, 6)
    with np.errstate(invalid="ignore"):
        want = np.mean(log_density(beta22, z[:, None] - 0.1, X)
                       - log_density(beta22, z[:, None] + 0.1, X), axis=1)
    np.testing.assert_allclose(_k_rows(strict, X, z, 0.1), want, rtol=1e-12)


def test_custom_score_sees_inside_points_only():
    strict = make_family("custom", logpdf=_strict_beta22, support=(0.0, 1.0),
                         edge=(2.0, 6.0, 2.0, 6.0), log_concave=True)
    # inside: the central difference on the whole array, bit for bit
    u = np.array([[-0.5, 0.0, 0.3, 1.0, 1.0 - 1e-12], [1.5, 0.7, 0.999, 1e-12, 0.5]])
    got = _score3(strict, u, *_dists(strict, u))
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    h = np.minimum(1e-6, 0.5 * np.minimum(ui, 1.0 - ui))
    want = (_strict_beta22(ui + h) - _strict_beta22(ui - h)) / (2.0 * h)
    want = np.where(ui < 1e-9, 1.0 / ui, want)
    want = np.where(1.0 - ui < 1e-9, -1.0 / (1.0 - ui), want)
    assert np.array_equal(got[inside], want)
    assert np.all(np.isnan(got[~inside]))
    assert score(strict, 0.0, 0.3) == float(want[0])
    # the MLE sign test evaluates the score sum at thresholds whose shifted
    # rows leave the support
    X = np.random.default_rng(9).beta(2, 2, (2000, 8))
    spec = EstimatorSpec("mle")
    up, dn = tail_events(spec, strict, X, 0.1, -0.1)
    t = estimate_many(spec, strict, X)
    assert np.array_equal(up, t > 0.1) and np.array_equal(dn, t < -0.1)
    assert up.any() and dn.any()


def test_shift_covariance():
    rng = np.random.default_rng(3)
    for kind, params in ALL_BUILTINS:
        f = _fam(kind, params)
        x = rng.uniform(-2.0, 3.0, 50)
        assert np.array_equal(log_density(f, 0.7, x), log_density(f, 0.0, x - 0.7))


def test_normalization():
    for kind, params in ALL_BUILTINS:
        f = _fam(kind, params)
        for upper in (False, True):
            assert abs(_mass_table(f, upper).mass[-1] - 1.0) < 1e-8, (kind, params, upper)


def test_edge_ratio():
    # near a: f(a+h) / (A1 h^(kappa1-1)) -> 1
    for kind, params in ALL_BUILTINS:
        f = _fam(kind, params)
        if f.A1 == 0:
            continue
        h = 1e-4
        ratio = math.exp(log_density(f, 0.0, f.a + h)) / (f.A1 * h ** (f.kappa1 - 1.0))
        assert 0.9 <= ratio <= 1.1, (kind, params, ratio)
        if f.A2 > 0 and math.isfinite(f.b):
            ratio2 = math.exp(log_density(f, 0.0, f.b - h)) / (f.A2 * h ** (f.kappa2 - 1.0))
            assert 0.9 <= ratio2 <= 1.1


def _logpdf_mp(kind, params, u):
    """log f(u) up to its constant, in mpmath."""
    import mpmath as mp

    if kind == "uniform":
        return mp.mpf(0)
    if kind == "beta":
        return (params[0] - 1) * mp.log(u) + (params[1] - 1) * mp.log(1 - u)
    if kind == "gamma":
        return (params[0] - 1) * mp.log(u) - u
    if kind == "weibull":
        return (params[0] - 1) * mp.log(u) - u ** params[0]
    if kind == "gaussian":
        return -u * u / (2 * mp.mpf(params[0]) ** 2)
    c = mp.mpf(params[0])
    return mp.log(u / c) if u <= c else mp.log((1 - u) / (1 - c))


# beta(2, 2) as a custom family: its log-ratio is the plain difference
CUSTOM_BETA22 = make_family("custom", logpdf=lambda u: np.log(6.0 * u * (1.0 - u)),
                            support=(0.0, 1.0), edge=(2.0, 6.0, 2.0, 6.0), log_concave=True)


@pytest.mark.parametrize("kind, params", ALL_BUILTINS + [("custom", (2.0, 2.0))],
                         ids=lambda v: str(v))
def test_log_ratio_matches_mpmath(kind, params):
    # log f(u + shift) - log f(u) in the window frame (u the lower point, dl
    # its distance to the lower edge, dr the upper point's to the upper
    # edge) against 30 digits, within 1e-14 shift (1 + |f'/f| + 1/dl + 1/dr):
    # lower points inside and within 1e-6 of a finite lower edge, upper
    # points within 1e-7 ... 1e-13 of a finite upper edge, and both points
    # on either side of the triangular mode.  The difference of two rounded
    # log-densities is off by about ulp(log f), which at shift 1e-9 misses
    # this bound by a factor of about ulp(log f) / (1e-14 shift): 1e5 to 4e7
    # on these points.  Where the upper point is closer to its edge than the
    # shift, that bound exceeds the ratio's size, so it is also held to
    # 1e-14 (1 + |ratio|): an upper distance formed as (dr + shift) - shift,
    # as the old interface's dr - shift step did, is off by up to ulp(shift)
    # and misses that by up to 1e10.  The custom family, whose ratio is the
    # difference of its log-densities, is held to that difference's own
    # precision instead.
    import mpmath as mp

    fam = CUSTOM_BETA22 if kind == "custom" else _fam(kind, params)
    a, b = fam.support
    if math.isfinite(b):
        lowers = [0.1, 0.25, 0.5, 0.77, 0.9]
    elif math.isfinite(a):
        lowers = [0.01, 0.5, 1.0, 3.0, 10.0]
    else:
        lowers = [-5.0, -1.0, -1e-3, 0.0, 0.7, 4.0]
    lowers += [a + d for d in (3e-7, 1e-6) if math.isfinite(a)]
    mode = ([params[0] + s * d for s in (-1.0, 1.0) for d in (1e-12, 1e-7, 1e-4, 0.05)]
            if kind == "triangular" else [])
    mp_kind = "beta" if kind == "custom" else kind
    with mp.workdps(30):
        near_b = [b - mp.mpf(d) for d in (1e-7, 1e-9, 1e-11, 1e-13)] if math.isfinite(b) else []
        for shift in (1e-9, 1e-6, 1e-3, 0.1):
            # points (u, dl, dr, lower, upper), the last two exact: from a
            # float lower point (the mode's upper points from the float
            # below them), or from an upper point a float distance below b
            pts = [(x, x - a, b - (mp.mpf(x) + shift), mp.mpf(x), mp.mpf(x) + shift)
                   for x in lowers + mode + [v - shift for v in mode]]
            pts += [(y - shift, y - shift - a, b - y, y - shift, y) for y in near_b]
            pts = [p for p in pts if a < p[3] and p[4] < b]
            u, dl, dr = (np.array([float(p[k]) for p in pts]) for k in range(3))
            v = [p[4] for p in pts]
            got = _log_ratio(fam, u, dl, dr, shift)
            sc = np.maximum(np.abs(_score3(fam, u, dl, dr + shift)),
                            np.abs(_score3(fam, u + shift, dl + shift, dr)))
            for i, ui in enumerate(u):
                lf_u = _logpdf_mp(mp_kind, params, pts[i][3])
                lf_v = _logpdf_mp(mp_kind, params, v[i])
                err = abs(got[i] - float(lf_v - lf_u))
                tol = 1e-14 * shift * (1.0 + sc[i] + 1.0 / dl[i] + 1.0 / dr[i])
                if dr[i] < shift and kind != "custom":
                    tol = min(tol, 1e-14 * (1.0 + abs(float(lf_v - lf_u))))
                if kind == "custom":
                    # the rounded log f at u and at the rounded u + shift,
                    # where f'/f = 1/v - 1/(1 - v)
                    tol += 1e-15 * (1.0 + abs(float(lf_u)) + abs(float(lf_v)))
                    tol += 2.3e-16 * float(abs(v[i] * (1 / v[i] - 1 / (1 - v[i]))))
                assert err <= tol, (ui, shift, got[i], float(lf_v - lf_u), err / tol)


def test_score_examples():
    g = make_family("gaussian")
    assert abs(score(g, 0.0, 0.3) - (-0.3)) < 1e-14
    b = make_family("beta", (2, 2))
    assert abs(score(b, 0.0, 0.5)) < 1e-14
    w = make_family("weibull", (1.5,))
    assert abs(score(w, 0.0, 1.0) - (-1.0)) < 1e-14


def test_score_matches_log_density_slope():
    rng = np.random.default_rng(5)
    h = 1e-7
    for kind, params in ALL_BUILTINS:
        f = _fam(kind, params)
        a, b = f.support
        lo = a if math.isfinite(a) else -3.0
        hi = b if math.isfinite(b) else 4.0
        for _ in range(20):
            x = float(rng.uniform(lo + 0.05, hi - 0.05))
            if f.breakpoints and min(abs(x - c) for c in f.breakpoints) < 2 * h:
                continue
            num = (log_density(f, 0.0, x + h) - log_density(f, 0.0, x - h)) / (2 * h)
            assert abs(num - score(f, 0.0, x)) < 1e-5, (kind, x)


def test_score_domain_error():
    u = make_family("uniform")
    with pytest.raises(ValueError):
        score(u, 0.0, 1.0)
    with pytest.raises(ValueError):
        score(u, 0.0, -0.5)


def test_sampling_support_and_determinism():
    for kind, params in ALL_BUILTINS:
        f = _fam(kind, params)
        b1 = sample(f, 2.0, 1000, seed=42)
        b2 = sample(f, 2.0, 1000, seed=42)
        assert np.array_equal(b1.values, b2.values)
        a, b = f.support
        assert np.all(b1.values > a + 2.0 - 1e-12)
        if math.isfinite(b):
            assert np.all(b1.values < b + 2.0 + 1e-12)


def test_sampling_weibull_moments():
    f = make_family("weibull", (1.5,))
    n = 10_000
    vals = sample(f, 0.0, n, seed=9).values
    tol = 3.0 * math.sqrt(WEIBULL15_VAR / n)
    assert abs(vals.mean() - WEIBULL15_MEAN) < tol


@pytest.mark.parametrize("kind,params", ALL_BUILTINS)
def test_sampling_ks(kind, params):
    f = _fam(kind, params)
    n = 100_000
    vals = np.sort(sample(f, 0.0, n, seed=123).values)
    grid_cdf = cdf(f, vals)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(emp_hi - grid_cdf)), np.max(np.abs(grid_cdf - emp_lo)))
    # 1% critical value of the Kolmogorov statistic
    assert ks < 1.6276 / math.sqrt(n), (kind, ks)


def test_fisher_information():
    assert abs(fisher_information(make_family("gaussian", (1.0,))) - 1.0) < 1e-9
    assert abs(fisher_information(make_family("gaussian", (2.0,))) - 0.25) < 1e-10
    assert fisher_information(make_family("uniform")) == math.inf
    assert fisher_information(make_family("beta", (2, 2))) == math.inf
    # smooth-edged beta has finite information
    j = fisher_information(make_family("beta", (4.0, 4.0)))
    assert math.isfinite(j) and j > 0
    # (f')^2/f ~ d^(kappa-3) at a power edge: its mass exponent kappa - 2,
    # not kappa, sets the edge depth (a kappa depth gives gamma(2.2) 4.9853)
    for k in (2.2, 2.5, 3.0):
        assert fisher_information(make_family("gamma", (k,))) == pytest.approx(
            1.0 / (k - 2.0), rel=1e-12, abs=0.0)
    # beta(p, q): (p+q-1)(p+q-2) ((p-1)/(p-2) + (q-1)/(q-2) - 2)
    assert fisher_information(make_family("beta", (2.5, 2.5))) == pytest.approx(
        48.0, rel=1e-12, abs=0.0)


def test_builtin_families_are_shared_instances():
    # the per-family caches (trimmed support, mass tables) then find a
    # family by identity; a custom family is never shared
    assert make_family("beta", (2, 2)) is make_family("beta", (2.0, 2.0))
    assert make_family("uniform") is make_family("uniform")
    assert make_family("gamma", (2.0,)) is not make_family("gamma", (3.0,))
    logpdf = lambda u: np.zeros(np.shape(u))
    args = dict(logpdf=logpdf, support=(0.0, 1.0), edge=(1.0, 1.0, 1.0, 1.0), log_concave=True)
    assert make_family("custom", **args) is not make_family("custom", **args)


def test_custom_family_roundtrip():
    k = 0.5
    fam = make_family(
        "custom",
        logpdf=lambda u: math.log(k) + (k - 1.0) * np.log(u),
        support=(0.0, 1.0),
        edge=(k, k, 1.0, k),
        log_concave=False,
        sampler=lambda rng, n: rng.uniform(0.0, 1.0, n) ** (1.0 / k),
    )
    assert fam.kappa1 == k and fam.A1 == k
    vals = sample(fam, 0.0, 50_000, seed=77).values
    # mean of f = k x^(k-1) is k/(k+1)
    assert abs(vals.mean() - k / (k + 1.0)) < 0.01


def test_custom_cdf_by_quadrature():
    # no cdf argument: F is integrated from the trimmed lower end, with the
    # edge expansion applied only near the family's own edges
    mirrored = make_family(
        "custom", logpdf=lambda u: 2.0 * np.log(-u) - (-u) - gammaln(3.0),
        support=(-math.inf, 0.0), edge=(math.inf, 0.0, 3.0, 0.5), log_concave=True)
    for u in (-40.0, -3.0, -1.0, -0.01):
        assert cdf(mirrored, u) == pytest.approx(1.0 - gammainc(3.0, -u), abs=1e-14)
    k = 0.5
    root = make_family("custom", logpdf=lambda u: math.log(k) + (k - 1.0) * np.log(u),
                       support=(0.0, 1.0), edge=(k, k, 1.0, k), log_concave=False)
    for u in (0.01, 0.3, 0.999):
        assert cdf(root, u) == pytest.approx(u ** k, abs=1e-14)


def test_custom_family_unknown_argument():
    # a misspelt or retired keyword is named, not silently dropped
    k = 0.5
    args = dict(logpdf=lambda u: math.log(k) + (k - 1.0) * np.log(u), support=(0.0, 1.0),
                edge=(k, k, 1.0, k), log_concave=False)
    with pytest.raises(ValueError, match="cdf"):
        make_family("custom", cdf=lambda u: np.clip(u, 0.0, 1.0) ** k, **args)
    with pytest.raises(ValueError, match="samplr"):
        make_family("custom", samplr=lambda rng, n: rng.uniform(0.0, 1.0, n), **args)


def test_custom_family_bad_metadata():
    with pytest.raises(ValueError):
        make_family(
            "custom",
            logpdf=lambda u: np.zeros_like(u),   # uniform density
            support=(0.0, 1.0),
            edge=(2.0, 6.0, 2.0, 6.0),           # wrong edge claim
            log_concave=True,
        )


def test_custom_mass_error_names_the_window():
    # Student t3: the trimmed window reaches about +-3.3e4 and, without
    # breakpoints, its panels put no node near the peak; the error says
    # where the mass was summed, and breakpoints there mend it
    nu = 3.0
    args = dict(logpdf=lambda u: (gammaln((nu + 1) / 2) - gammaln(nu / 2)
                                  - 0.5 * math.log(nu * math.pi)
                                  - (nu + 1) / 2 * np.log1p(u * u / nu)),
                support=(-math.inf, math.inf), edge=(math.inf, 0.0, math.inf, 0.0),
                log_concave=False)
    with pytest.raises(ValueError, match=r"trimmed window \[.*\]; .* breakpoints near its peak"):
        make_family("custom", **args)
    fam = make_family("custom", breakpoints=(-1.0, 0.0, 1.0), **args)
    assert fisher_information(fam) == pytest.approx((nu + 1) / (nu + 3), abs=1e-10)


def test_triangular_cdf_and_density():
    f = make_family("triangular", (0.3,))
    assert abs(cdf(f, 0.3) - 0.3) < 1e-14
    x = np.linspace(0.01, 0.99, 99)
    dens = np.exp(log_density(f, 0.0, x))
    val = np.trapezoid(dens, x) if hasattr(np, "trapezoid") else np.trapz(dens, x)
    assert abs(val - (cdf(f, 0.99) - cdf(f, 0.01))) < 1e-3


# tail masses on both sides, then uniform masses
QUANTILE_MASSES = np.concatenate([[1e-9, 1e-6, 1e-3, 0.1, 0.5],
                                  np.random.default_rng(5).random(10_000)])


def _check_nearer_edge(fam, left_dist, right_dist):
    """_quantile's distance to the nearer support edge against an oracle:
    left_dist(m) (right_dist(m)) is the distance from the left (right) edge
    of the point with mass m below (above) it, called only with m <= 1/2,
    where 1 - m is exact."""
    for upper in (False, True):
        u, dl, dr = _quantile(fam, QUANTILE_MASSES, upper)
        # the mass between the point and each edge, the smaller one exact
        m_near = np.minimum(QUANTILE_MASSES, 1.0 - QUANTILE_MASSES)
        from_left = (QUANTILE_MASSES <= 0.5) != upper
        d_near = np.where(from_left, left_dist(m_near), right_dist(m_near))
        want = np.minimum(d_near, 1.0 - d_near)
        got = np.minimum(dl, dr)
        rel = np.abs(got - want) / want
        assert rel.max() <= 1e-11, (upper, QUANTILE_MASSES[np.argmax(rel)], rel.max())
        assert np.allclose(u, dl, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("params", [(0.5, 3.0), (1.5, 1.5), (2.0, 3.0)])
def test_quantile_matches_scipy_inverse(params):
    p, q = params
    fam = make_family("beta", params)
    # the mirror of beta(p, q) is beta(q, p)
    _check_nearer_edge(fam, lambda m: betaincinv(p, q, m), lambda m: betaincinv(q, p, m))


def test_quantile_closed_forms():
    _check_nearer_edge(make_family("uniform"), lambda m: m, lambda m: m)
    c = 0.3
    tri = make_family("triangular", (c,))
    # F(x) = x^2 / c up to the mode, 1 - (1 - x)^2 / (1 - c) after it
    left = lambda m: np.where(m <= c, np.sqrt(m * c), 1.0 - np.sqrt((1.0 - m) * (1.0 - c)))
    right = lambda m: np.where(m <= 1.0 - c, np.sqrt(m * (1.0 - c)), 1.0 - np.sqrt((1.0 - m) * c))
    _check_nearer_edge(tri, left, right)


def test_quantile_power_law_in_innermost_cell():
    # masses this small lie in the innermost cell of every edge here, where
    # the power law A d^kappa / kappa is inverted (and read forward by
    # _mass_within): relative error O(d), d below 2^-31
    masses = np.array([1e-40, 1e-30])
    for p, q in [(0.5, 3.0), (1.5, 1.5), (2.0, 3.0)]:
        fam = make_family("beta", (p, q))
        assert np.allclose(_quantile(fam, masses)[1], betaincinv(p, q, masses),
                           rtol=1e-9, atol=0.0)
        assert np.allclose(_quantile(fam, masses, upper=True)[2], betaincinv(q, p, masses),
                           rtol=1e-9, atol=0.0)
        assert np.allclose(_mass_within(fam, betaincinv(p, q, masses)), masses,
                           rtol=1e-9, atol=0.0)
        assert np.allclose(_mass_within(fam, betaincinv(q, p, masses), upper=True), masses,
                           rtol=1e-9, atol=0.0)


# the 11 families of the benchmark's configs
BENCH_FAMILIES = [
    ("uniform", ()), ("beta", (0.3, 0.3)), ("beta", (0.5, 3.0)), ("beta", (1.5, 1.5)),
    ("beta", (2.0, 3.0)), ("gamma", (1.5,)), ("gamma", (2.0,)), ("gamma", (3.0,)),
    ("gaussian", (1.0,)), ("triangular", (0.3,)), ("weibull", (2.0,)),
]


def _scipy_law(kind, params):
    if kind == "uniform":
        return stats.uniform()
    if kind == "triangular":
        return stats.triang(*params)
    if kind == "gaussian":
        return stats.norm(0.0, *params)
    return {"beta": stats.beta, "gamma": stats.gamma, "weibull": stats.weibull_min}[kind](*params)


def _mirror_law(kind, params):
    """scipy's law of the distance from the upper edge of a bounded family."""
    if kind == "beta":
        return stats.beta(params[1], params[0])
    if kind == "triangular":
        return stats.triang(1.0 - params[0])
    return stats.uniform()


@pytest.mark.parametrize("kind,params", BENCH_FAMILIES)
def test_masses_match_scipy(kind, params):
    fam = make_family(kind, params)
    law = _scipy_law(kind, params)
    lo, hi = _trimmed_support(fam)
    # the body of the law, then points geometrically close to its edges (or
    # deep in the gaussian tails)
    a, b = (-9.0, 9.0) if kind == "gaussian" else (0.0, min(hi, 40.0))
    near = np.geomspace(1e-12, 0.1, 400)
    u = np.concatenate([np.linspace(a, b, 4001), a + near, b - near])
    F, want = cdf(fam, u), law.cdf(u)
    assert np.max(np.abs(F - want)) <= 5e-15
    big = want >= 1e-12
    assert np.max(np.abs(F[big] - want[big]) / want[big]) <= 1e-13
    # the mass within t of the upper end (a function of t) where it is the
    # nearer end's mass, the half of the support on which cdf reads it: on a
    # bounded edge against the law of the distance from that edge, under a
    # trimmed tail against the mass of [hi - t, hi], S(hi - t) - S(hi) (the
    # table holds the trimmed support; the S(hi) beyond it is 1.7e-18 on
    # gamma(3))
    t = np.concatenate([hi - u, near])
    if math.isfinite(fam.b):
        S = _mirror_law(kind, params).cdf(t)
    else:
        S = law.sf(hi - t) - law.sf(hi)
    got = _mass_within(fam, t, upper=True)
    keep = (S >= 1e-6) & (S <= 0.5)
    assert np.max(np.abs(got[keep] - S[keep]) / S[keep]) <= 1e-13


def test_cell_edges_frame_their_nodes():
    # triangular(0.3) splits at its mode: two graded segments sharing an edge
    fam = make_family("triangular", (0.3,))
    lo, hi = _trimmed_support(fam)
    nodes = panel_nodes(lo, hi, fam.breakpoints, _edge_depths(fam))
    width = hi - lo
    assert (nodes.edge_dl[0], nodes.edge_dl[-1]) == (0.0, width)
    assert (nodes.edge_dr[0], nodes.edge_dr[-1]) == (width, 0.0)
    assert np.count_nonzero(nodes.edge_dl == 0.3) == 1   # the breakpoint, once
    cells = nodes.edge_dl.size - 1
    assert nodes.x.size == cells * _GAUSS_ORDER
    # cell k's nodes lie strictly between edges k and k + 1, in both distances
    dl, dr = nodes.dl.reshape(cells, -1), nodes.dr.reshape(cells, -1)
    assert np.all((nodes.edge_dl[:-1, None] < dl) & (dl < nodes.edge_dl[1:, None]))
    assert np.all((nodes.edge_dr[:-1, None] > dr) & (dr > nodes.edge_dr[1:, None]))
