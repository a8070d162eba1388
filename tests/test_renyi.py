"""Renyi divergence quadrature, curve properties, scaling exponents,
ladder limits, regime labels, and the closed form in kappa against its
local integral."""

import functools
import math
import warnings

import numpy as np
import pytest

from ldshift import renyi
from ldshift.bounds import bound_pair
from ldshift.families import make_family
from ldshift.quadrature import integrate, panel_nodes
from ldshift.rates import chernoff_test_rate, hoeffding_rate
from ldshift.renyi import (DivergenceError, classify_regime, closed_form_isg,
                           g_value, kappa_of_g, profile_from_closed_form,
                           profile_from_family, renyi_curve, renyi_divergence)
from ldshift.special import _beta, beta_fn

S_GRID = np.linspace(0.05, 0.95, 19)


def _custom_power(k=0.5):
    return make_family(
        "custom",
        logpdf=lambda u: math.log(k) + (k - 1.0) * np.log(u),
        support=(0.0, 1.0),
        edge=(k, k, 1.0, k),
        log_concave=False,
    )


def test_uniform_overlap_value():
    u = make_family("uniform")
    for s in (0.1, 0.5, 0.9):
        assert abs(renyi_divergence(u, 0.0, 0.1, s) - (-math.log(0.9))) < 1e-12


def test_gaussian_closed_form():
    g = make_family("gaussian")
    for eps in (0.05, 0.3, 1.0):
        for s in (0.2, 0.5, 0.8):
            want = s * (1.0 - s) * eps * eps / 2.0
            got = renyi_divergence(g, -eps / 2.0, eps / 2.0, s)
            assert abs(got - want) < 1e-10 * max(1.0, want)


def test_identity_case():
    for fam in (make_family("uniform"), make_family("beta", (2, 2))):
        assert renyi_divergence(fam, 0.3, 0.3, 0.4) == 0.0


def test_disjoint_supports():
    u = make_family("uniform")
    assert renyi_divergence(u, 0.0, 1.5, 0.5) == math.inf


def test_renyi_divergence_rejects_nan_shift():
    # a nan shift is no shift; an infinite one leaves the supports disjoint
    for fam in (make_family("beta", (2, 2)), make_family("gaussian")):
        for tp, tq in ((0.0, math.nan), (math.nan, 0.0), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="nan"):
                renyi_divergence(fam, tp, tq, 0.5)
        assert renyi_divergence(fam, 0.0, math.inf, 0.5) == math.inf


def test_order_domain():
    u = make_family("uniform")
    with pytest.raises(ValueError):
        renyi_divergence(u, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        renyi_divergence(u, 0.0, 0.1, 1.0)


def test_curve_uniform_constant():
    u = make_family("uniform")
    curve = renyi_curve(u, 0.1, np.linspace(0.1, 0.9, 9))
    assert np.allclose(curve.values, -math.log(0.9), atol=1e-12)


def test_curve_gaussian_peak():
    g = make_family("gaussian")
    curve = renyi_curve(g, 0.2, S_GRID)
    want = S_GRID * (1 - S_GRID) * 0.04 / 2.0
    assert np.allclose(curve.values, want, atol=1e-12)
    assert abs(S_GRID[np.argmax(curve.values)] - 0.5) < 1e-9


def test_curve_grid_validation():
    u = make_family("uniform")
    with pytest.raises(ValueError):
        renyi_curve(u, 0.1, [])
    with pytest.raises(ValueError):
        renyi_curve(u, 0.1, [0.5, 0.2])
    with pytest.raises(ValueError):
        renyi_curve(u, -0.1, [0.2, 0.5])


def test_curve_concavity_and_nonnegativity():
    for fam in (make_family("beta", (2, 2)), make_family("weibull", (1.3,)),
                make_family("triangular", (0.4,)), _custom_power()):
        curve = renyi_curve(fam, 0.17, S_GRID)
        assert np.all(curve.values >= 0)
        assert np.max(np.diff(curve.values, 2)) <= 1e-8


def test_curve_symmetric_family():
    b = make_family("beta", (2, 2))
    curve = renyi_curve(b, 0.2, S_GRID)
    assert np.allclose(curve.values, curve.values[::-1], atol=1e-8)


def test_skew_symmetry():
    # I^s(p||q) = I^(1-s)(q||p)
    fam = make_family("beta", (0.8, 1.7))
    for s in (0.2, 0.35, 0.7):
        a = renyi_divergence(fam, 0.0, 0.23, s)
        b = renyi_divergence(fam, 0.23, 0.0, 1.0 - s)
        assert abs(a - b) < 1e-8


def test_sandwich_pointwise():
    rng = np.random.default_rng(17)
    fams = [make_family("uniform"), make_family("beta", (2, 2)),
            make_family("gaussian"), make_family("weibull", (1.5,))]
    for _ in range(40):
        fam = fams[rng.integers(len(fams))]
        eps = float(rng.uniform(0.05, 0.4))
        s = float(rng.uniform(0.02, 0.98))
        half = renyi_divergence(fam, 0.0, eps, 0.5)
        val = renyi_divergence(fam, 0.0, eps, s)
        assert val >= 2.0 * min(s, 1 - s) * half - 1e-9
        assert val <= 2.0 * max(s, 1 - s) * half + 1e-9


def test_theta_immaterial():
    fam = make_family("beta", (2, 2))
    a = renyi_divergence(fam, -0.05, 0.05, 0.3)
    b = renyi_divergence(fam, 1.15, 1.25, 0.3)
    assert abs(a - b) < 1e-10


def test_kappa_of_g():
    # the tag is the edge exponent; past 2 (inf: no power-law edge) g is eps^2
    for tag, kappa in ((0.6, 0.6), (1.0, 1.0), (1.3, 1.3), (2.0, 2.0), (3, 2.0),
                       (1000.0, 2.0), (math.inf, 2.0)):
        assert kappa_of_g(tag) == kappa


def test_g_value():
    eps = np.array([0.3, 0.1, 1e-5, 1e-300])
    # tags 1 and past 2 give eps and eps^2 bit for bit
    assert np.array_equal(g_value(1.0, eps), np.abs(eps))
    for tag in (3.0, math.inf):
        assert np.array_equal(g_value(tag, eps[:3]), eps[:3] ** 2)
    assert g_value(2.0, 0.1) == -(0.1 ** 2) * math.log(0.1)
    assert g_value(0.5, 0.04) == pytest.approx(0.2)
    # a rung divergence is divided by g: g must be positive and finite
    for tag, eps in ((3.0, 1e-300), (2.0, 1.0), (1.0, [0.1, 0.0]), (1.0, -0.1), (3.0, math.inf)):
        with pytest.raises(ValueError, match="not positive and finite"):
            g_value(tag, eps)


def _limit(family, s, g_tag, eps_ladder=None):
    """The profile of one order s: its extrapolated limit, error and rungs."""
    return profile_from_family(family, g_tag, s_grid=[s], eps_ladder=eps_ladder)


def test_scaled_limit_uniform():
    u = make_family("uniform")
    for s in (0.2, 0.3, 0.5, 0.8):
        assert abs(_limit(u, s, 1.0).isg[0] - 1.0) < 0.005


def test_scaled_limit_gaussian():
    g = make_family("gaussian")
    assert abs(_limit(g, 0.5, math.inf).isg[0] - 0.125) < 1e-9


def test_scaled_limit_beta22_sqlog():
    b = make_family("beta", (2, 2))
    assert abs(_limit(b, 0.5, 2.0).isg[0] - 1.5) < 0.015   # (A1+A2) s(1-s)/2 = 1.5


def test_scaled_limit_divergence_error():
    u = make_family("uniform")
    with pytest.raises(DivergenceError):
        _limit(u, 0.5, math.inf)  # wrong scaling: ratios grow


def test_scaled_limit_ladder_validation():
    u = make_family("uniform")
    with pytest.raises(ValueError):
        _limit(u, 0.5, 1.0, eps_ladder=(0.2, 0.1, 0.05))
    with pytest.raises(ValueError):
        _limit(u, 0.5, 1.0, eps_ladder=(0.05, 0.1, 0.2, 0.4))


def test_closed_form_isg_examples():
    assert closed_form_isg("kappa_one", 1.0, 1.0, 1.0, 0.25) == pytest.approx(1.0)
    # one-sided mid regime at the s -> 1 edge: A1 (2-k) B(1, 2-k) / k = A1/k
    k = 1.5
    val = closed_form_isg("power_mid", k, 0.0, k, 1.0)
    assert val == pytest.approx(1.0)
    # one-sided low regime at the edge: (1-k) A1 B(1, 1-k) / k = A1/k
    val = closed_form_isg("power_low", 2.0, 0.0, 0.5, 1.0)
    assert val == pytest.approx(4.0)


@functools.lru_cache(maxsize=None)
def _edge_isg_oracle(kappa, s):
    """I^s_g of one lower edge of unit amplitude at exponent kappa, at 30
    digits: s/kappa plus the integral over x > 0 of s (1+x)^a + (1-s) x^a -
    (1+x)^(sa) x^((1-s)a), a = kappa - 1.  On [0, 1/2] the binomial series
    of (1+x)^a and (1+x)^(sa) is integrated term by term, which takes the
    x^a singularity exactly; [1/2, 2] is one quadrature; past X = 2 the
    integrand is sum_{j >= 2} (s C(a, j) - C(sa, j)) x^(a-j), integrated
    term by term.  Both series converge like 2^-j."""
    import mpmath as mp
    with mp.workdps(30):
        k, s = mp.mpf(kappa), mp.mpf(s)
        a, half, X = k - 1, mp.mpf(1) / 2, mp.mpf(2)
        sa, ra = s * a, (1 - s) * a
        head = (1 - s) * half ** (a + 1) / (a + 1)
        tail = mp.mpf(0)
        ca = csa = mp.mpf(1)  # C(a, j) and C(sa, j)
        for j in range(130):
            head += s * ca * half ** (j + 1) / (j + 1) - csa * half ** (ra + j + 1) / (ra + j + 1)
            if j >= 2:
                tail += (s * ca - csa) * X ** (a - j + 1) / (j - 1 - a)
            ca, csa = ca * (a - j) / (j + 1), csa * (sa - j) / (j + 1)
        mid = mp.quad(lambda x: s * (1 + x) ** a + (1 - s) * x ** a - (1 + x) ** sa * x ** ra,
                      [half, X])
        return float(s / k + head + mid + tail)


def test_closed_form_isg_matches_local_integral_oracle():
    # the one expression in kappa against the local integral it rests on
    # (module docstring): a lower edge at s plus r times an upper edge, the
    # lower edge's mirror, at 1 - s
    worst = 0.0
    for kappa in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5, 1.7, 1.9):
        regime = renyi._regime(kappa)
        for s in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for r in (0.0, 0.3, 1.0):
                want = _edge_isg_oracle(kappa, s) + r * _edge_isg_oracle(kappa, 1.0 - s)
                got = closed_form_isg(regime, 1.0, r, kappa, s)
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-13


def test_beta_at_matches_scalar_beta():
    assert renyi._beta_at(0.5)(np.float64(1.25)) == beta_fn(1.25, 0.5)
    # Gamma(y) computed once, and special._beta itself where its Gamma
    # ratio does not hold (x + y >= 171, nan, an argument <= 1e-300)
    x = np.array([[1e-300, 2e-300, 0.3, 1.0], [2.5, 169.5, 170.9, 300.0]])
    for y in (0.5, 1.7, 1.0, 1e-300, 1e-299, 0.7, 170.5, 171.0, math.nan):
        got = renyi._beta_at(y)(x)
        want = [[_beta(a, y) for a in row] for row in x.tolist()]
        assert got.shape == x.shape and np.array_equal(got, want, equal_nan=True), y
    got = renyi._beta_at(0.6)(np.array([0.4, math.nan, 1.3]))
    assert np.array_equal(got, [_beta(0.4, 0.6), math.nan, _beta(1.3, 0.6)], equal_nan=True)


def test_closed_form_isg_nan_s_gives_nan():
    # nan in, nan out, without a floating-point warning; repeated, because the
    # interpreter specializes float comparisons only once they run hot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(10):
            for regime, k in (("kappa_one", 1.0), ("power_mid", 1.5), ("power_low", 0.5)):
                assert math.isnan(closed_form_isg(regime, 1.0, 1.0, k, math.nan))
            out = closed_form_isg("power_low", 1.0, 1.0, 0.5, [0.2, math.nan])
            assert math.isfinite(out[0]) and math.isnan(out[1])


def test_classify_regimes():
    # kappa snaps to 1 and 2 within 1e-9; past 2 the Fisher limit takes over
    # at kappa 2 with amplitudes 0; the sharper of two edges dominates; the
    # scaling tag is the snapped edge exponent, inf with no power-law edge
    cases = [
        (("uniform", ()), "kappa_one", 1.0, 1.0, 1.0),
        (("beta", (1 + 1e-10, 3)), "kappa_one", 1.0, 0.0, 1.0),
        (("beta", (2, 2)), "kappa_two", 2.0, 6.0, 2.0),
        (("beta", (2 + 1e-10, 3)), "kappa_two", 2.0, 0.0, 2.0),
        (("weibull", (1.5,)), "power_mid", 1.5, 0.0, 1.5),
        (("beta", (0.5, 1.0)), "power_low", 0.5, 0.0, 0.5),
        (("beta", (2 + 1e-6, 3)), "semi_regular", 2.0, 0.0, 2 + 1e-6),
        (("beta", (4.0, 4.0)), "semi_regular", 2.0, 0.0, 4.0),
        (("gamma", (3,)), "semi_regular", 2.0, 0.0, 3.0),
        (("gaussian", ()), "regular", 2.0, 0.0, math.inf),
    ]
    for (kind, params), regime, kappa, A2, g_tag in cases:
        fam = make_family(kind, params)
        info = classify_regime(fam)
        assert (info.regime, info.kappa, info.A2, info.g_tag) == (regime, kappa, A2, g_tag), fam
        fisher = regime in ("regular", "semi_regular")
        assert info.A1 == (0.0 if fisher else fam.A1), fam
        assert (info.fisher is not None) == fisher, fam
        assert info.fisher is None or 0.0 < info.fisher < math.inf, fam


def test_regime_agreement():
    # ladder limits match the closed forms within max(1%, ladder uncertainty)
    cases = [
        (make_family("uniform"), None),
        (make_family("gaussian"), None),
        (make_family("beta", (2, 2)), None),
        (make_family("weibull", (1.5,)), None),
        (_custom_power(0.5), None),
    ]
    for fam, _ in cases:
        info = classify_regime(fam)
        for s in (0.2, 0.5, 0.8):
            lim = _limit(fam, s, info.g_tag)
            want = closed_form_isg(info.regime, info.A1, info.A2, info.kappa,
                                   s, fisher=info.fisher)
            tol = max(0.01, lim.isg_unc[0] / max(want, 1e-12))
            assert abs(lim.isg[0] - want) <= tol * want, (fam.kind, s)


def _aitken_scalar(r):
    # reference: iterated Aitken delta-squared, one rung sequence at a time
    seq = list(r)
    while len(seq) >= 3:
        out = []
        for j in range(len(seq) - 2):
            d1, d2 = seq[j + 1] - seq[j], seq[j + 2] - seq[j + 1]
            if d1 * d2 > 0 and abs(d2) < abs(d1):
                out.append(seq[j + 2] + d2 * d2 / (d1 - d2))
            else:
                out.append(seq[j + 2])
        seq = out
    return seq[-1]


def test_aitken_matches_scalar_recurrence():
    # bit for bit on random ladders: smooth power corrections, noisy ones
    # and pure noise, so both branches of each step are taken
    rng = np.random.default_rng(17)
    for n in range(1, 10):
        eps = 0.5 ** np.arange(n)[:, None]
        c = rng.normal(size=(4, 60))
        noise = 10.0 ** rng.uniform(-16, 0, size=60)
        r = (c[0] + c[1] * eps ** 0.5 + c[2] * eps ** 1.5
             + noise * c[3] * rng.normal(size=(n, 60)))
        want = np.array([_aitken_scalar(r[:, j]) for j in range(60)])
        assert np.array_equal(renyi._aitken(r), want), n


def test_uniformity_diagnostic():
    # the extrapolation error is bounded uniformly across the s grid
    prof = profile_from_family(make_family("weibull", (1.2,)))
    assert float(np.max(prof.isg_unc)) < 0.05


def _l11_ratios(eps, delta=0.5):
    i1 = integrate(lambda x: np.exp(-eps / x) * (x + eps) - x, 0.0, delta)
    i2 = integrate(lambda x: np.exp(eps / x) * (x - eps) - x, eps, delta)
    target = eps * eps * math.log(eps)
    return i1 / target, i2 / target


def test_l11_log_integrals_finite_eps():
    # frozen mpmath.quad oracle values at eps = 1e-4, delta = 0.5
    r1, r2 = _l11_ratios(1e-4)
    assert abs(r1 - 0.458187) < 1e-4
    assert abs(r2 - 0.506765) < 1e-4
    # the second integral meets the stated 2% already at this eps
    assert abs(r2 - 0.5) < 0.02


def test_l11_limits_by_extrapolation():
    # both ratios converge to 1/2 like c / log(eps); extrapolate that out
    ladder = (1e-3, 1e-4, 1e-5, 1e-6)
    u = np.array([1.0 / math.log(e) for e in ladder])
    X = np.vstack([np.ones_like(u), u]).T
    for idx in (0, 1):
        vals = np.array([_l11_ratios(e)[idx] for e in ladder])
        coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
        assert abs(coef[0] - 0.5) < 0.02, idx


def test_profile_sources():
    prof = profile_from_closed_form("kappa_one", 2.0, 1.0, 1.0)
    assert prof.source == "closed_form"
    assert prof.isg_fn(0.5) == pytest.approx(1.5)
    lad = profile_from_family(make_family("uniform"))
    assert lad.source == "ladder"
    assert lad.eps_ladder is not None
    one = _limit(make_family("uniform"), 0.5, lad.g_tag)
    rung0 = one.rung_renyi[0, 0] / g_value(lad.g_tag, one.eps_ladder[0])
    assert abs(rung0 - (-math.log(0.8) / 0.2)) < 1e-10


@pytest.mark.parametrize("eps", [0.2, 0.05, 1e-3, 1e-6, 1e-9, 1e-12])
def test_uniform_pair_is_log1p_of_the_shift(eps):
    # D is the strip mass eps on both sides, read from the mass tables; no
    # quadrature sum enters, so the divergence is -log1p(-eps) to ulps
    fam = make_family("uniform")
    pair = renyi._pair_nodes(fam, -eps / 2.0, eps / 2.0)
    got = renyi._renyi_from_nodes(pair, renyi._default_s_grid())
    want = -math.log1p(-eps)
    assert np.all(np.abs(got - want) <= 4.0 * math.ulp(want))


@pytest.mark.parametrize("shift", [0.2, 1e-2, 1e-4, 1e-6])
def test_gaussian_pair_keeps_relative_precision(shift):
    # I^s = s (1 - s) shift^2 / 2 exactly; the -log(sum) form lost it all
    # at shift 1e-6, where I^s is 1e-13
    fam = make_family("gaussian")
    s_grid = renyi._default_s_grid()
    got = renyi._renyi_from_nodes(renyi._pair_nodes(fam, 0.0, shift), s_grid)
    want = s_grid * (1.0 - s_grid) * shift * shift / 2.0
    assert np.all(np.abs(got / want - 1.0) <= 1e-11)


def _mp_gaussian_renyi(shift, s):
    """I^s between unit gaussians shift apart by 50-digit quadrature."""
    import mpmath as mp
    with mp.workdps(50):
        s, shift = mp.mpf(s), mp.mpf(shift)
        dens = lambda x, m: mp.exp(-(x - m) ** 2 / 2) / mp.sqrt(2 * mp.pi)
        return -mp.log(mp.quad(lambda x: dens(x, 0) ** s * dens(x, shift) ** (1 - s),
                               [-mp.inf, 0, shift, mp.inf]))


@pytest.mark.parametrize("shift", [1e-4, 1e-6])
def test_testing_exponents_of_close_gaussians_match_mpmath(shift):
    # the sup over s of I^s sits at s = 1/2 by symmetry; at r = 0 the
    # Hoeffding objective I^s / (1 - s) grows with s, so its sup on the
    # scan's range sits at the top order 1 - 1e-6
    fam = make_family("gaussian")
    p, q = (fam, 0.0), (fam, shift)
    want = float(_mp_gaussian_renyi(shift, 0.5))
    assert abs(chernoff_test_rate(p, q) / want - 1.0) <= 1e-9
    top = 1.0 - 1e-6
    hr = hoeffding_rate(p, q, 0.0)
    assert hr.s_star == top
    assert abs(hr.value / float(_mp_gaussian_renyi(shift, top) / (1 - top)) - 1.0) <= 1e-9


def _mp_beta_renyi(shape, shift, s):
    """I^s between beta(shape, shape) densities shift apart, in mpmath."""
    import mpmath as mp
    with mp.workdps(30):
        a, shift, s = mp.mpf(shape), mp.mpf(shift), mp.mpf(s)
        log_f = lambda x: (a - 1) * (mp.log(x) + mp.log(1 - x)) - mp.log(mp.beta(a, a))
        pts = [shift] + [mp.mpf(k) / 20 for k in range(5, 20)] + [1]
        return -mp.log(mp.quad(lambda x: mp.exp(s * log_f(x) + (1 - s) * log_f(x - shift)), pts))


@pytest.mark.parametrize("shape", [100.0, 300.0])
def test_sweep_where_the_densities_part_beyond_exp_709(shape):
    # near the ends of the overlap one density exceeds the other by more
    # than e^709 (e^1123 at shape 100, e^3394 at 300), so expm1(delta) and
    # exp(s delta) would overflow; s = 1/2 is summed directly (D > 1/2)
    fam = make_family("beta", (shape, shape))
    pair = renyi._pair_nodes(fam, 0.0, 0.2)
    assert pair.amax > 2 * 709.0 if shape == 300.0 else pair.amax > 709.0
    for s in (1e-4, 0.5, 0.9999):
        want = float(_mp_beta_renyi(shape, 0.2, s))
        assert abs(renyi._renyi_from_nodes(pair, s)[0] / want - 1.0) <= 1e-12


def test_log_normaliser_ulps_barely_move_the_ladder_bounds(monkeypatch):
    # a constant added to log p and log q scales every term of D alike, so
    # 3 ulps of log B(1.5, 1.5) move the bounds by ulps, not by the 1.8e-11
    # relative of the -log(sum) form
    from ldshift import families

    def bounds():
        families._mass_table.cache_clear()
        bp = bound_pair(profile_from_family(make_family("beta", (1.5, 1.5))))
        return bp.alpha1_bar, bp.alpha2_bar

    before = bounds()
    exact = families.log_beta

    def moved(p, q):
        v = exact(p, q)
        for _ in range(3):
            v = math.nextafter(v, math.inf)
        return v

    monkeypatch.setattr(families, "log_beta", moved)
    after = bounds()
    families._mass_table.cache_clear()
    for a, b in zip(before, after):
        assert abs(b / a - 1.0) < 1e-13


@pytest.mark.parametrize("kind, params", [
    ("beta", (1.5, 1.5)), ("uniform", ()), ("gamma", (2.0,)), ("gaussian", ()),
], ids=["beta-1.5-1.5", "uniform", "gamma-2", "gaussian"])
def test_bound_pair_sweeps_each_order_once(kind, params, monkeypatch):
    # the build sweeps every rung on the grid once, the profile's table; the
    # bounds read their scans from it (at kappa = 1, the uniform, alpha2 and
    # the flags read I^(1/2) there), so every later sweep is one new refine
    # order, and no (rung, order) is swept twice
    sweep = renyi._renyi_from_nodes
    swept = []

    def counted(pair, s):
        swept.append((id(pair), np.atleast_1d(s).tolist()))
        return sweep(pair, s)

    monkeypatch.setattr(renyi, "_renyi_from_nodes", counted)
    prof = profile_from_family(make_family(kind, params))
    built = len(swept)
    assert built == len(prof.eps_ladder)
    assert all(s == prof.s_grid.tolist() for _, s in swept)
    bp = bound_pair(prof)
    assert all(len(s) == 1 for _, s in swept[built:])
    keys = [(rung, order) for rung, s in swept for order in s]
    assert len(set(keys)) == len(keys)
    if kind == "beta":
        # one confirming order per bound, one sweep of each of the 7 rungs
        assert len(keys) - built * prof.s_grid.size <= 14
        # the values of the beta(1.5, 1.5) bounds table (tests/data/bench_tables.json)
        assert bp.alpha1_bar == 6.292306516219595
        assert bp.alpha2_bar == 6.292306516219595


# nodes per centered pair with each outer end graded for its own edge
# exponent (19,248 for every family at a fixed 400 levels, 40,464 on the
# triangular, whose breakpoints split the pair into three segments)
PAIR_NODES = [
    ("beta", (1.5, 1.5), 2496), ("uniform", (), 3504), ("gaussian", (), 1968),
    ("gamma", (2.0,), 1968), ("weibull", (2.0,), 1968), ("beta", (2.0, 3.0), 1728),
    ("gamma", (3.0,), 1728), ("beta", (0.3, 0.3), 10704), ("triangular", (0.3,), 5904),
]


@pytest.mark.parametrize("kind, params, nodes", PAIR_NODES)
def test_pair_node_counts(kind, params, nodes):
    fam = make_family(kind, params)
    pair = renyi._pair_nodes(fam, -0.025, 0.025)
    assert pair[0] is pair.delta      # one value per node, counted by perfbench's tracer
    assert pair.delta.size == nodes


@pytest.mark.parametrize("tp, tq", [(-0.025, 0.025), (0.025, -0.025)])
def test_custom_pair_reads_logpdf_twice(tp, tq):
    # q is one of the window kernel's two passes of logpdf_fn, not a third
    sizes = []

    def logpdf(u):
        sizes.append(np.size(u))
        return np.log(6.0 * u * (1.0 - u))

    fam = make_family("custom", logpdf=logpdf, support=(0.0, 1.0), edge=(2.0, 6.0, 2.0, 6.0),
                      log_concave=True)
    renyi._pair_nodes(fam, tp, tq)      # builds the mass tables its strips read
    sizes.clear()
    pair = renyi._pair_nodes(fam, tp, tq)
    # a pass reads every node; a strip mass, one Gauss rule
    assert sizes.count(pair.delta.size) == 2
    assert all(size == pair.delta.size or size < 100 for size in sizes)


@pytest.mark.parametrize("kind, params", [
    ("beta", (1.5, 1.5)), ("beta", (0.3, 0.3)), ("beta", (2.0, 3.0)), ("uniform", ()),
    ("gaussian", ()), ("gamma", (3.0,)), ("triangular", (0.3,)),
])
def test_edge_depths_match_full_depth(kind, params, monkeypatch):
    # every rung of the default ladder on the default s grid, against the
    # same pairs graded 400 levels deep at both outer ends
    fam = make_family(kind, params)
    g_tag = classify_regime(fam).g_tag
    ladder = renyi.default_ladder(g_tag, fam)
    s_grid = renyi._default_s_grid()
    rungs = lambda: [renyi._pair_nodes(fam, -eps / 2.0, eps / 2.0) for eps in ladder]
    pairs = rungs()
    monkeypatch.setattr(renyi, "panel_nodes",
                        lambda lo, hi, bps, levels: panel_nodes(lo, hi, bps, (400, 400)))
    oracles = rungs()
    for pair, oracle in zip(pairs, oracles):
        assert oracle[0].size >= 19248 > pair[0].size
        got = renyi._renyi_from_nodes(pair, s_grid)
        want = renyi._renyi_from_nodes(oracle, s_grid)
        assert np.all(np.abs(got - want) <= 1e-14 + 1e-12 * want)


@pytest.mark.parametrize("s_grid", [
    [0.5, 0.2], [0.0, 0.5], [0.2, 0.5, 1.5], [],
    [0.0, 1.0] + [0.5] * 15, [0.2, 0.5, 0.5], [[0.2, 0.4], [0.6, 0.8]], [0.2, math.nan]],
    ids=["falling", "at-zero", "above-one", "empty", "ends-and-repeats", "repeated", "two-d",
         "nan"])
def test_profile_rejects_bad_s_grids(s_grid):
    # the orders renyi_curve rejects, both profile builders reject too
    uniform = make_family("uniform")
    for build in (lambda: renyi_curve(uniform, 0.1, s_grid),
                  lambda: profile_from_family(uniform, s_grid=s_grid),
                  lambda: profile_from_closed_form("kappa_one", 1.0, 1.0, 1.0, s_grid=s_grid)):
        with pytest.raises(ValueError, match="s grid"):
            build()


@pytest.mark.parametrize("kappa", [
    True, False, "2", None, -1.0, 0, math.nan, pytest.param("abs", id="abs"),
    pytest.param(("power", 1.5), id="power-tuple"), pytest.param(lambda e: e, id="callable")])
def test_power_tag_needs_a_finite_positive_kappa(kappa):
    # a tag is a real edge exponent > 0, inf allowed, whose kappa_of_g is
    # finite; the named, tuple and callable tags are gone
    for use in (kappa_of_g, lambda tag: g_value(tag, 0.1)):
        with pytest.raises(ValueError, match="edge exponent > 0"):
            use(kappa)
    assert kappa_of_g(2) == 2.0 and g_value(3, 0.1) == 0.1 ** 2.0


def test_infinite_tag_means_no_power_law_edge():
    # inf is a legal tag: no power-law edge, so kappa is 2 and g is eps^2,
    # the tag a smooth family like the gaussian is classified with
    eps = np.array([0.3, 0.1, 1e-5])
    assert kappa_of_g(math.inf) == 2.0
    assert np.array_equal(g_value(math.inf, eps), eps ** 2)
    assert classify_regime(make_family("gaussian")).g_tag == math.inf
