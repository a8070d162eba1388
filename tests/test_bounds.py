"""The two rate bounds: spec'd values per regime, ordering and coincidence
properties, agreement of the numeric optimizers with the closed forms, and
the documented gap of the one-sided low-exponent closed form."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ldshift import bounds, rates, renyi
from ldshift.bounds import (_argmax, _optimize, alpha1_bar, alpha2_bar, bound_pair,
                            closed_form_bounds, coincidence)
from ldshift.families import make_family
from ldshift.renyi import (_regime, classify_regime, closed_form_isg, profile_from_closed_form,
                           profile_from_family)
from ldshift.special import _beta, beta_fn, solve_t0

EQ_385_K15 = 2.47209956973516     # symmetric mid-regime value at kappa=1.5, A=1 (mpmath)
EQ_3821_K05 = 3.38885233917592    # symmetric low-regime value at kappa=0.5, A=1 (mpmath)


def test_alpha1_uniform_profile():
    prof = profile_from_closed_form("kappa_one", 1.0, 1.0, 1.0)
    v, s = alpha1_bar(prof)
    assert v == pytest.approx(2.0, rel=1e-9)
    assert s == pytest.approx(0.5)  # tie rule on the constant curve


def test_alpha1_gaussian_profile():
    prof = profile_from_closed_form("regular", 0.0, 0.0, 2.0, fisher=1.0)
    v, s = alpha1_bar(prof)
    assert v == pytest.approx(0.5, rel=1e-9)
    assert s == pytest.approx(0.5, abs=1e-6)


def test_alpha1_asymmetric_kappa_one():
    prof = profile_from_closed_form("kappa_one", 2.0, 1.0, 1.0)
    v, s = alpha1_bar(prof)
    assert v == pytest.approx(4.0, rel=1e-6)
    assert s >= 1.0 - 1e-3  # supremum at the s -> 1 edge


def test_alpha2_kappa_one():
    prof = profile_from_closed_form("kappa_one", 1.0, 1.0, 1.0)
    v, s = alpha2_bar(prof)
    assert v == pytest.approx(2.0, rel=1e-12)
    assert s == 0.5


def test_alpha2_gaussian():
    prof = profile_from_closed_form("regular", 0.0, 0.0, 2.0, fisher=1.0)
    v, _ = alpha2_bar(prof)
    assert v == pytest.approx(0.5, rel=1e-9)


def test_alpha2_low_regime_one_sided():
    # paper's tabulated value A1/kappa; the faithful supremum exceeds it
    cf = closed_form_bounds("power_low", 1.0, 0.0, 0.5)
    assert cf.alpha2_bar == pytest.approx(2.0)
    assert cf.alpha1_bar == pytest.approx(2.0 ** 0.5 / 0.5)
    prof = profile_from_closed_form("power_low", 1.0, 0.0, 0.5)
    v, _ = alpha2_bar(prof)
    assert v > 2.0  # documented inconsistency of the tabulated closed form
    assert v == pytest.approx(2.0 * 1.03554, rel=1e-3)


def test_coincidence_cases():
    co, eq163, eq15 = coincidence(profile_from_closed_form("kappa_one", 1.0, 1.0, 1.0))
    assert co and eq163 and eq15
    co, eq163, eq15 = coincidence(profile_from_closed_form("kappa_one", 2.0, 1.0, 1.0))
    assert not co
    co, eq163, eq15 = coincidence(
        profile_from_closed_form("regular", 0.0, 0.0, 2.0, fisher=1.0))
    assert co and eq163 and eq15


def test_closed_form_bounds_regular():
    bp = closed_form_bounds("regular", 0.0, 0.0, 2.0, fisher=1.0)
    assert bp.alpha1_bar == bp.alpha2_bar == 0.5
    assert bp.coincide


def test_closed_form_bounds_kappa_two():
    bp = closed_form_bounds("kappa_two", 3.0, 3.0, 2.0)
    assert bp.alpha1_bar == bp.alpha2_bar == 3.0
    bp = closed_form_bounds("kappa_two", 4.0, 2.0, 2.0)
    assert bp.alpha1_bar == bp.alpha2_bar == 3.0  # (A1+A2)/2, any split
    assert bp.coincide


def test_closed_form_bounds_mid_symmetric():
    bp = closed_form_bounds("power_mid", 1.0, 1.0, 1.5)
    assert bp.alpha1_bar == pytest.approx(EQ_385_K15, rel=1e-12)
    assert bp.alpha2_bar == pytest.approx(EQ_385_K15, rel=1e-12)
    assert bp.coincide and bp.s_star1 == 0.5
    # spec's explicit arithmetic: 2^0.5 * 1.5 * B(1.25, 0.5) / 1.5
    assert bp.alpha1_bar == pytest.approx(
        2.0 ** 0.5 * 1.5 * beta_fn(1.25, 0.5) / 1.5, rel=1e-12)


def test_closed_form_bounds_low_symmetric():
    bp = closed_form_bounds("power_low", 1.0, 1.0, 0.5)
    assert bp.alpha1_bar == pytest.approx(EQ_3821_K05, rel=1e-12)
    assert bp.coincide


def test_closed_form_bounds_mid_one_sided():
    t0 = solve_t0()
    k = 1.5
    assert k < 2.0 - t0
    bp = closed_form_bounds("power_mid", k, 0.0, k)
    assert bp.alpha1_bar == pytest.approx(k * 2.0 ** k / k)
    assert bp.boundary1 and bp.s_star1 > 0.99
    # above the threshold the supremum moves inside and exceeds the edge
    # value; the numeric path takes over
    k_hi = 2.0 - t0 + 0.2
    bp_hi = closed_form_bounds("power_mid", 1.0, 0.0, k_hi)
    assert bp_hi.alpha1_bar > 2.0 ** k_hi / k_hi
    assert not bp_hi.boundary1


def _random_closed_profile(rng):
    """(kappa, A1, A2) and the closed-form profile of a random edge exponent
    (1, 2, or drawn in (1, 2) or (0, 1)) and amplitudes, A2 = 0 one time in
    five."""
    i = rng.integers(4)
    kappa = [1.0, 2.0, float(rng.uniform(1.05, 1.95)), float(rng.uniform(0.15, 0.95))][i]
    A1 = float(rng.uniform(0.2, 3.0))
    A2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else 0.0
    return (kappa, A1, A2), profile_from_closed_form(_regime(kappa), A1, A2, kappa)


def test_bound_order_random():
    rng = np.random.default_rng(100)
    for _ in range(200):
        case, prof = _random_closed_profile(rng)
        bp = bound_pair(prof)
        assert bp.alpha1_bar >= bp.alpha2_bar - 1e-9, case


def test_coincide_iff_symmetric_at_half():
    # coincidence is equivalent to the symmetric-sup condition at every
    # kappa in (0, 2): equal, near-equal, one-sided and unequal amplitudes
    rng = np.random.default_rng(200)
    kappas = [float(k) for k in rng.uniform(0.2, 1.95, 15)] + np.linspace(0.1, 1.9, 19).tolist()
    for kappa in kappas:
        A1 = float(rng.uniform(0.2, 3.0))
        near = A1 * (1.0 + float(rng.uniform(-1e-6, 1e-6)))
        for A2 in (A1, near, 0.0, float(rng.uniform(0.2, 3.0))):
            bp = bound_pair(profile_from_closed_form(_regime(kappa), A1, A2, kappa))
            assert bp.coincide == bp.symmetric_at_half, (kappa, A1, A2)


@pytest.mark.parametrize("regime, A1, A2, kappa, fisher", [
    ("kappa_one", 1.0, 0.5, 1.7, None),    # the label of another kappa
    ("kappa_one", 1.0, 1.0, 1.5, None),
    ("kappa_two", 1.0, 1.0, 1.3, None),
    ("power_mid", 1.0, 1.0, 0.5, None),
    ("weird", 1.0, 1.0, 1.0, None),
    ("regular", 0.0, 0.0, 1.0, 1.0),       # a Fisher regime off kappa = 2
    ("power_low", 1.0, 1.0, 0.0, None),    # kappa outside (0, 2]
    ("power_mid", 1.0, 1.0, 2.5, None),
    ("power_low", 1.0, 1.0, math.nan, None),
    ("power_low", -1.0, -1.0, 0.5, None),  # an amplitude negative or not finite
    ("power_mid", math.inf, 1.0, 1.5, None),
    ("kappa_one", 1.0, math.nan, 1.0, None),
    ("kappa_one", 0.0, 0.0, 1.0, None),    # no edge amplitude > 0
    ("regular", 0.0, 0.0, 2.0, None),       # fisher missing or <= 0
    ("semi_regular", 0.0, 0.0, 2.0, None),
    ("regular", 0.0, 0.0, 2.0, 0.0),
    ("kappa_two", 1.0, 1.0, 2.0, 1.0),     # fisher in an edge regime
])
@pytest.mark.parametrize("closed_form", [
    closed_form_bounds, lambda *args, fisher: closed_form_isg(*args, 0.5, fisher=fisher)],
    ids=["bounds", "isg"])
def test_closed_forms_reject_inconsistent_arguments(closed_form, regime, A1, A2, kappa,
                                                    fisher):
    with pytest.raises(ValueError):
        closed_form(regime, A1, A2, kappa, fisher=fisher)


def test_numeric_matches_closed_forms():
    # scoped to the regimes whose closed-form derivations are sound
    cases = [
        ("regular", 0.0, 0.0, 2.0, 1.7),
        ("kappa_one", 1.0, 1.0, 1.0, None),
        ("kappa_one", 2.5, 0.7, 1.0, None),
        ("kappa_two", 6.0, 6.0, 2.0, None),
        ("kappa_two", 1.0, 4.0, 2.0, None),
        ("power_mid", 1.3, 1.3, 1.4, None),
        ("power_low", 0.8, 0.8, 0.6, None),
    ]
    for regime, A1, A2, kappa, fisher in cases:
        cf = closed_form_bounds(regime, A1, A2, kappa, fisher=fisher)
        num = bound_pair(profile_from_closed_form(regime, A1, A2, kappa,
                                                  fisher=fisher))
        assert num.alpha1_bar == pytest.approx(cf.alpha1_bar, rel=1e-6), regime
        assert num.alpha2_bar == pytest.approx(cf.alpha2_bar, rel=1e-6), regime
    # one-sided alpha1 closed forms are sound as well
    for regime, kappa in (("power_mid", 1.4), ("power_low", 0.5)):
        cf = closed_form_bounds(regime, 1.0, 0.0, kappa)
        num = bound_pair(profile_from_closed_form(regime, 1.0, 0.0, kappa))
        assert num.alpha1_bar == pytest.approx(cf.alpha1_bar, rel=1e-6), regime


def test_alpha2_weight_direction():
    # the weighted objective is <= its s=1/2 value scaled by 2^kappa for
    # kappa > 1 and >= it for kappa < 1
    for regime, kappa in (("power_mid", 1.6), ("power_low", 0.4)):
        prof = profile_from_closed_form(regime, 1.0, 0.7, kappa)
        a2, _ = alpha2_bar(prof)
        half = 2.0 ** kappa * float(prof.isg_fn(0.5))
        if kappa > 1:
            assert a2 <= half + 1e-9
        else:
            assert a2 >= half - 1e-9


def test_mid_symmetric_minimizer_at_half():
    for kappa in (1.2, 1.5, 1.8):
        prof = profile_from_closed_form("power_mid", 1.0, 1.0, kappa)
        _, s = alpha2_bar(prof)
        assert abs(s - 0.5) <= 1e-3


def test_mid_one_sided_sup_nondecreasing_below_threshold():
    # below the threshold exponent the alpha1 objective rises to the edge
    t0 = solve_t0()
    for kappa in (1.2, 1.4, 2.0 - t0 - 1e-3):
        prof = profile_from_closed_form("power_mid", 1.0, 0.0, kappa)
        vals = prof.isg_fn(np.linspace(0.05, 0.9999, 60))
        assert np.all(np.diff(vals) > -1e-12), kappa


def test_ladder_profiles_match_closed_bounds():
    fam = make_family("uniform")
    bp = bound_pair(profile_from_family(fam))
    assert bp.alpha1_bar == pytest.approx(2.0, rel=5e-3)
    assert bp.alpha2_bar == pytest.approx(2.0, rel=5e-3)
    assert bp.coincide
    g = make_family("gaussian")
    bp = bound_pair(profile_from_family(g))
    assert bp.alpha1_bar == pytest.approx(0.5, rel=2e-2)
    assert bp.alpha2_bar == pytest.approx(0.5, rel=2e-2)
    assert bp.coincide


@pytest.mark.parametrize("kind, params", [
    ("gamma", (2.0,)), ("weibull", (2.0,)), ("beta", (2.0, 3.0)), ("triangular", (0.3,)),
    ("gamma", (3.0,)),
])
def test_kappa_two_and_semi_regular_ladders_match_closed_bounds(kind, params):
    # the log basis fit (tag 2) and the eps^2-scaled Aitken ladder, each optimized
    # on the extrapolated curve over its trusted s
    fam = make_family(kind, params)
    info = classify_regime(fam)
    cf = closed_form_bounds(info.regime, info.A1, info.A2, info.kappa, fisher=info.fisher)
    bp = bound_pair(profile_from_family(fam))
    assert bp.alpha1_bar == pytest.approx(cf.alpha1_bar, rel=5e-3)
    assert bp.alpha2_bar == pytest.approx(cf.alpha2_bar, rel=5e-3)
    assert bp.alpha1_bar >= bp.alpha2_bar
    assert bp.coincide == cf.coincide


# the benchmark's deep ladder config, only read
DEEP_BETA_2_3 = (Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "cli"
                 / "bounds-beta-2-3-deep.json")


def test_deep_kappa_two_ladder_reaches_the_closed_bounds():
    # rungs 1e-4 ... 1e-12 on beta(2, 3): the window kernel keeps delta =
    # log p - log q exact in the shift next to p's upper edge, where the
    # difference of two rounded log-densities left alpha1 6.0000376, alpha2
    # 5.9998106 and a relative err of 6.2e-6 at s = 1/2
    cfg = json.loads(DEEP_BETA_2_3.read_text())
    fam = make_family(cfg["family"]["kind"], cfg["family"]["params"])
    prof = profile_from_family(fam, eps_ladder=cfg["eps_ladder"])
    bp = bound_pair(prof)
    assert abs(bp.alpha1_bar - 6.0) <= 4e-5, bp.alpha1_bar
    assert abs(bp.alpha2_bar - 6.0) <= 4e-5, bp.alpha2_bar
    half, = np.flatnonzero(prof.s_grid == 0.5)
    assert prof.isg_unc[half] <= 1e-6 * prof.isg[half]


def test_optimize_tiny_objective_is_not_constant():
    # the constant-objective rule is relative to the objective's size
    v, s = _optimize(lambda s: 1e-14 * s, np.linspace(0.1, 0.9, 9), maximize=True)
    assert s == 0.9
    assert v == pytest.approx(9e-15, rel=1e-12)
    v, s = _optimize(lambda s: 2.0 + 1e-13 * s, np.linspace(0.1, 0.9, 9), maximize=True)
    assert (v, s) == (pytest.approx(2.0, rel=1e-12), 0.5)


def test_argmax_stops_at_sqrt_eps():
    # a float objective cannot place its maximizer closer than about
    # sqrt(eps) ~ 1.5e-8, so the refine stops there (55 calls to reach 1e-12)
    calls = [0]

    def fn(x):
        calls[0] += 1
        return -(x - 0.3) ** 2

    v, x = _argmax(fn, 0.275, 0.325)
    assert abs(x - 0.3) <= 1.5e-8
    assert v == -(x - 0.3) ** 2
    assert calls[0] <= 35


def _golden_oracle(fn, scan, maximize):
    """The refine without the interpolant: golden section on fn itself in the
    bracket of the best scan point's neighbours; the scan point wins if better."""
    sign = 1.0 if maximize else -1.0
    vals = sign * np.asarray(fn(scan), dtype=float)
    if np.ptp(vals) <= 1e-12 * np.max(np.abs(vals)):
        return float(sign * vals[len(vals) // 2]), 0.5
    i = int(np.argmax(vals))
    lo, hi = float(scan[max(i - 1, 0)]), float(scan[min(i + 1, len(scan) - 1)])
    v, s = _argmax(lambda x: sign * fn(x), lo, hi)
    if vals[i] > v:
        v, s = vals[i], scan[i]
    return float(sign * v), float(s)


def _spy_optimize(monkeypatch, module):
    """Record (objective, scan, maximize, rel_tol, result, float calls) of
    every ``_optimize`` call made through ``module``; scan values handed in
    must be the objective's own on the scan, bit for bit."""
    seen = []

    def spy(fn, scan, maximize, rel_tol=1e-12, scan_vals=None):
        calls = [0]

        def counted(s):
            calls[0] += not isinstance(s, np.ndarray)
            return fn(s)

        if scan_vals is not None:
            assert np.asarray(scan_vals).tolist() == np.asarray(fn(scan)).tolist()
        got = _optimize(counted, scan, maximize, rel_tol, scan_vals)
        seen.append((fn, scan, maximize, rel_tol, got, calls[0]))
        return got

    monkeypatch.setattr(module, "_optimize", spy)
    return seen


def test_closed_form_refine_matches_golden_oracle(monkeypatch):
    # confirmed to 1e-12, a closed form or a testing exponent takes the golden
    # fallback unless the interpolant is its objective to rounding, so every
    # value is the golden refine's
    seen = _spy_optimize(monkeypatch, bounds)
    rng = np.random.default_rng(300)
    optimized = 0
    for _ in range(100):
        (kappa, _, _), prof = _random_closed_profile(rng)
        bound_pair(prof)
        optimized += 1 if kappa == 1.0 else 2  # kappa = 1: alpha2 is 2 I^(1/2)
    fam = make_family("gamma", (3,))
    hoeffding = _spy_optimize(monkeypatch, rates)
    for r in (0.006, 0.01, 0.02, 0.06):
        rates.hoeffding_rate((fam, 0.0), (fam, 0.3), r)
    assert len(seen) == optimized and len(hoeffding) == 4
    for fn, scan, maximize, rel_tol, (v, _), _ in seen + hoeffding:
        assert rel_tol == 1e-12
        want, _ = _golden_oracle(fn, scan, maximize)
        assert v == pytest.approx(want, rel=1e-15, abs=0.0)


def test_one_sided_power_low_alpha2_takes_the_fallback(monkeypatch):
    # the objective is sharp enough here that the interpolant misses its
    # value by far more than 1e-12, so the golden refine decides
    seen = _spy_optimize(monkeypatch, bounds)
    for kappa in (0.2, 0.5, 0.9):
        for A1, A2 in ((1.0, 0.0), (0.0, 1.3)):
            seen.clear()
            v, _ = alpha2_bar(profile_from_closed_form("power_low", A1, A2, kappa))
            (fn, scan, maximize, _, got, calls), = seen
            assert calls > 10, (kappa, A1, A2)
            assert got == _golden_oracle(fn, scan, maximize)
            vals = np.asarray(fn(scan))
            i = int(np.argmax(vals))
            near = range(max(i - 2, 0), min(i + 3, len(scan)))
            poly = bounds._interpolant([float(scan[j]) for j in near],
                                       [float(vals[j]) for j in near])
            assert abs(poly(got[1]) - v) > 1e-9 * v


@pytest.mark.parametrize("kind, params", [
    ("uniform", ()), ("beta", (1.5, 1.5)), ("gamma", (2.0,)), ("beta", (0.3, 0.3)),
    ("gamma", (3.0,)), ("gaussian", ())])
def test_ladder_refine_within_err_of_golden_oracle(kind, params, monkeypatch):
    # a ladder bound is confirmed to the median relative error of its trusted
    # orders, and lands that close to the golden refine's value
    prof = profile_from_family(make_family(kind, params))
    seen = _spy_optimize(monkeypatch, bounds)
    bound_pair(prof)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = prof.isg_unc / np.abs(prof.isg)
    med = float(np.median(rel[rel <= 10.0 * np.median(rel)]))
    assert len(seen) == (1 if kind == "uniform" else 2)  # kappa = 1: alpha2 is 2 I^(1/2)
    for fn, scan, maximize, rel_tol, (v, _), _ in seen:
        assert rel_tol == med
        want, _ = _golden_oracle(fn, scan, maximize)
        assert abs(v - want) <= med * abs(want), (kind, params)


def test_profile_grid_requirement():
    prof = profile_from_closed_form("kappa_one", 1.0, 1.0, 1.0,
                                    s_grid=np.linspace(0.1, 0.9, 9))
    with pytest.raises(ValueError):
        alpha1_bar(prof)


# the array contract: an objective maps an array of s to the array of its
# float values, bit for bit, so one scan call equals a loop of float calls
S_ARRAY = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.013, 0.987, 23),
                          [1.0 - 1e-4, 1.0]])


def test_optimize_scans_in_one_array_call():
    calls = []

    def fn(s):
        calls.append(s)
        return s * (1.0 - s) * (1.3 - s)

    scan = np.linspace(0.05, 0.95, 19)
    v, s = _optimize(fn, scan, maximize=True)
    assert isinstance(calls[0], np.ndarray) and np.array_equal(calls[0], scan)
    # the interpolant through five scan points is the cubic itself, so one
    # float call at its optimum confirms it
    assert len(calls) == 2 and type(calls[1]) is float and calls[1] == s
    s_star = (4.6 - math.sqrt(4.6 ** 2 - 15.6)) / 6.0  # f'(s) = 0
    assert s == pytest.approx(s_star, abs=1.5e-8)
    assert v == fn(s) == pytest.approx(fn(s_star), rel=1e-15)


@pytest.mark.parametrize("regime,kappa,fisher", [
    ("regular", 2.0, 1.7), ("kappa_one", 1.0, None), ("kappa_two", 2.0, None),
    ("power_mid", 1.37, None), ("power_low", 0.42, None)])
@pytest.mark.parametrize("A1,A2", [(1.3, 0.0), (0.0, 0.8), (1.3, 0.8)])
def test_closed_form_isg_array_equals_float_loop(regime, kappa, fisher, A1, A2):
    got = closed_form_isg(regime, A1, A2, kappa, S_ARRAY, fisher=fisher)
    loop = [closed_form_isg(regime, A1, A2, kappa, float(s), fisher=fisher) for s in S_ARRAY]
    assert all(type(v) is float for v in loop)
    assert got.dtype == float and got.tolist() == loop
    # a closed profile's isg_fn, its constants computed once, gives the same
    fn = profile_from_closed_form(regime, A1, A2, kappa, fisher=fisher).isg_fn
    assert fn(S_ARRAY).tolist() == loop
    assert [fn(float(s)) for s in S_ARRAY] == loop


def test_ladder_isg_fn_array_equals_float_loop():
    # the Aitken ladder and the log basis fit (tag 2) of the kappa = 2 families
    s = np.linspace(0.031, 0.969, 11)  # off the default grid: fresh sweeps
    for kind, params in (("uniform", ()), ("gamma", (2.0,)), ("beta", (2.0, 2.0)),
                         ("weibull", (2.0,)), ("beta", (2.0, 3.0))):
        fam = make_family(kind, params)
        by_array = profile_from_family(fam).isg_fn(s)
        prof = profile_from_family(fam)
        loop = [prof.isg_fn(float(x)) for x in s]
        assert all(type(v) is float for v in loop)
        assert by_array.tolist() == loop, (kind, params)


def test_hoeffding_objective_array_equals_float_loop(monkeypatch):
    seen = []

    def spy(fn, scan, maximize):
        seen.append((fn, scan))
        return _optimize(fn, scan, maximize)

    monkeypatch.setattr(rates, "_optimize", spy)
    fam = make_family("gamma", (3,))
    rates.hoeffding_rate((fam, 0.0), (fam, 0.3), 0.01)
    (fn, scan), = seen
    loop = [fn(float(s)) for s in scan]
    assert all(type(v) is float for v in loop)
    assert fn(scan).tolist() == loop


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 2.0])
def test_closed_bound_pair_evaluates_each_scan_order_once(kappa, monkeypatch):
    # the profile evaluates its grid and the scan orders in one array call
    # at build; both optimizers read that table, so every float call of the
    # closed form is one of a refine's
    arrays, floats = [], [0]
    closed_isg = renyi._closed_isg

    def spy(form, s):
        if isinstance(s, float):
            floats[0] += 1
        else:
            arrays.append(np.array(s, dtype=float))
        return closed_isg(form, s)

    refine = [0]

    def optimize(fn, scan, maximize, rel_tol=1e-12, scan_vals=None):
        def counted(s):
            refine[0] += 1
            return fn(s)

        return _optimize(counted, scan, maximize, rel_tol, scan_vals)

    monkeypatch.setattr(renyi, "_closed_isg", spy)
    monkeypatch.setattr(bounds, "_optimize", optimize)
    bound_pair(profile_from_closed_form(_regime(kappa), 1.3, 0.6, kappa))
    grid = renyi._default_s_grid()
    scanned, = arrays
    assert scanned.size == grid.size + 4
    assert np.array_equal(scanned, renyi._scan_points(grid, include_probes=True))
    assert 0 < floats[0] == refine[0]


def _scan_by_function(profile, transform, maximize):
    """``_optimize_profile`` on a closed form with every scan value from one
    call of isg_fn on the scan array, none from the profile's table."""
    objective = lambda s: transform(profile.isg_fn(s), s)
    return _optimize(objective, renyi._scan_points(profile.s_grid, include_probes=True),
                     maximize)


def _beta_expression(k, A1, A2, s):
    """The module docstring's closed form below kappa = 2 at a float s,
    with one ``special._beta`` per term: kappa = 1 included."""
    t = 1.0 - s
    return (A1 * s * (1.0 - s * (k - 1.0)) * _beta(s + k * t, 2.0 - k)
            + A2 * t * (1.0 - t * (k - 1.0)) * _beta(t + k * s, 2.0 - k)) / k


def test_table_read_bounds_equal_scan_by_function_bit_for_bit(monkeypatch):
    # 600 random closed profiles at kappa 1, 2, in (1, 2) and in (0, 1), one-
    # and two-sided, on the default grid and on random grids, some with
    # orders below 1e-9 and above 1 - 1e-9 that the scan clips
    rng = np.random.default_rng(34)
    cases = []
    for n in range(600):
        kappa = [1.0, 2.0, float(rng.uniform(1.02, 1.98)), float(rng.uniform(0.05, 0.98))][n % 4]
        A1 = float(rng.uniform(0.1, 3.0))
        A2 = float(rng.uniform(0.1, 3.0)) if rng.random() < 0.7 else 0.0
        if rng.random() < 0.5:
            A1, A2 = A2, A1
        grid = None
        if n % 3 == 1:
            grid = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(17, 60))))
        elif n % 3 == 2:
            grid = np.unique(np.concatenate([[1e-13, 4e-10], rng.uniform(0.0, 1.0, 30),
                                             [1.0 - 1e-12]]))
        cases.append((kappa, A1, A2, grid))

    def results():
        out = []
        for kappa, A1, A2, grid in cases:
            regime = _regime(kappa)
            prof = profile_from_closed_form(regime, A1, A2, kappa, s_grid=grid)
            out.append((alpha1_bar(prof), alpha2_bar(prof), bound_pair(prof),
                        closed_form_bounds(regime, A1, A2, kappa), prof.isg.tolist()))
        return out

    table_read = results()
    monkeypatch.setattr(bounds, "_optimize_profile", _scan_by_function)
    monkeypatch.setattr(bounds, "_half", lambda prof: float(prof.isg_fn(0.5)))
    by_function = results()
    for case, got, want in zip(cases, table_read, by_function):
        assert repr(got) == repr(want), case

    # the closed form itself, hoisted constants and the kappa = 1 form
    # included, is the docstring's expression in special._beta bit for bit
    for kappa, A1, A2, grid in cases[::7]:
        if kappa == 2.0:
            continue
        prof = profile_from_closed_form(_regime(kappa), A1, A2, kappa, s_grid=grid)
        orders = prof.table[0]
        want = [_beta_expression(kappa, A1, A2, s) for s in orders.tolist()]
        assert prof.table[1].tolist() == want, (kappa, A1, A2)
        assert [prof.isg_fn(s) for s in orders.tolist()] == want, (kappa, A1, A2)
        assert prof.isg.tolist() == [_beta_expression(kappa, A1, A2, s)
                                     for s in prof.s_grid.tolist()]
