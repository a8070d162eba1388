"""The two rate bounds: spec'd values per regime, ordering and coincidence
properties, agreement of the numeric optimizers with the closed forms, and
the documented gap of the one-sided low-exponent closed form."""

import math

import numpy as np
import pytest

from ldshift import rates
from ldshift.bounds import (BoundPair, _optimize, alpha1_bar, alpha2_bar, bound_pair,
                            closed_form_bounds, coincidence)
from ldshift.families import fisher_information, make_family
from ldshift.renyi import (classify_regime, closed_form_isg, profile_from_closed_form,
                           profile_from_family)
from ldshift.special import beta_fn, solve_t0

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


def test_bound_order_random():
    rng = np.random.default_rng(100)
    regimes = ("kappa_one", "kappa_two", "power_mid", "power_low")
    for _ in range(200):
        regime = regimes[rng.integers(4)]
        kappa = {"kappa_one": 1.0, "kappa_two": 2.0,
                 "power_mid": float(rng.uniform(1.05, 1.95)),
                 "power_low": float(rng.uniform(0.15, 0.95))}[regime]
        A1 = float(rng.uniform(0.2, 3.0))
        A2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else 0.0
        bp = bound_pair(profile_from_closed_form(regime, A1, A2, kappa))
        assert bp.alpha1_bar >= bp.alpha2_bar - 1e-9, (regime, kappa, A1, A2)


def test_coincide_iff_symmetric_at_half_low_kappa():
    # for kappa <= 1 coincidence is equivalent to the symmetric-sup condition
    rng = np.random.default_rng(200)
    for _ in range(60):
        if rng.random() < 0.5:
            regime, kappa = "kappa_one", 1.0
        else:
            regime, kappa = "power_low", float(rng.uniform(0.2, 0.95))
        A1 = float(rng.uniform(0.2, 3.0))
        A2 = A1 if rng.random() < 0.4 else float(rng.uniform(0.2, 3.0))
        bp = bound_pair(profile_from_closed_form(regime, A1, A2, kappa))
        assert bp.coincide == bp.symmetric_at_half, (regime, kappa, A1, A2)


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
    # the sq_log basis fit and the square-scaled Aitken ladder, each optimized
    # on the extrapolated curve over its trusted s
    fam = make_family(kind, params)
    info = classify_regime(fam)
    cf = closed_form_bounds(info.regime, info.A1, info.A2, info.kappa, fisher=info.fisher)
    bp = bound_pair(profile_from_family(fam))
    assert bp.alpha1_bar == pytest.approx(cf.alpha1_bar, rel=5e-3)
    assert bp.alpha2_bar == pytest.approx(cf.alpha2_bar, rel=5e-3)
    assert bp.alpha1_bar >= bp.alpha2_bar
    assert bp.coincide == cf.coincide


def test_optimize_tiny_objective_is_not_constant():
    # the constant-objective rule is relative to the objective's size
    v, s = _optimize(lambda s: 1e-14 * s, np.linspace(0.1, 0.9, 9), maximize=True)
    assert s == 0.9
    assert v == pytest.approx(9e-15, rel=1e-12)
    v, s = _optimize(lambda s: 2.0 + 1e-13 * s, np.linspace(0.1, 0.9, 9), maximize=True)
    assert (v, s) == (pytest.approx(2.0, rel=1e-12), 0.5)


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
    assert all(type(x) is float for x in calls[1:])
    assert s == pytest.approx((4.6 - math.sqrt(4.6 ** 2 - 15.6)) / 6.0, abs=1e-7)  # f'(s) = 0


@pytest.mark.parametrize("regime,kappa,fisher", [
    ("regular", 2.0, 1.7), ("kappa_one", 1.0, None), ("kappa_two", 2.0, None),
    ("power_mid", 1.37, None), ("power_low", 0.42, None)])
@pytest.mark.parametrize("A1,A2", [(1.3, 0.0), (0.0, 0.8), (1.3, 0.8)])
def test_closed_form_isg_array_equals_float_loop(regime, kappa, fisher, A1, A2):
    got = closed_form_isg(regime, A1, A2, kappa, S_ARRAY, fisher=fisher)
    loop = [closed_form_isg(regime, A1, A2, kappa, float(s), fisher=fisher) for s in S_ARRAY]
    assert all(type(v) is float for v in loop)
    assert got.dtype == float and got.tolist() == loop


def test_ladder_isg_fn_array_equals_float_loop():
    fam = make_family("uniform")
    s = np.linspace(0.031, 0.969, 11)  # off the default grid: fresh sweeps
    by_array = profile_from_family(fam).isg_fn(s)
    prof = profile_from_family(fam)
    loop = [prof.isg_fn(float(x)) for x in s]
    assert all(type(v) is float for v in loop)
    assert by_array.tolist() == loop


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
