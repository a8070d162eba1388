"""Numerical checks of the identities and inequalities the bound formulas
rest on: the divergence sandwich, the closed-form derivatives, the
logarithmic integral limits, the threshold-root monotonicity, the shared
minimizer at s = 1/2, the concave inf-sup identity, and the scaling
exponent law.  The full level adds the Monte Carlo rate identities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_pair, closed_form_bounds
from .estimators import EstimatorSpec
from .families import make_family
from .quadrature import integrate
from .rates import chernoff_test_rate, lr_rate_identity, mc_tail_rate, order_stat_rates
from .renyi import (_betafn_vec, _pair_nodes, _renyi_from_nodes, kappa_of_g,
                    profile_from_closed_form, renyi_curve)
from .special import beta_fn, digamma, l8_derivative, solve_t0, t0_residual

__all__ = ["LemmaCheck", "run_checks", "QUICK_CHECKS", "FULL_CHECKS"]


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    slack: float
    detail: str


def _beta_product(s, kappa):
    return s * (1.0 - s * (kappa - 1.0)) * _betafn_vec(s + kappa * (1.0 - s), 2.0 - kappa)


def check_sandwich(seed=0, cases=200):
    """2 min(s,1-s) I^(1/2) <= I^s <= 2 max(s,1-s) I^(1/2) on random pairs."""
    rng = np.random.default_rng(seed)
    families = [make_family("uniform"), make_family("beta", (2.0, 2.0)),
                make_family("beta", (0.7, 1.5)), make_family("gaussian"),
                make_family("weibull", (1.5,)), make_family("triangular", (0.3,))]
    worst = 0.0
    for _ in range(cases):
        fam = families[rng.integers(len(families))]
        eps = float(rng.uniform(0.05, 0.4))
        s = float(rng.uniform(0.01, 0.99))
        # one pair build serves both orders
        pair = _pair_nodes((fam, 0.0), (fam, eps))
        half, val = _renyi_from_nodes(pair, (0.5, s)).tolist()
        lo = 2.0 * min(s, 1.0 - s) * half
        hi = 2.0 * max(s, 1.0 - s) * half
        worst = max(worst, lo - val, val - hi)
    return LemmaCheck("sandwich_inequality", worst <= 1e-9, worst,
                      f"{cases} random (family, eps, s) cases")


def check_l8(tol=1e-6):
    """Closed-form s = 1/2 derivatives vs central differences."""
    worst = 0.0
    h = 1e-6
    for k in (1.2, 1.5, 1.8):
        cd = (_beta_product(0.5 + h, k) - _beta_product(0.5 - h, k)) / (2.0 * h)
        worst = max(worst, abs(cd - l8_derivative(k, "mid")))
    for k in (0.3, 0.5, 0.7):
        f = lambda s: s * beta_fn(s + k * (1.0 - s), 1.0 - k)
        cd = (f(0.5 + h) - f(0.5 - h)) / (2.0 * h)
        worst = max(worst, abs(cd - l8_derivative(k, "low")))
    return LemmaCheck("half_point_derivatives", worst <= tol, worst,
                      "tan/cot closed forms vs central differences")


def check_l11(delta=0.5):
    """The two exp(-+eps/x) integrals over (0, delta) and (eps, delta) are
    each ~ (1/2) eps^2 log eps.

    The finite-eps ratios carry an O(1/log eps) bias (+0.35/log eps from the
    delta term alone), so the limit is checked by extrapolating the ratio
    ladder linearly in 1/log eps.
    """
    ladder = (1e-3, 1e-4, 1e-5, 1e-6)
    u = np.array([1.0 / math.log(e) for e in ladder])
    X = np.vstack([np.ones_like(u), u]).T
    kernels = (
        (lambda x, e: np.exp(-e / x) * (x + e) - x, lambda e: 0.0),
        (lambda x, e: np.exp(e / x) * (x - e) - x, lambda e: e),
    )
    worst = 0.0
    lims = []
    for kernel, lo_of in kernels:
        vals = np.array([
            integrate(lambda x: kernel(x, e), lo_of(e), delta) / (e * e * math.log(e))
            for e in ladder])
        coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
        lims.append(float(coef[0]))
        worst = max(worst, abs(lims[-1] - 0.5))
    return LemmaCheck("log_integral_limits", worst <= 0.02, worst,
                      f"extrapolated ratios {lims[0]:.4f}, {lims[1]:.4f} vs 1/2")


def check_l12():
    """t0 value, residual endpoint signs, strict monotonicity on (0, 1/2)."""
    t0 = solve_t0()
    grid = np.linspace(1e-4, 0.5 - 1e-4, 100)
    res = t0_residual(grid)
    monotone = bool(np.all(np.diff(res) > 0))
    sign_ok = res[0] < 0 < res[-1] and abs(t0_residual(0.0) + 1.0) < 1e-12
    err = abs(t0 - 0.432646)
    ok = monotone and sign_ok and err <= 1e-5
    return LemmaCheck("threshold_root", ok, err,
                      f"t0={t0:.6f}, monotone={monotone}")


def check_l13():
    """The symmetric beta-product objective is minimized at s = 1/2."""
    worst = 0.0
    for k in (1.2, 1.5, 1.8):
        def obj(s):
            return (_beta_product(s, k) / (s * (1.0 - s)) +
                    _beta_product(1.0 - s, k) / (s * (1.0 - s)))
        grid = np.linspace(0.01, 0.99, 4001)
        vals = obj(grid)
        s_min = grid[int(np.argmin(vals))]
        worst = max(worst, abs(s_min - 0.5))
    return LemmaCheck("shared_minimizer_at_half", worst <= 1e-3, worst,
                      "grid-scan minimizers for kappa in {1.2, 1.5, 1.8}")


def _random_concave_pwl(rng, pieces=6):
    """Random nonnegative concave piecewise-linear function on (0, 1) as the
    min of affine pieces kept nonnegative at both endpoints."""
    lines = []
    for _ in range(pieces):
        v0 = rng.uniform(0.1, 2.0)
        v1 = rng.uniform(0.1, 2.0)
        lines.append((v0, v1 - v0))  # intercept, slope
    return lines


def _pwl_eval(lines, t):
    return min(c + m * t for c, m in lines)


def check_concave_infsup(seed=0, cases=10):
    """inf_x [s x + (1-s) sup_t (-t x + f(t))/(1-t)] = f(s) for concave
    f >= 0, checked exactly on piecewise-linear f.

    On each linear piece of f the inner objective is monotone in t, so the
    sup over t sits on a breakpoint; the outer function of x is then a max
    of affines plus s x, whose inf lies on a crossing.  Both optimizations
    are exact, which is what lets the identity be checked to 1e-6.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        lines = _random_concave_pwl(rng)
        # breakpoints: pairwise crossings of the active pieces inside (0,1)
        ts = {1e-9, 1.0 - 1e-9}
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                (c1, m1), (c2, m2) = lines[i], lines[j]
                if m1 != m2:
                    t = (c2 - c1) / (m1 - m2)
                    if 0.0 < t < 1.0:
                        ts.add(t)
        ts = sorted(ts)
        for s in rng.uniform(0.05, 0.95, 5):
            # sup over t of (-t x + f(t))/(1-t) = max over breakpoints -> affine in x
            slopes = np.array([-t / (1.0 - t) for t in ts])
            offs = np.array([_pwl_eval(lines, t) / (1.0 - t) for t in ts])
            # outer: inf over x >= 0 of s x + (1-s) max_j(slopes_j x + offs_j)
            xs = {0.0}
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    if slopes[i] != slopes[j]:
                        x = (offs[j] - offs[i]) / (slopes[i] - slopes[j])
                        if x > 0.0:
                            xs.add(x)
            best = min(s * x + (1.0 - s) * float(np.max(slopes * x + offs))
                       for x in xs)
            worst = max(worst, abs(best - _pwl_eval(lines, s)))
    return LemmaCheck("concave_infsup_identity", worst <= 1e-6, worst,
                      f"{cases} random piecewise-linear concave functions")


def check_ap1():
    """x^kappa = lim g(x eps)/g(eps): numeric exponents match analytic."""
    worst = abs(kappa_of_g("square") - 2.0)
    worst = max(worst, abs(kappa_of_g("abs") - 1.0))
    worst = max(worst, abs(kappa_of_g("sq_log") - 2.0))
    worst = max(worst, abs(kappa_of_g(("power", 1.3)) - 1.3))
    worst = max(worst, abs(kappa_of_g(lambda e: -e * e * np.log(e)) - 2.0))
    worst = max(worst, abs(kappa_of_g(lambda e: e ** 0.6) - 0.6))
    return LemmaCheck("scaling_exponent_law", worst <= 1e-3, worst,
                      "built-in tags and two custom scaling functions")


def check_bound_order(seed=0, cases=200):
    """alpha1 >= alpha2 over random regimes and amplitudes."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(cases):
        regime = ("kappa_one", "kappa_two", "power_mid", "power_low")[rng.integers(4)]
        kappa = {"kappa_one": 1.0, "kappa_two": 2.0,
                 "power_mid": float(rng.uniform(1.05, 1.95)),
                 "power_low": float(rng.uniform(0.15, 0.95))}[regime]
        A1 = float(rng.uniform(0.2, 3.0))
        A2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else 0.0
        bp = bound_pair(profile_from_closed_form(regime, A1, A2, kappa))
        worst = max(worst, bp.alpha2_bar - bp.alpha1_bar)
    return LemmaCheck("bound_order", worst <= 1e-9, max(worst, 0.0),
                      f"{cases} random configurations")


def check_curve_concavity(seed=0):
    """Computed divergence curves are concave in s."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    s_grid = np.linspace(0.02, 0.98, 49)
    for fam in (make_family("uniform"), make_family("beta", (2.0, 2.0)),
                make_family("gaussian"), make_family("weibull", (1.3,))):
        eps = float(rng.uniform(0.05, 0.3))
        curve = renyi_curve(fam, 0.0, eps, s_grid)
        worst = max(worst, float(np.max(np.diff(curve.values, 2))))
    return LemmaCheck("curve_concavity", worst <= 1e-8, worst,
                      "second differences of four family curves")


def check_mc_identities(seed=0):
    """Monte Carlo rates vs closed forms (full level only)."""
    details = []
    ok = True
    worst = 0.0
    # order statistics on the uniform family
    fam = make_family("uniform")
    ana = order_stat_rates(fam, 0.1, lam=0.5)
    est = mc_tail_rate(fam, EstimatorSpec("convex_combo", lam=0.5), 0.0, 0.1,
                       n_grid=(8, 16, 32, 64), trials=40_000, seed=seed)
    rel = abs(est.beta_plus - ana.combo_plus) / ana.combo_plus
    tol = max(0.10, 3.0 * est.slope_stderr / ana.combo_plus)
    ok &= rel <= tol
    worst = max(worst, rel)
    details.append(f"combo {rel:.3f}")
    # the likelihood-ratio identity on the gaussian family
    lhs, rhs = lr_rate_identity(make_family("gaussian"), 0.0, 0.25,
                                n_grid=(32, 64, 128, 192), trials=30_000, seed=seed)
    rel = abs(lhs - rhs) / rhs
    ok &= rel <= 0.15
    worst = max(worst, rel)
    details.append(f"lr_identity {rel:.3f}")
    # data processing: empirical rate below the testing exponent
    cap = chernoff_test_rate((fam, -0.1), (fam, 0.1))
    slack = est.beta - cap - 3.0 * est.slope_stderr
    ok &= slack <= 0.0
    details.append(f"data_processing slack {slack:.4f}")
    return LemmaCheck("mc_rate_identities", bool(ok), worst, ", ".join(details))


QUICK_CHECKS = (check_sandwich, check_l8, check_l11, check_l12, check_l13,
                check_concave_infsup, check_ap1, check_bound_order,
                check_curve_concavity)
FULL_CHECKS = QUICK_CHECKS + (check_mc_identities,)


def run_checks(level="quick"):
    """Run the lemma suite; returns a list of LemmaCheck records."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    return [fn() for fn in checks]
