"""Numerical checks of the identities and inequalities the bound formulas
rest on: the divergence sandwich, the closed-form derivatives, the
logarithmic integral limits, the threshold-root monotonicity, the shared
minimizer at s = 1/2, the concave inf-sup identity, and the scaling
exponent law.  The full level adds the Monte Carlo rate identities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_pair
from .estimators import EstimatorSpec
from .families import make_family
from .quadrature import integrate
from .rates import chernoff_test_rate, lr_rate_identity, mc_tail_rate, order_stat_rates
from .renyi import (_beta_at, _pair_nodes, _regime, _renyi_from_nodes, g_value, kappa_of_g,
                    profile_from_closed_form, renyi_curve)
from .special import beta_fn, l8_derivative, solve_t0, t0_residual

__all__ = ["LemmaCheck", "run_checks", "QUICK_CHECKS", "FULL_CHECKS"]


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    slack: float
    detail: str


def _beta_product(s, kappa):
    return s * (1.0 - s * (kappa - 1.0)) * _beta_at(2.0 - kappa)(s + kappa * (1.0 - s))


def check_sandwich():
    """2 min(s,1-s) I^(1/2) <= I^s <= 2 max(s,1-s) I^(1/2), 200 random pairs."""
    rng = np.random.default_rng(0)
    families = [make_family("uniform"), make_family("beta", (2.0, 2.0)),
                make_family("beta", (0.7, 1.5)), make_family("gaussian"),
                make_family("weibull", (1.5,)), make_family("triangular", (0.3,))]
    worst = 0.0
    for _ in range(200):
        fam = families[rng.integers(len(families))]
        eps = float(rng.uniform(0.05, 0.4))
        s = float(rng.uniform(0.01, 0.99))
        # one pair build serves both orders
        pair = _pair_nodes(fam, 0.0, eps)
        half, val = _renyi_from_nodes(pair, (0.5, s)).tolist()
        lo = 2.0 * min(s, 1.0 - s) * half
        hi = 2.0 * max(s, 1.0 - s) * half
        worst = max(worst, lo - val, val - hi)
    return LemmaCheck("sandwich_inequality", worst <= 1e-9, worst,
                      "200 random (family, eps, s) cases")


def check_l8():
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
    return LemmaCheck("half_point_derivatives", worst <= 1e-6, worst,
                      "tan/cot closed forms vs central differences")


def check_l11():
    """The two exp(-+eps/x) integrals over (0, 1/2) and (eps, 1/2) are each
    ~ (1/2) eps^2 log eps.

    The finite-eps ratios carry an O(1/log eps) bias (+0.35/log eps from
    the upper-limit term alone), so the limit is checked by extrapolating
    the ratio ladder linearly in 1/log eps.
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
            integrate(lambda x: kernel(x, e), lo_of(e), 0.5) / (e * e * math.log(e))
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
    """The symmetric beta-product objective is minimized at s = 1/2.  The
    grid is symmetric about 1/2, so the product at 1 - s is the mirrored
    product at s."""
    worst = 0.0
    grid = np.linspace(0.01, 0.99, 4001)
    denom = grid * (1.0 - grid)
    for k in (1.2, 1.5, 1.8):
        prod = _beta_product(grid, k)
        vals = prod / denom + prod[::-1] / denom
        s_min = grid[int(np.argmin(vals))]
        worst = max(worst, abs(s_min - 0.5))
    return LemmaCheck("shared_minimizer_at_half", worst <= 1e-3, float(worst),
                      "grid-scan minimizers for kappa in {1.2, 1.5, 1.8}")


def _random_concave_pwl(rng):
    """Random nonnegative concave piecewise-linear function on (0, 1) as the
    min of six affine pieces kept nonnegative at both endpoints."""
    lines = []
    for _ in range(6):
        v0 = rng.uniform(0.1, 2.0)
        v1 = rng.uniform(0.1, 2.0)
        lines.append((v0, v1 - v0))  # intercept, slope
    return lines


def _pwl_eval(c, m, t):
    """The min of the affine pieces c + m t at each t of an array."""
    return np.min(c + m * t[:, None], axis=1)


def _crossings(off, slope):
    """Crossing points (off_j - off_i) / (slope_i - slope_j), i < j, of the
    lines off + slope x whose slopes differ."""
    i, j = np.triu_indices(off.size, 1)
    keep = slope[i] != slope[j]
    i, j = i[keep], j[keep]
    return (off[j] - off[i]) / (slope[i] - slope[j])


def check_concave_infsup():
    """inf_x [s x + (1-s) sup_t (-t x + f(t))/(1-t)] = f(s) for concave
    f >= 0, checked exactly on 10 random piecewise-linear f.

    On each linear piece of f the inner objective is monotone in t, so the
    sup over t sits on a breakpoint; the outer function of x is then a max
    of affines plus s x, whose inf lies on a crossing.  Both optimizations
    are exact, which is what lets the identity be checked to 1e-6.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        c, m = np.asarray(_random_concave_pwl(rng)).T
        # breakpoints: pairwise crossings of the pieces inside (0, 1)
        ts = _crossings(c, m)
        ts = np.unique(np.concatenate([[1e-9, 1.0 - 1e-9], ts[(0.0 < ts) & (ts < 1.0)]]))
        # sup over t of (-t x + f(t))/(1-t) = max over breakpoints -> affine in x
        slopes = -ts / (1.0 - ts)
        offs = _pwl_eval(c, m, ts) / (1.0 - ts)
        # outer: inf over x >= 0 of s x + (1-s) max_j(slopes_j x + offs_j)
        xs = _crossings(offs, slopes)
        xs = np.concatenate([[0.0], xs[xs > 0.0]])
        outer = np.max(slopes * xs[:, None] + offs, axis=1)
        s = rng.uniform(0.05, 0.95, 5)[:, None]
        best = np.min(s * xs + (1.0 - s) * outer, axis=1)
        worst = max(worst, float(np.max(np.abs(best - _pwl_eval(c, m, s[:, 0])))))
    return LemmaCheck("concave_infsup_identity", worst <= 1e-6, worst,
                      "10 random piecewise-linear concave functions")


def check_ap1():
    """x^kappa = lim g(x eps)/g(eps): the exponent of g(2 eps)/g(eps) fitted
    over eps = 1e-2 ... 1e-8 matches ``kappa_of_g``.  A logarithmic factor
    in g leaves 1/log(eps) corrections; the fit takes them out."""
    eps = 10.0 ** -np.arange(2.0, 9.0)
    u = 1.0 / np.log(eps)
    basis = np.vstack([np.ones_like(u), u, u * u]).T
    worst = 0.0
    for tag in (0.6, 1.0, 1.3, 2.0, 3.0):
        est = np.log(g_value(tag, 2.0 * eps) / g_value(tag, eps)) / math.log(2.0)
        coef, *_ = np.linalg.lstsq(basis, est, rcond=None)
        worst = max(worst, abs(float(coef[0]) - kappa_of_g(tag)))
    return LemmaCheck("scaling_exponent_law", worst <= 1e-3, worst,
                      "fitted exponent of g(2 eps)/g(eps) at tags 0.6, 1, 1.3, 2, 3")


def check_bound_order():
    """alpha1 >= alpha2 over 200 random edge exponents and amplitudes."""
    rng = np.random.default_rng(0)
    worst = -math.inf
    for _ in range(200):
        i = rng.integers(4)
        kappa = [1.0, 2.0, float(rng.uniform(1.05, 1.95)), float(rng.uniform(0.15, 0.95))][i]
        A1 = float(rng.uniform(0.2, 3.0))
        A2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else 0.0
        bp = bound_pair(profile_from_closed_form(_regime(kappa), A1, A2, kappa))
        worst = max(worst, bp.alpha2_bar - bp.alpha1_bar)
    return LemmaCheck("bound_order", worst <= 1e-9, max(worst, 0.0),
                      "200 random configurations")


def check_curve_concavity():
    """Computed divergence curves are concave in s."""
    rng = np.random.default_rng(0)
    worst = -math.inf
    s_grid = np.linspace(0.02, 0.98, 49)
    for fam in (make_family("uniform"), make_family("beta", (2.0, 2.0)),
                make_family("gaussian"), make_family("weibull", (1.3,))):
        eps = float(rng.uniform(0.05, 0.3))
        curve = renyi_curve(fam, eps, s_grid)
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
    lhs, rhs = lr_rate_identity(make_family("gaussian"), 0.25,
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
