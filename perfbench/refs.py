"""Reference values for the benchmark tasks, computed with mpmath from the
mathematics alone (no ldshift import), so the benchmark can check ldshift
against numbers it did not produce.

Regenerate after changing a workload config, from the repository root:

    python3 perfbench/refs.py

It reads perfbench/configs/*.json (and the CLI configs they name) and writes
perfbench/data/refs.json, keyed by task id.  It takes a few minutes.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder-bounds", "mc-rates", "lemma-suite")
S_EDGE = mp.mpf(10) ** -25  # boundary suprema are limits; evaluated this close


# ---------------------------------------------------------------------------
# standardized densities

def support(kind):
    return {"uniform": (0, 1), "beta": (0, 1), "triangular": (0, 1),
            "gamma": (0, mp.inf), "weibull": (0, mp.inf),
            "gaussian": (-mp.inf, mp.inf)}[kind]


def log_pdf(kind, params, u):
    p = [mp.mpf(v) for v in params]
    if kind == "uniform":
        return mp.mpf(0)
    if kind == "beta":
        return (p[0] - 1) * mp.log(u) + (p[1] - 1) * mp.log(1 - u) - mp.log(mp.beta(p[0], p[1]))
    if kind == "gamma":
        return (p[0] - 1) * mp.log(u) - u - mp.loggamma(p[0])
    if kind == "weibull":
        return mp.log(p[0]) + (p[0] - 1) * mp.log(u) - u ** p[0]
    if kind == "gaussian":
        return -u * u / 2 - mp.log(mp.sqrt(2 * mp.pi))
    if kind == "triangular":
        c = p[0]
        return mp.log(2 * u / c) if u <= c else mp.log(2 * (1 - u) / (1 - c))
    raise ValueError(kind)


def score(kind, params, u):
    """f'(u)/f(u)."""
    p = [mp.mpf(v) for v in params]
    if kind == "beta":
        return (p[0] - 1) / u - (p[1] - 1) / (1 - u)
    if kind == "gamma":
        return (p[0] - 1) / u - 1
    if kind == "weibull":
        return (p[0] - 1) / u - p[0] * u ** (p[0] - 1)
    if kind == "gaussian":
        return -u
    raise ValueError(f"no score for {kind}")


def cdf(kind, params, x):
    if kind == "beta":
        return mp.betainc(params[0], params[1], 0, x, regularized=True)
    raise ValueError(f"no cdf for {kind}")


def integrate(fn, lo, hi, breaks=()):
    pts = [lo] + sorted(b for b in breaks if lo < b < hi) + [hi]
    if hi == mp.inf:
        last = pts[-2]
        pts = pts[:-1] + [last + 1, last + 4, last + 16, last + 64, mp.inf]
    if lo == -mp.inf:
        first = pts[1]
        pts = [-mp.inf, first - 64, first - 16, first - 4, first - 1] + pts[1:]
    return mp.quad(fn, pts)


def fisher(kind, params):
    lo, hi = support(kind)
    return integrate(lambda u: score(kind, params, u) ** 2 * mp.exp(log_pdf(kind, params, u)),
                     lo, hi, breaks=(0,))


# ---------------------------------------------------------------------------
# edge regimes and the closed-form limits I^s_g

def edges(kind, params):
    """(kappa1, A1, kappa2, A2) of f ~ A (distance to edge)^(kappa - 1)."""
    p = [mp.mpf(v) for v in params]
    if kind == "uniform":
        return 1, 1, 1, 1
    if kind == "beta":
        amp = 1 / mp.beta(p[0], p[1])
        return p[0], amp, p[1], amp
    if kind == "gamma":
        return p[0], 1 / mp.gamma(p[0]), mp.inf, 0
    if kind == "weibull":
        return p[0], p[0], mp.inf, 0
    if kind == "triangular":
        return 2, 2 / p[0], 2, 2 / (1 - p[0])
    raise ValueError(kind)


def regime_of(kind, params):
    """(regime, kappa, A1, A2, fisher): the sharper edge sets the regime."""
    if kind == "gaussian":
        return "regular", mp.mpf(2), 0, 0, fisher(kind, params)
    k1, a1, k2, a2 = edges(kind, params)
    k = min(k1, k2)
    a1 = a1 if k1 == k else 0
    a2 = a2 if k2 == k else 0
    if k > 2:
        return "semi_regular", mp.mpf(2), 0, 0, fisher(kind, params)
    if k == 1:
        return "kappa_one", mp.mpf(1), a1, a2, None
    if k == 2:
        return "kappa_two", mp.mpf(2), a1, a2, None
    return ("power_mid" if k > 1 else "power_low"), mp.mpf(k), a1, a2, None


def isg(regime, kappa, A1, A2, J=None):
    k, A1, A2 = mp.mpf(kappa), mp.mpf(A1), mp.mpf(A2)

    def fn(s):
        if regime in ("regular", "semi_regular"):
            return s * (1 - s) * mp.mpf(J) / 2
        if regime == "kappa_one":
            return A1 * s + A2 * (1 - s)
        if regime == "kappa_two":
            return (A1 + A2) * s * (1 - s) / 2
        if regime == "power_mid":
            return (A1 * s * (1 - s * (k - 1)) * mp.beta(s + k * (1 - s), 2 - k)
                    + A2 * (1 - s) * (1 - (1 - s) * (k - 1)) * mp.beta(1 - s + k * s, 2 - k)) / k
        if regime == "power_low":
            return (1 - k) * (A1 * s * mp.beta(s + k * (1 - s), 1 - k)
                              + A2 * (1 - s) * mp.beta(1 - s + k * s, 1 - k)) / k
        raise ValueError(regime)

    return fn


def optimize_s(fn, maximize, grid_points=400):
    """sup (or inf) of fn over s in (0, 1): grid scan, boundary limits, then
    golden-section refinement of an interior optimum."""
    body = [mp.mpf(i) / grid_points for i in range(1, grid_points)]
    grid = [S_EDGE, mp.mpf("1e-12"), mp.mpf("1e-6")] + body + \
        [1 - mp.mpf("1e-6"), 1 - mp.mpf("1e-12"), 1 - S_EDGE]
    vals = [fn(s) for s in grid]
    pick = max if maximize else min
    i = vals.index(pick(vals))
    if i in (0, len(grid) - 1):
        return vals[i], grid[i]
    return golden(fn, grid[i - 1], grid[i + 1], maximize)


def golden(fn, a, b, maximize, tol=mp.mpf("1e-18")):
    sign = 1 if maximize else -1
    gr = (mp.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    while b - a > tol * max(1, abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = sign * fn(d)
    s = (a + b) / 2
    return fn(s), s


def bound_refs(regime, kappa, A1, A2, J=None):
    """alpha1 = 2^kappa sup I^s_g; alpha2 = 2 I^(1/2)_g at kappa = 1, else the
    inf (kappa > 1) or sup (kappa < 1) of I^s_g/(s(1-s)) times the power mean
    (s^(1/(k-1)) + (1-s)^(1/(k-1)))^(k-1)."""
    k = mp.mpf(kappa)
    f = isg(regime, k, A1, A2, J)
    a1, _ = optimize_s(f, maximize=True)
    a1 *= 2 ** k
    if k == 1:
        a2 = 2 * f(mp.mpf(0.5))
    else:
        e = 1 / (k - 1)

        def t(s):
            return f(s) / (s * (1 - s)) * (s ** e + (1 - s) ** e) ** (k - 1)

        a2, _ = optimize_s(t, maximize=k < 1)
    out = {"regime": regime, "kappa": float(k), "alpha1": float(a1), "alpha2": float(a2)}
    one_sided = (A1 == 0) != (A2 == 0)
    if regime == "power_low" and one_sided:
        # the tabulated closed value, kept beside the faithful supremum
        out["alpha2_tabulated"] = float(max(A1, A2) / k)
    return out


def family_bound_refs(kind, params):
    regime, k, a1, a2, J = regime_of(kind, params)
    out = bound_refs(regime, k, a1, a2, J)
    out.update(A1=float(a1), A2=float(a2))
    return out


# ---------------------------------------------------------------------------
# exponents of tests and estimators

def renyi(kind, params, tp, tq, s):
    """I^s(f_tp || f_tq) = -log of the integral of p^s q^(1-s) over the overlap."""
    lo0, hi0 = support(kind)
    lo, hi = max(lo0 + tp, lo0 + tq), min(hi0 + tp, hi0 + tq)
    breaks = [tp, tq] + ([mp.mpf(params[0]) + tp, mp.mpf(params[0]) + tq]
                         if kind == "triangular" else [])
    val = integrate(lambda x: mp.exp(s * log_pdf(kind, params, x - tp)
                                     + (1 - s) * log_pdf(kind, params, x - tq)),
                    lo, hi, breaks)
    return -mp.log(val)


def chernoff_info(kind, params, tp, tq):
    """sup over s of I^s: the exponent of the summed errors of the likelihood
    test, and of the eps-spaced likelihood-ratio estimator's tails."""
    fn = lambda s: renyi(kind, params, tp, tq, s)
    return interior_max(fn, [mp.mpf(i) / 20 for i in range(1, 20)])


def interior_max(fn, grid):
    """Maximum of fn over (0, 1), refused when the grid puts it at an end,
    where the supremum may be a boundary limit the grid cannot resolve."""
    vals = [fn(s) for s in grid]
    i = vals.index(max(vals))
    if i in (0, len(grid) - 1):
        raise ValueError(f"supremum at the grid end s={grid[i]}; choose other inputs")
    v, _ = golden(fn, grid[i - 1], grid[i + 1], True, tol=mp.mpf("1e-12"))
    return v


def hoeffding(kind, params, tp, tq, r):
    """max(0, sup over s of (-s r + I^s)/(1 - s))."""
    fn = lambda s: (-s * r + renyi(kind, params, tp, tq, s)) / (1 - s)
    return max(interior_max(fn, [mp.mpf(i) / 40 for i in range(1, 40)]), 0)


def mle_side_rate(kind, params, eps, side):
    """Cramer exponent of P(MLE > eps) (side plus) or P(MLE < -eps) (minus):
    the MLE exceeds eps iff the score sum at eps is negative, so the rate is
    sup over t >= 0 of -log E exp(-t psi(X - eps)) on the window where the
    shifted score is defined (and the mirror image for minus)."""
    eps = mp.mpf(eps)
    lo, hi = support(kind)
    if side == "plus":
        wlo, whi, sgn, shift = lo + eps, hi, -1, -eps
    else:
        wlo, whi, sgn, shift = lo, hi - eps, 1, eps

    def G(t):
        val = integrate(lambda x: mp.exp(sgn * t * score(kind, params, x + shift)
                                         + log_pdf(kind, params, x)), wlo, whi, breaks=(0,))
        return -mp.log(val)

    t_hi = mp.mpf(1)
    while G(t_hi) > G(t_hi / 2):
        t_hi *= 2
    v, _ = golden(G, mp.mpf(0), t_hi, True, tol=mp.mpf("1e-12"))
    return max(v, G(0))


def order_stat_refs(kind, params, eps, lam):
    """Exponents of the order-statistic estimators on a bounded support (0, 1):
    min(x) - a > eps needs every draw above a + eps; max(x) - b < -eps every
    draw below b - eps; lam(min - a) + (1 - lam)(max - b) > eps needs the
    minimum above a + eps/lam, and < -eps the maximum below b - eps/(1-lam)."""
    eps, lam = mp.mpf(eps), mp.mpf(lam)
    F = lambda x: cdf(kind, params, x)
    return {"min_shift_plus": float(-mp.log(1 - F(eps))),
            "max_shift_minus": float(-mp.log(F(1 - eps))),
            "combo_plus": float(-mp.log(1 - F(eps / lam))),
            "combo_minus": float(-mp.log(F(1 - eps / (1 - lam))))}


def mc_ref(task):
    """Exponent min(beta_plus, beta_minus) of an estimator's tails at theta = 0."""
    kind, params = task["family"]
    est = task["estimator"]
    eps = mp.mpf(task["eps"])
    if est["kind"] in ("lr", "mle") and kind == "gaussian":
        return float(eps * eps / 2)
    if est["kind"] == "lr":
        return float(chernoff_info(kind, params, -mp.mpf(est["eps"]), mp.mpf(est["eps"])))
    if est["kind"] == "mle":
        return float(min(mle_side_rate(kind, params, eps, "plus"),
                         mle_side_rate(kind, params, eps, "minus")))
    if est["kind"] == "min_shift":
        return order_stat_refs(kind, params, eps, 0.5)["min_shift_plus"]
    if est["kind"] == "shifted_min":
        # min(x) - a - e > eps iff every draw exceeds a + e + eps
        return order_stat_refs(kind, params, eps + mp.mpf(est["eps"]), 0.5)["min_shift_plus"]
    if est["kind"] == "convex_combo":
        r = order_stat_refs(kind, params, eps, est["lambda"])
        return min(r["combo_plus"], r["combo_minus"])
    raise ValueError(est["kind"])


# ---------------------------------------------------------------------------
# per-task references

def load_cli_config(argv):
    return json.loads((ROOT / argv[argv.index("--config") + 1]).read_text())


def rates_row_refs(cfg, est):
    kind, params = cfg["family"]["kind"], cfg["family"]["params"]
    eps0 = cfg["eps_ladder"][0]
    out = {"bounds": family_bound_refs(kind, params), "tail_eps": eps0}
    if est["kind"] == "mle":
        plus = float(mle_side_rate(kind, params, eps0, "plus"))
        minus = float(mle_side_rate(kind, params, eps0, "minus"))
        out.update(beta=min(plus, minus), beta_plus_analytic=plus, beta_minus_analytic=minus)
    elif est["kind"] == "min_shift":
        plus = order_stat_refs(kind, params, eps0, 0.5)["min_shift_plus"]
        out.update(beta=plus, beta_plus_analytic=plus, beta_minus_analytic=float("inf"))
    else:
        raise ValueError(est["kind"])
    return out


def task_refs(task):
    op = task["op"]
    if op == "cli":
        argv = task["argv"]
        if argv[0] == "verify":
            return None
        cfg = load_cli_config(argv)
        kind, params = cfg["family"]["kind"], cfg["family"]["params"]
        if argv[0] == "bounds":
            return family_bound_refs(kind, params)
        if argv[0] == "renyi-curve":
            regime, k, a1, a2, J = regime_of(kind, params)
            f = isg(regime, k, a1, a2, J)
            return {"s": cfg["s_grid"], "isg": [float(f(mp.mpf(s))) for s in cfg["s_grid"]]}
        if argv[0] == "rates":
            return {"rows": [rates_row_refs(cfg, e) for e in cfg["estimators"]]}
    kind, params = task.get("family", (None, None))
    if op == "mc_tail_rate":
        return {"beta": mc_ref(task)}
    if op in ("ht_simulate", "chernoff_test_rate"):
        tp, tq = (mp.mpf(t) for t in task["thetas"])
        return {"value": float(chernoff_info(kind, params, tp, tq))}
    if op == "hoeffding_rate":
        tp, tq = (mp.mpf(t) for t in task["thetas"])
        return {"values": [float(hoeffding(kind, params, tp, tq, mp.mpf(r))) for r in task["r"]]}
    if op == "mle_chernoff_rate":
        return {side: float(mle_side_rate(kind, params, task["eps"], side))
                for side in ("plus", "minus")}
    if op == "order_stat_rates":
        return order_stat_refs(kind, params, task["eps"], task["lambda"])
    if op == "closed_form_bounds":
        return bound_refs(task["regime"], mp.mpf(task["kappa"]), mp.mpf(task["A1"]),
                          mp.mpf(task["A2"]), task["fisher"])
    raise ValueError(op)


def main():
    refs = {}
    for name in WORKLOADS:
        for task in json.loads((HERE / "configs" / f"{name}.json").read_text())["tasks"]:
            ref = task_refs(task)
            if ref is not None:
                refs[task["id"]] = ref
                print(task["id"], json.dumps(ref)[:150], file=sys.stderr, flush=True)
    out = HERE / "data" / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
