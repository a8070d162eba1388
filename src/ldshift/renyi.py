"""Renyi divergence I^s(p||q) = -log int p^s q^(1-s) between shifted copies
of a density, the scaling exponent kappa of a scaling function g, rescaled
small-shift limits I^s_g, and their closed forms per edge-behavior regime.

Conventions: orders s in (0, 1); the centered pair (theta - eps/2,
theta + eps/2) is used for scaling limits; +inf is returned only on the
structural condition of disjoint supports (integrals run in log space, so
overflow cannot masquerade as the infinite marker).
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import families as fam_mod
from .families import DensityFamily, fisher_information
from .quadrature import panel_nodes
from .special import _beta

__all__ = [
    "DivergenceError",
    "RenyiCurve",
    "ScalingProfile",
    "RegimeInfo",
    "g_value",
    "kappa_of_g",
    "renyi_divergence",
    "renyi_curve",
    "closed_form_isg",
    "classify_regime",
    "profile_from_family",
    "profile_from_closed_form",
    "DEFAULT_LADDER",
    "DEFAULT_LOG_LADDER",
]

GTag = Union[str, tuple, Callable]

# default shift ladders (times the support width): plain power scalings
# converge like powers of eps, removed by iterated extrapolation over a
# halving ladder; the -x^2 log x scaling has 1/log(eps) and eps corrections,
# fitted out in that basis over a deeper halving ladder
DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125)
DEFAULT_LOG_LADDER = tuple(1e-2 / 2.0 ** i for i in range(7))

_REGIMES = ("regular", "semi_regular", "kappa_one", "kappa_two",
            "power_mid", "power_low")


class DivergenceError(RuntimeError):
    """Ladder ratios grow instead of converging (wrong scaling function)."""


@dataclass(frozen=True)
class RenyiCurve:
    """Tabulated s -> I^s on a strictly increasing grid inside (0, 1)."""

    s_grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class RegimeInfo:
    regime: str
    kappa: float
    A1: float
    A2: float
    g_tag: GTag
    fisher: Optional[float] = None


@dataclass(frozen=True)
class ScalingProfile:
    """Rescaled limit curve s -> I^s_g plus the scaling metadata.

    ``isg_fn`` evaluates the limit at arbitrary s in [0, 1] (used by the
    bound optimizers for refinement); ``isg_unc`` is zero on closed-form
    profiles and, on extrapolated ones, the larger move of the limit when
    the first or the last rung is dropped from the fit.  ``rung_renyi`` holds
    an extrapolated profile's rung divergences I^s(eps_i) on s_grid, one row
    per rung (None on closed forms).
    """

    g_tag: GTag
    kappa: float
    theta: float
    regime: str
    s_grid: np.ndarray
    isg: np.ndarray
    isg_unc: np.ndarray
    isg_fn: Callable = None
    source: str = "closed_form"
    eps_ladder: tuple = None
    rung_fn: Callable = None  # never set; kept for code that still reads it
    rung_renyi: np.ndarray = None


# ---------------------------------------------------------------------------
# scaling functions

def g_value(g_tag, eps):
    """Evaluate the scaling function g at eps > 0."""
    eps = np.asarray(eps, dtype=float)
    if callable(g_tag):
        out = np.asarray(g_tag(eps), dtype=float)
    elif g_tag == "square":
        out = eps ** 2
    elif g_tag == "abs":
        out = np.abs(eps)
    elif g_tag == "sq_log":
        out = -(eps ** 2) * np.log(eps)
    elif isinstance(g_tag, tuple) and g_tag[0] == "power":
        out = eps ** float(g_tag[1])
    else:
        raise ValueError(f"unknown scaling tag {g_tag!r}")
    return float(out) if out.ndim == 0 else out


def kappa_of_g(g_tag):
    """Exponent kappa with x^kappa = lim g(x eps)/g(eps) as eps -> 0.

    Analytic for the built-in tags; estimated over an eps-ladder for a
    callable, with a non-convergence error when the ladder disagrees.
    """
    if g_tag == "square" or g_tag == "sq_log":
        return 2.0
    if g_tag == "abs":
        return 1.0
    if isinstance(g_tag, tuple) and g_tag[0] == "power":
        k = float(g_tag[1])
        if k <= 0:
            raise ValueError(f"power scaling needs kappa > 0, got {k}")
        return k
    if callable(g_tag):
        x = 2.0
        eps = 10.0 ** -np.arange(2.0, 9.0)
        est = np.array([math.log(g_tag(x * e) / g_tag(e)) / math.log(x)
                        for e in eps])
        # logarithmic factors in g leave 1/log(eps) corrections; fit them out
        u = 1.0 / np.log(eps)
        X = np.vstack([np.ones_like(u), u, u * u]).T
        coef, *_ = np.linalg.lstsq(X, est, rcond=None)
        resid = float(np.max(np.abs(X @ coef - est)))
        if resid > 1e-3:
            raise ValueError("scaling exponent of custom g did not converge "
                             f"(ladder misfit {resid:.2e}, estimates {est})")
        return float(coef[0])
    raise ValueError(f"unknown scaling tag {g_tag!r}")


# ---------------------------------------------------------------------------
# divergence quadrature

def _overlap_nodes(p_point, q_point):
    """Nodes over the overlap of the trimmed supports of two (family, theta)
    points (the families may differ), split at both densities' breakpoints,
    each end graded for the sharper of their edges there; None if disjoint."""
    (fam_p, tp), (fam_q, tq) = p_point, q_point
    lo_p, hi_p = fam_mod._trimmed_support(fam_p)
    lo_q, hi_q = (lo_p, hi_p) if fam_q is fam_p else fam_mod._trimmed_support(fam_q)
    lo, hi = max(lo_p + tp, lo_q + tq), min(hi_p + tp, hi_q + tq)
    if not hi > lo:
        return None
    bps = [c + t for fam, t in (p_point, q_point) for c in fam.breakpoints]
    dep_p, dep_q = fam_mod._edge_depths(fam_p), fam_mod._edge_depths(fam_q)
    return panel_nodes(lo, hi, bps, (max(dep_p[0], dep_q[0]), max(dep_p[1], dep_q[1])))


def _pair_nodes(p_point, q_point):
    """(lp, lq, logw) at the overlap nodes of p and q; None when disjoint."""
    nodes = _overlap_nodes(p_point, q_point)
    if nodes is None:
        return None
    lp, lq = (fam_mod._logpdf3(fam, *fam_mod._at_nodes(fam, t, nodes))
              for fam, t in (p_point, q_point))
    with np.errstate(divide="ignore"):
        logw = np.log(nodes.w)
    return lp, lq, logw


def _lse(v):
    """log(sum(exp(v))) of a 1-d float array, overwriting v.

    The arithmetic of scipy 1.17's log-sum-exp without its dispatch and
    copies, so results are bit-identical to it: shift by the maximum m, count
    its cnt occurrences apart and return log1p(rest / cnt) + log(cnt) + m.
    """
    m = v.max()
    if not math.isfinite(m):
        # all -inf, an inf or a nan: scipy falls back to the plain sum
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(np.log(np.exp(v).sum()))
    top = v == m
    cnt = np.count_nonzero(top)
    v[top] = -np.inf
    v -= m
    np.exp(v, out=v)
    return float(np.log1p(v.sum() / cnt) + np.log(cnt) + m)


def _renyi_from_nodes(pair, s):
    lp, lq, logw = pair
    s = np.atleast_1d(np.asarray(s, dtype=float))
    vals = np.empty(s.shape)
    for i, si in enumerate(s):
        v = si * lp
        v += (1.0 - si) * lq
        v += logw
        vals[i] = -_lse(v)
    return np.maximum(vals, 0.0)


def renyi_divergence(family, theta_p, theta_q, s):
    """I^s(f_{theta_p} || f_{theta_q}) for s in (0, 1); +inf when the shifted
    supports are disjoint."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    if theta_p == theta_q:
        return 0.0
    pair = _pair_nodes((family, float(theta_p)), (family, float(theta_q)))
    if pair is None:
        return math.inf
    return float(_renyi_from_nodes(pair, s)[0])


def renyi_curve(family, theta, eps, s_grid):
    """Curve s -> I^s(f_{theta-eps/2} || f_{theta+eps/2}) on s_grid."""
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0:
        raise ValueError("empty s grid")
    if np.any(s_grid <= 0) or np.any(s_grid >= 1) or np.any(np.diff(s_grid) <= 0):
        raise ValueError("s grid must be strictly increasing inside (0, 1)")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    pair = _pair_nodes((family, theta - eps / 2.0), (family, theta + eps / 2.0))
    if pair is None:
        return RenyiCurve(s_grid=s_grid, values=np.full(s_grid.shape, math.inf))
    return RenyiCurve(s_grid=s_grid, values=_renyi_from_nodes(pair, s_grid))


# ---------------------------------------------------------------------------
# ladder extrapolation

def _aitken(r):
    """Iterated Aitken delta-squared over axis 0 (rungs) of r, one column
    (order s) at a time in Python floats: each pass peels off one geometric
    component of the corrections.  A step whose two differences do not
    shrink with one sign keeps the later rung.  The arithmetic is that of
    the same recurrence on numpy rows, bit for bit, without numpy's
    per-pass cost on the one-order sweeps of the optimizer refine."""
    return np.array([_aitken_column(col) for col in np.asarray(r).T.tolist()])


def _aitken_column(seq):
    while len(seq) >= 3:
        nxt = []
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            d1, d2 = b - a, c - b
            nxt.append(c + d2 * d2 / (d1 - d2) if d1 * d2 > 0 and abs(d2) < abs(d1) else c)
        seq = nxt
    return seq[-1]


@functools.lru_cache(maxsize=64)
def _log_weights(eps_ladder):
    """Rows mapping the rungs to the c0 of a least-squares fit of I^s/g on
    {1, 1/L, eps, eps/L}, L = log(1/eps), over all rungs, all but the first
    and all but the last (first min(4, rungs - 2) basis columns)."""
    eps = np.asarray(eps_ladder, dtype=float)
    inv_l = 1.0 / np.log(1.0 / eps)
    basis = np.stack([np.ones_like(eps), inv_l, eps, eps * inv_l], axis=1)
    basis = basis[:, :min(4, eps.size - 2)]
    rows = np.zeros((3, eps.size))
    for k, keep in enumerate((slice(None), slice(1, None), slice(None, -1))):
        rows[k, keep] = np.linalg.pinv(basis[keep])[0]
    return rows


def _extrapolate(r, eps_ladder, g_tag):
    """eps -> 0 limits of the rung ratios r (rungs along axis 0, orders s
    along axis 1): (value, err) per column.

    ``sq_log`` ladders are fitted in their asymptotic basis (see
    ``_log_weights``), the others by iterated Aitken.  ``err`` is the larger
    move of the two refits that drop the first or the last rung.
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.all((r[1:] > r[:-1]) & (r[1:] > 1.1 * r[:-1]), axis=0)):
        raise DivergenceError(
            "scaled divergences grow along the ladder; "
            f"check the scaling function (ratios {r.T})")
    if g_tag == "sq_log":
        # elementwise, rung by rung: a matrix product's bits for one order
        # would depend on how many orders are swept with it
        w = _log_weights(eps_ladder)
        value, first, last = sum(w[:, i, None] * r[i] for i in range(r.shape[0]))
    else:
        value, first, last = _aitken(r), _aitken(r[1:]), _aitken(r[:-1])
    return value, np.maximum(np.abs(first - value), np.abs(last - value))


def default_ladder(g_tag, family=None):
    base = DEFAULT_LOG_LADDER if g_tag == "sq_log" else DEFAULT_LADDER
    scale = 1.0
    if family is not None:
        a, b = family.support
        if math.isfinite(b - a):
            scale = b - a
    return tuple(e * scale for e in base)


def _ladder(eps_ladder, g_tag, family):
    """The shift ladder as a float tuple (the default one when None); it must
    be strictly decreasing with at least four positive rungs, the first
    narrower than the support."""
    if eps_ladder is None:
        eps_ladder = default_ladder(g_tag, family)
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if len(eps_ladder) < 4 or np.any(np.diff(eps_ladder) >= 0) or eps_ladder[-1] <= 0:
        raise ValueError("eps ladder must be >= 4 strictly decreasing positive rungs")
    a, b = family.support
    if not eps_ladder[0] < b - a:
        raise ValueError(f"first rung eps={eps_ladder[0]} is not narrower than the "
                         f"support width {b - a}")
    return eps_ladder


def _rungs(family, theta, eps_ladder, g_tag):
    """Centered pair node data and g(eps) for each rung of a shift ladder."""
    pairs, gvals = [], []
    for eps in eps_ladder:
        pair = _pair_nodes((family, theta - eps / 2.0), (family, theta + eps / 2.0))
        if pair is None:
            raise ValueError(f"shift eps={eps} exceeds the support overlap")
        pairs.append(pair)
        gvals.append(g_value(g_tag, eps))
    return pairs, gvals


# ---------------------------------------------------------------------------
# closed forms per regime

_beta_ufunc = np.frompyfunc(_beta, 2, 1)


def _betafn_vec(x, y):
    if isinstance(x, float) and isinstance(y, float):
        return _beta(x, y)
    return np.asarray(_beta_ufunc(x, y), dtype=float)


def closed_form_isg(regime, A1, A2, kappa, s, fisher=None):
    """Closed-form I^s_g for the given edge regime; vectorized over s.

    Regimes: regular / semi_regular (needs ``fisher``), kappa_one,
    kappa_two, power_mid (1 < kappa < 2), power_low (0 < kappa < 1).
    Values extend continuously to s in {0, 1}.  A float s gives a float,
    computed in Python floats with ``special._beta``; an array gives an
    array of the same values.
    """
    if isinstance(s, float):
        s = float(s)
        outside = s < 0 or s > 1  # nan passes, and comes out as nan
    else:
        s = np.asarray(s, dtype=float)
        outside = (s < 0).any() or (s > 1).any()
    if outside:
        raise ValueError("s must lie in [0, 1]")
    k = float(kappa)
    if regime in ("regular", "semi_regular"):
        if fisher is None:
            raise ValueError(f"regime {regime!r} needs the fisher information")
        if abs(k - 2.0) > 1e-9:
            raise ValueError(f"regime {regime!r} requires kappa = 2, got {k}")
        out = s * (1.0 - s) * fisher / 2.0
    elif regime == "kappa_one":
        if abs(k - 1.0) > 1e-9:
            raise ValueError(f"regime kappa_one requires kappa = 1, got {k}")
        out = A1 * s + A2 * (1.0 - s)
    elif regime == "kappa_two":
        if abs(k - 2.0) > 1e-9:
            raise ValueError(f"regime kappa_two requires kappa = 2, got {k}")
        out = (A1 + A2) * s * (1.0 - s) / 2.0
    elif regime == "power_mid":
        if not 1.0 < k < 2.0:
            raise ValueError(f"regime power_mid requires kappa in (1, 2), got {k}")
        out = (A1 * s * (1.0 - s * (k - 1.0)) * _betafn_vec(s + k * (1.0 - s), 2.0 - k)
               + A2 * (1.0 - s) * (1.0 - (1.0 - s) * (k - 1.0))
               * _betafn_vec(1.0 - s + k * s, 2.0 - k)) / k
    elif regime == "power_low":
        if not 0.0 < k < 1.0:
            raise ValueError(f"regime power_low requires kappa in (0, 1), got {k}")
        out = (1.0 - k) * (A1 * s * _betafn_vec(s + k * (1.0 - s), 1.0 - k)
                           + A2 * (1.0 - s) * _betafn_vec(1.0 - s + k * s, 1.0 - k)) / k
    else:
        raise ValueError(f"unknown regime {regime!r}; expected one of {_REGIMES}")
    if isinstance(s, float):
        return float(out)
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def classify_regime(family):
    """Edge regime of a family, its effective (kappa, A1, A2), and the
    natural scaling function.

    When the two edges carry different exponents, the sharper edge (smaller
    kappa) dominates the small-shift divergence and the other side's
    amplitude is effectively zero at this scaling.
    """
    if family.regular:
        return RegimeInfo("regular", 2.0, 0.0, 0.0, "square",
                          fisher=fisher_information(family))
    edges = []
    if family.A1 > 0:
        edges.append(family.kappa1)
    if family.A2 > 0:
        edges.append(family.kappa2)
    if not edges:
        raise ValueError("family has no active power edge and is not regular")
    k = min(edges)
    a1 = family.A1 if (family.A1 > 0 and family.kappa1 <= k + 1e-9) else 0.0
    a2 = family.A2 if (family.A2 > 0 and family.kappa2 <= k + 1e-9) else 0.0
    if k > 2.0 + 1e-9:
        return RegimeInfo("semi_regular", 2.0, 0.0, 0.0, "square",
                          fisher=fisher_information(family))
    if abs(k - 1.0) <= 1e-9:
        return RegimeInfo("kappa_one", 1.0, a1, a2, "abs")
    if abs(k - 2.0) <= 1e-9:
        return RegimeInfo("kappa_two", 2.0, a1, a2, "sq_log")
    if 1.0 < k < 2.0:
        return RegimeInfo("power_mid", k, a1, a2, ("power", k))
    return RegimeInfo("power_low", k, a1, a2, ("power", k))


# ---------------------------------------------------------------------------
# scaling profiles

def _default_s_grid():
    body = np.linspace(0.025, 0.975, 39)
    edges = np.array([1e-4, 1e-3, 5e-3, 0.01, 0.99, 0.995, 0.999, 0.9999])
    return np.unique(np.concatenate([body, edges]))


def profile_from_closed_form(regime, A1, A2, kappa, fisher=None, theta=0.0,
                             s_grid=None):
    """Analytic scaling profile from the regime closed forms."""
    if s_grid is None:
        s_grid = _default_s_grid()
    s_grid = np.asarray(s_grid, dtype=float)
    fn = lambda s: closed_form_isg(regime, A1, A2, kappa, s, fisher=fisher)
    vals = np.asarray(fn(s_grid), dtype=float)
    g_tag = {"regular": "square", "semi_regular": "square",
             "kappa_one": "abs", "kappa_two": "sq_log"}.get(regime, ("power", kappa))
    return ScalingProfile(
        g_tag=g_tag, kappa=float(kappa), theta=float(theta), regime=regime,
        s_grid=s_grid, isg=vals, isg_unc=np.zeros_like(vals), isg_fn=fn,
        source="closed_form",
    )


def profile_from_family(family, theta=0.0, g_tag=None, s_grid=None,
                        eps_ladder=None):
    """Scaling profile tabulated from quadrature ladders of the family.

    Rung node data is computed once and reused, so the returned ``isg_fn``
    evaluates cheaply at arbitrary s (extrapolating the same ladder).  The
    limit and its error are memoized per s for the life of the profile: the
    s_grid tabulation (``rung_renyi``) fills the memo, and ``isg_fn`` sweeps
    the quadrature nodes and extrapolates only for orders s not seen before.
    """
    info = classify_regime(family)
    if g_tag is None:
        g_tag = info.g_tag
    kappa = kappa_of_g(g_tag)
    eps_ladder = _ladder(eps_ladder, g_tag, family)
    if s_grid is None:
        s_grid = _default_s_grid()
    s_grid = np.asarray(s_grid, dtype=float)

    pairs, gvals = _rungs(family, theta, eps_ladder, g_tag)
    gvals = np.array(gvals)[:, None]
    memo = {}

    def sweep(s_list):
        """Rung divergences at the orders s_list; memoizes their limits."""
        renyi = np.array([_renyi_from_nodes(p, s_list) for p in pairs])
        vals, errs = _extrapolate(renyi / gvals, eps_ladder, g_tag)
        memo.update(zip(s_list, zip(np.maximum(vals, 0.0), errs)))
        return renyi

    def limit_at(s_arr):
        keys = [float(s) for s in s_arr]
        new = list(dict.fromkeys(s for s in keys if s not in memo))
        if new:
            sweep(new)
        return np.array([memo[s] for s in keys]).T

    rung_renyi = sweep(s_grid.tolist())
    isg, unc = limit_at(s_grid)

    def fn(s):
        vals = limit_at(np.atleast_1d(np.clip(s, 1e-9, 1.0 - 1e-9)))[0]
        return float(vals[0]) if np.ndim(s) == 0 else vals

    return ScalingProfile(
        g_tag=g_tag, kappa=float(kappa), theta=float(theta), regime=info.regime,
        s_grid=s_grid, isg=isg, isg_unc=unc, isg_fn=fn, source="ladder",
        eps_ladder=eps_ladder, rung_renyi=rung_renyi,
    )
