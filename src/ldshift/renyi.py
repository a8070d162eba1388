"""Renyi divergence I^s(p||q) = -log int p^s q^(1-s) between shifted copies
of a density, the scaling functions g and their exponents kappa, rescaled
small-shift limits I^s_g, and their closed form in the edge exponent kappa.

Conventions: orders s in (0, 1); the centered pair (-eps/2, eps/2) is used
for scaling limits, which do not depend on where the pair is centered;
+inf is returned only on the structural condition of disjoint supports.

The sweep.  Let O be the overlap of the two trimmed supports, delta = log p
- log q at its quadrature nodes, and m_p, m_q the masses of p and q outside
O.  Since int_O p = 1 - m_p and int_O q = 1 - m_q,

    D(s) = 1 - int_O p^s q^(1-s)
         = s m_p + (1 - s) m_q + int_O q (s expm1(delta) - expm1(s delta)),

and I^s = -log1p(-D).  Every term of D is >= 0, so a divergence of 1e-25
keeps its relative precision, where -log(int p^s q^(1-s)) = -log(1 - 1e-25)
keeps none.
- delta is the window kernel ``families._log_ratio`` at the nodes' exact
  distances to the ends of O, whose ends are q's lower and p's upper edge
  (shift > 0), so its power factors are +-log1p(shift / d), exact.
- m_p and m_q are read from the mass tables (``families._mass_within``) at
  the end of each strip that a finite support edge of the other density
  leaves outside O (``_edge_strips``, which also gives the likelihood
  test's strips).  A strip's width is the shift difference itself, never
  a difference of rounded edge positions: fl(1 + eps/2) - fl(1 - eps/2) is
  1e-4 off eps at eps = 1e-12.  A trimmed infinite tail leaves no strip:
  its mass beyond the cut counts as overlap for both densities alike.
- A node with |delta| < 1e-3 enters through the moments M_k = sum q w
  delta^k (k = 2, 3, 4; M_0 and M_1 serve the direct sum below):
  s expm1(delta) - expm1(s delta) = s (1 - s) delta^2 / 2 (1 + (1 + s)
  delta / 3 + (1 + s + s^2) delta^2 / 12), to 7e-11 relative.
- The other nodes are swept per order: in the form above for s <= 1/2, and
  for s > 1/2 in the mirrored form p ((1 - s) expm1(-delta) - expm1((s - 1)
  delta)), whose weight is p w and whose linear part is (s - 1) sum (p - q)
  w.  A node's two terms then differ by at least about |delta|/4 of their
  size, so its rounding error stays below about 8 ulp/|delta| of its term
  (2e-12 at |delta| = 1e-3); the s-form alone loses (1 - s)|delta|/2 more
  as s nears 1.
- Where D > 1/2, 1 - D would lose digits to the rounding of D; the
  integral is then summed directly on the same nodes, with exp in place of
  expm1 and M_0 ... M_4 for the nodes below 1e-3.

The closed form.  An edge f ~ A t^(kappa-1) adds A [s/kappa + int_0^inf (s
(1+x)^a + (1-s) x^a - (1+x)^(sa) x^((1-s)a)) dx], a = kappa - 1, to I^s_g
(an upper edge at 1 - s).  For 0 < kappa < 2 the two edges sum to one
expression in kappa, with t = 1 - s,

    I^s_g = (A1 s (1 - s(kappa-1)) B(s + kappa t, 2 - kappa)
             + A2 t (1 - t(kappa-1)) B(t + kappa s, 2 - kappa)) / kappa,

and on (0, 1) the paper's form in B(x, 1 - kappa), as B(x, 2 - kappa)
(1 + s(1 - kappa)) = (1 - kappa) B(x, 1 - kappa) at x = s + kappa t.  At
kappa = 1 it is A1 s + A2 t bit for bit (s + t rounds to 1 and B(1, 1) =
1), and the code evaluates that form there, with no beta function.
Elsewhere Gamma(2 - kappa) is computed once per closed form
(``_beta_at``).  At kappa = 2 the integrand falls off like 1/x; under
g = -eps^2 log eps the limit is (A1 + A2) s t / 2.  Past 2, or with no
edge, it is J s t / 2 under g = eps^2, J the Fisher information.  A
regime string only labels kappa (``_regime``).

The scaling tag is one number, the edge exponent (> 0, inf allowed) whose g
it names: 1 -> eps, 2 -> -eps^2 log eps, > 2 or inf -> eps^2, else eps^tag
(``g_value``); a family's tag is its snapped kappa (``classify_regime``).
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import families as fam_mod
from .families import fisher_information
from .quadrature import panel_nodes
from .special import _GAMMA_MAX, _GAMMA_MIN, _beta

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

# default shift ladders (times the support width): plain power scalings
# converge like powers of eps, removed by iterated extrapolation over a
# halving ladder; the -x^2 log x scaling has 1/log(eps) and eps corrections,
# fitted out in that basis over a deeper halving ladder
DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125)
DEFAULT_LOG_LADDER = tuple(1e-2 / 2.0 ** i for i in range(7))

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
    g_tag: float
    fisher: Optional[float] = None


@dataclass(frozen=True)
class ScalingProfile:
    """Rescaled limit curve s -> I^s_g plus the scaling metadata.

    ``isg_fn`` evaluates the limit at arbitrary s in [0, 1] (used by the
    bound optimizers for refinement); ``isg_unc`` is zero on closed-form
    profiles and, on extrapolated ones, the larger move of the limit when
    the first or the last rung is dropped from the fit.  An extrapolated
    profile holds its ``eps_ladder`` and its rung divergences I^s(eps_i) on
    s_grid, one row per rung, in ``rung_renyi`` (None on closed forms).
    ``table`` is the one store of (orders, I^s_g) the bound optimizers read:
    a closed form's scan orders, an extrapolated profile's s_grid and isg.
    """

    g_tag: float
    kappa: float
    s_grid: np.ndarray
    isg: np.ndarray
    isg_unc: np.ndarray
    isg_fn: Callable = None
    eps_ladder: tuple = None
    # never set; read by ``_wrap_profile`` in perfbench/tracing.py (both go with ROADMAP item 7)
    rung_fn: Callable = None
    rung_renyi: np.ndarray = None
    table: tuple = None

    @property
    def source(self):
        """"ladder" for an extrapolated profile, else "closed_form"."""
        return "closed_form" if self.eps_ladder is None else "ladder"


# ---------------------------------------------------------------------------
# scaling functions

def g_value(g_tag, eps):
    """The scaling function g of tag g_tag at eps > 0: 1 -> eps, 2 -> -eps^2
    log eps, > 2 or inf -> eps^2, else eps^tag.  ValueError where g is not
    positive and finite, as a divergence is divided by it, and on a tag
    ``kappa_of_g`` rejects."""
    eps = np.asarray(eps, dtype=float)
    out = -(eps ** 2) * np.log(eps) if g_tag == 2.0 else eps ** kappa_of_g(g_tag)
    if not np.all((out > 0.0) & (out < math.inf)):
        raise ValueError(f"g({eps}) = {out} is not positive and finite")
    return float(out) if out.ndim == 0 else out


def kappa_of_g(g_tag):
    """Exponent kappa with x^kappa = lim g(x eps)/g(eps) as eps -> 0:
    min(g_tag, 2), as g is eps^2 past 2 and -eps^2 log eps at 2 (module
    docstring).  ValueError unless the tag is a real number > 0, inf
    allowed; a bool is no tag."""
    if isinstance(g_tag, bool) or not isinstance(g_tag, numbers.Real) or not g_tag > 0:
        raise ValueError(f"scaling tag must be an edge exponent > 0 (inf allowed), "
                         f"got {g_tag!r}")
    return min(float(g_tag), 2.0)


# ---------------------------------------------------------------------------
# divergence quadrature

def _overlap_nodes(family, tp, tq):
    """Nodes over the overlap of the trimmed supports of f(. - tp) and
    f(. - tq), split at both shifts' breakpoints, each end graded for the
    family's edge there; None if disjoint."""
    lo_f, hi_f = fam_mod._trimmed_support(family)
    lo, hi = max(lo_f + tp, lo_f + tq), min(hi_f + tp, hi_f + tq)
    if not hi > lo:
        return None
    bps = [c + t for t in (tp, tq) for c in family.breakpoints]
    return panel_nodes(lo, hi, bps, fam_mod._edge_depths(family))


# below this |delta| a node enters the sweep through its moments
_SERIES_DELTA = 1e-3
# exp(x) overflows above this x
_EXP_MAX = 709.0


class _Pair(NamedTuple):
    """Sweep data of one pair (module docstring).  ``delta`` holds log p -
    log q at every node; ``swept`` holds delta and ``qw``, ``pw`` hold q w
    and p w at the nodes swept per order (0 at a node summed into the
    moments); ``amax`` is the largest |delta|, nan where both densities
    vanish at a node."""

    delta: np.ndarray
    swept: np.ndarray
    qw: np.ndarray
    pw: np.ndarray
    amax: float
    lin: float        # sum of q w expm1(delta) = (p - q) w over the swept nodes
    moments: tuple    # M_0 ... M_4 over the other nodes
    m_p: float
    m_q: float


def _edge_strips(family, tp, tq):
    """[(widths, mass) of p = f(. - tp), the same of q = f(. - tq)]: the
    strips outside the overlap where the other's support ends at a finite
    edge (past a trimmed tail both go on), widths (lower, upper) from the
    edges, -inf for none, each the shift |tq - tp| itself, and their mass
    by ``families._strip_mass``.  Overlapping pairs only: no strip spans."""
    shift = tq - tp
    a, b = family.support
    # shift > 0: p starts below q, and its strip there counts where the
    # lower edge is finite; q ends above p, likewise at the upper edge
    width = lambda w, edge: w if math.isfinite(edge) and w > 0 else -math.inf
    strips = [(width(shift, a), width(-shift, b)), (width(-shift, a), width(shift, b))]
    return [(w, fam_mod._strip_mass(family, *w)) for w in strips]


def _pair_nodes(family, tp, tq):
    """The sweep data (``_Pair``) of p = f(. - tp) and q = f(. - tq) over
    the overlap of their trimmed supports; None when disjoint.

    ``delta`` keeps one value per node: the window kernel
    ``families._log_ratio`` at the nodes' own ``dl``, ``dr`` and the
    coordinate u of the density shifted higher, negated where that is p;
    only q is evaluated, p w = q w e^delta (a custom family's q is one of
    the kernel's two passes of its ``logpdf_fn``).  A node with
    |delta| < 1e-3 is summed once into the moments M_k = sum q w delta^k,
    k = 0 ... 4, and its weights in ``qw`` and ``pw`` are set to 0; where
    such nodes are the majority, the swept nodes are gathered instead.
    ``lin`` = sum q w expm1(delta) over the swept nodes; where delta > 709,
    q is below e^-709 p, so p - q rounds to p.  m_p and m_q come from
    ``_edge_strips``.
    """
    nodes = _overlap_nodes(family, tp, tq)
    if nodes is None:
        return None
    dl = fam_mod._edge_dist(nodes.dl, 0.0, family.a)
    dr = fam_mod._edge_dist(nodes.dr, 0.0, family.b)
    u, shift = nodes.x - max(tp, tq), abs(tq - tp)
    if family.kind == "custom":
        # the kernel's two passes: at u + shift the density shifted lower,
        # at u the one shifted higher, so one of them is q
        at_lower, at_higher = fam_mod._custom_passes(family, u, dl, dr, shift)
        with np.errstate(invalid="ignore"):
            delta = at_lower - at_higher
        lq = at_higher if tq > tp else at_lower
    else:
        delta = fam_mod._log_ratio(family, u, dl, dr, shift)
        lq = fam_mod._logpdf3(family, *fam_mod._at_nodes(family, tq, nodes))
    if tq < tp:
        np.negative(delta, out=delta)
    a = np.abs(delta)
    amax = float(a.max())
    pw = np.exp(lq + delta)   # q w e^delta would overflow beyond delta = 709
    pw *= nodes.w
    qw = np.exp(lq, out=lq)
    qw *= nodes.w
    swept = delta
    moments = (0.0,) * 5
    small = a < _SERIES_DELTA
    count = np.count_nonzero(small)
    if count:
        idx = None if count == delta.size else np.flatnonzero(small)
        ds, qs = (delta, qw) if idx is None else (delta[idx], qw[idx])
        u, d2 = qs * ds, ds * ds
        moments = (float(qs.sum()), float(u.sum()), float(np.dot(u, ds)),
                   float(np.dot(u, d2)), float(np.dot(qs * d2, d2)))
        if 2 * count > delta.size:
            keep = np.flatnonzero(~small)
            swept, qw, pw = delta[keep], qw[keep], pw[keep]
        else:
            qw[idx] = 0.0
            pw[idx] = 0.0
    if amax <= _EXP_MAX:
        lin = float(np.dot(qw, np.expm1(swept)))
    else:
        hot = swept > _EXP_MAX
        lin = float(np.dot(np.where(hot, 0.0, qw), np.expm1(np.fmin(swept, _EXP_MAX)))
                    + pw[hot].sum())
    (_, m_p), (_, m_q) = _edge_strips(family, tp, tq)
    return _Pair(delta, swept, qw, pw, amax, lin, moments, m_p, m_q)


def _renyi_from_nodes(pair, s):
    """I^s at each order of s from a pair's sweep data (module docstring).
    Per order one multiply, one expm1 and one dot over the swept nodes, with
    q w and exponent s delta for s <= 1/2, p w and (s - 1) delta above (an
    exponent beyond 709 is cut there: its weight has underflowed to 0);
    then -log1p(-D) while D <= 1/2, else -log of the integral summed
    directly, +inf if that underflows."""
    _, swept, qw, pw, amax, lin, (m0, m1, m2, m3, m4), m_p, m_q = pair
    vals = []
    for si in np.atleast_1d(np.asarray(s, dtype=float)).tolist():
        c, wts = (si, qw) if si <= 0.5 else (si - 1.0, pw)
        clip = not abs(c) * amax <= _EXP_MAX
        v = c * swept
        if clip:
            np.fmin(v, _EXP_MAX, out=v)
        d = (si * m_p + (1.0 - si) * m_q + c * lin - float(np.dot(wts, np.expm1(v, out=v)))
             + si * (1.0 - si) / 2.0 * (m2 + (1.0 + si) / 3.0 * m3
                                        + (1.0 + si + si * si) / 12.0 * m4))
        if d <= 0.5:
            vals.append(max(-math.log1p(-d), 0.0))
            continue
        v = c * swept
        if clip:
            np.fmin(v, _EXP_MAX, out=v)
        total = (float(np.dot(wts, np.exp(v, out=v)))
                 + m0 + si * (m1 + si / 2.0 * (m2 + si / 3.0 * (m3 + si / 4.0 * m4))))
        vals.append(max(-math.log(total), 0.0) if total > 0.0 else math.inf)
    return np.array(vals)


def _check_s_grid(s_grid):
    """The orders s as a float array; ValueError unless there is at least
    one and they are strictly increasing inside (0, 1)."""
    s = np.asarray(s_grid, dtype=float)
    if not (s.ndim == 1 and s.size and np.all((s > 0.0) & (s < 1.0)) and np.all(np.diff(s) > 0.0)):
        raise ValueError(f"s grid must be one or more orders strictly increasing inside (0, 1), "
                         f"got {s.tolist()}")
    return s


def renyi_divergence(family, theta_p, theta_q, s):
    """I^s(f_{theta_p} || f_{theta_q}) for s in (0, 1); +inf when the shifted
    supports are disjoint (an infinite shift); ValueError on a nan shift."""
    s, = _check_s_grid([s]).tolist()
    if math.isnan(theta_p) or math.isnan(theta_q):
        raise ValueError(f"shifts must not be nan, got {theta_p} and {theta_q}")
    if theta_p == theta_q:
        return 0.0
    pair = _pair_nodes(family, float(theta_p), float(theta_q))
    if pair is None:
        return math.inf
    return float(_renyi_from_nodes(pair, s)[0])


def renyi_curve(family, eps, s_grid):
    """Curve s -> I^s(f_{-eps/2} || f_{eps/2}) on s_grid."""
    s_grid = _check_s_grid(s_grid)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    pair = _pair_nodes(family, -eps / 2.0, eps / 2.0)
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

    Ladders of tag 2 (g = -eps^2 log eps) are fitted in their asymptotic
    basis (see ``_log_weights``), the others by iterated Aitken.  ``err`` is
    the larger move of the two refits that drop the first or the last rung.
    """
    r = np.asarray(r, dtype=float)
    grows = np.all((r[1:] > r[:-1]) & (r[1:] > 1.1 * r[:-1]), axis=0)
    if np.any(grows):
        raise DivergenceError(
            f"scaled divergences grow along the ladder at {np.count_nonzero(grows)} of "
            f"{grows.size} orders; check the scaling function (rung ratios "
            f"{r[:, np.argmax(grows)].tolist()} at the first)")
    if g_tag == 2.0:
        # elementwise, rung by rung: a matrix product's bits for one order
        # would depend on how many orders are swept with it
        w = _log_weights(eps_ladder)
        value, first, last = sum(w[:, i, None] * r[i] for i in range(r.shape[0]))
    else:
        value, first, last = _aitken(r), _aitken(r[1:]), _aitken(r[:-1])
    return value, np.maximum(np.abs(first - value), np.abs(last - value))


def default_ladder(g_tag, family):
    """The default shift ladder of g_tag times the family's support width."""
    base = DEFAULT_LOG_LADDER if g_tag == 2.0 else DEFAULT_LADDER
    return tuple(e * fam_mod._scale(family) for e in base)


def _ladder(eps_ladder, g_tag, family):
    """The shift ladder as a float tuple (the default one when None); it must
    be strictly decreasing with at least four positive rungs, the first
    narrower than the trimmed support, so every centered pair overlaps."""
    if eps_ladder is None:
        eps_ladder = default_ladder(g_tag, family)
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if len(eps_ladder) < 4 or np.any(np.diff(eps_ladder) >= 0) or eps_ladder[-1] <= 0:
        raise ValueError("eps ladder must be >= 4 strictly decreasing positive rungs")
    lo, hi = fam_mod._trimmed_support(family)
    if not eps_ladder[0] < hi - lo:
        raise ValueError(f"first rung eps={eps_ladder[0]} is not narrower than the "
                         f"support width {hi - lo}")
    return eps_ladder


# ---------------------------------------------------------------------------
# closed form in kappa

def _beta_at(y):
    """x -> B(x, y) at a float y, on a float x or elementwise on an array:
    ``special._beta``'s Gamma ratio in its operand order, with Gamma(y)
    computed once, and ``_beta`` itself where that ratio is not its branch
    (nan, x + y >= 171, an argument <= 1e-300, an overflow)."""
    gy = math.gamma(y) if _GAMMA_MIN < y < _GAMMA_MAX else math.nan

    def one(x):
        if x > _GAMMA_MIN and x + y < _GAMMA_MAX:
            b = math.gamma(x) * gy / math.gamma(x + y)
            if math.isfinite(b):
                return b
        return _beta(x, y)

    return _elementwise(one)


def _elementwise(one):
    """A function of a float that maps an array elementwise too, in one
    loop of Python floats, so an array's values are the floats' bit for
    bit."""
    def at(x):
        if isinstance(x, float):
            return one(x)
        x = np.asarray(x, dtype=float)
        return np.array([one(v) for v in x.ravel().tolist()]).reshape(x.shape)

    return at


def _snap(kappa):
    """kappa, or 1.0 or 2.0 when within 1e-9 of either."""
    return 1.0 if abs(kappa - 1.0) <= 1e-9 else 2.0 if abs(kappa - 2.0) <= 1e-9 else kappa


def _regime(kappa):
    """The label of an edge exponent kappa, snapped; inf for no power-law edge."""
    k = _snap(kappa)
    if k > 2.0:
        return "regular" if k == math.inf else "semi_regular"
    return {1.0: "kappa_one", 2.0: "kappa_two"}.get(k, "power_mid" if k > 1.0 else "power_low")


def _check_regime(regime, A1, A2, kappa, fisher):
    """The closed forms' kappa as a float, snapped; ValueError unless the
    amplitudes are finite and >= 0, and the regime is regular or
    semi_regular at kappa = 2 with a finite ``fisher`` > 0, or is the label
    ``_regime(kappa)`` of a kappa in (0, 2] with an amplitude > 0 and no
    ``fisher``."""
    k = _snap(float(kappa))
    if regime in ("regular", "semi_regular"):
        ok = k == 2.0 and fisher is not None and 0.0 < fisher < math.inf
    else:
        ok = 0.0 < k <= 2.0 and regime == _regime(k) and (A1 > 0.0 or A2 > 0.0) and fisher is None
    if not (ok and 0.0 <= A1 < math.inf and 0.0 <= A2 < math.inf):
        raise ValueError(f"regime {regime!r} does not fit kappa={k}, A1={A1}, A2={A2}, "
                         f"fisher={fisher}: regular and semi_regular need kappa 2 and a fisher "
                         "information > 0, the others are the label of a kappa in (0, 2] with "
                         "amplitudes >= 0, one > 0, and no fisher")
    return k


def closed_form_isg(regime, A1, A2, kappa, s, fisher=None):
    """Closed-form I^s_g at the edge exponent kappa, ``regime`` its label;
    vectorized over s.  The module docstring's expression below kappa = 2,
    A1 s + A2 (1 - s) at 1, C s (1 - s) / 2 at 2, with C = A1 + A2, or
    ``fisher`` in the regular and semi_regular regimes.  Values extend
    continuously to s in {0, 1}.  A float s gives a float, computed in
    Python floats with ``special._beta``'s Gamma ratio; an array gives an
    array of the same values.
    """
    k = _check_regime(regime, A1, A2, kappa, fisher)
    return _closed_isg(_closed_form(k, A1, A2, fisher), s)


def _closed_form(k, A1, A2, fisher):
    """The closed form at a kappa k that ``_check_regime`` passed, as a
    function of s and t = 1 - s (floats, or arrays elementwise), with k - 1
    and Gamma(2 - k) computed once."""
    if k == 2.0:
        c = A1 + A2 if fisher is None else fisher
        return lambda s, t: c * s * t / 2.0
    if k == 1.0:
        return lambda s, t: A1 * s + A2 * t
    km1, beta = k - 1.0, _beta_at(2.0 - k)
    return lambda s, t: (A1 * s * (1.0 - s * km1) * beta(s + k * t)
                         + A2 * t * (1.0 - t * km1) * beta(t + k * s)) / k


def _closed_isg(form, s):
    """A ``_closed_form`` at s in [0, 1]: a float at a float s, else an
    array (a float at a 0-d one)."""
    if isinstance(s, float):
        s = float(s)
        outside = s < 0 or s > 1  # nan passes, and comes out as nan
    else:
        s = np.asarray(s, dtype=float)
        outside = (s < 0).any() or (s > 1).any()
    if outside:
        raise ValueError("s must lie in [0, 1]")
    out = form(s, 1.0 - s)
    if isinstance(s, float):
        return float(out)
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def classify_regime(family):
    """Regime label of a family, its effective (kappa, A1, A2), its scaling
    tag (the snapped edge exponent, inf with no power-law edge) and, past
    kappa = 2, the Fisher information.

    kappa is the smallest exponent over the edges with A > 0, inf with
    none.  The sharper edge dominates the small-shift divergence, and the
    other side's amplitude is effectively zero at this scaling.  Past 2
    the limit is Fisher's, reported as kappa 2 with both amplitudes 0.
    """
    edges = ((family.kappa1, family.A1), (family.kappa2, family.A2))
    k = min((kap for kap, amp in edges if amp > 0), default=math.inf)
    a1, a2 = (amp if amp > 0 and kap <= k + 1e-9 else 0.0 for kap, amp in edges)
    k = _snap(k)
    if k > 2.0:
        return RegimeInfo(_regime(k), 2.0, 0.0, 0.0, k, fisher=fisher_information(family))
    return RegimeInfo(_regime(k), k, a1, a2, k)


# ---------------------------------------------------------------------------
# scaling profiles

@functools.lru_cache(maxsize=None)
def _default_s_grid():
    """The default orders: 39 evenly spaced on [0.025, 0.975] and four
    nearer each edge; built on first use, and read-only."""
    body = np.linspace(0.025, 0.975, 39)
    edges = np.array([1e-4, 1e-3, 5e-3, 0.01, 0.99, 0.995, 0.999, 0.9999])
    grid = np.unique(np.concatenate([body, edges]))
    grid.flags.writeable = False
    return grid


# the bound optimizers' suprema over the open interval take these probes
# nearer the edges than any default order, since several regimes attain
# the bound at the boundary
_EDGE_PROBES = (1e-7, 1e-5, 1.0 - 1e-5, 1.0 - 1e-7)


def _scan_points(s_grid, include_probes):
    """The orders a bound optimizer scans: s_grid, with the edge probes if
    asked, clipped to [1e-9, 1 - 1e-9], sorted and unique."""
    pts = np.concatenate([s_grid, _EDGE_PROBES]) if include_probes else s_grid
    return np.unique(np.clip(pts, 1e-9, 1.0 - 1e-9))


def profile_from_closed_form(regime, A1, A2, kappa, fisher=None, s_grid=None):
    """Analytic scaling profile of ``closed_form_isg``, under the g of tag
    kappa (tag inf, g = eps^2, with ``fisher``).  The closed form is
    evaluated in one array call on s_grid and the bound optimizers' scan
    orders (``_scan_points`` with the edge probes); the scan orders and
    their values make its ``table``."""
    k = _check_regime(regime, A1, A2, kappa, fisher)
    s_grid = _default_s_grid() if s_grid is None else _check_s_grid(s_grid)
    form = _closed_form(k, A1, A2, fisher)
    fn = lambda s: _closed_isg(form, s)
    scan = _scan_points(s_grid, include_probes=True)
    orders = np.union1d(s_grid, scan)  # the scan, unless the clip moved a grid order
    vals = fn(orders)
    isg = vals[np.searchsorted(orders, s_grid)]
    return ScalingProfile(
        g_tag=k if fisher is None else math.inf, kappa=k,
        s_grid=s_grid, isg=isg, isg_unc=np.zeros_like(isg), isg_fn=fn,
        table=(scan, vals[np.searchsorted(orders, scan)]),
    )


def profile_from_family(family, g_tag=None, s_grid=None, eps_ladder=None):
    """Scaling profile tabulated from quadrature ladders of the family,
    under the g of ``g_tag`` (1 -> eps, 2 -> -eps^2 log eps, > 2 or inf ->
    eps^2, else eps^tag), by default the family's ``classify_regime`` tag.

    Each rung's centered pair is built once, so ``isg_fn`` evaluates
    cheaply at arbitrary s: one sweep of every rung at its orders,
    extrapolated.  The s_grid tabulation is the profile's ``table``, which
    the bound optimizers scan; the orders they refine are new ones, so
    ``isg_fn`` keeps no memo.
    """
    if g_tag is None:
        g_tag = classify_regime(family).g_tag
    kappa = kappa_of_g(g_tag)
    eps_ladder = _ladder(eps_ladder, g_tag, family)
    s_grid = _default_s_grid() if s_grid is None else _check_s_grid(s_grid)

    pairs = [_pair_nodes(family, -eps / 2.0, eps / 2.0) for eps in eps_ladder]
    gvals = np.array([g_value(g_tag, eps) for eps in eps_ladder])[:, None]

    def limits(s_list):
        """Rung divergences at the orders s_list, max(limit, 0) and err."""
        renyi = np.array([_renyi_from_nodes(p, s_list) for p in pairs])
        vals, errs = _extrapolate(renyi / gvals, eps_ladder, g_tag)
        return renyi, np.maximum(vals, 0.0), errs

    rung_renyi, isg, unc = limits(s_grid.tolist())

    def fn(s):
        vals = limits(np.atleast_1d(np.clip(s, 1e-9, 1.0 - 1e-9)).tolist())[1]
        return float(vals[0]) if np.ndim(s) == 0 else vals

    return ScalingProfile(
        g_tag=g_tag, kappa=kappa,
        s_grid=s_grid, isg=isg, isg_unc=unc, isg_fn=fn,
        eps_ladder=eps_ladder, rung_renyi=rung_renyi, table=(s_grid, isg),
    )
