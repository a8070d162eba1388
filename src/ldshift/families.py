"""Location-shift families f(x - theta): construction with analytic edge
metadata (kappa_i, A_i), density/score evaluation, seeded sampling, the
masses of f, and Fisher information.

Families are standardized (scale 1, left support edge at 0 where finite);
the shift theta is applied at evaluation time.  Edge metadata describes the
power behavior f(x) ~ A1 (x-a)^(kappa1-1) near a and A2 (b-x)^(kappa2-1)
near b, which determines the scaling regime of the divergence asymptotics.

Every mass of f (``cdf``, the tail masses of the order-statistic Monte
Carlo, the edge strips of the order-statistic rates, a custom family's
normalisation) is read from one table per family and end, ``_mass_table``,
built once on the family's quadrature cells; ``_mass_within`` reads it
forward and ``_quantile`` inverts it.  No kind has a CDF of its own.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import _WG, _XG, edge_depth, panel_edges, panel_nodes
from .special import beta_fn, log_beta, log_gamma

__all__ = [
    "DensityFamily",
    "SampleBatch",
    "make_family",
    "log_density",
    "score",
    "cdf",
    "sample",
    "fisher_information",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DensityFamily:
    """Immutable standardized density with location-shift semantics.

    ``regular`` marks families with no power-law support edges (gaussian);
    for those the edge fields are unused.  ``breakpoints`` lists interior
    kinks of f (quadrature splits there).
    """

    kind: str
    params: tuple
    support: tuple
    kappa1: float = float("nan")
    A1: float = 0.0
    kappa2: float = float("nan")
    A2: float = 0.0
    regular: bool = False
    log_concave: bool = False
    breakpoints: tuple = ()
    logpdf_fn: Optional[Callable] = field(default=None, repr=False)
    sampler_fn: Optional[Callable] = field(default=None, repr=False)

    @property
    def a(self):
        return self.support[0]

    @property
    def b(self):
        return self.support[1]


@dataclass(frozen=True)
class SampleBatch:
    """n i.i.d. draws from f(x - theta) under a fixed seed."""

    theta: float
    values: np.ndarray
    seed: int


def make_family(kind, params=(), **custom):
    """Build a family with analytically filled edge metadata.

    kinds: uniform | beta(p, q) | gamma(k) | weibull(k) | gaussian(sigma=1)
    | triangular(c) | custom.  Custom families pass keyword arguments:
    logpdf (vectorized, standardized coordinates), support, edge
    (kappa1, A1, kappa2, A2), log_concave, and optionally breakpoints and
    sampler(rng, n); any other keyword is a ValueError.  The stated edge
    metadata and the total mass are validated at build time.  A family's
    masses, its CDF included, come from its quadrature (``_mass_table``),
    whatever its kind.
    """
    params = tuple(float(p) for p in params)
    if kind == "uniform":
        if params not in ((), (0.0, 1.0)):
            raise ValueError("uniform is standardized on (0, 1); shift via theta")
        return DensityFamily(
            kind="uniform", params=(), support=(0.0, 1.0),
            kappa1=1.0, A1=1.0, kappa2=1.0, A2=1.0, log_concave=True,
        )
    if kind == "beta":
        if len(params) != 2 or min(params) <= 0:
            raise ValueError(f"beta requires shapes p, q > 0, got {params}")
        p, q = params
        inv_b = 1.0 / beta_fn(p, q)
        return DensityFamily(
            kind="beta", params=params, support=(0.0, 1.0),
            kappa1=p, A1=inv_b, kappa2=q, A2=inv_b,
            log_concave=(p >= 1.0 and q >= 1.0),
        )
    if kind == "gamma":
        if len(params) != 1 or params[0] <= 0:
            raise ValueError(f"gamma requires shape k > 0, got {params}")
        k = params[0]
        return DensityFamily(
            kind="gamma", params=params, support=(0.0, math.inf),
            kappa1=k, A1=math.exp(-log_gamma(k)), kappa2=math.inf, A2=0.0,
            log_concave=(k >= 1.0),
        )
    if kind == "weibull":
        if len(params) != 1 or params[0] <= 0:
            raise ValueError(f"weibull requires shape k > 0, got {params}")
        k = params[0]
        return DensityFamily(
            kind="weibull", params=params, support=(0.0, math.inf),
            kappa1=k, A1=k, kappa2=math.inf, A2=0.0,
            log_concave=(k >= 1.0),
        )
    if kind == "gaussian":
        sigma = params[0] if params else 1.0
        if sigma <= 0:
            raise ValueError(f"gaussian requires sigma > 0, got {sigma}")
        return DensityFamily(
            kind="gaussian", params=(sigma,), support=(-math.inf, math.inf),
            regular=True, log_concave=True,
        )
    if kind == "triangular":
        c = params[0] if params else 0.5
        if not 0.0 < c < 1.0:
            raise ValueError(f"triangular mode must lie in (0, 1), got {c}")
        return DensityFamily(
            kind="triangular", params=(c,), support=(0.0, 1.0),
            kappa1=2.0, A1=2.0 / c, kappa2=2.0, A2=2.0 / (1.0 - c),
            log_concave=True, breakpoints=(c,),
        )
    if kind == "custom":
        return _make_custom(custom)
    raise ValueError(f"unknown family kind {kind!r}")


_CUSTOM_KEYS = frozenset({"logpdf", "support", "edge", "log_concave", "breakpoints",
                          "sampler"})


def _make_custom(custom):
    unknown = sorted(set(custom) - _CUSTOM_KEYS)
    if unknown:
        raise ValueError(f"custom family got unknown argument(s) {', '.join(unknown)}")
    try:
        logpdf = custom["logpdf"]
        support = tuple(float(v) for v in custom["support"])
        k1, a1, k2, a2 = (float(v) for v in custom["edge"])
        log_concave = bool(custom["log_concave"])
    except KeyError as exc:
        raise ValueError(f"custom family missing required argument {exc}") from exc
    fam = DensityFamily(
        kind="custom", params=(), support=support,
        kappa1=k1, A1=a1, kappa2=k2, A2=a2, log_concave=log_concave,
        breakpoints=tuple(custom.get("breakpoints", ())),
        logpdf_fn=logpdf, sampler_fn=custom.get("sampler"),
    )
    _validate_custom(fam)
    return fam


def _validate_custom(fam):
    a, b = fam.support
    scale = (b - a) if math.isfinite(b - a) else 1.0
    h = 1e-4 * scale
    # stated edge metadata must match the density's actual edge expansion
    for dist, kap, amp, side in ((h, fam.kappa1, fam.A1, "left"),
                                 (h, fam.kappa2, fam.A2, "right")):
        if amp <= 0:
            continue
        u = a + dist if side == "left" else b - dist
        if not math.isfinite(u):
            continue
        ratio = math.exp(float(fam.logpdf_fn(np.asarray(u)))) / (amp * dist ** (kap - 1.0))
        if not 0.9 <= ratio <= 1.1:
            raise ValueError(
                f"custom edge metadata mismatch on {side} edge: "
                f"f/(A d^(kappa-1)) = {ratio:.4f} at distance {dist:g}"
            )
    total = _mass_table(fam, False).mass[-1]
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"custom density integrates to {total:.8f}, not 1")


def _at_nodes(fam, theta, nodes):
    """(u, dl, dr) of f(x - theta) at quadrature nodes: distances to the
    shifted edges, exact where an edge bounds the nodes; inf if unbounded."""
    a, b = fam.support
    u = nodes.x - theta
    dl = nodes.dl + (nodes.lo - (a + theta)) if math.isfinite(a) else np.full_like(u, math.inf)
    dr = nodes.dr + ((b + theta) - nodes.hi) if math.isfinite(b) else np.full_like(u, math.inf)
    return u, dl, dr


def _power_edge(fam, upper):
    """(kappa, A) of the power edge at the lower (upper) end of the support;
    None where nothing is singular there: a trimmed infinite tail, a regular
    family, an edge with A = 0."""
    end, kappa, amp = (fam.b, fam.kappa2, fam.A2) if upper else (fam.a, fam.kappa1, fam.A1)
    return (kappa, amp) if math.isfinite(end) and not fam.regular and amp > 0 else None


def _edge_depths(fam, drop=0.0):
    """Quadrature depths (left, right) toward the ends of the trimmed support
    for an integrand whose mass exponent at a power edge is kappa - drop
    (kappa for f itself)."""
    def depth(upper):
        edge = _power_edge(fam, upper)
        return edge_depth(None if edge is None else edge[0] - drop)

    return depth(False), depth(True)


@functools.lru_cache(maxsize=256)
def _trimmed_support(fam, tiny=1e-16):
    """Finite integration window: infinite tails cut where f < tiny * peak.
    Memoized per family (families are frozen and hashable)."""
    a, b = fam.support
    lo = a if math.isfinite(a) else None
    hi = b if math.isfinite(b) else None
    if lo is not None and hi is not None:
        return lo, hi
    # probe a peak value, then expand until the density falls below cutoff
    probe = np.linspace(-1.0, 10.0, 200) if lo is None else lo + np.linspace(1e-3, 10.0, 200)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lp = _logpdf_plain(fam, probe)
    peak = float(np.max(lp))
    floor = peak + math.log(tiny)
    if hi is None:
        hi = max(1.0, float(probe[np.argmax(lp)]) + 1.0)
        while float(_logpdf_plain(fam, np.asarray(hi))) > floor:
            hi *= 2.0
    if lo is None:
        lo = min(-1.0, float(probe[np.argmax(lp)]) - 1.0)
        while float(_logpdf_plain(fam, np.asarray(lo))) > floor:
            lo *= 2.0
    return lo, hi


def _scale(fam):
    a, b = fam.support
    return (b - a) if math.isfinite(b - a) else 1.0


def _dists(fam, u):
    """Distances of u to the left and right support edges; inf on an
    unbounded side."""
    a, b = fam.support
    dl = u - a if math.isfinite(a) else np.full_like(u, math.inf)
    dr = b - u if math.isfinite(b) else np.full_like(u, math.inf)
    return dl, dr


def _logpdf_plain(fam, u):
    u = np.asarray(u, dtype=float)
    return _logpdf3(fam, u, *_dists(fam, u))


def _logpdf3(fam, u, dl, dr):
    """log f(u) from (u, dist-to-left-edge, dist-to-right-edge).

    Edge behavior is computed from the distances, which callers (the
    quadrature) keep exact; -inf outside the open support.
    """
    u = np.asarray(u, dtype=float)
    dl = np.asarray(dl, dtype=float)
    dr = np.asarray(dr, dtype=float)
    inside = (dl > 0) & (dr > 0)
    out = np.full(u.shape, -math.inf)
    if not np.any(inside):
        return out
    ui, li, ri = u[inside], dl[inside], dr[inside]
    kind = fam.kind
    with np.errstate(divide="ignore", over="ignore"):
        if kind == "uniform":
            val = np.zeros_like(ui)
        elif kind == "beta":
            p, q = fam.params
            val = (p - 1.0) * np.log(li) + (q - 1.0) * np.log(ri) - log_beta(p, q)
        elif kind == "gamma":
            k, = fam.params
            val = (k - 1.0) * np.log(li) - li - log_gamma(k)
        elif kind == "weibull":
            k, = fam.params
            val = math.log(k) + (k - 1.0) * np.log(li) - li ** k
        elif kind == "gaussian":
            s, = fam.params
            val = -0.5 * (ui / s) ** 2 - math.log(s * _SQRT_2PI)
        elif kind == "triangular":
            c, = fam.params
            val = np.where(ui <= c,
                           np.log(2.0 * li / c),
                           np.log(2.0 * ri / (1.0 - c)))
        elif kind == "custom":
            val = np.asarray(fam.logpdf_fn(ui), dtype=float)
            # inside the last ~1e-9 of the support the reconstructed u has
            # lost the edge distance to rounding; the declared power
            # expansion is exact there to o(1) and keeps the tails finite
            cut = 1e-9 * _scale(fam)
            if fam.A1 > 0:
                close_l = li < cut
                if np.any(close_l):
                    val = np.where(close_l, math.log(fam.A1) + (fam.kappa1 - 1.0) * np.log(li), val)
            if fam.A2 > 0:
                close_r = ri < cut
                if np.any(close_r):
                    val = np.where(close_r, math.log(fam.A2) + (fam.kappa2 - 1.0) * np.log(ri), val)
        else:  # pragma: no cover
            raise ValueError(f"unknown family kind {kind!r}")
    out[inside] = val
    return out


def _score3(fam, u, dl, dr):
    """f'(u)/f(u) from (u, edge distances); closed forms per kind."""
    u = np.asarray(u, dtype=float)
    dl = np.asarray(dl, dtype=float)
    dr = np.asarray(dr, dtype=float)
    kind = fam.kind
    if kind == "uniform":
        return np.zeros_like(u)
    if kind == "beta":
        p, q = fam.params
        return (p - 1.0) / dl - (q - 1.0) / dr
    if kind == "gamma":
        k, = fam.params
        return (k - 1.0) / dl - 1.0
    if kind == "weibull":
        k, = fam.params
        return (k - 1.0) / dl - k * dl ** (k - 1.0)
    if kind == "gaussian":
        s, = fam.params
        return -u / s ** 2
    if kind == "triangular":
        c, = fam.params
        return np.where(u <= c, 1.0 / dl, -1.0 / dr)
    if kind == "custom":
        # central difference at a scale-aware step; declared edge expansion
        # where the step would leave the support
        h = np.minimum(1e-6 * _scale(fam), 0.5 * np.minimum(dl, dr))
        lp = fam.logpdf_fn
        out = (np.asarray(lp(u + h), dtype=float)
               - np.asarray(lp(u - h), dtype=float)) / (2.0 * h)
        cut = 1e-9 * _scale(fam)
        if fam.A1 > 0:
            out = np.where(dl < cut, (fam.kappa1 - 1.0) / dl, out)
        if fam.A2 > 0:
            out = np.where(dr < cut, -(fam.kappa2 - 1.0) / dr, out)
        return out
    raise ValueError(f"unknown family kind {kind!r}")  # pragma: no cover


def log_density(family, theta, x):
    """log f(x - theta); -inf signals a point outside the shifted support."""
    x = np.asarray(x, dtype=float)
    u = x - theta
    out = _logpdf_plain(family, u)
    return float(out) if out.ndim == 0 else out


def score(family, theta, x):
    """f'(x - theta)/f(x - theta) inside the open shifted support."""
    x = np.asarray(x, dtype=float)
    u = x - theta
    dl, dr = _dists(family, u)
    if np.any(dl <= 0) or np.any(dr <= 0):
        raise ValueError("score requested at or outside a support endpoint")
    out = _score3(family, u, dl, dr)
    return float(out) if out.ndim == 0 else out


def cdf(family, u):
    """Standardized CDF F(u) of the unshifted density, one rule for every
    kind: the mass within u - lo of the lower end of the trimmed support
    [lo, hi] where that is at most 1/2, else 1 minus the mass within hi - u
    of the upper end, both read from the family's mass table
    (``_mass_within``), so F and 1 - F keep their relative precision in both
    tails.  F is 0 below lo and 1 above hi (an infinite tail is trimmed
    where f falls below 1e-16 of its peak).
    """
    u = np.asarray(u, dtype=float)
    lo, hi = _trimmed_support(family)
    below = _mass_within(family, u - lo)
    out = np.where(below <= 0.5, below, 1.0 - _mass_within(family, hi - u, upper=True))
    return float(out) if out.ndim == 0 else out


def sample(family, theta, n, seed):
    """n independent draws from f(x - theta); deterministic under the seed.

    Inverse-CDF transforms where closed forms exist (uniform, weibull,
    triangular), numpy's standard generators otherwise.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    values = _draw(family, rng, int(n)) + theta
    return SampleBatch(theta=float(theta), values=values, seed=int(seed))


def _draw(family, rng, n):
    kind = family.kind
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, n)
    if kind == "beta":
        p, q = family.params
        return rng.beta(p, q, n)
    if kind == "gamma":
        k, = family.params
        return rng.standard_gamma(k, n)
    if kind == "weibull":
        k, = family.params
        return (-np.log1p(-rng.uniform(0.0, 1.0, n))) ** (1.0 / k)
    if kind == "gaussian":
        s, = family.params
        return s * rng.standard_normal(n)
    if kind == "triangular":
        c, = family.params
        v = rng.uniform(0.0, 1.0, n)
        return np.where(v <= c, np.sqrt(v * c), 1.0 - np.sqrt((1.0 - v) * (1.0 - c)))
    if kind == "custom":
        if family.sampler_fn is None:
            raise ValueError("custom family has no sampler")
        return np.asarray(family.sampler_fn(rng, n), dtype=float)
    raise ValueError(f"unknown family kind {kind!r}")  # pragma: no cover


def _from_end(fam, t, upper):
    """(u, dl, dr) at distances t from the lower (upper) end of the trimmed
    support; dl, dr are the distances to the support edges, inf if unbounded."""
    lo, hi = _trimmed_support(fam)
    rest = (hi - lo) - t
    u, dl, dr = (hi - t, rest, t) if upper else (lo + t, t, rest)
    a, b = fam.support
    if not math.isfinite(a):
        dl = np.full_like(u, math.inf)
    if not math.isfinite(b):
        dr = np.full_like(u, math.inf)
    return u, dl, dr


def _gauss_mass(fam, upper, t0, t1):
    """Mass of f between distances t0 and t1 from the lower (upper) end of
    the trimmed support by one Gauss rule of the quadrature's order: exact to
    rounding on a span inside one cell, away from the innermost cell of a
    power edge."""
    half = 0.5 * (t1 - t0)
    t = (t0 + half)[..., None] + half[..., None] * _XG
    f = np.exp(_logpdf3(fam, *_from_end(fam, t, upper)))
    return half * (f @ _WG)


@dataclass(frozen=True)
class _MassTable:
    """The mass of f counted from one end of its trimmed support: ``t`` holds
    the distances from that end of every cell edge and Gauss node of the
    family's quadrature, ascending, and ``mass`` the mass between the end and
    each.  ``t[inner]`` is the far edge of the innermost cell; at a power
    edge (kappa, A) the mass within t of the end there is A t^kappa / kappa
    (kappa nan at any other end)."""

    t: np.ndarray
    mass: np.ndarray
    kappa: float
    amp: float
    inner: int


@functools.lru_cache(maxsize=64)
def _mass_table(fam, upper):
    """The mass table counted from the lower (upper) end: cell masses from
    the family's quadrature nodes, summed from that end (the mass above is
    never 1 - the mass below), and the mass from a cell's near edge to each
    of its nodes by ``_gauss_mass``.  In the innermost cell of a power edge,
    where the Gauss rule does not resolve d^(kappa - 1), both are the edge's
    power law, exact to O(t[inner]) relative.  Built on first use and kept
    per family."""
    lo, hi = _trimmed_support(fam)
    nodes = panel_nodes(lo, hi, fam.breakpoints, _edge_depths(fam))
    edge_dl, edge_dr = panel_edges(lo, hi, fam.breakpoints, _edge_depths(fam))
    cells = edge_dl.size - 1
    f = np.exp(_logpdf3(fam, *_at_nodes(fam, 0.0, nodes)))
    cell_mass = (f * nodes.w).reshape(cells, -1).sum(axis=1)
    if upper:
        edges, t_nodes = edge_dr[::-1], nodes.dr.reshape(cells, -1)[::-1, ::-1]
        cell_mass = cell_mass[::-1]
    else:
        edges, t_nodes = edge_dl, nodes.dl.reshape(cells, -1)
    # one node column at a time: a (cells, nodes, nodes) array of density
    # evaluations would set the peak memory of a whole command
    part = np.stack([_gauss_mass(fam, upper, edges[:-1], col) for col in t_nodes.T], axis=1)
    kappa, amp = _power_edge(fam, upper) or (math.nan, math.nan)
    if math.isfinite(kappa):
        cell_mass[0] = amp / kappa * edges[1] ** kappa
        part[0] = amp / kappa * t_nodes[0] ** kappa
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    t = np.concatenate([np.hstack([edges[:-1, None], t_nodes]).ravel(), edges[-1:]])
    mass = np.concatenate([np.hstack([cum[:-1, None], cum[:-1, None] + part]).ravel(),
                           cum[-1:]])
    return _MassTable(t=t, mass=mass, kappa=kappa, amp=amp, inner=t_nodes.shape[1] + 1)


def _bracket_index(tab, p):
    """Index i per mass p with tab.mass[i - 1] < p <= tab.mass[i]."""
    return np.clip(np.searchsorted(tab.mass, p), 1, tab.t.size - 1)


def _mass_within(fam, t, upper=False):
    """Mass of f within distance t of the lower (upper) end of its trimmed
    support, elementwise: 0 for t <= 0, the whole mass beyond the other end.
    t is bracketed by ``searchsorted`` between consecutive points of the mass
    table and the Gauss integral of f from the lower bracket point is added;
    in the innermost cell of a power edge the table's power law is used, as
    ``_solve_from_end`` does.  Exact to ulps of the mass on the half of the
    support nearer that end, and only there: past it, near a singular far
    edge, the distance to that edge is only known to ulps of t, which leaves
    the upper-end mass of beta(0.3, 0.3) 6.5e-10 relative off at
    t = 1 - 1.16e-12.  ``cdf`` switches ends at 1/2 for that reason."""
    tab = _mass_table(fam, upper)
    t = np.clip(np.asarray(t, dtype=float), 0.0, tab.t[-1])
    i = np.clip(np.searchsorted(tab.t, t, side="right"), 1, tab.t.size - 1)
    mass = tab.mass[i - 1] + _gauss_mass(fam, upper, tab.t[i - 1], t)
    if math.isfinite(tab.kappa):
        mass = np.where(i <= tab.inner, tab.amp / tab.kappa * t ** tab.kappa, mass)
    return mass


def _bracket(fam, p, upper=False):
    """Distances (t0, t1) from the lower (upper) end of the trimmed support
    between which the mass below (above) reaches p: consecutive points of the
    family's mass table."""
    tab = _mass_table(fam, upper)
    i = _bracket_index(tab, p)
    return tab.t[i - 1], tab.t[i]


_NEWTON_STEPS = 8


def _solve_from_end(fam, q, upper):
    """Distances from the lower (upper) end of the trimmed support at which
    the mass counted from that end is q."""
    tab = _mass_table(fam, upper)
    i = _bracket_index(tab, q)
    t0, t1, m0, m1 = tab.t[i - 1], tab.t[i], tab.mass[i - 1], tab.mass[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t0 + (t1 - t0) * np.nan_to_num(np.clip((q - m0) / (m1 - m0), 0.0, 1.0))
    if math.isfinite(tab.kappa):
        inner = i <= tab.inner
        t[inner] = (tab.kappa / tab.amp * q[inner]) ** (1.0 / tab.kappa)
        rest = np.flatnonzero(~inner)
        t0, t1, m0, q = t0[rest], t1[rest], m0[rest], q[rest]
    else:
        rest = slice(None)
    tr = t[rest]
    for _ in range(_NEWTON_STEPS):
        f = np.exp(_logpdf3(fam, *_from_end(fam, tr, upper)))
        excess = m0 + _gauss_mass(fam, upper, t0, tr) - q
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f > 0.0, excess / f, 0.0)
        new = np.clip(tr - step, t0, t1)
        done = np.all(np.abs(new - tr) <= 1e-15 * new)
        tr = new
        if done:
            break
    t[rest] = tr
    return t


def _quantile(fam, p, upper=False):
    """Points where the mass of f below them (above them when ``upper``) is
    p, as (u, dl, dr) arrays: the standardized point and its distances to
    the support edges (inf on an open side).

    A mass above 1/2 is solved from the other end with 1 - p, exact in
    floating point there, so the distance to the nearer edge keeps its
    relative precision on both sides.  Each mass is bracketed by
    ``searchsorted`` between two consecutive points (cell edges and Gauss
    nodes) of the family's mass table, interpolated linearly, then finished
    by Newton steps on the Gauss integral of f from the lower bracket point,
    in distance from the end.  Inside the innermost cell of a power edge,
    whose mass is below 2^-64 at the quadrature's edge depths, the power law
    A d^kappa / kappa is inverted instead (relative error O(d0), d0 the
    cell's width: 2^-31 at kappa = 3).
    """
    p = np.asarray(p, dtype=float)
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    from_top = flip != upper
    u, dl, dr = np.empty_like(q), np.empty_like(q), np.empty_like(q)
    for side in (False, True):
        sel = from_top == side
        if sel.any():
            u[sel], dl[sel], dr[sel] = _from_end(fam, _solve_from_end(fam, q[sel], side), side)
    return u, dl, dr


def fisher_information(family):
    """J = integral of (f')^2 / f over the support; +inf when divergent.

    A power edge with kappa <= 2 makes the integrand ~ d^(kappa-3)
    non-integrable (logarithmically at kappa = 2), so those families report
    the infinite marker without quadrature; above it the integrand's mass
    exponent is kappa - 2, which sets the edge depth.
    """
    if not family.regular:
        if family.A1 > 0 and family.kappa1 <= 2.0:
            return math.inf
        if family.A2 > 0 and family.kappa2 <= 2.0:
            return math.inf
    lo, hi = _trimmed_support(family)
    nodes = panel_nodes(lo, hi, family.breakpoints, _edge_depths(family, drop=2.0))
    at = _at_nodes(family, 0.0, nodes)
    f = np.exp(_logpdf3(family, *at))
    sc = _score3(family, *at)
    return float(np.sum(sc * sc * f * nodes.w))
