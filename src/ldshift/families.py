"""Location-shift families f(x - theta): construction with analytic edge
metadata (kappa_i, A_i), density/score evaluation, seeded sampling, the
masses of f, and Fisher information.

Families are standardized (scale 1, left support edge at 0 where finite);
the shift theta is applied at evaluation time.  Edge metadata describes the
power behavior f(x) ~ A1 (x-a)^(kappa1-1) near a and A2 (b-x)^(kappa2-1)
near b, which determines the scaling regime of the divergence asymptotics.

A built-in kind is one entry of ``_KINDS``: its parameter check with edge
metadata, log f, score, sampler and shift-exact log-ratio
log f(u + shift) - log f(u) in a pair's window frame (``_log_ratio``),
each written once; ``_log_ratio_rows`` sums the kernel over the rows of a
matrix, for the LR estimator and the likelihood test.  The ``custom`` kind
is the one branch beside that table in each dispatcher.

Every mass of f (``cdf``, the tail masses of the order-statistic Monte
Carlo, the edge strips of the order-statistic rates, a custom family's
normalisation) is read from one table per family and end, ``_mass_table``,
built once on the cells of the family's quadrature nodes; ``_mass_within``
reads it forward, ``_near_mass`` from the nearer end (``cdf``, the convex
combination's boundaries), ``_strip_mass`` sums it over edge strips (for
the Monte Carlo and the Renyi sweep alike) and ``_quantile`` inverts it.
No kind has a CDF of its own.
"""

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quadrature import _WG, _XG, edge_depth, panel_nodes
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

    An edge with A = 0 carries no power law.  ``breakpoints`` lists
    interior kinks of f (quadrature splits there).
    """

    kind: str
    params: tuple
    support: tuple
    kappa1: float = float("nan")
    A1: float = 0.0
    kappa2: float = float("nan")
    A2: float = 0.0
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
    | triangular(c=0.5) | custom.  A built-in kind is one ``_Kind`` entry
    of ``_KINDS``; its parameters must be exactly those listed (a defaulted
    one may be left out), finite and in range, else a ValueError.  Custom
    families pass keyword arguments: logpdf (vectorized, standardized
    coordinates), support, edge (kappa1, A1, kappa2, A2), log_concave, and
    optionally breakpoints and sampler(rng, n); any other keyword is a
    ValueError.  The stated edge metadata and the total mass are validated
    at build time.  A family's masses, its CDF included, come from its
    quadrature (``_mass_table``), whatever its kind.  A built-in kind gives
    one shared instance per (kind, params), which the per-family caches find
    by identity.
    """
    if kind == "custom":
        return _make_custom(custom)
    return _builtin_family(kind, tuple(float(p) for p in params))


@functools.lru_cache(maxsize=256)
def _builtin_family(kind, params):
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    return DensityFamily(kind=kind, **_KINDS[kind].fields(*params))


class _Kind(NamedTuple):
    """The closed forms of one built-in kind.

    ``fields(*params)`` checks the parameters and returns the other
    ``DensityFamily`` fields: the parameters with defaults filled in, the
    support and the edge metadata.  ``logpdf`` and ``score`` take
    (*params, u, dl, dr), ``draw`` takes (*params, rng, n).  On a finite
    support ``logpdf`` must be finite, and raise no floating-point warning,
    at every inside point: ``_logpdf3`` evaluates it there without
    ``errstate``.

    ``log_ratio`` takes (*params, u, dl, dr, shift) in the window frame
    of ``_log_ratio`` and returns log f(u + shift) - log f(u), each power
    factor as +-log1p(shift / d) of a given distance d: exact however small
    the shift, where two rounded log-densities differ by ulp(log f)/shift.
    Where a point lies outside its value is unspecified and never read.
    """

    fields: Callable
    logpdf: Callable
    score: Callable
    draw: Callable
    log_ratio: Callable


def _checked(kind, params, arity, in_range, need, default=()):
    """The parameters of a built-in kind, ``default`` when none are given:
    exactly ``arity`` finite values on which ``in_range`` holds, else a
    ValueError saying what the kind needs."""
    params = params or default
    if len(params) != arity or not all(map(math.isfinite, params)) or not in_range(*params):
        raise ValueError(f"{kind} requires {need}, got {params}")
    return params


def _amplitude(kind, params, amp):
    """An edge amplitude A, which must be positive and finite: far enough
    out the normaliser over- or underflows (gamma from k = 179, beta from
    p = q = 520), which leaves the family no usable power edge."""
    if not 0.0 < amp < math.inf:
        raise ValueError(f"{kind} {params}: edge amplitude {amp} is out of floating-point range")
    return amp


def _uniform_fields(*params):
    if params not in ((), (0.0, 1.0)):
        raise ValueError("uniform is standardized on (0, 1); shift via theta")
    return dict(params=(), support=(0.0, 1.0), kappa1=1.0, A1=1.0, kappa2=1.0, A2=1.0,
                log_concave=True)


def _beta_fields(*params):
    p, q = _checked("beta", params, 2, lambda p, q: p > 0 and q > 0,
                    "two finite shapes p, q > 0")
    b = beta_fn(p, q)
    inv_b = _amplitude("beta", (p, q), 1.0 / b if b > 0.0 else math.inf)
    return dict(params=(p, q), support=(0.0, 1.0), kappa1=p, A1=inv_b, kappa2=q, A2=inv_b,
                log_concave=(p >= 1.0 and q >= 1.0))


def _gamma_fields(*params):
    k, = _checked("gamma", params, 1, lambda k: k > 0, "one finite shape k > 0")
    return dict(params=(k,), support=(0.0, math.inf), kappa1=k,
                A1=_amplitude("gamma", (k,), math.exp(-log_gamma(k))), kappa2=math.inf, A2=0.0,
                log_concave=(k >= 1.0))


def _weibull_fields(*params):
    k, = _checked("weibull", params, 1, lambda k: k > 0, "one finite shape k > 0")
    return dict(params=(k,), support=(0.0, math.inf), kappa1=k, A1=k, kappa2=math.inf,
                A2=0.0, log_concave=(k >= 1.0))


def _gaussian_fields(*params):
    s, = _checked("gaussian", params, 1, lambda s: s > 0, "one finite sigma > 0 (default 1)",
                  (1.0,))
    return dict(params=(s,), support=(-math.inf, math.inf), log_concave=True)


def _triangular_fields(*params):
    c, = _checked("triangular", params, 1, lambda c: 0.0 < c < 1.0,
                  "one mode c in (0, 1) (default 0.5)", (0.5,))
    return dict(params=(c,), support=(0.0, 1.0), kappa1=2.0, A1=2.0 / c, kappa2=2.0,
                A2=2.0 / (1.0 - c), log_concave=True, breakpoints=(c,))


def _triangular_draw(c, rng, n):
    v = rng.uniform(0.0, 1.0, n)
    return np.where(v <= c, np.sqrt(v * c), 1.0 - np.sqrt((1.0 - v) * (1.0 - c)))


def _triangular_log_ratio(c, u, dl, dr, shift):
    # on one piece the ratio is +-log1p(shift / d), d the distance to that
    # piece's edge.  Only where the points straddle the mode is log f / f(c)
    # taken from each one's offset from it, m = dl - c (exact near the mode,
    # Sterbenz) and the sum m + shift, so a small shift keeps its precision;
    # a point over half a piece w from the mode takes log(d / w)
    def from_mode(x, d, w):
        return np.where(x < -0.5, np.log(d / w), np.log1p(x))

    m = dl - c
    left = m <= 0.0
    out = np.where(left, np.log1p(shift / dl), -np.log1p(shift / dr))
    cross = np.flatnonzero(left & (m + shift > 0.0))
    if cross.size:
        m, dl, dr = (np.take(d, cross) for d in (m, dl, dr))
        np.put(out, cross, from_mode(-(m + shift) / (1.0 - c), dr, 1.0 - c)
               - from_mode(m / c, dl, c))
    return out


def _weibull_log_ratio(k, u, dl, dr, shift):
    step = np.log1p(shift / dl)
    return (k - 1.0) * step - dl ** k * np.expm1(k * step)


_KINDS = {
    "uniform": _Kind(
        _uniform_fields,
        lambda u, dl, dr: np.zeros(u.shape),
        lambda u, dl, dr: np.zeros_like(u),
        lambda rng, n: rng.uniform(0.0, 1.0, n),
        lambda u, dl, dr, shift: np.zeros(np.shape(u))),
    "beta": _Kind(
        _beta_fields,
        lambda p, q, u, dl, dr: (p - 1.0) * np.log(dl) + (q - 1.0) * np.log(dr) - log_beta(p, q),
        lambda p, q, u, dl, dr: (p - 1.0) / dl - (q - 1.0) / dr,
        lambda p, q, rng, n: rng.beta(p, q, n),
        lambda p, q, u, dl, dr, shift: ((p - 1.0) * np.log1p(shift / dl)
                                        - (q - 1.0) * np.log1p(shift / dr))),
    "gamma": _Kind(
        _gamma_fields,
        lambda k, u, dl, dr: (k - 1.0) * np.log(dl) - dl - log_gamma(k),
        lambda k, u, dl, dr: (k - 1.0) / dl - 1.0,
        lambda k, rng, n: rng.standard_gamma(k, n),
        lambda k, u, dl, dr, shift: (k - 1.0) * np.log1p(shift / dl) - shift),
    "weibull": _Kind(
        _weibull_fields,
        lambda k, u, dl, dr: math.log(k) + (k - 1.0) * np.log(dl) - dl ** k,
        lambda k, u, dl, dr: (k - 1.0) / dl - k * dl ** (k - 1.0),
        lambda k, rng, n: (-np.log1p(-rng.uniform(0.0, 1.0, n))) ** (1.0 / k),
        _weibull_log_ratio),
    "gaussian": _Kind(
        _gaussian_fields,
        lambda s, u, dl, dr: -0.5 * (u / s) ** 2 - math.log(s * _SQRT_2PI),
        lambda s, u, dl, dr: -u / s ** 2,
        lambda s, rng, n: s * rng.standard_normal(n),
        lambda s, u, dl, dr, shift: -shift * (u + 0.5 * shift) / s ** 2),
    "triangular": _Kind(
        _triangular_fields,
        lambda c, u, dl, dr: np.where(u <= c, np.log(2.0 * dl / c), np.log(2.0 * dr / (1.0 - c))),
        lambda c, u, dl, dr: np.where(u <= c, 1.0 / dl, -1.0 / dr),
        _triangular_draw,
        _triangular_log_ratio),
}


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
    h = 1e-4 * _scale(fam)
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
        lo, hi = _trimmed_support(fam)
        raise ValueError(f"custom density sums to {total:.8f}, not 1, over its trimmed window "
                         f"[{lo:g}, {hi:g}]; a normalised one may need breakpoints near its peak")


def _at_nodes(fam, theta, nodes):
    """(u, dl, dr) of f(x - theta) at quadrature nodes: distances to the
    shifted edges, exact where an edge bounds the nodes; the scalar inf on
    an unbounded side (``_dists``)."""
    a, b = fam.support
    u = nodes.x - theta
    return (u, _edge_dist(nodes.dl, nodes.lo - (a + theta), a),
            _edge_dist(nodes.dr, (b + theta) - nodes.hi, b))


def _edge_dist(dist, offset, edge):
    """Node distances to a shifted edge: ``dist`` itself (not a copy; every
    caller only reads it) where the edge bounds the nodes (offset 0), the
    scalar inf for an unbounded edge."""
    if not math.isfinite(edge):
        return math.inf
    return dist + offset if offset else dist


def _power_edge(fam, upper):
    """(kappa, A) of the power edge at the lower (upper) end of the support;
    None where nothing is singular there: a trimmed infinite tail or an edge
    with A = 0."""
    end, kappa, amp = (fam.b, fam.kappa2, fam.A2) if upper else (fam.a, fam.kappa1, fam.A1)
    return (kappa, amp) if math.isfinite(end) and amp > 0 else None


def _edge_depths(fam, drop=0.0):
    """Quadrature depths (left, right) toward the ends of the trimmed support
    for an integrand whose mass exponent at a power edge is kappa - drop
    (kappa for f itself)."""
    def depth(upper):
        edge = _power_edge(fam, upper)
        return edge_depth(None if edge is None else edge[0] - drop)

    return depth(False), depth(True)


@functools.lru_cache(maxsize=256)
def _trimmed_support(fam):
    """Finite integration window: infinite tails cut where f < 1e-16 * peak.
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
    floor = peak + math.log(1e-16)
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
    """Distances of u to the left and right support edges.  An unbounded
    side's distance is the scalar ``math.inf``, not an array of it: the
    density kernels (``_logpdf3``, ``_score3``, ``_log_ratio``) broadcast
    it.  An edge at 0 gives u itself (not a copy; every caller only reads
    it), as ``_edge_dist`` does."""
    a, b = fam.support
    return (math.inf if not math.isfinite(a) else u if a == 0.0 else u - a,
            b - u if math.isfinite(b) else math.inf)


def _logpdf_plain(fam, u):
    u = np.asarray(u, dtype=float)
    return _logpdf3(fam, u, *_dists(fam, u))


def _logpdf3(fam, u, dl, dr):
    """log f(u) from (u, dist-to-left-edge, dist-to-right-edge); -inf
    outside the open support, where an edge distance is not > 0.

    Edge behavior is computed from the distances, which callers (the
    quadrature) keep exact; an unbounded side's distance may be the scalar
    inf.  A built-in kind is evaluated on the whole array with
    floating-point warnings off (not needed, and skipped, on a finite
    support when every point lies inside), then -inf is written at the
    points outside, so its values at the inside points are those of an
    evaluation on them alone.  A custom ``logpdf_fn`` is called on the
    inside points only.
    """
    u = np.asarray(u, dtype=float)
    if fam.kind == "custom":
        return _custom_inside(fam, u, dl, dr, -math.inf,
                              lambda ui, li, ri: np.asarray(fam.logpdf_fn(ui), dtype=float),
                              lambda kappa, amp, d, sign: math.log(amp) + (kappa - 1.0) * np.log(d))
    logpdf = _KINDS[fam.kind].logpdf
    inside = np.logical_and(np.greater(dl, 0), np.greater(dr, 0))
    if math.isfinite(fam.b - fam.a) and inside.all():
        return np.asarray(logpdf(*fam.params, u, dl, dr))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.asarray(logpdf(*fam.params, u, dl, dr))   # a 0-d input gives a numpy scalar
    np.copyto(val, -math.inf, where=~inside)
    return val


def _log_ratio(fam, u, dl, dr, shift):
    """log f(u + shift) - log f(u), shift > 0, in the window frame of a
    shifted pair: dl is the lower point u's distance to the lower edge, dr
    the upper point's to the upper edge, the other two are the sums
    dl + shift and dr + shift, so exact distances stay exact.  The kind's
    closed form (``_Kind``); for a custom family the difference of its two
    passes (``_custom_passes``).  Read only where dl, dr > 0; evaluated with
    floating-point warnings off, so points elsewhere may be passed along."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if fam.kind == "custom":
            return np.subtract(*_custom_passes(fam, u, dl, dr, shift))
        return _KINDS[fam.kind].log_ratio(*fam.params, u, dl, dr, shift)


def _log_ratio_rows(fam, U, shift, upper=False):
    """Row sums of the window kernel ``_log_ratio`` on a matrix U whose edge
    distances (``_dists``) are taken once: U holds the lower points, whose
    partners lie the shift nearer the upper edge, or with ``upper`` the
    upper points, whose partners lie the shift nearer the lower edge."""
    dl, dr = _dists(fam, U)
    points = (U - shift, dl - shift, dr) if upper else (U, dl, dr - shift)
    return np.einsum("ij->i", _log_ratio(fam, *points, shift))


def _custom_passes(fam, u, dl, dr, shift):
    """(log f(u + shift), log f(u)) of a custom family in the window frame
    of ``_log_ratio``, one ``_logpdf3`` pass each."""
    return _logpdf3(fam, u + shift, dl + shift, dr), _logpdf3(fam, u, dl, dr + shift)


def _custom_inside(fam, u, dl, dr, fill, body, edge_law):
    """A custom family's ``_logpdf3`` or ``_score3``: ``body(ui, li, ri)`` on
    the inside points, gathered, and ``fill`` elsewhere.  Inside the last
    ~1e-9 of the support the reconstructed u has lost the edge distance to
    rounding; there, at a power edge, ``edge_law(kappa, A, d, sign)`` (sign
    +1 at the lower edge, -1 at the upper) takes over: the declared power
    expansion is exact to o(1) and keeps the tails finite."""
    shape = np.broadcast_shapes(np.shape(u), np.shape(dl), np.shape(dr))
    inside = np.broadcast_to(np.logical_and(np.greater(dl, 0), np.greater(dr, 0)), shape)
    out = np.full(shape, fill)
    if not np.any(inside):
        return out
    ui, li, ri = (np.broadcast_to(v, shape)[inside] for v in (u, dl, dr))
    cut = 1e-9 * _scale(fam)
    with np.errstate(divide="ignore", over="ignore"):
        val = body(ui, li, ri)
        for d, kappa, amp, sign in ((li, fam.kappa1, fam.A1, 1.0), (ri, fam.kappa2, fam.A2, -1.0)):
            close = d < cut
            if amp > 0 and np.any(close):
                val = np.where(close, edge_law(kappa, amp, d, sign), val)
    out[inside] = val
    return out


def _score3(fam, u, dl, dr):
    """f'(u)/f(u) from (u, edge distances): the closed form of a built-in
    kind; for a custom family a central difference of its ``logpdf_fn`` at a
    scale-aware step, taken at the inside points only (nan elsewhere)."""
    u = np.asarray(u, dtype=float)
    dl = np.asarray(dl, dtype=float)
    dr = np.asarray(dr, dtype=float)
    if fam.kind != "custom":
        return _KINDS[fam.kind].score(*fam.params, u, dl, dr)

    def central(ui, li, ri):
        h = np.minimum(1e-6 * _scale(fam), 0.5 * np.minimum(li, ri))
        return (np.asarray(fam.logpdf_fn(ui + h), dtype=float)
                - np.asarray(fam.logpdf_fn(ui - h), dtype=float)) / (2.0 * h)

    return _custom_inside(fam, u, dl, dr, math.nan, central,
                          lambda kappa, amp, d, sign: sign * (kappa - 1.0) / d)


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
    [lo, hi], read from the nearer end (``_near_mass``), so F and 1 - F keep
    their relative precision in both tails.  F is 0 below lo and 1 above hi
    (an infinite tail is trimmed where f falls below 1e-16 of its peak).
    """
    u = np.asarray(u, dtype=float)
    out = _near_mass(family, u - _trimmed_support(family)[0])
    return float(out) if np.ndim(out) == 0 else out


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
    if family.kind != "custom":
        return _KINDS[family.kind].draw(*family.params, rng, n)
    if family.sampler_fn is None:
        raise ValueError("custom family has no sampler")
    return np.asarray(family.sampler_fn(rng, n), dtype=float)


def _from_end(fam, t, upper):
    """(u, dl, dr) at distances t from the lower (upper) end of the trimmed
    support; dl, dr are the distances to the support edges, the scalar inf
    if unbounded (``_dists``)."""
    lo, hi = _trimmed_support(fam)
    rest = (hi - lo) - t
    u, dl, dr = (hi - t, rest, t) if upper else (lo + t, t, rest)
    a, b = fam.support
    return u, dl if math.isfinite(a) else math.inf, dr if math.isfinite(b) else math.inf


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
    cells = nodes.edge_dl.size - 1
    f = np.exp(_logpdf3(fam, *_at_nodes(fam, 0.0, nodes)))
    cell_mass = (f * nodes.w).reshape(cells, -1).sum(axis=1)
    if upper:
        edges, t_nodes = nodes.edge_dr[::-1], nodes.dr.reshape(cells, -1)[::-1, ::-1]
        cell_mass = cell_mass[::-1]
    else:
        edges, t_nodes = nodes.edge_dl, nodes.dl.reshape(cells, -1)
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
    t = 1 - 1.16e-12.  ``_near_mass`` switches ends at 1/2 for that reason.

    A Python float t takes a lean path with the same arithmetic, which
    evaluates only the branch it returns."""
    tab = _mass_table(fam, upper)
    if isinstance(t, float):
        t = min(max(t, 0.0), float(tab.t[-1]))
        i = min(max(bisect.bisect_right(tab.t, t), 1), tab.t.size - 1)
        if math.isfinite(tab.kappa) and i <= tab.inner:
            return float(tab.amp / tab.kappa * np.float64(t) ** tab.kappa)
        return float(tab.mass[i - 1] + _gauss_mass(fam, upper, tab.t[i - 1], np.float64(t)))
    t = np.clip(np.asarray(t, dtype=float), 0.0, tab.t[-1])
    i = np.clip(np.searchsorted(tab.t, t, side="right"), 1, tab.t.size - 1)
    mass = tab.mass[i - 1] + _gauss_mass(fam, upper, tab.t[i - 1], t)
    if math.isfinite(tab.kappa):
        mass = np.where(i <= tab.inner, tab.amp / tab.kappa * t ** tab.kappa, mass)
    return mass


def _near_mass(fam, t, upper=False):
    """Mass of f within distances t of the lower (upper) end of its trimmed
    support, read from the nearer end: past half the mass, and only there,
    1 minus the mass within the rest of the trimmed support of the other
    end, which keeps it exact to ulps (``_mass_within``)."""
    mass = _mass_within(fam, t, upper)
    far = mass > 0.5
    if np.any(far):
        lo, hi = _trimmed_support(fam)
        if np.ndim(mass) == 0:
            return 1.0 - _mass_within(fam, (hi - lo) - t, not upper)
        mass[far] = 1.0 - _mass_within(fam, (hi - lo) - t[far], not upper)
    return mass


def _strip_mass(fam, lo_w, hi_w):
    """Mass of f in its edge strips {u - a <= lo_w} and {b - u <= hi_w}, the
    lower one first, each read from the mass table at its own end (a width
    <= 0 is no strip); 1 when a strip spans the support."""
    a, b = fam.support
    if max(lo_w, hi_w) >= b - a:
        return 1.0
    m = 0.0
    if lo_w > 0:
        m += float(_mass_within(fam, lo_w))
    if hi_w > 0:
        m += float(_mass_within(fam, hi_w, upper=True))
    return m


_NEWTON_STEPS = 8


def _solve_from_end(fam, q, upper):
    """Distances from the lower (upper) end of the trimmed support at which
    the mass counted from that end is q."""
    tab = _mass_table(fam, upper)
    # tab.mass[i - 1] < q <= tab.mass[i]
    i = np.clip(np.searchsorted(tab.mass, q), 1, tab.t.size - 1)
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
