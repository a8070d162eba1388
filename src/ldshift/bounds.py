"""The two rate upper bounds for a scaling profile: the point-estimation
bound a1 = 2^kappa sup_s I^s_g, the interval-estimation bound a2 (a
kappa-dependent sup/inf of I^s_g weighted by a power-mean factor), their
coincidence analysis, and the closed-form values per edge regime.

One golden-section maximizer, ``_argmax``, behind one scan-and-refine
optimizer, ``_optimize``, serves both bounds here and the testing exponents
in ``rates``; a minimum is found by negating the objective.  Objectives map
a float s to a float and an array of s to an array: the scan is one call on
the whole scan array, and the golden refine calls the objective on floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .renyi import ScalingProfile, closed_form_isg, profile_from_closed_form
from .special import beta_fn, solve_t0

__all__ = [
    "BoundPair",
    "alpha1_bar",
    "alpha2_bar",
    "coincidence",
    "bound_pair",
    "closed_form_bounds",
]

# suprema over the open interval are taken on [DELTA, 1-DELTA] plus probes
# nearer the edges, since several regimes attain the bound at the boundary
DELTA = 1e-4
_EDGE_PROBES = (1e-7, 1e-5, 1.0 - 1e-5, 1.0 - 1e-7)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundPair:
    """The bound pair with optimizers and coincidence flags.

    ``s_star1``/``s_star2`` are clamped to [DELTA, 1-DELTA]; the
    ``boundary1``/``boundary2`` flags mark optima attained at (or beyond)
    the clamp, i.e. in the s -> 0 or s -> 1 limit.
    """

    alpha1_bar: float
    alpha2_bar: float
    s_star1: float
    s_star2: float
    kappa: float
    coincide: bool
    symmetric_at_half: bool
    boundary1: bool = False
    boundary2: bool = False


def _scan_points(s_grid, include_probes):
    pts = np.concatenate([s_grid, _EDGE_PROBES]) if include_probes else s_grid
    return np.unique(np.clip(pts, 1e-9, 1.0 - 1e-9))


def _argmax(fn, lo, hi):
    """Golden-section maximum of a unimodal fn on [lo, hi]: (value, x).

    At most 80 steps, stopping once the bracket is narrower than
    1e-12 max(1, hi); the value is fn at the final midpoint.
    """
    tol = 1e-12 * max(1.0, hi)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        if b - a < tol:
            break
    x = 0.5 * (a + b)
    return fn(x), x


def _optimize(fn, scan, maximize):
    """Scan fn over the sorted points ``scan`` in one call on the array,
    refine around the best point by golden section on floats, and keep the
    scan point if it is still better.  Returns (value, s) with s unclamped."""
    sign = 1.0 if maximize else -1.0
    vals = sign * np.asarray(fn(scan), dtype=float)
    if np.ptp(vals) <= 1e-12 * np.max(np.abs(vals)):
        # constant objective: deterministic tie rule
        return float(sign * vals[len(vals) // 2]), 0.5
    i = int(np.argmax(vals))
    lo = float(scan[max(i - 1, 0)])
    hi = float(scan[min(i + 1, len(scan) - 1)])
    v, s = _argmax(lambda x: sign * fn(x), lo, hi)
    if vals[i] > v:
        v, s = vals[i], scan[i]
    return float(sign * v), float(s)


def _trusted(profile):
    """Mask of the s_grid points whose relative extrapolation error
    isg_unc/|isg| is at most 10 times the profile's median, so never fewer
    than half of them: near s in {0, 1} the eps -> 0 and s limits do not
    commute and the ladder's error there is an outlier."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = profile.isg_unc / np.abs(profile.isg)
    return rel <= 10.0 * np.median(rel)


def _optimize_profile(profile, transform, maximize):
    """Optimize transform(I^s_g, s) over s on the (extrapolated) limit curve.

    Closed forms are scanned on their grid plus probes nearer the edges.
    Ladder profiles are scanned on the trusted part of their grid only
    (``_trusted``): quadrature noise ~1e-15 absolute is amplified by
    1/(s(1-s)), and the extrapolation error grows near s in {0, 1}.
    """
    if profile.source == "ladder":
        scan = _scan_points(profile.s_grid[_trusted(profile)], include_probes=False)
    else:
        scan = _scan_points(profile.s_grid, include_probes=True)
    return _optimize(lambda s: transform(profile.isg_fn(s), s), scan, maximize)


def alpha1_bar(profile: ScalingProfile):
    """2^kappa sup over s in (0,1) of I^s_g, with the maximizer."""
    if profile.s_grid.size < 17:
        raise ValueError("profile grid too coarse (need >= 17 points)")
    scale = 2.0 ** profile.kappa
    v, s = _optimize_profile(profile, lambda r, s: scale * r, maximize=True)
    return v, min(max(s, DELTA), 1.0 - DELTA)


def _power_mean_factor(s, kappa):
    # (s^(1/(k-1)) + (1-s)^(1/(k-1)))^(k-1), stable for all kappa != 1;
    # elementwise on an array, through the same math body
    if isinstance(s, np.ndarray):
        return np.array([_power_mean_factor(float(x), kappa) for x in s])
    e = 1.0 / (kappa - 1.0)
    ls, l1s = math.log(s), math.log1p(-s)
    m = max(e * ls, e * l1s)
    return math.exp((kappa - 1.0) * (m + math.log(
        math.exp(e * ls - m) + math.exp(e * l1s - m))))


def alpha2_bar(profile: ScalingProfile):
    """The interval-estimation bound: 2 I^(1/2)_g at kappa = 1, otherwise
    the inf (kappa > 1) or sup (kappa < 1) over s of
    I^s_g / (s(1-s)) * (s^(1/(k-1)) + (1-s)^(1/(k-1)))^(k-1)."""
    if profile.s_grid.size < 17:
        raise ValueError("profile grid too coarse (need >= 17 points)")
    k = profile.kappa
    if abs(k - 1.0) < 1e-9:
        return 2.0 * float(profile.isg_fn(0.5)), 0.5

    def transform(r, s):
        return r / (s * (1.0 - s)) * _power_mean_factor(s, k)

    v, s = _optimize_profile(profile, transform, maximize=(k < 1.0))
    return v, min(max(s, DELTA), 1.0 - DELTA)


def coincidence(profile: ScalingProfile, tol=None):
    """(coincide, eq_sym, eq_half) where eq_sym tests a1 = 2^kappa I^(1/2)_g
    and eq_half tests 2^kappa I^(1/2)_g = a2; coincide tests a1 = a2."""
    a1, _ = alpha1_bar(profile)
    a2, _ = alpha2_bar(profile)
    return _flags(profile, a1, a2, tol)


def _flags(profile, a1, a2, tol):
    """The coincidence flags of ``coincidence`` for bounds already computed."""
    half = 2.0 ** profile.kappa * float(profile.isg_fn(0.5))
    if tol is None:
        if profile.source == "ladder":
            # the largest relative extrapolation error over the trusted s,
            # with a floor for the quadrature/optimization noise
            ok = _trusted(profile)
            rel = float(np.max(profile.isg_unc[ok] / np.abs(profile.isg[ok])))
            tol = max(3.0 * rel * abs(a1), 3e-5 * max(1.0, a1))
        else:
            tol = 1e-6 * max(1.0, a1)
    eq163 = abs(a1 - half) <= tol
    eq15 = abs(half - a2) <= tol
    coincide = abs(a1 - a2) <= tol
    return coincide, eq163, eq15


def bound_pair(profile: ScalingProfile, tol=None) -> BoundPair:
    """Assemble the bound pair with coincidence flags for a profile."""
    a1, s1 = alpha1_bar(profile)
    a2, s2 = alpha2_bar(profile)
    coincide, eq163, _ = _flags(profile, a1, a2, tol)
    return BoundPair(
        alpha1_bar=a1, alpha2_bar=a2, s_star1=s1, s_star2=s2,
        kappa=profile.kappa, coincide=coincide, symmetric_at_half=eq163,
        boundary1=(s1 <= DELTA or s1 >= 1.0 - DELTA),
        boundary2=(s2 <= DELTA or s2 >= 1.0 - DELTA),
    )


def closed_form_bounds(regime, A1, A2, kappa, fisher=None) -> BoundPair:
    """Closed-form bound pair for a regime, falling back to numeric
    optimization of the closed-form I^s_g where no formula exists."""
    k = float(kappa)
    if regime in ("regular", "semi_regular"):
        if fisher is None:
            raise ValueError(f"regime {regime!r} needs the fisher information")
        v = fisher / 2.0
        return BoundPair(v, v, 0.5, 0.5, 2.0, True, True)
    if regime == "kappa_one":
        a1v = 2.0 * max(A1, A2)
        a2v = A1 + A2
        if A1 == A2:
            s1, b1 = 0.5, False
        else:
            s1, b1 = (1.0 - DELTA, True) if A1 > A2 else (DELTA, True)
        eq = abs(a1v - a2v) <= 1e-6 * max(1.0, a1v)
        return BoundPair(a1v, a2v, s1, 0.5, 1.0, eq, eq, boundary1=b1)
    if regime == "kappa_two":
        v = (A1 + A2) / 2.0
        return BoundPair(v, v, 0.5, 0.5, 2.0, True, True)

    if regime == "power_mid" and A1 == A2 and A1 > 0:
        v = A1 * 2.0 ** (k - 1.0) * (3.0 - k) * beta_fn((1.0 + k) / 2.0, 2.0 - k) / k
        return BoundPair(v, v, 0.5, 0.5, k, True, True)
    if regime == "power_low" and A1 == A2 and A1 > 0:
        v = A1 * 2.0 ** k * (1.0 - k) * beta_fn((1.0 + k) / 2.0, 1.0 - k) / k
        return BoundPair(v, v, 0.5, 0.5, k, True, True)

    one_sided = (A1 > 0 and A2 == 0) or (A2 > 0 and A1 == 0)
    profile = profile_from_closed_form(regime, A1, A2, k)
    if one_sided:
        amp = max(A1, A2)
        edge_hi = A1 > 0  # supremum side: s -> 1 when the left edge dominates
        if regime == "power_low":
            a1v = amp * 2.0 ** k / k
            a2v = amp / k
            s = 1.0 - DELTA if edge_hi else DELTA
            eq = False  # 2^kappa / kappa > 1 / kappa strictly
            return BoundPair(a1v, a2v, s, s, k, eq, False,
                             boundary1=True, boundary2=True)
        # power_mid, one-sided: the sup is at the edge only below 2 - t0
        if k <= 2.0 - solve_t0():
            a1v = amp * 2.0 ** k / k
            s1, b1 = (1.0 - DELTA, True) if edge_hi else (DELTA, True)
        else:
            a1v, s1 = alpha1_bar(profile)
            b1 = s1 <= DELTA or s1 >= 1.0 - DELTA
        a2v, s2 = alpha2_bar(profile)
        coincide, eq163, _ = _flags(profile, a1v, a2v, None)
        return BoundPair(a1v, a2v, s1, s2, k, coincide=coincide,
                         symmetric_at_half=eq163,
                         boundary1=b1, boundary2=(s2 <= DELTA or s2 >= 1.0 - DELTA))
    return bound_pair(profile)
