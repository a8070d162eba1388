"""The two rate upper bounds for a scaling profile: the point-estimation
bound a1 = 2^kappa sup_s I^s_g, the interval-estimation bound a2 (a
kappa-dependent sup/inf of I^s_g weighted by a power-mean factor), their
coincidence analysis, and their closed-form values in the edge exponent
kappa: both C/2 at kappa = 2 (C = A1 + A2, or the Fisher information),
2 max(A1, A2) and A1 + A2 at kappa = 1, one expression in kappa at A1 = A2.

One scan-interpolate-confirm optimizer, ``_optimize``, serves both bounds
here and the testing exponents in ``rates``; a minimum is found by negating
the objective.  Objectives map a float s to a float and an array of s to an
array.  The bounds read their scan values from the profile's ``table``,
its one store of I^s_g (``_isg_at``): a closed form fills it at build on
its grid and the scan orders, a ladder profile with isg on its grid.  Other
objectives are scanned in one call on the whole scan array.  The refine
then interpolates: the polynomial through the (at most five) scan values
around the best point costs no evaluation, and its optimum is located by
the golden-section ``_argmax`` in the bracket of the best point's
neighbours.  One float call of the objective confirms it: the value is
accepted when it matches the polynomial's prediction to the objective's
own relative precision (the median extrapolation error of a ladder
profile, 1e-12 otherwise).  Else the refine falls back to golden section on
the objective over the same bracket, one float call a step.  Either way the
scan point wins if it is better, so every reported value is an evaluation
of the objective.  The refine is where the bounds call ``isg_fn``, and on a
ladder profile each float call costs one sweep of every rung.
"""

import math
from dataclasses import dataclass

import numpy as np

from .renyi import ScalingProfile, _check_regime, _scan_points, profile_from_closed_form
from .special import _elementwise, beta_fn, solve_t0

__all__ = [
    "BoundPair",
    "alpha1_bar",
    "alpha2_bar",
    "coincidence",
    "bound_pair",
    "closed_form_bounds",
]

# suprema over the open interval are taken on [DELTA, 1-DELTA] plus probes
# nearer the edges (``renyi._scan_points``), since several regimes attain
# the bound at the boundary
DELTA = 1e-4

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundPair:
    """The bound pair with optimizers and coincidence flags.

    ``s_star1``/``s_star2`` are clamped to [DELTA, 1-DELTA]; the
    ``boundary1``/``boundary2`` flags are derived from them and mark optima
    attained at (or beyond) the clamp, i.e. in the s -> 0 or s -> 1 limit.
    """

    alpha1_bar: float
    alpha2_bar: float
    s_star1: float
    s_star2: float
    kappa: float
    coincide: bool
    symmetric_at_half: bool

    @property
    def boundary1(self):
        return self.s_star1 <= DELTA or self.s_star1 >= 1.0 - DELTA

    @property
    def boundary2(self):
        return self.s_star2 <= DELTA or self.s_star2 >= 1.0 - DELTA


def _argmax(fn, lo, hi):
    """Golden-section maximum of a unimodal fn on [lo, hi]: (value, x).

    At most 80 steps, stopping once the bracket is narrower than
    1.5e-8 max(1, hi), about the square root of the float epsilon: near a
    smooth maximum fn(x) moves by a relative fn''/fn (x - x*)^2 / 2, which
    drops below the float resolution once |x - x*| is about sqrt(eps), so
    further steps compare rounding noise (Brent 1973, ch. 5).  The value is
    fn at the final midpoint.  ``_optimize`` runs it on its interpolant
    first and on the objective itself only when that is not confirmed.
    """
    tol = 1.5e-8 * max(1.0, hi)
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


def _interpolant(xs, ys):
    """The polynomial through the points (xs, ys), in Newton divided
    differences on floats: a function of a float x."""
    coef = list(ys)
    for k in range(1, len(xs)):
        for j in range(len(xs) - 1, k - 1, -1):
            coef[j] = (coef[j] - coef[j - 1]) / (xs[j] - xs[j - k])

    def poly(x):
        v = coef[-1]
        for j in range(len(xs) - 2, -1, -1):
            v = v * (x - xs[j]) + coef[j]
        return v

    return poly


def _optimize(fn, scan, maximize, rel_tol=1e-12, scan_vals=None):
    """Optimize fn over [scan[0], scan[-1]]: (value, s) with s unclamped.

    Scan fn over the sorted points ``scan``, whose values are ``scan_vals``
    when the caller has them and else one call of fn on the array, then
    refine in the bracket of the best point's neighbours: locate the
    optimum of the polynomial through the scan values at most two points
    either side, and evaluate fn once there.  That value stands when it
    matches the polynomial's to ``rel_tol`` relative, the objective's own
    precision; otherwise golden section on fn over the same bracket gives
    the refined point.  The scan point is kept if it is still better.
    """
    sign = 1.0 if maximize else -1.0
    vals = sign * np.asarray(fn(scan) if scan_vals is None else scan_vals, dtype=float)
    if np.ptp(vals) <= 1e-12 * np.max(np.abs(vals)):
        # constant objective: deterministic tie rule
        return float(sign * vals[len(vals) // 2]), 0.5
    i = int(np.argmax(vals))
    lo = float(scan[max(i - 1, 0)])
    hi = float(scan[min(i + 1, len(scan) - 1)])
    near = range(max(i - 2, 0), min(i + 3, len(scan)))
    predicted, s = _argmax(_interpolant([float(scan[j]) for j in near],
                                        [float(vals[j]) for j in near]), lo, hi)
    v = sign * fn(s)
    if not abs(v - predicted) <= rel_tol * abs(v):
        v, s = _argmax(lambda x: sign * fn(x), lo, hi)
    if vals[i] > v:
        v, s = vals[i], scan[i]
    return float(sign * v), float(s)


def _rel_err(profile):
    """A ladder profile's relative extrapolation error isg_unc/|isg| per
    s_grid point (inf or nan where isg is 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return profile.isg_unc / np.abs(profile.isg)


def _trusted(profile):
    """Mask of the s_grid points whose relative extrapolation error
    isg_unc/|isg| is at most 10 times the profile's median, so never fewer
    than half of them: near s in {0, 1} the eps -> 0 and s limits do not
    commute and the ladder's error there is an outlier."""
    rel = _rel_err(profile)
    return rel <= 10.0 * np.median(rel)


def _isg_at(profile, s):
    """I^s_g at the sorted orders s, read from the profile's ``table``;
    ``isg_fn`` evaluates the orders it lacks, such as a ladder order the
    scan's clip moved, in one call."""
    orders, vals = profile.table
    i = np.minimum(np.searchsorted(orders, s), orders.size - 1)
    out = vals[i]
    miss = orders[i] != s
    if miss.any():
        out[miss] = profile.isg_fn(s[miss])
    return out


def _optimize_profile(profile, transform, maximize):
    """Optimize transform(I^s_g, s) over s on the (extrapolated) limit curve.

    Closed forms are scanned on their grid plus probes nearer the edges,
    the orders of their table.  Ladder profiles are scanned on the trusted part of their grid only
    (``_trusted``): quadrature noise ~1e-15 absolute is amplified by
    1/(s(1-s)), and the extrapolation error grows near s in {0, 1}.  Their
    refine is confirmed to the median relative error over those points:
    the ladder knows its objective no better.  The scan values are read
    from the profile's table (``_isg_at``); only the refine calls isg_fn.
    """
    objective = lambda s: transform(profile.isg_fn(s), s)
    if profile.source == "ladder":
        ok = _trusted(profile)
        scan = _scan_points(profile.s_grid[ok], include_probes=False)
        rel_tol = float(np.median(_rel_err(profile)[ok]))
    else:
        scan, rel_tol = profile.table[0], 1e-12
    return _optimize(objective, scan, maximize, rel_tol, transform(_isg_at(profile, scan), scan))


def _half(profile):
    """I^(1/2)_g, read from the profile's table like a scan."""
    return float(_isg_at(profile, np.array([0.5]))[0])


def alpha1_bar(profile: ScalingProfile):
    """2^kappa sup over s in (0,1) of I^s_g, with the maximizer."""
    if profile.s_grid.size < 17:
        raise ValueError("profile grid too coarse (need >= 17 points)")
    scale = 2.0 ** profile.kappa
    v, s = _optimize_profile(profile, lambda r, s: scale * r, maximize=True)
    return v, min(max(s, DELTA), 1.0 - DELTA)


def _power_mean_factor(kappa):
    """s -> (s^(1/(k-1)) + (1-s)^(1/(k-1)))^(k-1), stable for all kappa != 1,
    on a float s or elementwise on an array (``_elementwise``), with k - 1
    and 1/(k - 1) computed once."""
    km1 = kappa - 1.0
    e = 1.0 / km1

    def one(s):
        ls, l1s = math.log(s), math.log1p(-s)
        m = max(e * ls, e * l1s)
        return math.exp(km1 * (m + math.log(math.exp(e * ls - m) + math.exp(e * l1s - m))))

    return _elementwise(one)


def alpha2_bar(profile: ScalingProfile):
    """The interval-estimation bound: 2 I^(1/2)_g at kappa = 1, otherwise
    the inf (kappa > 1) or sup (kappa < 1) over s of
    I^s_g / (s(1-s)) * (s^(1/(k-1)) + (1-s)^(1/(k-1)))^(k-1)."""
    if profile.s_grid.size < 17:
        raise ValueError("profile grid too coarse (need >= 17 points)")
    k = profile.kappa
    if abs(k - 1.0) < 1e-9:
        return 2.0 * _half(profile), 0.5

    factor = _power_mean_factor(k)

    def transform(r, s):
        return r / (s * (1.0 - s)) * factor(s)

    v, s = _optimize_profile(profile, transform, maximize=(k < 1.0))
    return v, min(max(s, DELTA), 1.0 - DELTA)


def coincidence(profile: ScalingProfile):
    """(coincide, eq_sym, eq_half) where eq_sym tests a1 = 2^kappa I^(1/2)_g
    and eq_half tests 2^kappa I^(1/2)_g = a2; coincide tests a1 = a2."""
    a1, _ = alpha1_bar(profile)
    a2, _ = alpha2_bar(profile)
    return _flags(profile, a1, a2)


def _flags(profile, a1, a2):
    """The coincidence flags of ``coincidence`` for bounds already computed."""
    half = 2.0 ** profile.kappa * _half(profile)
    if profile.source == "ladder":
        # the largest relative extrapolation error over the trusted s,
        # with a floor for the quadrature/optimization noise
        rel = float(np.max(_rel_err(profile)[_trusted(profile)]))
        tol = max(3.0 * rel * abs(a1), 3e-5 * max(1.0, a1))
    else:
        tol = 1e-6 * max(1.0, a1)
    eq163 = abs(a1 - half) <= tol
    eq15 = abs(half - a2) <= tol
    coincide = abs(a1 - a2) <= tol
    return coincide, eq163, eq15


def bound_pair(profile: ScalingProfile) -> BoundPair:
    """Assemble the bound pair with coincidence flags for a profile."""
    a1, s1 = alpha1_bar(profile)
    a2, s2 = alpha2_bar(profile)
    coincide, eq163, _ = _flags(profile, a1, a2)
    return BoundPair(
        alpha1_bar=a1, alpha2_bar=a2, s_star1=s1, s_star2=s2,
        kappa=profile.kappa, coincide=coincide, symmetric_at_half=eq163,
    )


def closed_form_bounds(regime, A1, A2, kappa, fisher=None) -> BoundPair:
    """Closed-form bound pair at the edge exponent kappa, ``regime`` its
    label: the paper's formulas at kappa = 2, at kappa = 1, at A1 = A2, and
    for one edge below kappa = 2 - t0 (alpha2 tabulated below 1, optimized
    above); numeric optimization of the closed-form I^s_g elsewhere."""
    k = _check_regime(regime, A1, A2, kappa, fisher)
    if k == 2.0:
        v = (A1 + A2 if fisher is None else fisher) / 2.0
        return BoundPair(v, v, 0.5, 0.5, 2.0, True, True)
    if k == 1.0:
        a1v, a2v = 2.0 * max(A1, A2), A1 + A2
        s1 = 0.5 if A1 == A2 else 1.0 - DELTA if A1 > A2 else DELTA
        eq = abs(a1v - a2v) <= 1e-6 * max(1.0, a1v)
        return BoundPair(a1v, a2v, s1, 0.5, 1.0, eq, eq)
    if A1 == A2:
        v = A1 * 2.0 ** (k - 1.0) * (3.0 - k) * beta_fn((1.0 + k) / 2.0, 2.0 - k) / k
        return BoundPair(v, v, 0.5, 0.5, k, True, True)
    # one edge: alpha1's sup sits at its s limit, s -> 1 for the left edge
    amp, s = max(A1, A2), 1.0 - DELTA if A1 > 0 else DELTA
    if min(A1, A2) == 0.0 and k < 1.0:  # 2^kappa / kappa > 1 / kappa: never coincident
        return BoundPair(amp * 2.0 ** k / k, amp / k, s, s, k, False, False)
    profile = profile_from_closed_form(regime, A1, A2, k)
    if min(A1, A2) > 0.0 or k > 2.0 - solve_t0():
        return bound_pair(profile)
    a1v, (a2v, s2) = amp * 2.0 ** k / k, alpha2_bar(profile)
    coincide, eq163, _ = _flags(profile, a1v, a2v)
    return BoundPair(a1v, a2v, s, s2, k, coincide=coincide, symmetric_at_half=eq163)
