"""Shift estimators as pure functions of a sample batch: the MLE (root of
the monotone score sum), the eps-spaced likelihood-ratio estimator, the
order-statistic shifts min(x) - a and max(x) - b, and their variants.

Everything is vectorized across batches (rows) for the Monte Carlo driver;
the scalar ``estimate`` is the single-batch view of the same code path, and
``tail_events`` gives the driver the side of two thresholds each row's
estimate falls on, by one sign test of the estimating function where it can.
The MLE's estimating function is the score sum; the LR estimator's is the
row mean of one pass of the window kernel ``families._log_ratio`` (that of
the Renyi pairs and the likelihood test), in its bisection and sign test.
The order-statistic estimators read a sample only through its extremes:
``extreme_events`` decides their sides from the masses beyond the extremes.
The gaussian MLE reads it only through its mean, which the Monte Carlo
draws from its exact law (``rates.mc_tail_rate``).  The other estimators,
the MLE on any other family and the LR estimator on every family (the
gaussian one included), read all n values of a sample.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import families as fam_mod
from .families import SampleBatch

__all__ = ["EstimatorSpec", "ORDER_STAT_KINDS", "EPS_KINDS", "check_family", "estimate",
           "estimate_many", "tail_events", "extreme_events"]

ORDER_STAT_KINDS = ("min_shift", "max_shift", "shifted_min", "convex_combo")
# the estimators indexed by a shift eps > 0
EPS_KINDS = ("lr", "shifted_min")
_KINDS = ("mle", "lr") + ORDER_STAT_KINDS
# sample values per evaluation of the estimating function in the sign test
# (128 KiB), and in ``rates`` per rejection draw and likelihood-test slice:
# their temporaries are then reused from the heap, where block-sized ones
# (2 MiB) were handed back to the system when freed and faulted in again
# for the next block
_SLICE_VALUES = 2**14


@dataclass(frozen=True)
class EstimatorSpec:
    kind: str
    eps: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind in EPS_KINDS:
            if self.eps is None or not self.eps > 0:
                raise ValueError(f"{self.kind} requires eps > 0, got {self.eps}")
        if self.kind == "convex_combo":
            if self.lam is None or not 0.0 < self.lam < 1.0:
                raise ValueError(f"convex_combo requires lambda in (0, 1), got {self.lam}")


def _values(batch):
    if isinstance(batch, SampleBatch):
        return np.asarray(batch.values, dtype=float)
    return np.asarray(batch, dtype=float)


def estimate(spec, family, batch):
    """Estimate the shift from one batch."""
    x = _values(batch)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("batch must be a nonempty 1-d sample")
    return float(estimate_many(spec, family, x[None, :])[0])


def _matrix(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X must be a (batches, n) matrix with n >= 1")
    return X


def check_family(spec, family):
    """Raise ValueError where the estimator is undefined on the family: an
    order-statistic kind on an open support edge it reads, the MLE or LR on
    a family that is not log-concave."""
    kind = spec.kind
    a, b = family.support
    if kind in ("min_shift", "shifted_min", "convex_combo"):
        _need_finite(a, kind, "left")
    if kind in ("max_shift", "convex_combo"):
        _need_finite(b, kind, "right")
    if kind == "mle" and not family.log_concave:
        raise ValueError(f"mle needs a log-concave family, got {family.kind}")
    if kind == "lr" and not family.log_concave:
        raise ValueError(
            f"lr needs monotone likelihood ratios (log-concave suffices), got {family.kind}")


def estimate_many(spec, family, X):
    """Row-wise estimates for a (batches, n) matrix of samples; ValueError
    on a value that is not finite, or on a row whose range exceeds the
    support width b - a, a sample no shift of the family can draw."""
    X = _matrix(X)
    check_family(spec, family)
    if not np.isfinite(X).all():
        raise ValueError("samples must be finite")
    a, b = family.support
    x_min, x_max = _row_extremes(X)
    if np.any(x_max - x_min > b - a):
        raise ValueError(f"a sample's range exceeds the support width {b - a}: "
                         "no shift of the family draws it")
    return _estimates(spec, family, X)


def _estimates(spec, family, X):
    """``estimate_many`` on a matrix of the family's own draws, unchecked."""
    a, b = family.support
    kind = spec.kind
    if kind in ORDER_STAT_KINDS:
        x_min, x_max = _row_extremes(X)
    if kind == "min_shift":
        return x_min - a
    if kind == "max_shift":
        return x_max - b
    if kind == "shifted_min":
        return x_min - a - spec.eps
    if kind == "convex_combo":
        return spec.lam * (x_min - a) + (1.0 - spec.lam) * (x_max - b)
    if kind == "mle":
        return _mle_rows(family, X, *_root_fn(spec, family))
    if kind == "lr":
        return _lr_rows(family, X, spec.eps, *_root_fn(spec, family))
    raise ValueError(f"unknown estimator kind {kind!r}")  # pragma: no cover


def tail_events(spec, family, X, up, dn):
    """Row indicators (T > up, T < dn) of T = estimate_many(spec, family, X);
    a threshold of None is not tested and its indicator is all False.

    The MLE (except the gaussian one, a row mean) and the LR estimate are
    roots of a nondecreasing estimating function of the shift: the score
    sum S and the log-ratio k.  Its value at a threshold below -band puts
    the root right of the threshold, above +band left of it, with the zero
    bands of the full solve (1e-9 n for S, 1e-12 n for k).  A threshold
    outside the bracket of admissible shifts, and an LR row in the narrow
    case, need no evaluation, so the estimating function is evaluated only
    on the rows the threshold leaves undecided, in slices of _SLICE_VALUES
    values, each read as a view of X where its rows are consecutive and
    gathered otherwise.  Rows inside the band, or within a slack of a
    finite bracket end, get the full solve, so every indicator is that of
    the full estimate.  Other kinds compare the full estimate.

    A row's extremes fix its bracket ends at a finite edge only, so only
    those are taken, once per call: none on the gaussian, whose ends are
    infinite, the minima alone where only the lower edge is finite (gamma,
    weibull).  The slack grows with the row's spread; with one open side it
    takes the block's spread instead, no smaller, which only leaves more
    rows to the full solve.
    """
    X = _matrix(X)
    check_family(spec, family)
    if spec.kind not in ("mle", "lr") or (spec.kind == "mle" and family.kind == "gaussian"):
        return _compare(_estimates(spec, family, X), up, dn)
    fn, inset, band = _root_fn(spec, family)
    m, n = X.shape
    a, b = family.support
    finite_a, finite_b = math.isfinite(a), math.isfinite(b)
    x_min = _row_reduce(np.minimum, X) if finite_a else X.min() if finite_b else 0.0
    x_max = _row_reduce(np.maximum, X) if finite_b else X.max() if finite_a else 0.0
    # infinite on an open side
    lo, hi = (np.broadcast_to(end, m) for end in (x_max - b + inset, x_min - a - inset))
    # the full solve moves a bracket end inward by at most 1e-12 of the
    # bracket (MLE) or 1e-13 of its larger end (LR): thresholds that close
    # to a finite end are left to it, with room for the other end to lie
    # up to 2^10 sample spreads away when it is grown from the sample
    ends = np.where(np.isfinite(lo), np.abs(lo), 0.0) + np.where(np.isfinite(hi), np.abs(hi), 0.0)
    slack = 1e-9 * (1.0 + ends + x_max - x_min)
    # the narrow case needs two finite edges
    narrow_rows = spec.kind == "lr" and finite_a and finite_b
    if narrow_rows:
        narrow, t_narrow = _lr_narrow(family, x_min, x_max, spec.eps)
    sides, rest = [], np.zeros(m, dtype=bool)
    for thr in (up, dn):
        if thr is None:
            sides.append((np.zeros(m, dtype=bool),) * 2)
            continue
        thr = float(thr)
        right, left = thr < lo, thr > hi
        sign = ~(right | left) & (np.minimum(thr - lo, hi - thr) > slack)
        if narrow_rows:
            sign &= ~narrow
            right[narrow] = t_narrow[narrow] > thr
            left[narrow] = t_narrow[narrow] < thr
        # the rows are independent: a gathered row gives the value it has
        # in the whole matrix
        rows, step = np.flatnonzero(sign), max(1, _SLICE_VALUES // n)
        for i in range(0, rows.size, step):
            r = rows[i:i + step]
            if r[-1] - r[0] == r.size - 1:
                r = slice(r[0], r[-1] + 1)
            v = fn(X[r], thr)
            right[r] = v < -band * n
            left[r] = v > band * n
        sides.append((right, left))
        rest |= ~(right | left)
    (above, _), (_, below) = sides
    if rest.any():
        above[rest], below[rest] = _compare(_estimates(spec, family, X[rest]), up, dn)
    return above, below


def _compare(t, up, dn):
    """(t > up, t < dn), all False for a threshold of None."""
    off = np.zeros(t.shape, dtype=bool)
    return (off if up is None else t > up), (off if dn is None else t < dn)


def _strip_width(spec, family, eps):
    """Width w of the edge strips that settle the tail events of the MLE
    (not the gaussian one) or LR estimate T of a sample u_i + theta: T
    exceeds theta + eps only if min u - a > w, and falls below theta - eps
    only if b - max u > w.  T lies in the bracket of admissible shifts
    [max x - b + inset, min x - a - inset] (inset 0 for the MLE, the LR
    estimator's own eps), except on a narrow LR row (``_lr_narrow``),
    whose estimate theta + (min u - a + max u - b) / 2 lies within
    (min u - a) / 2 above and (b - max u) / 2 below theta: hence
    w = eps + min(inset, eps)."""
    inset = _root_fn(spec, family)[1]
    return eps + min(inset, eps)


def extreme_events(spec, family, f_min, s_max, c_up, c_dn):
    """Row indicators (T > theta + c_up, T < theta + c_dn) of an
    order-statistic estimate T, for rows given by f_min, the mass of f below
    their minimum, and s_max, the mass above their maximum.

    The min kinds compare f_min with the mass below a + c (a + eps + c for
    shifted_min), max_shift compares s_max with the mass above b + c: F is
    nondecreasing, so these are the events themselves.  The convex
    combination T = lam dl - (1 - lam) dr, dl = min - a and dr = b - max,
    exceeds c_up exactly where dr < (lam dl - c_up) / (1 - lam), that is
    where s_max < G_up(f_min), the mass above b - (lam dl - c_up) / (1 - lam)
    at the dl whose mass below a + dl is f_min; it falls below c_dn exactly
    where f_min < G_dn(s_max), the mass below a + (c_dn + (1 - lam) dr) / lam.
    Both boundaries are nondecreasing.  Each is evaluated once per call at
    the points of the family's mass table, where the mass is exact, and
    bounded on _BINS uniform bins of its argument; a row compares its mass
    with its bin's bounds, and only a row between them (or in a bin past
    the table's last mass) takes one exact quantile, dl or dr, and one mass.
    """
    return _extreme_rule(spec, family, c_up, c_dn)(f_min, s_max)


# uniform mass bins on which the convex combination's boundaries are
# bounded, and their relative widening: far above the rounding of a table
# mass and of the quantile solve
_BINS = 4096
_BIN_ROOM = 1e-8


def _extreme_rule(spec, family, c_up, c_dn):
    """``extreme_events`` at fixed thresholds, as a function of
    (f_min, s_max): the family check, the threshold masses and the convex
    combination's bin bounds are taken once per call, however many blocks
    of rows it then decides."""
    check_family(spec, family)
    a, b = family.support
    kind = spec.kind
    below_mass = lambda x: fam_mod._mass_within(family, x - a)
    above_mass = lambda x: fam_mod._mass_within(family, b - x, upper=True)
    if kind == "max_shift":
        m_up, m_dn = above_mass(b + c_up), above_mass(b + c_dn)
        return lambda f_min, s_max: (s_max < m_up, s_max > m_dn)
    if kind != "convex_combo":
        a_eff = a + spec.eps if kind == "shifted_min" else a
        m_up, m_dn = below_mass(a_eff + c_up), below_mass(a_eff + c_dn)
        return lambda f_min, s_max: (f_min > m_up, f_min < m_dn)
    lam = spec.lam
    # the boundaries as functions of the distance dl (dr) from the edge
    g_up = lambda dl: _near_mass(family, (lam * dl - c_up) / (1.0 - lam), upper=True)
    g_dn = lambda dr: _near_mass(family, (c_dn + (1.0 - lam) * dr) / lam, upper=False)
    up = _below_boundary(family, g_up, upper=False)
    dn = _below_boundary(family, g_dn, upper=True)
    return lambda f_min, s_max: (up(f_min, s_max), dn(s_max, f_min))


def _below_boundary(family, g, upper):
    """The rule q < G(p) per row, G(p) = g(d), d the distance from the lower
    (upper) end whose mass is p, g nondecreasing.  On the bin
    [j, j + 1) / _BINS of p, G lies between its values at the mass table's
    points at or below j / _BINS and at or above (j + 1) / _BINS: their
    masses are exact, and the quantile solve keeps d between them.  Below
    the lower bound (widened by _BIN_ROOM) a row holds, at or above the
    upper one it does not; the rows between, and those of a bin with no
    table point above it, solve d and compare with g(d)."""
    tab = fam_mod._mass_table(family, upper)
    edges = np.arange(_BINS + 1) / _BINS
    i_lo = np.searchsorted(tab.mass, edges[:-1], side="right") - 1
    i_hi = np.searchsorted(tab.mass, edges[1:])
    covered = i_hi < tab.mass.size
    # g at the table points some bin reads: a few hundred, as the table's
    # points crowd into the first and last bins' mass near a power edge
    at_table = np.zeros(tab.t.size)
    read = np.unique(np.concatenate([i_lo, i_hi[covered]]))
    at_table[read] = g(tab.t[read])
    # one more bin for p = 1, decided exactly like those past the table
    lo = np.append(np.where(covered, at_table[i_lo] * (1.0 - _BIN_ROOM), 0.0), 0.0)
    hi = np.append(np.where(covered, at_table[np.minimum(i_hi, tab.mass.size - 1)]
                            * (1.0 + _BIN_ROOM), math.inf), math.inf)
    end = 2 if upper else 1

    def rule(p, q):
        j = (p * _BINS).astype(np.intp)
        out = q < lo[j]
        rows = np.flatnonzero(~out & (q < hi[j]))
        if rows.size:
            out[rows] = q[rows] < g(fam_mod._quantile(family, p[rows], upper)[end])
        return out

    return rule


def _near_mass(family, t, upper):
    """Mass of f within distances t of its lower (upper) edge, both edges
    finite, read from the nearer end as ``families.cdf`` does: past half
    the mass it is 1 minus the mass within the rest of the support of the
    other edge, which keeps it exact to ulps."""
    mass = fam_mod._mass_within(family, t, upper)
    far = mass > 0.5
    if far.any():
        a, b = family.support
        mass[far] = 1.0 - fam_mod._mass_within(family, (b - a) - t[far], not upper)
    return mass


def _need_finite(edge, kind, side):
    if not math.isfinite(edge):
        raise ValueError(f"{kind} undefined: {side} support edge is infinite")


def _row_extremes(X):
    """(min, max) of each row of a matrix (``_row_reduce``)."""
    return _row_reduce(np.minimum, X), _row_reduce(np.maximum, X)


def _row_reduce(ufunc, X):
    """``ufunc`` (np.minimum or np.maximum) over each row of a matrix, by
    ``reduceat`` on the flat rows: the same values as X.min(axis=1) or
    X.max(axis=1), at about half their cost on rows of 48 values or
    fewer."""
    m, n = X.shape
    return ufunc.reduceat(X.ravel(), np.arange(0, m * n, n))


def _root_fn(spec, family):
    """The MLE's score sum or the LR estimator's log-ratio k as fn(X, z),
    nondecreasing in z (the family is log-concave), z one shift per row or
    one for all rows, with the inset of its bracket ends and its zero band
    per sample value."""
    if spec.kind == "mle":
        return (lambda Xr, theta: _score_sum(family, Xr, theta)), 0.0, 1e-9
    return (lambda Xr, z: _k_rows(family, Xr, z, spec.eps)), spec.eps, 1e-12


def _score_sum(family, X, theta):
    """Row score sums S(theta) = sum_i f'(x_i - theta)/f(x_i - theta),
    theta one value per row or a scalar."""
    U = X - np.reshape(theta, (-1, 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = fam_mod._score3(family, U, *fam_mod._dists(family, U))
    return np.einsum("ij->i", s)


def _interval(fn, family, X, inset, pad, short_of):
    """Per-row bracket [lo, hi] for a root of fn(X, z), nondecreasing in z.

    A finite support edge fixes its side at the end of the admissible
    shifts, moved inward by ``inset``.  An unbounded side starts
    range + 1 + pad beyond the other end (beyond the sample when both sides
    are unbounded) and moves out while short_of(side * fn) holds there.
    """
    a, b = family.support
    x_min, x_max = _row_extremes(X)
    spread = x_max - x_min + 1.0 + pad
    lo = x_max - b + inset
    hi = x_min - a - inset
    if not math.isfinite(b):
        lo = _expand(fn, X, (hi if math.isfinite(a) else x_min) - spread, spread, -1.0, short_of)
    if not math.isfinite(a):
        hi = _expand(fn, X, (lo if math.isfinite(b) else x_max) + spread, spread, 1.0, short_of)
    return lo, hi


def _expand(fn, X, z, spread, side, short_of):
    """Step z outward (side -1 left, +1 right) by a doubling spread while
    short_of(side * fn(X, z)) holds on some row, for at most 80 steps."""
    spread = spread.copy()
    for _ in range(80):
        bad = short_of(side * fn(X, z))
        if not bad.any():
            break
        z[bad] += side * spread[bad]
        spread[bad] *= 2.0
    return z


def _bisect(fn, X, lo, hi, left_of, steps):
    """Midpoint of the final bracket after ``steps`` halvings, keeping the
    half whose left end satisfies left_of(fn(X, mid)) per row."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        left = left_of(fn(X, mid))
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _mle_rows(family, X, score, inset, band):
    m, n = X.shape
    if family.kind == "gaussian":
        # score sum is linear in theta with root at the mean
        return X.mean(axis=1)
    lo, hi = _interval(score, family, X, inset, 0.0, lambda v: v < 0)
    eta = 1e-12 * (hi - lo)
    zero_tol = band * n
    s_lo = score(X, lo + eta)
    s_hi = score(X, hi - eta)
    # the log-likelihood derivative is -S; S is nondecreasing in theta
    flat = (np.abs(s_lo) <= zero_tol) & (np.abs(s_hi) <= zero_tol)
    all_neg = (s_hi <= zero_tol) & ~flat      # likelihood increasing: right end
    all_pos = (s_lo >= -zero_tol) & ~flat     # likelihood decreasing: left end
    out = np.empty(m)
    out[flat] = 0.5 * (lo[flat] + hi[flat])
    out[all_neg] = hi[all_neg]
    out[all_pos] = lo[all_pos]
    rest = ~(flat | all_neg | all_pos)
    if rest.any():
        out[rest] = _bisect(score, X[rest], lo[rest], hi[rest],
                            lambda s: s <= 0.0, 70)
    return out


def _k_rows(family, X, z, eps):
    """k(z) = mean_i [log f(x_i - z + eps) - log f(x_i - z - eps)] per row,
    nondecreasing in z for log-concave f: the row mean of the window kernel
    ``families._log_ratio`` at lower points u = x - z - eps, shift 2 eps,
    with the upper points' distance to b taken once as (b - u) - 2 eps.
    Meaningful where every u and u + 2 eps lies inside the support, i.e.
    for z inside the bracket of admissible shifts (``_interval``), the only
    z it is read at; z is one value per row or a scalar."""
    U = X - np.reshape(z, (-1, 1))
    U -= eps
    dl, dr = fam_mod._dists(family, U)
    r = fam_mod._log_ratio(family, U, dl, dr - 2.0 * eps, 2.0 * eps)
    return np.einsum("ij->i", r) / X.shape[1]


def _lr_narrow(family, x_min, x_max, eps):
    """Rows whose admissible shifts [max x - b, min x - a] are no wider
    than 2 eps, and the midpoint of those shifts, the LR estimate there;
    from the row extremes."""
    a, b = family.support
    t_lower = x_min - a
    t_upper = x_max - b
    with np.errstate(invalid="ignore"):
        return t_lower - t_upper <= 2.0 * eps, 0.5 * (t_lower + t_upper)


def _lr_rows(family, X, eps, k, inset, band):
    m, n = X.shape
    narrow, t_narrow = _lr_narrow(family, *_row_extremes(X), eps)
    out = np.where(narrow, t_narrow, np.nan)
    wide = ~narrow
    if not wide.any():
        return out
    Xw = X[wide]
    # the ends lie strictly off a zero stretch of k, whose midpoint is the estimate
    lo, hi = _interval(k, family, Xw, inset, 4.0 * eps, lambda v: v <= 0)
    eta = 1e-13 * np.maximum(np.abs(lo), np.abs(hi)) + 1e-13
    zero_tol = band * n
    k_lo = k(Xw, lo + eta)
    k_hi = k(Xw, hi - eta)
    # sup{z : k < 0}: boundary between k < 0 and k >= 0
    z_minus = _k_bisect(k, Xw, lo, hi, k_lo, k_hi,
                        left_of=lambda v: v < -zero_tol)
    # inf{z : k > 0}: the right end of a zero stretch of k, else z_minus
    z_plus = _k_bisect(k, Xw, z_minus, hi, np.zeros(len(hi)), k_hi,
                       left_of=lambda v: v <= zero_tol)
    out[wide] = 0.5 * (z_minus + z_plus)
    return out


def _k_bisect(k, X, lo, hi, k_lo, k_hi, left_of):
    """Boundary z between {left_of(k(z))} and its complement, clamped to
    [lo, hi] when k has constant predicate value on the whole interval."""
    always_right = ~left_of(k_lo)   # predicate false already at lo
    always_left = left_of(k_hi)     # predicate true up to hi
    out = np.where(always_right, lo, np.where(always_left, hi, np.nan))
    rest = ~(always_right | always_left)
    if rest.any():
        out[rest] = _bisect(k, X[rest], lo[rest], hi[rest], left_of, 60)
    return out
