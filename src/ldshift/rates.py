"""First exponential rates of estimators and tests: Monte Carlo tail-rate
regression, the Chernoff-integral MLE rates, order-statistic closed forms,
the likelihood-ratio estimator identity, and the hypothesis-testing
exponents (Chernoff sum-of-errors, Hoeffding trade-off).

Monte Carlo conventions: per-(n) generator seeded from (root seed, n), so
results are bit-identical regardless of chunking.  The order-statistic
estimators (min_shift, max_shift, shifted_min, convex_combo) read a sample
only through its extremes, so each of their rows draws two uniforms
(U1, U2), in shape (rows, 2), and takes the extremes exactly from their
joint law in probability space (David & Nagaraja, *Order Statistics*,
2003): the mass above the maximum is S_max = 1 - U1^(1/n), and given it the
mass below the minimum is F_min = (1 - S_max)(1 - U2^(1/(n-1))), or
1 - S_max when n = 1; ``extreme_events`` decides their tail events.  The
other estimators draw all n values of a row from the family and take
their tail events {T > theta + eps} and {T < theta - eps} from
``tail_events``, which for the MLE and LR estimators reads the side from
the sign of the monotone estimating function at the threshold and solves
in full only the rows inside its zero band or at a bracket end, so the
counts are those of the full estimates.  The tail regression fits
-log p_hat = beta n + gamma log n + c by event-count-weighted least squares
(the log n nuisance absorbs the sqrt(n) prefactor of mean-type statistics,
which otherwise biases the slope well beyond the target tolerances).

The analytic rates integrate on the package's own quadrature, never scipy:
the overlap nodes of a shifted pair, and for an edge strip the family's
mass table, from which every mass of f in the package is read (as are the
Monte Carlo's tail masses).
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import families as fam_mod
from .bounds import _argmax, _optimize
from .estimators import ORDER_STAT_KINDS, EstimatorSpec, extreme_events, tail_events
from .renyi import (_lse, _overlap_nodes, _pair_nodes, _renyi_from_nodes, default_ladder,
                    g_value)

__all__ = [
    "InsufficientEventsError",
    "WindowError",
    "TailRateEstimate",
    "OrderStatRates",
    "HoeffdingRate",
    "HtSimResult",
    "Alpha2Estimate",
    "mc_tail_rate",
    "mle_chernoff_rate",
    "order_stat_rates",
    "lr_rate_identity",
    "chernoff_test_rate",
    "hoeffding_rate",
    "ht_simulate",
    "alpha2_estimate",
]

_DEFAULT_N_GRID = (8, 16, 32, 64, 128, 256, 384)
_MIN_EVENTS = 10
# matrix entries per simulation chunk: 8 MB of float64, small enough that
# whether the allocator reuses a freed chunk or maps a fresh one moves the
# process's peak memory by little
_CHUNK_VALUES = 1_000_000
# float64 temporaries per order-statistic row: its two uniforms, the two
# masses and what deciding its events takes
_EXTREME_ROW_VALUES = 8


class InsufficientEventsError(RuntimeError):
    """No tail events observed on either side at any sample size."""


class WindowError(ValueError):
    """An order-statistic integration window leaves the support."""


@dataclass(frozen=True)
class TailRateEstimate:
    beta_plus: float
    beta_minus: float
    beta: float
    slope_stderr: float
    n_grid: tuple
    p_plus: np.ndarray
    p_minus: np.ndarray
    trials: int
    seed: int


@dataclass(frozen=True)
class OrderStatRates:
    eps: float
    min_shift_plus: float
    min_shift_minus: float
    max_shift_plus: float
    max_shift_minus: float
    combo_plus: Optional[float] = None
    combo_minus: Optional[float] = None
    lam: Optional[float] = None


@dataclass(frozen=True)
class HoeffdingRate:
    value: float
    s_star: float
    at_boundary: bool
    clamped: bool


@dataclass(frozen=True)
class HtSimResult:
    slope: float
    stderr: float
    n_grid: tuple
    error_sums: np.ndarray
    trials: int
    seed: int


@dataclass(frozen=True)
class Alpha2Estimate:
    value: float
    stderr: float                # the last rung's slope_stderr / g(eps)
    rung_values: np.ndarray
    eps_ladder: tuple


# ---------------------------------------------------------------------------
# tail-rate regression

def _fit_rate(n_arr, counts, trials):
    """Weighted fit of -log p_hat = beta n + gamma log n + c.

    Keeps points with >= _MIN_EVENTS events; weights are inverse delta-method
    variances (1-p)/(p * trials).  Returns (slope, stderr); slope is +inf
    when no events were seen at any n.
    """
    n_arr = np.asarray(n_arr, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.sum() == 0:
        return math.inf, 0.0
    keep = counts >= _MIN_EVENTS
    if keep.sum() == 0:
        keep = counts > 0
    n_k = n_arr[keep]
    p_k = counts[keep] / trials
    y = -np.log(p_k)
    if n_k.size == 1:
        return float(y[0] / n_k[0]), float("nan")
    var = np.maximum((1.0 - p_k) / (p_k * trials), 1e-12)
    w = 1.0 / var
    if n_k.size == 2:
        slope = (y[1] - y[0]) / (n_k[1] - n_k[0])
        err = math.sqrt(var[0] + var[1]) / abs(n_k[1] - n_k[0])
        return float(slope), float(err)
    X = np.vstack([n_k, np.log(n_k), np.ones_like(n_k)]).T
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    cov = np.linalg.inv(X.T @ (X * w[:, None]))
    return float(coef[0]), float(math.sqrt(cov[0, 0]))


def _child_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _extreme_masses(rng, m, n):
    """(F_min, S_max) of m samples of size n: the masses of f below their
    minimum and above their maximum, drawn exactly from the joint law of the
    extremes (module docstring)."""
    u = rng.random((m, 2))
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    s_max = -np.expm1(u[:, 0] / n)
    f_min = 1.0 - s_max
    if n > 1:
        f_min *= -np.expm1(u[:, 1] / (n - 1))
    return f_min, s_max


def mc_tail_rate(family, spec, theta, eps, n_grid=None, trials=100_000,
                 seed=0):
    """Empirical tail exponents of an estimator.

    For each n, simulates ``trials`` batches and counts {T > theta + eps}
    and {T < theta - eps}; the per-side slopes of -log p_hat come from the
    weighted regression above.  An order-statistic estimator's batch is its
    two extremes, drawn exactly in probability space: the family needs no
    sampler, and a row costs the same at every n.  Other estimators draw
    all n values.  A side with zero events everywhere reports the +inf
    marker; both sides empty raises InsufficientEventsError.
    """
    if n_grid is None:
        n_grid = _DEFAULT_N_GRID
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 1 or any(np.diff(n_grid) <= 0):
        raise ValueError("n_grid must be strictly increasing")
    trials = int(trials)
    up, dn = theta + eps, theta - eps
    extremes = spec.kind in ORDER_STAT_KINDS
    counts_p = np.zeros(len(n_grid))
    counts_m = np.zeros(len(n_grid))
    for i, n in enumerate(n_grid):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
        chunk = max(1, _CHUNK_VALUES // (_EXTREME_ROW_VALUES if extremes else n))
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            if extremes:
                above, below = extreme_events(spec, family, *_extreme_masses(rng, m, n),
                                              eps, -eps)
            else:
                X = fam_mod._draw(family, rng, m * n).reshape(m, n)
                X += theta
                above, below = tail_events(spec, family, X, up, dn)
                del X  # one chunk live at a time
            counts_p[i] += np.count_nonzero(above)
            counts_m[i] += np.count_nonzero(below)
            done += m
    if counts_p.sum() == 0 and counts_m.sum() == 0:
        raise InsufficientEventsError(
            f"no tail events for {spec.kind} at eps={eps} with n up to {n_grid[-1]}")
    beta_p, err_p = _fit_rate(n_grid, counts_p, trials)
    beta_m, err_m = _fit_rate(n_grid, counts_m, trials)
    beta = min(beta_p, beta_m)
    err = err_p if beta_p <= beta_m else err_m
    return TailRateEstimate(
        beta_plus=beta_p, beta_minus=beta_m, beta=beta, slope_stderr=err,
        n_grid=n_grid, p_plus=counts_p / trials, p_minus=counts_m / trials,
        trials=trials, seed=int(seed),
    )


# ---------------------------------------------------------------------------
# analytic rates

def _chernoff_objective(family, eps, side):
    """F(t) = -log int exp(-+ t score) f over the overlap of f and f(. -+ eps)
    (concave): the density is the first point's, the score the second's, whose
    singular edge sits outside the window where exp(-+ t score) would blow up."""
    shifted = (family, eps if side == "plus" else -eps)
    nodes = _overlap_nodes((family, 0.0), shifted)
    if nodes is None:
        raise WindowError(f"eps={eps} exceeds the support width")
    lf = fam_mod._logpdf3(family, *fam_mod._at_nodes(family, 0.0, nodes))
    sc = fam_mod._score3(family, *fam_mod._at_nodes(*shifted, nodes))
    sign = -1.0 if side == "plus" else 1.0
    with np.errstate(divide="ignore"):
        lw = np.log(nodes.w)

    def F(t):
        v = sign * t * sc
        v += lf
        v += lw
        return -_lse(v)

    return F


def mle_chernoff_rate(family, eps, side):
    """Analytic half-side exponent of the MLE for a log-concave family:
    sup over t >= 0 of -log int exp(-+ t f'(x -+ eps)/f(x -+ eps)) f(x) dx."""
    if not family.log_concave:
        raise ValueError(f"mle rate needs a log-concave family, got {family.kind}")
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if eps == 0:
        return 0.0
    F = _chernoff_objective(family, eps, side)
    # grow the bracket until the concave objective has turned over
    t_hi = 1.0
    for _ in range(60):
        if F(t_hi) < F(t_hi / 2.0):
            break
        t_hi *= 2.0
    best, _ = _argmax(F, 0.0, t_hi)
    return float(max(best, F(0.0)))


def order_stat_rates(family, eps, lam=None):
    """Closed-form half-side rates of min(x)-a, max(x)-b, and their convex
    combination on a bounded support: -log1p(-m), m the mass of the edge strip
    cut off, read from the family's mass table (``families._mass_within``,
    exact to ulps even for tiny m)."""
    a, b = family.support
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("order-statistic rates need a bounded support")
    width = b - a
    if not 0.0 < eps < width:
        raise WindowError(f"eps={eps} outside (0, {width})")
    # the strip [lo, hi] at an edge: its width t = hi - lo from that end
    strip = lambda t, upper: -math.log1p(-float(fam_mod._mass_within(family, t, upper)))
    # min(x) - a overshoots by eps only when every draw sits above a + eps;
    # max(x) - b undershoots only when every draw sits below b - eps
    min_plus = strip((a + eps) - a, False)
    max_minus = strip(b - (b - eps), True)
    combo_plus = combo_minus = None
    if lam is not None:
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
        if eps / (1.0 - lam) >= width or eps / lam >= width:
            raise WindowError(
                f"combo window exceeds support: eps={eps}, lambda={lam}, width={width}")
        combo_plus = strip((a + eps / lam) - a, False)
        combo_minus = strip(b - (b - eps / (1.0 - lam)), True)
    return OrderStatRates(
        eps=float(eps), min_shift_plus=min_plus, min_shift_minus=math.inf,
        max_shift_plus=math.inf, max_shift_minus=max_minus,
        combo_plus=combo_plus, combo_minus=combo_minus, lam=lam,
    )


# ---------------------------------------------------------------------------
# hypothesis-testing exponents

def chernoff_test_rate(p_point, q_point):
    """Best exponent of the summed testing errors: sup_s I^s(p||q); +inf
    when the supports are disjoint."""
    fam_p, tp = p_point
    fam_q, tq = q_point
    if fam_p is fam_q and tp == tq:
        return 0.0
    pair = _pair_nodes(p_point, q_point)
    if pair is None:
        return math.inf
    value, _ = _argmax(lambda s: _renyi_from_nodes(pair, s)[0], 1e-7, 1.0 - 1e-7)
    return float(value)


def hoeffding_rate(p_point, q_point, r):
    """Best second-error exponent under first-error constraint r:
    sup_s (-s r + I^s(p||q)) / (1 - s), floored at zero."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    pair = _pair_nodes(p_point, q_point)
    if pair is None:
        return HoeffdingRate(value=math.inf, s_star=0.5, at_boundary=False,
                             clamped=False)

    def objective(s):
        v = (-s * r + _renyi_from_nodes(pair, s)) / (1.0 - s)
        return v if np.ndim(s) else float(v[0])

    # scan catches suprema in the interior; the s -> 1 probe the boundary case
    grid = np.concatenate([np.linspace(0.01, 0.99, 50), [1.0 - 1e-6]])
    value, s_star = _optimize(objective, grid, maximize=True)
    at_boundary = s_star > 1.0 - 1e-4
    clamped = value < 0.0
    return HoeffdingRate(value=max(value, 0.0), s_star=s_star,
                         at_boundary=at_boundary, clamped=clamped)


def ht_simulate(p_point, q_point, n_grid=None, trials=100_000, seed=0):
    """Simulate the likelihood test {p^n >= q^n} (ties accept) and regress
    -log(e1 + e2) on n."""
    if n_grid is None:
        n_grid = (8, 16, 24, 32, 40, 48)
    n_grid = tuple(int(n) for n in n_grid)
    trials = int(trials)
    fam_p, tp = p_point
    fam_q, tq = q_point
    sums = np.zeros(len(n_grid))
    for i, n in enumerate(n_grid):
        rng_p = np.random.default_rng(np.random.SeedSequence((seed, n, 0)))
        rng_q = np.random.default_rng(np.random.SeedSequence((seed, n, 1)))
        chunk = max(1, _CHUNK_VALUES // n)
        done = 0
        e1 = e2 = 0
        while done < trials:
            m = min(chunk, trials - done)
            # one chunk live at a time
            Xp = fam_mod._draw(fam_p, rng_p, m * n).reshape(m, n)
            Xp += tp
            e1 += np.count_nonzero(_llr_rows(p_point, q_point, Xp) < 0)
            del Xp
            Xq = fam_mod._draw(fam_q, rng_q, m * n).reshape(m, n)
            Xq += tq
            e2 += np.count_nonzero(_llr_rows(p_point, q_point, Xq) >= 0)
            del Xq
            done += m
        sums[i] = e1 + e2
    if sums.sum() == 0:
        raise InsufficientEventsError("no testing errors observed at any n")
    slope, err = _fit_rate(n_grid, sums, trials)
    return HtSimResult(slope=slope, stderr=err, n_grid=n_grid,
                       error_sums=sums, trials=trials, seed=int(seed))


def _llr_rows(p_point, q_point, X):
    fam_p, tp = p_point
    fam_q, tq = q_point
    lp = fam_mod._logpdf_plain(fam_p, X - tp)
    lq = fam_mod._logpdf_plain(fam_q, X - tq)
    with np.errstate(invalid="ignore"):
        d = lp - lq
    # points outside both supports cannot occur under either hypothesis
    return np.sum(d, axis=1)


def lr_rate_identity(family, theta, eps, n_grid=None, trials=20_000, seed=0):
    """Compare the likelihood-ratio estimator's Monte Carlo rate (lhs)
    against sup_s I^s(f_{theta-eps} || f_{theta+eps}) (rhs)."""
    rhs = chernoff_test_rate((family, theta - eps), (family, theta + eps))
    est = mc_tail_rate(family, EstimatorSpec("lr", eps=eps), theta, eps,
                       n_grid=n_grid, trials=trials, seed=seed)
    return est.beta, rhs


# ---------------------------------------------------------------------------
# the empirical interval-estimation rate

def alpha2_estimate(family, spec, theta, g_tag, eps_ladder=None, n_grid=None,
                    trials=100_000, seed=0):
    """Empirical stand-in for the interval-estimation rate: beta(spec, eps)
    divided by g(eps) along a shrinking ladder; the reported value and its
    standard error are the final rung's.

    The infimum over the eps-window of shift centers collapses for location
    families (the law of T - theta does not depend on theta), so one center
    per rung suffices.  Estimators parameterized by a shrinking shift (lr,
    shifted_min) track the rung eps.
    """
    if eps_ladder is None:
        eps_ladder = default_ladder("abs", family)
    eps_ladder = tuple(float(e) for e in eps_ladder)
    # the seed count is part of the output: it fixes every rung's seed
    seeds = _child_seeds(seed, 2 * len(eps_ladder) + 2)
    rungs = []
    for idx, eps in enumerate(eps_ladder):
        spec_eff = replace(spec, eps=eps) if spec.kind in ("lr", "shifted_min") else spec
        est = mc_tail_rate(family, spec_eff, theta, eps, n_grid=n_grid,
                           trials=trials, seed=seeds[idx])
        g = float(g_value(g_tag, eps))
        rungs.append(est.beta / g)
        stderr = est.slope_stderr / g
    return Alpha2Estimate(value=float(rungs[-1]), stderr=float(stderr),
                          rung_values=np.asarray(rungs), eps_ladder=eps_ladder)
