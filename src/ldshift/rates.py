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
1 - S_max when n = 1; ``extreme_events`` decides their tail events.  A
min or max kind compares one mass with the threshold's; the convex
combination compares one mass with a boundary in the other, bounded once
per call on uniform bins from the family's mass table, and only a row
between its bin's bounds solves one exact quantile.  The gaussian MLE is
the row mean, so each of its rows draws one standard normal Z and takes
the mean exactly from its law, sigma Z / sqrt(n) about 0.  The other
estimators draw all n values of a row from the family and take their
tail events {T > eps} and {T < -eps} from ``tail_events``,
which for the MLE and LR estimators reads the side from the sign of the
monotone estimating function at the threshold and solves in full only the
rows inside its zero band or at a bracket end, so the counts are those of
the full estimates.  (The gaussian LR estimate is the mean too, but keeps
its n-value rows: they exercise the LR root solver.)  Every row kind
simulates at theta = 0: the law of T - theta does not depend on theta.

Working set.  A Monte Carlo block holds at most _CHUNK_VALUES = 2**18
float64 values, 2 MiB: a block of n-value rows (``_strip_free``) at most
that many sample values, and so does each of its rejection draws; a block
of summary rows (extremes, gaussian means) as many rows as fit at
_SUMMARY_ROW_VALUES float64 a row, its draws, its summary and what
deciding its events takes.  Rejection draws, the sign test of
``tail_events`` and the likelihood test each take at most
``estimators._SLICE_VALUES`` values (128 KiB) at a time, so deciding a
block keeps less than half a block more alive.  One call's peak memory is
thus a small multiple of 2 MiB, whatever its trials and n.  No row depends
on the block or piece size, so every count is the same at any budget.

Strip-free rows.  At a finite support edge one value can settle a row.
The MLE or LR estimate T of a sample u_i + theta exceeds theta + eps only
if every u_i - a > w, and falls below theta - eps only if every
b - u_i > w, w = eps + min(inset, eps) (``estimators._strip_width``); in
the likelihood test a value where the other density is zero decides its
row with no error; its strips are the shift wide (``renyi._edge_strips``),
so a value kept lies more than the shift from the edge, as the window
kernel needs.  Of ``trials`` samples of size n, the number with no
value in strips of mass m is Binomial(trials, (1 - m)^n), m read from the
mass table at each strip's own end.  ``_strip_free`` draws that count
first (no draw where m = 0: all ``trials`` samples are kept), then only
those samples, from f conditioned off the strips (rejection, acceptance
1 - m); accepted values left over carry from block to block, so the rows
do not depend on the chunk size.  ``ht_simulate`` draws each hypothesis
this way.  A rung of ``mc_tail_rate``'s n-value rows runs one or two such
streams, each with its own seed key, strips and thresholds: shared rows
are the one stream (seed, n), with no strip, testing both thresholds; on
a rung where it draws fewer values, (1 - m_lo)^(n - 1) + (1 - m_hi)^(n - 1)
< 1, each side has a stream (seed, n, side) clear of its strip, testing
its own threshold.  An open edge has m = 0, so gamma, weibull and gaussian
rungs never split.

The tail regression fits -log p_hat = beta n + gamma log n + c by
event-count-weighted least squares (the log n nuisance absorbs the sqrt(n)
prefactor of mean-type statistics, which otherwise biases the slope well
beyond the target tolerances).

The analytic rates integrate on the package's own quadrature, never scipy:
the overlap nodes of a shifted pair, and for an edge strip the family's
mass table, from which every mass of f in the package is read (as are the
Monte Carlo's tail masses).  The MLE's Chernoff objective F(t) = -log int
f exp(-+ t psi) takes the D form of the Renyi sweep (``renyi`` module
docstring): F = -log1p(-D), D = m - sum f w expm1(t psi) over the overlap
nodes, m the mass of f outside the overlap, so a small F keeps its
relative precision where -log(sum ~ 1) kept none.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import families as fam_mod
from .bounds import _argmax, _optimize
from .estimators import (_SLICE_VALUES, EPS_KINDS, ORDER_STAT_KINDS, EstimatorSpec,
                         _extreme_rule, _strip_width, check_family, tail_events)
from .renyi import (_EXP_MAX, _edge_strips, _overlap_nodes, _pair_nodes, _renyi_from_nodes,
                    default_ladder, g_value)

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
# float64 values per Monte Carlo block (module docstring): 2 MiB.  A
# call's peak memory follows the block, not the work: at 8 MB a block and
# the temporaries deciding it held 23.5 MiB in one gamma(3) MLE call
_CHUNK_VALUES = 2**18
# float64 a summary row holds at its peak (the two extremes of a convex
# combination, traced): its draws, the summary and what deciding its
# events takes
_SUMMARY_ROW_VALUES = 10


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


def _gaussian_means(family, rng, m, n):
    """Means of m gaussian samples of size n about 0, drawn exactly from
    their law sigma Z / sqrt(n), one standard normal per row."""
    s, = family.params
    z = rng.standard_normal(m)
    z *= s / math.sqrt(n)
    return z


def _check_n_grid(n_grid):
    """The sample sizes as a tuple of ints; ValueError unless they are
    positive and strictly increasing."""
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 1 or n_grid[0] < 1 or any(np.diff(n_grid) <= 0):
        raise ValueError(f"n_grid must be positive and strictly increasing, got {list(n_grid)}")
    return n_grid


def _check_trials(trials):
    """The number of trials as an int; ValueError unless it is positive."""
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    return trials


def _check_rungs(family, eps_ladder):
    """The tail shifts eps as a float tuple; ValueError unless there is at
    least one and each is positive and narrower than the support."""
    eps_ladder = tuple(float(e) for e in eps_ladder)
    width = family.b - family.a
    if not (eps_ladder and all(0.0 < eps < width for eps in eps_ladder)):
        raise ValueError(f"eps_ladder needs one or more rungs eps, each positive and narrower "
                         f"than the support width {width}, got {list(eps_ladder)}")
    return eps_ladder


def _strip_free(family, rng, trials, n, widths=(-math.inf, -math.inf), m=0.0):
    """Yield the samples of size n, of ``trials``, that draw no value in the
    edge strips {u - a <= widths[0]} and {b - u <= widths[1]} of mass m:
    their number first, Binomial(trials, (1 - m)^n) (all ``trials`` when
    m = 0, with no draw), then the samples, from f conditioned off the
    strips, as (k, n) blocks of at most _CHUNK_VALUES values (at least one
    row).  Draws come at most _SLICE_VALUES at a time; those in a strip (a
    width of -inf is none) are rejected and each row takes the next n
    accepted values, carrying those left over into the next block, so the
    rows do not depend on the block size; with m = 0 they are consecutive
    draws."""
    rows = trials
    if m != 0.0:
        rows = int(rng.binomial(trials, math.exp(n * math.log1p(-m)) if m < 1.0 else 0.0))
    a, b = family.support
    lo_w, hi_w = widths
    carry = np.empty(0)
    k_max = max(1, _CHUNK_VALUES // n)
    for start in range(0, rows, k_max):
        k = min(k_max, rows - start)
        if m == 0.0:
            X = fam_mod._draw(family, rng, k * n).reshape(k, n)
        else:
            X = np.empty((k, n))
            flat = X.reshape(-1)
            got = min(carry.size, flat.size)
            flat[:got] = carry[:got]
            carry = carry[got:]
            while got < flat.size:
                v = fam_mod._draw(family, rng,
                                  min(_SLICE_VALUES, math.ceil((flat.size - got) / (1.0 - m))))
                if lo_w > -math.inf:
                    v = v[v - a > lo_w]
                if hi_w > -math.inf:
                    v = v[b - v > hi_w]
                take = min(v.size, flat.size - got)
                flat[got:got + take] = v[:take]
                carry = v[take:]
                got += take
            del flat
        yield X
        del X  # one block live at a time


def mc_tail_rate(family, spec, theta, eps, n_grid=None, trials=100_000,
                 seed=0):
    """Empirical tail exponents of an estimator.

    For each n, simulates ``trials`` batches and counts {T > theta + eps}
    and {T < theta - eps}; the per-side slopes of -log p_hat come from the
    weighted regression above.  theta does not change the result: the law
    of T - theta does not depend on it, so every row simulates at 0 and
    tests +-eps.  A row is one of four kinds (module
    docstring), each drawn from its own per-n stream:
    - an order-statistic estimator's two extremes, drawn exactly in
      probability space: the family needs no sampler;
    - the gaussian MLE's mean, one standard normal per row;
    - strip-free rows of the MLE or LR estimator on a family with two
      finite edges, one sample per side, where that draws fewer values
      than shared rows: only the rows with no value in the edge strip that
      settles the side are drawn, their number first;
    - all n values, for every other estimator and rung.
    The first two cost the same at every n.  A side with zero events
    everywhere reports the +inf marker; both sides empty raises
    InsufficientEventsError.
    """
    n_grid = _check_n_grid(_DEFAULT_N_GRID if n_grid is None else n_grid)
    trials = _check_trials(trials)
    _check_rungs(family, (eps,))
    check_family(spec, family)
    extremes = spec.kind in ORDER_STAT_KINDS
    means = spec.kind == "mle" and family.kind == "gaussian"
    if extremes:
        decide = _extreme_rule(spec, family, eps, -eps)
    elif not means:
        w = _strip_width(spec, family, eps)
        # a rung's streams: (key, strip widths (lower, upper), strip mass,
        # thresholds); shared rows test both sides, a strip-free stream one
        shared = [((), (-math.inf, -math.inf), 0.0, (eps, -eps))]
        sides = [((0,), (w, -math.inf), fam_mod._strip_mass(family, w, -math.inf), (eps, None)),
                 ((1,), (-math.inf, w), fam_mod._strip_mass(family, -math.inf, w), (None, -eps))]
    counts = np.zeros((2, len(n_grid)))
    for i, n in enumerate(n_grid):
        stream = lambda *key: np.random.default_rng(np.random.SeedSequence((seed, n) + key))
        if extremes or means:
            rng = stream()
            chunk = max(1, _CHUNK_VALUES // _SUMMARY_ROW_VALUES)
            for done in range(0, trials, chunk):
                m = min(chunk, trials - done)
                if extremes:
                    above, below = decide(*_extreme_masses(rng, m, n))
                else:
                    t = _gaussian_means(family, rng, m, n)
                    above, below = t > eps, t < -eps
                counts[:, i] += np.count_nonzero(above), np.count_nonzero(below)
        else:
            # a side's events need a sample clear of its strip: where that
            # draws fewer values, each side draws those samples only
            split = sum((1.0 - mass) ** (n - 1) for _, _, mass, _ in sides) < 1.0
            for key, widths, mass, thresholds in sides if split else shared:
                for X in _strip_free(family, stream(*key), trials, n, widths, mass):
                    above, below = tail_events(spec, family, X, *thresholds)
                    counts[:, i] += np.count_nonzero(above), np.count_nonzero(below)
                    del X
    counts_p, counts_m = counts
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
    singular edge sits outside the window where exp(-+ t score) would blow up.
    The D form of the module docstring, summed directly where D > 1/2 and
    shifted by t max(sc), sc the signed score, where that overflows exp."""
    shift = eps if side == "plus" else -eps
    nodes = _overlap_nodes(family, 0.0, shift)
    if nodes is None:
        raise WindowError(f"eps={eps} exceeds the support width")
    fw = np.exp(fam_mod._logpdf3(family, *fam_mod._at_nodes(family, 0.0, nodes))) * nodes.w
    sign = -1.0 if side == "plus" else 1.0
    sc = sign * fam_mod._score3(family, *fam_mod._at_nodes(family, shift, nodes))
    sc_max = float(sc.max())
    (_, m), _ = _edge_strips(family, 0.0, shift)

    def F(t):
        top = t * sc_max
        if top <= _EXP_MAX:
            d = m - float(np.dot(fw, np.expm1(t * sc)))
            if d <= 0.5:
                return -math.log1p(-d)
            top = 0.0
        total = float(np.dot(fw, np.exp(t * sc - top)))
        return -top - math.log(total) if total > 0.0 else math.inf

    return F


def mle_chernoff_rate(family, eps, side):
    """Analytic half-side exponent of the MLE for a log-concave family:
    sup over t >= 0 of -log int exp(-+ t f'(x -+ eps)/f(x -+ eps)) f(x) dx;
    ValueError unless eps is finite and >= 0 (0 gives 0)."""
    if not family.log_concave:
        raise ValueError(f"mle rate needs a log-concave family, got {family.kind}")
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if eps == 0:
        return 0.0
    F = _chernoff_objective(family, eps, side)
    # grow the bracket until the concave objective has turned over, then
    # shrink it to [t_hi / 4, t_hi] about t*, so the search stops relative to t*
    t_hi = 1.0
    for _ in range(60):
        if F(t_hi) < F(t_hi / 2.0):
            break
        t_hi *= 2.0
    for _ in range(60):
        if F(t_hi / 2.0) > F(t_hi / 4.0):
            break
        t_hi /= 2.0
    best, _ = _argmax(lambda u: F(u * t_hi), 0.25, 1.0)
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

def _one_family(p_point, q_point):
    """(family, tp, tq) of two (family, theta) points of one family object;
    ValueError for two families or a nan shift."""
    (family, tp), (other, tq) = p_point, q_point
    if other is not family:
        raise ValueError(f"a testing pair needs one family, got {family.kind} and {other.kind}")
    if math.isnan(tp) or math.isnan(tq):
        raise ValueError(f"shifts must not be nan, got {tp} and {tq}")
    return family, tp, tq


def chernoff_test_rate(p_point, q_point):
    """Best exponent of the summed testing errors between two shifts p, q
    of one family: sup_s I^s(p||q); +inf when the supports are disjoint."""
    family, tp, tq = _one_family(p_point, q_point)
    if tp == tq:
        return 0.0
    pair = _pair_nodes(family, tp, tq)
    if pair is None:
        return math.inf
    value, _ = _argmax(lambda s: _renyi_from_nodes(pair, s)[0], 1e-7, 1.0 - 1e-7)
    return float(value)


def hoeffding_rate(p_point, q_point, r):
    """Best second-error exponent under first-error constraint r between two
    shifts p, q of one family: sup_s (-s r + I^s(p||q)) / (1 - s), floored
    at zero.  Where p has mass m_p outside q's support, I^s tends to
    -log1p(-m_p) as s -> 1, so for r below that the objective grows
    without bound: the exponent is +inf, at the boundary s = 1.  Where q
    has mass m_q outside p's support, I^s tends to -log1p(-m_q) as s -> 0,
    and so does the objective, whatever r: that limit, at the boundary
    s = 0, stands where the scan finds no more (and is all at r = inf)."""
    family, tp, tq = _one_family(p_point, q_point)
    if not r >= 0:
        raise ValueError(f"r must be >= 0, got {r}")
    pair = _pair_nodes(family, tp, tq)
    if pair is None:
        return HoeffdingRate(value=math.inf, s_star=0.5, at_boundary=False,
                             clamped=False)
    if r < -math.log1p(-pair.m_p):
        return HoeffdingRate(value=math.inf, s_star=1.0, at_boundary=True, clamped=False)
    at_zero = HoeffdingRate(value=-math.log1p(-pair.m_q), s_star=0.0, at_boundary=True,
                            clamped=False)
    if pair.m_q > 0.0 and r == math.inf:
        return at_zero

    def objective(s):
        v = (-s * r + _renyi_from_nodes(pair, s)) / (1.0 - s)
        return v if np.ndim(s) else float(v[0])

    # scan catches suprema in the interior; the s -> 1 probe the boundary case
    grid = np.concatenate([np.linspace(0.01, 0.99, 50), [1.0 - 1e-6]])
    value, s_star = _optimize(objective, grid, maximize=True)
    if pair.m_q > 0.0 and at_zero.value > value:
        return at_zero
    at_boundary = s_star > 1.0 - 1e-4
    clamped = value < 0.0
    return HoeffdingRate(value=max(value, 0.0), s_star=s_star,
                         at_boundary=at_boundary, clamped=clamped)


def ht_simulate(p_point, q_point, n_grid=None, trials=100_000, seed=0):
    """Simulate the likelihood test {p^n >= q^n} (ties accept) between two
    shifts p, q of one family and regress -log(e1 + e2) on n.

    Each hypothesis draws from its own per-n stream.  A value where the
    other density is zero decides its row with no error, so where such
    values fill the strip the shift leaves at a finite edge of the
    hypothesis' support (mass m > 0, ``renyi._edge_strips``), the stream
    first draws how many rows have none, Binomial(trials, (1 - m)^n), and
    then only those rows, conditioned off the strip (module docstring).
    Rows are scored in slices of ``estimators._SLICE_VALUES`` values."""
    family, tp, tq = _one_family(p_point, q_point)
    n_grid = _check_n_grid((8, 16, 24, 32, 40, 48) if n_grid is None else n_grid)
    trials = _check_trials(trials)
    strips = _edge_strips(family, tp, tq)
    sums = np.zeros(len(n_grid))
    for i, n in enumerate(n_grid):
        for h in (0, 1):
            rng = np.random.default_rng(np.random.SeedSequence((seed, n, h)))
            step = max(1, _SLICE_VALUES // n)
            for X in _strip_free(family, rng, trials, n, *strips[h]):
                for r in range(0, X.shape[0], step):
                    llr = _llr_rows(family, X[r:r + step], tp, tq, h == 1)
                    # errors: q preferred under p, p accepted under q
                    sums[i] += np.count_nonzero(llr < 0 if h == 0 else llr >= 0)
                del X
    if sums.sum() == 0:
        raise InsufficientEventsError("no testing errors observed at any n")
    slope, err = _fit_rate(n_grid, sums, trials)
    return HtSimResult(slope=slope, stderr=err, n_grid=n_grid,
                       error_sums=sums, trials=trials, seed=int(seed))


def _llr_rows(family, U, tp, tq, under_q):
    """Row sums of log p - log q at the values U + t of one hypothesis
    f(. - t), t = tq under q, else tp, by the window kernel on U itself: as
    in ``renyi._pair_nodes``, its lower point is the coordinate of the
    density shifted higher, U or U - s, s = |tq - tp|, and its sign + where
    q is.  Off the strips of ``renyi._edge_strips`` the edge distance less
    s is > 0."""
    s = abs(tq - tp)
    dl, dr = fam_mod._dists(family, U)
    if (tq > tp) == under_q:
        k = np.einsum("ij->i", fam_mod._log_ratio(family, U, dl, dr - s, s))
    else:
        k = np.einsum("ij->i", fam_mod._log_ratio(family, U - s, dl - s, dr, s))
    return k if tq > tp else -k


def lr_rate_identity(family, eps, n_grid=None, trials=20_000, seed=0):
    """Compare the likelihood-ratio estimator's Monte Carlo rate (lhs)
    against sup_s I^s(f_{-eps} || f_{eps}) (rhs)."""
    rhs = chernoff_test_rate((family, -eps), (family, eps))
    est = mc_tail_rate(family, EstimatorSpec("lr", eps=eps), 0.0, eps,
                       n_grid=n_grid, trials=trials, seed=seed)
    return est.beta, rhs


# ---------------------------------------------------------------------------
# the empirical interval-estimation rate

def alpha2_estimate(family, spec, g_tag, eps_ladder=None, n_grid=None,
                    trials=100_000, seed=0):
    """Empirical stand-in for the interval-estimation rate: beta(spec, eps)
    divided by g(eps) along a shrinking ladder, g of tag ``g_tag`` (1 -> eps,
    2 -> -eps^2 log eps, > 2 or inf -> eps^2, else eps^tag; the default
    ladder is tag 1's); the reported value and its standard error are the
    final rung's.

    The infimum over the eps-window of shift centers collapses for location
    families (the law of T - theta does not depend on theta), so each rung
    simulates at theta = 0 alone.  Estimators parameterized by a shrinking
    shift (lr, shifted_min) track the rung eps.  Rung i is seeded by word i of
    ``SeedSequence(seed).generate_state``, whatever the number of words.
    """
    eps_ladder = _check_rungs(family, default_ladder(1.0, family) if eps_ladder is None
                              else eps_ladder)
    gvals = [g_value(g_tag, eps) for eps in eps_ladder]
    seeds = _child_seeds(seed, len(eps_ladder))
    rungs = []
    for idx, (eps, g) in enumerate(zip(eps_ladder, gvals)):
        spec_eff = replace(spec, eps=eps) if spec.kind in EPS_KINDS else spec
        est = mc_tail_rate(family, spec_eff, 0.0, eps, n_grid=n_grid,
                           trials=trials, seed=seeds[idx])
        rungs.append(est.beta / g)
        stderr = est.slope_stderr / g
    return Alpha2Estimate(value=float(rungs[-1]), stderr=float(stderr),
                          rung_values=np.asarray(rungs), eps_ladder=eps_ladder)
