"""Panel Gauss-Legendre quadrature with geometric refinement toward interval
endpoints, for integrands with integrable power singularities at the ends.

Each outer end of a node set is graded by halving cells toward it, to a
depth chosen from the integrand's mass exponent alpha at that end (the mass
within distance d of the end grows like d^alpha): ``edge_depth(alpha)`` =
min(ceil(64/alpha) + 8, 400) levels.  The innermost cell, whose whole mass
bounds its quadrature error, then holds under 2^-64 of the mass near the end
(2^-60 where the cap binds, for alpha >= 0.15); the graded cells away from it
are smooth enough for the 24-point rule (geometric grading of a composite
Gauss rule, Davis & Rabinowitz 1984).  An end where nothing is singular and
every interior breakpoint (a kink) get the shallow ladder
``edge_depth(None)`` = 40 levels.  The cap means no end is graded deeper
than the fixed 400 levels an integrand of unknown exponent gets.

Nodes carry exact distances to both endpoints (``dl``, ``dr``) built in
distance space, so a density with an edge at an endpoint can be evaluated
without catastrophic cancellation even at distances near 2^-400, and so do
the edges of their cells (``edge_dl``, ``edge_dr``), from the same walk.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["PanelNodes", "edge_depth", "panel_nodes", "integrate"]

_GAUSS_ORDER = 24
_XG, _WG = leggauss(_GAUSS_ORDER)

# the deepest ladder: 2^-400 keeps exp() of the log-integrand inside double
# range, and 2^-(alpha 400) < 2^-60 for every mass exponent alpha >= 0.15;
# an integrand of unknown exponent (``integrate``) gets it at both ends
_EDGE_LEVELS = 400
_KINK_LEVELS = 40


def edge_depth(alpha):
    """Dyadic levels toward an end where the integrand's mass within d of
    the end grows like d^alpha: ceil(64/alpha) + 8, at most 400 (also for
    an exponent that is not positive).  ``None`` marks an end where nothing
    is singular (a kink or a trimmed tail)."""
    if alpha is None:
        return _KINK_LEVELS
    if not alpha > 0:
        return _EDGE_LEVELS
    return min(math.ceil(64.0 / alpha) + 8, _EDGE_LEVELS)


@dataclass(frozen=True)
class PanelNodes:
    """Quadrature nodes on [lo, hi] with weights and exact edge distances;
    cell k runs from edge k to edge k + 1 and holds nodes k * _GAUSS_ORDER
    up to (k + 1) * _GAUSS_ORDER."""

    lo: float
    hi: float
    x: np.ndarray
    w: np.ndarray
    dl: np.ndarray  # exact distance from lo
    dr: np.ndarray  # exact distance from hi
    edge_dl: np.ndarray  # cell edges' distance from lo
    edge_dr: np.ndarray  # cell edges' distance from hi


@functools.lru_cache(maxsize=None)
def _powers(levels):
    """[2^-L, ..., 2^0] for a ladder of L levels, read-only."""
    out = 2.0 ** (-np.arange(levels, -1, -1, dtype=float))
    out.flags.writeable = False
    return out


def _ladder_cells(width, levels):
    """Dyadic cell edges [0, w 2^-L, ..., w/2] in distance space."""
    return np.concatenate([[0.0], width * 0.5 * _powers(levels)])


def _expand(edges):
    """Gauss nodes and weights on the cells between consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    d = (mid[:, None] + half[:, None] * _XG).ravel()
    wq = (half[:, None] * _WG).ravel()
    return d, wq


def _segment_nodes(lo, hi, levels_lo, levels_hi):
    """Nodes on one smooth segment, refined toward lo by ``levels_lo``
    halvings and toward hi by ``levels_hi``, meeting at the midpoint, and
    the segment's cell edges: (x, w, dl, dr, edge_dl, edge_dr)."""
    width = hi - lo
    cells_lo = _ladder_cells(width, levels_lo)                     # from lo
    # from hi: the same ladder when both ends are graded alike
    cells_hi = cells_lo if levels_hi == levels_lo else _ladder_cells(width, levels_hi)
    dl_left, w_left = _expand(cells_lo)
    dr_right, w_right = (dl_left, w_left) if cells_hi is cells_lo else _expand(cells_hi)
    dl = np.concatenate([dl_left, width - dr_right[::-1]])
    dr = np.concatenate([width - dl_left, dr_right[::-1]])
    w = np.concatenate([w_left, w_right[::-1]])
    x = np.where(dl <= dr, lo + dl, hi - dr)
    cells_hi = cells_hi[-2::-1]   # the midpoint ends both ladders
    return (x, w, dl, dr, np.concatenate([cells_lo, width - cells_hi]),
            np.concatenate([width - cells_lo, cells_hi]))


def _segments(lo, hi, breakpoints, edge_levels):
    """The smooth segments (a, b, depth at a, depth at b) of [lo, hi]
    between interior breakpoints."""
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    pts = [lo] + sorted(p for p in breakpoints if lo < p < hi) + [hi]
    last = len(pts) - 2
    return [(pts[i], pts[i + 1], edge_levels[0] if i == 0 else _KINK_LEVELS,
             edge_levels[1] if i == last else _KINK_LEVELS) for i in range(last + 1)]


def panel_nodes(lo, hi, breakpoints=(), edge_levels=(_EDGE_LEVELS, _EDGE_LEVELS)):
    """Build nodes on [lo, hi], split at interior breakpoints.

    ``edge_levels`` = (depth at lo, depth at hi) grades the two outermost
    ends (see ``edge_depth``); both sides of every interior breakpoint get
    the shallow kink ladder.
    """
    segments = _segments(lo, hi, breakpoints, edge_levels)
    last = len(segments) - 1
    parts = []
    for i, (a, b, lev_l, lev_r) in enumerate(segments):
        x, w, dl, dr, edge_dl, edge_dr = _segment_nodes(a, b, lev_l, lev_r)
        # distances re-expressed relative to the full interval; only exact
        # at the outermost segments, which is where singularities live.  A
        # breakpoint is the last cell edge of one segment and the first of
        # the next, and is kept once
        if i > 0:
            dl, edge_dl, edge_dr = dl + (a - lo), edge_dl[1:] + (a - lo), edge_dr[1:]
        if i < last:
            dr, edge_dr = dr + (hi - b), edge_dr + (hi - b)
        parts.append((x, w, dl, dr, edge_dl, edge_dr))
    cols = parts[0] if len(parts) == 1 else [np.concatenate(col) for col in zip(*parts)]
    return PanelNodes(lo, hi, *cols)


def integrate(fn, lo, hi):
    """Integrate ``fn`` (vectorized) over [lo, hi]; an integrand of unknown
    edge behavior gets the deepest ladder at both ends."""
    nodes = panel_nodes(lo, hi)
    return float(np.sum(fn(nodes.x) * nodes.w))
