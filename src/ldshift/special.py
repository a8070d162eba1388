"""Gamma-family special functions and the closed-form identities used by the
bound formulas: log-gamma, log-beta, beta, digamma, the threshold root t0, and
the exact s=1/2 derivatives of the beta-product objectives.

Everything here is plain ``math``, so that importing ldshift does not load
scipy:

- ``log_gamma`` is ``log(math.gamma(x))`` below x = 171, where Gamma stays
  finite, and ``math.lgamma`` above.  It is exact on small integers:
  ``log_gamma(3) == math.log(2)``.
- ``log_beta`` is the sum of three ``log_gamma`` values.
- ``beta_fn`` is the Gamma ratio Gamma(x)Gamma(y)/Gamma(x+y) below
  x + y = 171, exact on small integers (``beta_fn(2, 3) == 1/12``), and
  ``exp(log_beta)`` above.
- ``digamma`` raises x by the recurrence psi(x) = psi(x+1) - 1/x to x >= 16
  and sums the asymptotic series ln x - 1/(2x) - sum B_2k/(2k x^2k) to
  x^-10.  On (1e-3, 50] it is within 2.2e-15·max(1, |psi|) of scipy's
  psi.  Array residuals apply the same scalar loop elementwise
  (``_elementwise``, which ``renyi`` and ``bounds`` use too).
"""

import functools
import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "log_gamma",
    "log_beta",
    "beta_fn",
    "digamma",
    "t0_residual",
    "solve_t0",
    "l8_derivative",
]

EULER_GAMMA = 0.5772156649015328606

# math.gamma is finite on (_GAMMA_MIN, _GAMMA_MAX)
_GAMMA_MIN, _GAMMA_MAX = 1e-300, 171.0
# the digamma recurrence runs up to _PSI_SERIES_X, where the series below
# is accurate to the last bit
_PSI_SERIES_X = 16.0


def _lgamma(x):
    if _GAMMA_MIN < x < _GAMMA_MAX:
        return math.log(math.gamma(x))
    return math.lgamma(x)


def _beta(x, y):
    """B(x, y) without argument checks; nan in, nan out."""
    # a comparison with nan may raise the FP invalid flag, which numpy reports
    # as a warning when this runs inside a ufunc; isnan tests quietly
    if math.isnan(x) or math.isnan(y):
        return math.nan
    if x + y < _GAMMA_MAX and min(x, y) > _GAMMA_MIN:
        b = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
        if math.isfinite(b):
            return b
    return math.exp(_lgamma(x) + _lgamma(y) - _lgamma(x + y))


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return _lgamma(x)


@functools.lru_cache(maxsize=128)
def log_beta(x, y):
    """log B(x, y) = log Gamma(x) + log Gamma(y) - log Gamma(x+y) for x, y > 0;
    cached, as every beta log-density evaluation needs it."""
    x, y = float(x), float(y)
    if not (x > 0 and y > 0):
        raise ValueError(f"log_beta requires positive arguments, got ({x}, {y})")
    return _lgamma(x) + _lgamma(y) - _lgamma(x + y)


def beta_fn(x, y):
    """Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    x, y = float(x), float(y)
    if not (x > 0 and y > 0):
        raise ValueError(f"beta_fn requires positive arguments, got ({x}, {y})")
    return _beta(x, y)


def _psi(x):
    """psi(x) for a float x > 0; nan elsewhere."""
    if not x > 0:
        return math.nan
    acc = 0.0
    while x < _PSI_SERIES_X:
        acc -= 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - t * (1.0 / 12.0 - t * (1.0 / 120.0 - t * (
        1.0 / 252.0 - t * (1.0 / 240.0 - t / 132.0))))


_PSI_1 = _psi(1.0)


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return _psi(x)


def _elementwise(one):
    """A function of a float that maps an array elementwise too, in one
    loop of Python floats: an array's values are the floats' bit for bit,
    and a float skips numpy's per-call cost."""
    def at(x):
        if isinstance(x, float):
            return one(x)
        x = np.asarray(x, dtype=float)
        return np.array([one(v) for v in x.ravel().tolist()]).reshape(x.shape)

    at.__doc__ = one.__doc__
    return at


@_elementwise
def t0_residual(t):
    """Residual h(t) = 2t + t(1-t)(psi(1+t) - psi(1)) - 1.

    h is strictly increasing on (0, 1/2) with h(0) = -1, so it has a unique
    root t0 there.  A float gives a float, an array an array.
    """
    return 2.0 * t + t * (1.0 - t) * (_psi(1.0 + t) - _PSI_1) - 1.0


@functools.lru_cache(maxsize=None)
def solve_t0():
    """Unique root t0 in (0, 1/2) of 2t + t(1-t)(psi(1+t) - psi(1)) = 1.

    Bisection on the bracket (1e-6, 0.5 - 1e-6) until the residual is below
    1e-12; the residual is strictly increasing there, which is asserted as
    the bracket contracts.  The root is a constant, so it is memoized.
    """
    lo, hi = 1e-6, 0.5 - 1e-6
    flo, fhi = t0_residual(lo), t0_residual(hi)
    if not (flo < 0.0 < fhi):
        raise RuntimeError("t0 bracket lost: residual endpoints have wrong signs")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = t0_residual(mid)
        if not (flo <= fm <= fhi):
            raise RuntimeError("t0 residual not monotone across bracket")
        if fm < 0.0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if abs(fm) < 1e-12:
            return mid
    return 0.5 * (lo + hi)


def l8_derivative(kappa, branch):
    """Closed-form derivative at s = 1/2 of the beta-product objective.

    branch "mid" (1 < kappa < 2): d/ds s(1-s(k-1))B(s+k(1-s), 2-k) at s=1/2,
    equal to (k-1)(3-k)/4 * pi * tan((2-k)pi/2) * B((1+k)/2, 2-k).

    branch "low" (0 < kappa < 1): d/ds s B(s+k(1-s), 1-k) at s=1/2, equal to
    (1-k)/2 * pi * cot((1-k)pi/2) * B((1+k)/2, 1-k).
    """
    k = float(kappa)
    if branch == "mid":
        if not 1.0 < k < 2.0:
            raise ValueError(f"branch 'mid' requires kappa in (1, 2), got {k}")
        return (
            (k - 1.0) * (3.0 - k) / 4.0
            * math.pi * math.tan((2.0 - k) / 2.0 * math.pi)
            * beta_fn((1.0 + k) / 2.0, 2.0 - k)
        )
    if branch == "low":
        if not 0.0 < k < 1.0:
            raise ValueError(f"branch 'low' requires kappa in (0, 1), got {k}")
        return (
            (1.0 - k) / 2.0
            * math.pi / math.tan((1.0 - k) / 2.0 * math.pi)
            * beta_fn((1.0 + k) / 2.0, 1.0 - k)
        )
    raise ValueError(f"unknown branch {branch!r}, expected 'mid' or 'low'")
