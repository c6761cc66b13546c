"""Numerically stable special functions and quadrature primitives.

Everything here is scalar/array-polymorphic: scalars in, scalar out;
arrays in, elementwise array out.  All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureError",
    "zeta0",
    "zeta1",
    "t_logpdf",
    "t_pdf",
    "t_cdf",
    "t_logcdf",
    "zeta1_t",
    "expect_normal",
    "expect_t",
]

_LOG2 = np.log(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_MINUS_SQRT_HALF = -np.sqrt(0.5)


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance.

    Carries the best value found and the achieved error estimate.
    """

    def __init__(self, message, value=np.nan, achieved=np.inf):
        super().__init__(f"{message} (value={value!r}, error estimate={achieved!r})")
        self.value = value
        self.achieved = achieved


def _as_float_array(x, name="x"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        if arr.ndim == 0:
            raise ValueError(f"{name} must be finite, got {x!r}")
        bad = np.flatnonzero(~np.isfinite(arr))  # a bounded message, not the whole array
        raise ValueError(f"{name} must be finite, got {bad.size} non-finite of {arr.size} "
                         f"entries, the first {float(arr.flat[bad[0]])!r}")
    return arr


def _maybe_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def _check_nu(nu):
    """``nu`` as a float, or as a float array unless it is a scalar;
    ValueError unless every element is positive and finite."""
    nu = float(nu) if np.isscalar(nu) else np.asarray(nu, dtype=float)
    ok = 0.0 < nu < np.inf if isinstance(nu, float) else np.all((nu > 0) & (nu < np.inf))
    if not ok:
        raise ValueError(f"degrees of freedom must be positive, got {nu!r}")
    return nu


def zeta0(x):
    """log(2 * Phi(x)) for standard normal Phi, exact deep into the left tail.

    Evaluated through the log-CDF so that e.g. ``zeta0(-40)`` returns a
    finite value (about -804) instead of underflowing to -inf.
    Monotone nondecreasing, with limit log(2) as x -> +inf.
    """
    arr = _as_float_array(x)
    return _maybe_scalar(_LOG2 + special.log_ndtr(arr))


def zeta1(x):
    """Inverse Mills ratio phi(x) / Phi(x).

    Computed as sqrt(2/pi) / erfcx(-x / sqrt(2)), erfcx(y) = exp(y^2) erfc(y):
    against mpmath, about 1e-16 relative at x = -40 and 1e-13 at x = 37
    (a ratio of about 1e-298); 0 from x = 37.66 on, where erfcx overflows.
    ~ -x as x -> -inf and -> 0 as x -> +inf.
    """
    return _maybe_scalar(_zeta1(_as_float_array(x)))


def _zeta1(arr: np.ndarray) -> np.ndarray:
    """:func:`zeta1` on a float array already known to be finite."""
    return _SQRT_2_OVER_PI / special.erfcx(arr * _MINUS_SQRT_HALF)


def t_logpdf(x, nu):
    """Log density of the Student t distribution with ``nu`` d.f. (non-integer ok)."""
    nu = _check_nu(nu)
    return _maybe_scalar(_t_logpdf(_as_float_array(x), nu))


def _t_logpdf(arr: np.ndarray, nu) -> np.ndarray:
    """:func:`t_logpdf` on a finite float array and a checked positive ``nu``,
    a float or an array broadcast against ``arr``."""
    q = arr * arr / nu
    log1p_q = np.log1p(q)
    if np.isinf(q).any():  # log1p(q) = 2 log|x| - log nu + log1p(1 / q), where 1 / q rounds away
        with np.errstate(divide="ignore"):  # np.where drops the log 0 of any x = 0
            log1p_q = np.where(np.isinf(q), 2.0 * np.log(np.abs(arr)) - np.log(nu), log1p_q)
    return (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
            - 0.5 * np.log(nu * np.pi) - 0.5 * (nu + 1.0) * log1p_q)


def t_pdf(x, nu):
    """Student t density with ``nu`` degrees of freedom."""
    return np.exp(t_logpdf(x, nu))


def t_cdf(x, nu):
    """Student t distribution function via the regularized incomplete beta.

    The beta-function route supports non-integer ``nu`` and keeps full
    relative accuracy in the algebraic left tail.
    """
    nu = _check_nu(nu)
    arr = _as_float_array(x)
    tail = 0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + arr * arr))
    out = np.where(arr <= 0, tail, 1.0 - tail)
    return _maybe_scalar(out)


def t_logcdf(x, nu):
    """log T(x; nu), stable for x << 0.

    ``nu`` may be a float or an array broadcast against ``x``; the
    result has their broadcast shape.  Uses log of the incomplete-beta
    tail; if that underflows (only for astronomically large |x|) it
    falls back to the leading algebraic tail term T(x) ~ t(x) |x| / nu.
    """
    nu = _check_nu(nu)
    arr = _as_float_array(x)
    tail = 0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + arr * arr))
    with np.errstate(divide="ignore"):
        out = np.where(arr <= 0, np.log(tail), np.log1p(-tail))
    bad = ~np.isfinite(out)
    if np.any(bad):
        xb, nub = (np.broadcast_to(v, out.shape)[bad] for v in (arr, nu))
        out[bad] = _t_logpdf(xb, nub) + np.log(np.abs(xb)) - np.log(nub)
    return _maybe_scalar(out)


def zeta1_t(x, nu):
    """t analogue of the inverse Mills ratio: t(x; nu) / T(x; nu).

    Stable for x << 0 where both density and CDF follow algebraic tails;
    behaves like nu / |x| there.
    """
    nu = _check_nu(nu)
    arr = _as_float_array(x)
    out = np.exp(_t_logpdf(arr, nu) - t_logcdf(arr, nu))
    return _maybe_scalar(out)


@lru_cache(maxsize=16)
def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite nodes and weights for the N(0,1) density.

    The weights are positive and sum to 1.  The arrays are cached and
    shared, so they are read-only.
    """
    x, w = np.polynomial.hermite_e.hermegauss(n)
    w = w / np.sqrt(2.0 * np.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_GH_LADDER = (64, 96, 144, 216, 324)
_GH_TOL = 1e-9
_T_EPSABS = 1e-7
_T_EPSREL = 1e-8
_T_LIMIT = 300


def expect_normal(f: Callable) -> float:
    """E{f(X)} for X ~ N(0,1).

    A Gauss-Hermite ladder of 64, 96, 144, 216 and 324 nodes is refined
    until two consecutive sizes agree within 1e-9; raises
    :class:`QuadratureError` when no two do.
    """
    prev = np.nan  # the first size has nothing to agree with
    for n in _GH_LADDER:
        x, w = _gauss_hermite(n)
        cur = float(np.dot(w, f(x)))
        change = abs(cur - prev)
        if change <= _GH_TOL:
            return cur
        prev = cur
    raise QuadratureError("Gauss-Hermite ladder did not settle", cur, change)


def expect_t(f: Callable, nu: float) -> float:
    """E{f(X)} for X ~ t(nu), by adaptive subdivision in CDF coordinates.

    The integral is mapped to the unit interval through the t CDF and
    handed to an adaptive panel-subdivision scheme (at most 300
    subintervals), which concentrates effort at the endpoint
    singularities the heavy tails induce.  Raises
    :class:`QuadratureError` when the achieved error estimate exceeds
    1e-7 + 1e-8 |value|.
    """
    nu = _check_nu(nu)

    def g(u):
        return f(special.stdtrit(nu, u))

    value, abserr = integrate.quad(
        g, 0.0, 1.0, epsabs=_T_EPSABS, epsrel=_T_EPSREL, limit=_T_LIMIT, full_output=1
    )[:2]
    if abserr > _T_EPSABS + _T_EPSREL * abs(value):
        raise QuadratureError("adaptive t-expectation did not converge", value, abserr)
    return value
