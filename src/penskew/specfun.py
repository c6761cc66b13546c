"""Numerically stable special functions and quadrature primitives.

Everything here is scalar/array-polymorphic: scalars in, scalar out;
arrays in, elementwise array out.  All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureError",
    "QuadratureRule",
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
_LOG2PI = np.log(2.0 * np.pi)


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
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _maybe_scalar(value, like):
    return float(value) if np.isscalar(like) or np.ndim(like) == 0 else value


def _check_nu(nu):
    nu = float(nu)
    if not np.isfinite(nu) or nu <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {nu!r}")
    return nu


def zeta0(x):
    """log(2 * Phi(x)) for standard normal Phi, exact deep into the left tail.

    Evaluated through the log-CDF so that e.g. ``zeta0(-40)`` returns a
    finite value (about -804) instead of underflowing to -inf.
    Monotone nondecreasing, with limit log(2) as x -> +inf.
    """
    arr = _as_float_array(x)
    return _maybe_scalar(_LOG2 + special.log_ndtr(arr), x)


def zeta1(x):
    """Inverse Mills ratio phi(x) / Phi(x).

    Computed as exp(log phi - log Phi); the log-space subtraction keeps
    the ratio accurate where both factors underflow.  Strictly positive,
    ~ -x as x -> -inf and -> 0 as x -> +inf.
    """
    return _maybe_scalar(_zeta1(_as_float_array(x)), x)


def _zeta1(arr: np.ndarray) -> np.ndarray:
    """:func:`zeta1` on a float array already known to be finite."""
    return np.exp(-0.5 * arr * arr - 0.5 * _LOG2PI - special.log_ndtr(arr))


def t_logpdf(x, nu):
    """Log density of the Student t distribution with ``nu`` d.f. (non-integer ok)."""
    nu = _check_nu(nu)
    arr = _as_float_array(x)
    out = (
        special.gammaln((nu + 1.0) / 2.0)
        - special.gammaln(nu / 2.0)
        - 0.5 * np.log(nu * np.pi)
        - 0.5 * (nu + 1.0) * np.log1p(arr * arr / nu)
    )
    return _maybe_scalar(out, x)


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
    return _maybe_scalar(out, x)


def t_logcdf(x, nu):
    """log T(x; nu), stable for x << 0.

    Uses log of the incomplete-beta tail; if that underflows (only for
    astronomically large |x|) it falls back to the leading algebraic
    tail term T(x) ~ t(x) |x| / nu.
    """
    nu = _check_nu(nu)
    arr = np.atleast_1d(_as_float_array(x))
    out = np.empty_like(arr)
    neg = arr <= 0
    tail = 0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + arr[neg] ** 2))
    with np.errstate(divide="ignore"):
        log_tail = np.log(tail)
    bad = ~np.isfinite(log_tail)
    if np.any(bad):
        xb = arr[neg][bad]
        log_tail[bad] = t_logpdf(xb, nu) + np.log(np.abs(xb)) - np.log(nu)
    out[neg] = log_tail
    pos = ~neg
    if np.any(pos):
        xp = arr[pos]
        out[pos] = np.log1p(-0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + xp * xp)))
    return _maybe_scalar(out if np.ndim(x) else out[0], x)


def zeta1_t(x, nu):
    """t analogue of the inverse Mills ratio: t(x; nu) / T(x; nu).

    Stable for x << 0 where both density and CDF follow algebraic tails;
    behaves like nu / |x| there.
    """
    nu = _check_nu(nu)
    arr = _as_float_array(x)
    out = np.exp(t_logpdf(arr, nu) - t_logcdf(arr, nu))
    return _maybe_scalar(out, x)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating f against a reference density.

    ``kind`` is "gauss-hermite" for standard-normal expectations or
    "adaptive-interval" for Student-t expectations built on a
    CDF-mapped composite rule.  Weights are positive and sum to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if np.any(np.asarray(self.weights) <= 0):
            raise ValueError("quadrature weights must be positive")

    def integrate(self, f: Callable) -> float:
        return float(np.dot(self.weights, f(self.nodes)))

    @classmethod
    def gauss_hermite(cls, n: int = 64) -> "QuadratureRule":
        """n-point Gauss-Hermite rule normalized for the N(0,1) density."""
        if n < 2:
            raise ValueError("need at least 2 nodes")
        x, w = np.polynomial.hermite_e.hermegauss(n)
        return cls(nodes=x, weights=w / np.sqrt(2.0 * np.pi), kind="gauss-hermite")

    @classmethod
    def t_interval(cls, nu: float, panels: int = 32, order: int = 16) -> "QuadratureRule":
        """Composite Gauss-Legendre rule on (0,1) mapped through the t CDF.

        Integrates f against the t(nu) density as ``sum w_j f(ppf(u_j))``.
        Panel edges crowd dyadically toward 0 and 1; tail truncation at
        quantile 2^-panels dominates the error for heavy-tailed moments,
        so the default reaches 2^-32.
        """
        nu = _check_nu(nu)
        xg, wg = np.polynomial.legendre.leggauss(order)
        # dyadic panel edges: 2^-panels, ..., 1/4, 1/2, 3/4, ..., 1 - 2^-panels
        left = 0.5 ** np.arange(panels, 0, -1)
        edges = np.concatenate([[0.0], left, 1.0 - left[::-1][1:], [1.0]])
        us, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            us.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * wg)
        u = np.concatenate(us)
        w = np.concatenate(ws)
        return cls(nodes=special.stdtrit(nu, u), weights=w, kind="adaptive-interval")


@lru_cache(maxsize=16)
def _gh_rule(n: int) -> QuadratureRule:
    return QuadratureRule.gauss_hermite(n)


_GH_LADDER = (64, 96, 144, 216, 324)


def expect_normal(f: Callable, rule: QuadratureRule | None = None, tol: float = 1e-9):
    """E{f(X)} for X ~ N(0,1).

    With an explicit ``rule`` the rule is applied as is.  Otherwise a
    Gauss-Hermite ladder is refined until two consecutive sizes agree
    within ``tol``.
    """
    if rule is not None:
        return rule.integrate(f)
    prev = _gh_rule(_GH_LADDER[0]).integrate(f)
    for n in _GH_LADDER[1:]:
        cur = _gh_rule(n).integrate(f)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureError("Gauss-Hermite ladder did not settle", prev, abs(cur - prev))


def expect_t(f: Callable, nu: float, tol: float = 1e-7, rel: float = 1e-8,
             limit: int = 300, rule: QuadratureRule | None = None):
    """E{f(X)} for X ~ t(nu), by adaptive subdivision in CDF coordinates.

    The integral is mapped to the unit interval through the t CDF and
    handed to an adaptive panel-subdivision scheme, which concentrates
    effort at the endpoint singularities the heavy tails induce.
    Raises :class:`QuadratureError` when the achieved error estimate
    exceeds ``tol + rel * |value|``.  Passing an explicit ``rule``
    (e.g. from :meth:`QuadratureRule.t_interval`) skips the adaptive
    machinery and applies the fixed rule.
    """
    nu = _check_nu(nu)
    if rule is not None:
        return rule.integrate(f)

    def g(u):
        return f(special.stdtrit(nu, u))

    value, abserr = integrate.quad(
        g, 0.0, 1.0, epsabs=tol, epsrel=rel, limit=limit, full_output=1
    )[:2]
    if abserr > tol + rel * abs(value):
        raise QuadratureError("adaptive t-expectation did not converge", value, abserr)
    return value
