"""The shape penalty Q = c1 log(1 + c2 alpha*^2) and its coefficients.

Coefficients are available exactly for the skew-normal family, exactly
per nu for the skew-t (two numerical integrations), and through a cheap
closed-form skew-t approximation suitable inside optimizer loops where
nu varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import expect_normal, expect_t, zeta1, zeta1_t

__all__ = [
    "PenaltyCoeffs",
    "q_value",
    "q_prime",
    "sn_e_coeffs",
    "sn_coeffs",
    "st_e_coeffs_exact",
    "st_e2_approx",
    "st_coeffs",
    "line_fit_check",
    "LineFitResult",
]

EULER_GAMMA = float(np.euler_gamma)

_PROVENANCES = ("SN_EXACT", "ST_EXACT", "ST_APPROX", "CUSTOM")


@dataclass(frozen=True)
class PenaltyCoeffs:
    """Positive constants (c1, c2) of the log-quadratic shape penalty."""

    c1: float
    c2: float
    provenance: str = "CUSTOM"
    nu: float | None = None

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError(f"penalty coefficients must be positive, got {self.c1}, {self.c2}")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance.startswith("ST_") and self.nu is None:
            raise ValueError("skew-t coefficients must record nu")


def q_value(coeffs: PenaltyCoeffs, alpha_star_sq: float) -> float:
    """Penalty value c1 log(1 + c2 a*^2); zero at a* = 0, increasing, unbounded."""
    a2 = float(alpha_star_sq)
    if a2 < 0:
        raise ValueError("alpha_star_sq must be nonnegative")
    return coeffs.c1 * np.log1p(coeffs.c2 * a2)


def q_prime(coeffs: PenaltyCoeffs, alpha: float) -> float:
    """Scalar-case derivative 2 c1 c2 alpha / (1 + c2 alpha^2), odd, vanishing at inf."""
    a = float(alpha)
    return 2.0 * coeffs.c1 * coeffs.c2 * a / (1.0 + coeffs.c2 * a * a)


@lru_cache(maxsize=1)
def _sn_e2() -> float:
    num = expect_normal(lambda x: x * x * zeta1(x))
    den = expect_normal(lambda x: x**4 * zeta1(x))
    return num / den


def sn_e_coeffs() -> tuple[float, float]:
    """(e1, e2) of the linear fit to the skew-normal score-moment ratio.

    e1 = 1/3 exactly; e2 = E{X^2 zeta1(X)} / E{X^4 zeta1(X)} ~ 0.2854166,
    computed once per process and cached.
    """
    return (1.0 / 3.0, _sn_e2())


def sn_coeffs() -> PenaltyCoeffs:
    """Skew-normal penalty coefficients c1 = 1/(4 e2), c2 = e2/e1."""
    e1, e2 = sn_e_coeffs()
    return PenaltyCoeffs(c1=1.0 / (4.0 * e2), c2=e2 / e1, provenance="SN_EXACT")


@lru_cache(maxsize=512)
def _st_e_coeffs_cached(nu: float) -> tuple[float, float]:
    g = (nu + 2.0) * (nu + 3.0) / (nu + 1.0) ** 2
    num = expect_t(lambda x: x * x * zeta1_t(x, nu + 1.0), nu + 1.0)
    scale = np.sqrt((nu + 1.0) / (nu + 3.0))
    den = expect_t(lambda x: x**4 * zeta1_t(scale * x, nu + 1.0), nu + 3.0)
    return (g / 3.0, g * g * num / den)


def st_e_coeffs_exact(nu: float) -> tuple[float, float]:
    """(e1nu, e2nu) for the skew-t with ``nu`` degrees of freedom.

    e1nu = g/3 with g = (nu+2)(nu+3)/(nu+1)^2; e2nu requires two
    t-expectations evaluated numerically.  Memoized per nu.
    """
    nu = float(nu)
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu!r}")
    return _st_e_coeffs_cached(nu)


def st_e2_approx(nu: float) -> float:
    """Closed-form approximation e2 (1 + 4/(nu + gamma)), gamma Euler's constant."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu!r}")
    return _sn_e2() * (1.0 + 4.0 / (nu + EULER_GAMMA))


def st_coeffs(nu: float, mode: str = "exact") -> PenaltyCoeffs:
    """Skew-t penalty coefficients, exact (quadrature) or approximate (closed form)."""
    if mode == "exact":
        e1, e2 = st_e_coeffs_exact(nu)
        return PenaltyCoeffs(c1=1.0 / (4.0 * e2), c2=e2 / e1, provenance="ST_EXACT", nu=float(nu))
    if mode == "approx":
        e1 = (nu + 2.0) * (nu + 3.0) / (nu + 1.0) ** 2 / 3.0
        e2 = st_e2_approx(nu)
        return PenaltyCoeffs(c1=1.0 / (4.0 * e2), c2=e2 / e1, provenance="ST_APPROX", nu=float(nu))
    raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")


@dataclass(frozen=True)
class LineFitResult:
    intercept: float
    slope: float
    nu_grid: np.ndarray
    residuals: np.ndarray

    @property
    def max_abs_residual(self) -> float:
        return float(np.abs(self.residuals).max())


def line_fit_check() -> LineFitResult:
    """Least-squares fit of log(e2nu/e2 - 1) on log(nu + gamma) over a log grid.

    The fitted line summarizes how the exact skew-t slope coefficient
    decays toward its normal-family limit; intercept ~ log 4 and slope
    ~ -1 back the closed-form approximation used by :func:`st_e2_approx`.
    """
    nus = np.geomspace(0.25, 250.0, 25)
    e2 = _sn_e2()
    y = np.array([np.log(st_e_coeffs_exact(nu)[1] / e2 - 1.0) for nu in nus])
    x = np.log(nus + EULER_GAMMA)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (intercept + slope * x)
    return LineFitResult(intercept=float(intercept), slope=float(slope),
                         nu_grid=nus, residuals=residuals)
