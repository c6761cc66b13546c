"""Model specifications, their penalty coefficients, log-likelihoods and
penalized log-likelihoods.

Evaluation only; the fits that maximize these live in ``estimators``.
The model alone fixes the penalty coefficients (:func:`resolve_penalty`).
All code consumes log densities only; tail-heavy samples keep every
term finite.  One stacked log-likelihood (:func:`_stack_loglik`) serves
:func:`loglik`, the fits' objective and the standard errors.  It sums
the one log-density kernel that the densities return
(``distributions._stack_log_terms``), so for every d :func:`loglik` is
bit-equal to the sum of ``sn_logpdf`` or ``st_logpdf``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .distributions import Dataset, DirectParams, _alpha_star_sq, _stack_log_terms, sn_logpdf
from .penalty import PenaltyCoeffs, q_value, sn_coeffs, st_coeffs

__all__ = [
    "ModelSpec",
    "loglik",
    "penalized_loglik",
    "resolve_penalty",
    "score_proportionality_check",
]

_FIXABLE = ("xi", "omega", "omega_mat", "alpha", "nu")


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: family, dimension and pinned components.

    ``fixed`` maps component names ("xi", "omega"/"omega_mat", "alpha",
    "nu") to pinned values; e.g. {"xi": 0.0, "omega": 1.0} declares the
    one-parameter shape-only model.  The spec also fixes the shape
    penalty's coefficients; see :func:`resolve_penalty`.
    """

    family: str = "sn"
    dimension: int = 1
    fixed: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("sn", "st"):
            raise ValueError(f"family must be 'sn' or 'st', got {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        d = self.dimension
        for key in self.fixed:
            if key not in _FIXABLE:
                raise ValueError(f"unknown fixed component {key!r}")
        if "omega" in self.fixed and d > 1:
            raise ValueError("pin 'omega_mat' rather than 'omega' for d > 1")
        if "omega_mat" in self.fixed and d == 1:
            raise ValueError("pin 'omega' rather than 'omega_mat' for d = 1")
        vector, scalar = (((), (d,)), f"a scalar or of length {d}"), (((),), "a scalar")
        shapes = {"xi": vector, "alpha": vector, "omega_mat": (((d, d),), f"a {d} x {d} matrix"),
                  "omega": scalar, "nu": scalar}
        for key, value in self.fixed.items():
            allowed, wanted = shapes[key]
            if np.shape(value) not in allowed:
                raise ValueError(f"pinned {key} must be {wanted}, got shape {np.shape(value)}")
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValueError(f"pinned {key} must be finite, got {value!r}")
        if "omega" in self.fixed and float(self.fixed["omega"]) <= 0:
            raise ValueError(f"pinned omega must be positive, got {self.fixed['omega']!r}")
        if "nu" in self.fixed:
            if self.family != "st":
                raise ValueError("nu can only be pinned in the skew-t family")
            if float(self.fixed["nu"]) <= 0:
                raise ValueError(f"pinned nu must be positive, got {self.fixed['nu']!r}")
        object.__setattr__(self, "fixed", dict(self.fixed))

    @property
    def is_one_param(self) -> bool:
        """True for the scalar shape-only model (xi, omega pinned, d = 1)."""
        return self.dimension == 1 and "xi" in self.fixed and "omega" in self.fixed \
            and "alpha" not in self.fixed and (self.family == "sn" or "nu" in self.fixed)

    def validate_params(self, params: DirectParams) -> None:
        if params.d != self.dimension:
            raise ValueError(f"params have d={params.d}, spec says {self.dimension}")
        if (self.family == "st") != params.is_skew_t:
            raise ValueError(f"family {self.family!r} inconsistent with params (nu={params.nu})")
        for key, value in self.fixed.items():
            have = getattr(params, key)
            if self.dimension == 1:
                # one-element components: plain floats, same tolerance as allclose below
                a, b = float(np.asarray(have).item()), float(np.asarray(value).item())
                ok = a == b or abs(a - b) <= _PIN_ATOL
            else:
                ok = np.allclose(have, value, rtol=0, atol=_PIN_ATOL)
            if not ok:
                raise ValueError(_PIN_MESSAGES[key].format(have=have, value=value))


_PIN_ATOL = 1e-9
_PIN_MESSAGES = {
    "xi": "params.xi={have} violates pinned xi={value}",
    "omega": "params.omega={have} violates pinned omega={value}",
    "omega_mat": "params.omega_mat violates pinned omega_mat",
    "alpha": "params.alpha={have} violates pinned alpha={value}",
    "nu": "params.nu={have} violates pinned nu={value}",
}


def resolve_penalty(spec: ModelSpec, nu: float | None = None) -> PenaltyCoeffs:
    """Penalty coefficients of the model ``spec`` at degrees of freedom ``nu``.

    The skew-normal coefficients; for the skew-t, the quadrature-exact
    ones at a pinned nu, or, when nu is free, the closed-form
    approximate ones at the given ``nu``.
    """
    if spec.family == "sn":
        return sn_coeffs()
    if "nu" in spec.fixed:
        return st_coeffs(float(spec.fixed["nu"]), "exact")
    if nu is None:
        raise ValueError("cannot resolve a skew-t penalty without nu")
    return st_coeffs(float(nu), "approx")


def _nu_arg(nu: Sequence):
    """The t kernels' nu for stack rows of degrees of freedom ``nu``: their
    shared value (None for the skew-normal), else an (m, 1) column."""
    shared = set(nu)
    return shared.pop() if len(shared) == 1 else np.array(nu, dtype=float)[:, None]


def _stack_loglik(data: Dataset, xi, omega_mat, alpha, nu) -> np.ndarray:
    """Log-likelihood of ``data`` at each row of a stack (xi, omega_mat,
    alpha, nu) as ``estimators._FreeMap.stack`` decodes it.

    One pass of the log-density kernel, with nu a float or, when the rows'
    nu differ, a column, summed over the sample, so that each row's value
    is the sum of the log densities and bit-equal to that of a pass of its
    own.  Raises ``LinAlgError`` when an Omega has no Cholesky factor and
    ``ValueError`` when a d > 1 skew-t CDF argument is not finite.
    """
    return np.sum(_stack_log_terms(data.rows, xi, omega_mat, alpha, _nu_arg(nu)), axis=-1)


def loglik(params: DirectParams, data: Dataset, spec: ModelSpec) -> float:
    """Sum of log densities of ``data`` under ``params``: :func:`_stack_loglik`
    on a one-row stack."""
    spec.validate_params(params)
    if data.d != spec.dimension:
        raise ValueError(f"data dimension {data.d} != model dimension {spec.dimension}")
    return _row_loglik(params, data)


def _row_loglik(params: DirectParams, data: Dataset) -> float:
    """:func:`loglik` without its checks, for fits whose ``params`` are of the model
    and of ``data``'s dimension by construction."""
    return float(_stack_loglik(data, params.xi[None], params.omega_mat[None],
                               params.alpha[None], [params.nu])[0])


def penalized_loglik(params: DirectParams, data: Dataset, spec: ModelSpec) -> float:
    """Log-likelihood minus the shape penalty at alpha*^2 (``_alpha_star_sq``).

    The coefficients are the model's at ``params.nu``
    (:func:`resolve_penalty`).
    """
    coeffs = resolve_penalty(spec, params.nu)
    return loglik(params, data, spec) - q_value(
        coeffs, _alpha_star_sq(params.omega_mat[None], params.alpha[None])[0])


def score_proportionality_check(data: Dataset, spec: ModelSpec) -> float:
    """Cosine between the per-observation location and shape scores at alpha = 0.

    In the scalar skew-normal model the two score vectors are exactly
    proportional at alpha = 0, so the cosine is 1 up to differencing
    error; away from zero it drops below 1.
    """
    if spec.family != "sn" or spec.dimension != 1:
        raise ValueError("score proportionality check applies to the scalar skew-normal")
    y = data.column(0)
    omega0 = float(spec.fixed.get("omega", y.std() if y.std() > 0 else 1.0))
    # offset from the mean so the standardized values cannot all vanish
    xi0 = float(spec.fixed.get("xi", y.mean() - 0.5 * omega0))
    alpha0 = float(spec.fixed.get("alpha", 0.0))

    def per_obs(xi, omega, alpha):
        # 2-D rows keep one value per observation, also when n = 1
        return sn_logpdf(data.rows, DirectParams.scalar(xi, omega, alpha))

    h_xi = 1e-5 * max(1.0, abs(xi0))
    u_xi = (per_obs(xi0 + h_xi, omega0, alpha0) - per_obs(xi0 - h_xi, omega0, alpha0)) / (2 * h_xi)
    h_a = 1e-5 * max(1.0, abs(alpha0))
    u_alpha = (per_obs(xi0, omega0, alpha0 + h_a) - per_obs(xi0, omega0, alpha0 - h_a)) / (2 * h_a)
    denom = np.linalg.norm(u_xi) * np.linalg.norm(u_alpha)
    if denom == 0:
        raise ValueError("degenerate scores; data may be constant")
    return float(np.dot(u_xi, u_alpha) / denom)
