"""Skew-normal and skew-t distributions in the direct parameterization.

Parameters are (xi, Omega, alpha) plus optional degrees of freedom nu;
nu absent means skew-normal.  The scalar case is stored as d = 1 with a
1x1 scale matrix holding omega^2, so one code path serves both.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import linalg, special
from scipy.linalg.lapack import dtrtrs

from .specfun import _t_logpdf, t_logcdf, zeta0

__all__ = [
    "DirectParams",
    "Dataset",
    "sn_logpdf",
    "st_logpdf",
    "sample",
    "alpha_star",
    "delta_of_alpha",
    "skewness_gamma1",
    "prob_negative",
    "prob_divergent_mle",
    "canonical_matrix",
    "canonical_transform",
]

_LOG2 = np.log(2.0)
_LOG2PI = np.log(2.0 * np.pi)


def _read_only(value, ndmin: int) -> np.ndarray:
    """A float copy of ``value`` with at least ``ndmin`` dimensions, marked read-only."""
    arr = np.array(value, dtype=float, ndmin=ndmin)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DirectParams:
    """Parameter vector (xi, Omega, alpha[, nu]) of a skew-normal / skew-t model.

    xi and alpha are length-d vectors, omega_mat is the d x d symmetric
    positive-definite scale matrix (omega^2 in the 1x1 scalar case), and
    nu, when present, selects the skew-t family.  The three arrays are
    read-only float copies of the arguments, so what is derived from them
    once (:func:`sample`'s factors) stays valid; a pickled copy is rebuilt
    through the constructor.
    """

    xi: np.ndarray
    omega_mat: np.ndarray
    alpha: np.ndarray
    nu: float | None = None

    def __post_init__(self):
        xi, alpha = _read_only(self.xi, 1), _read_only(self.alpha, 1)
        omega_mat = _read_only(self.omega_mat, 2)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega_mat", omega_mat)
        d = xi.shape[0]
        if xi.ndim != 1 or alpha.shape != (d,) or omega_mat.shape != (d, d):
            raise ValueError(
                f"inconsistent dimensions: xi {xi.shape}, alpha {alpha.shape}, "
                f"omega_mat {omega_mat.shape}"
            )
        if d == 1:
            # scalar tests; a finite 1x1 matrix is symmetric, and positive
            # definite iff its entry is > 0
            w = omega_mat[0, 0]
            if not (math.isfinite(xi[0]) and math.isfinite(alpha[0]) and math.isfinite(w)):
                raise ValueError("parameters must be finite")
            if not w > 0:
                raise ValueError("omega_mat must be positive definite")
        else:
            if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(alpha))
                    and np.all(np.isfinite(omega_mat))):
                raise ValueError("parameters must be finite")
            if not np.allclose(omega_mat, omega_mat.T, rtol=0,
                               atol=1e-8 * max(1.0, float(np.abs(omega_mat).max()))):
                raise ValueError("omega_mat must be symmetric")
            try:
                np.linalg.cholesky(omega_mat)
            except np.linalg.LinAlgError as exc:
                raise ValueError("omega_mat must be positive definite") from exc
        if self.nu is not None:
            nu = float(self.nu)
            if not math.isfinite(nu) or nu <= 0:
                raise ValueError(f"nu must be positive, got {self.nu!r}")
            object.__setattr__(self, "nu", nu)

    def __reduce__(self):
        # unpickled arrays would come back writable; the constructor makes them read-only
        return type(self), (self.xi, self.omega_mat, self.alpha, self.nu)

    @classmethod
    def scalar(cls, xi: float, omega: float, alpha: float, nu: float | None = None) -> "DirectParams":
        """Univariate constructor taking omega as a standard deviation."""
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega!r}")
        return cls(xi=np.array([float(xi)]), omega_mat=np.array([[float(omega) ** 2]]),
                   alpha=np.array([float(alpha)]), nu=nu)

    @property
    def d(self) -> int:
        return self.xi.shape[0]

    @property
    def is_skew_t(self) -> bool:
        return self.nu is not None

    @property
    def omega_diag(self) -> np.ndarray:
        """Vector of marginal scale parameters (sqrt of the diagonal of Omega)."""
        return np.sqrt(np.diag(self.omega_mat))

    @property
    def omega(self) -> float:
        """Scalar omega; only valid for d = 1."""
        if self.d != 1:
            raise ValueError("scalar omega is defined only for d = 1")
        return float(np.sqrt(self.omega_mat[0, 0]))

    @property
    def omega_bar(self) -> np.ndarray:
        """Correlation matrix omega^-1 Omega omega^-1."""
        s = self.omega_diag
        return self.omega_mat / np.outer(s, s)

    @cached_property
    def _draw_factors(self) -> tuple:
        """:func:`sample`'s delta, transposed residual Cholesky factor and marginal
        omegas, derived on the first draw and kept: the arrays they come from are
        read-only."""
        omega_bar = self.omega_bar
        a_star_sq = float(self.alpha @ omega_bar @ self.alpha)
        delta = (omega_bar @ self.alpha) / np.sqrt(1.0 + a_star_sq)
        resid_cov = omega_bar - np.outer(delta, delta)
        try:
            chol = np.linalg.cholesky(resid_cov)
        except np.linalg.LinAlgError:
            chol = np.linalg.cholesky(resid_cov + 1e-12 * np.eye(self.d))
        return delta, chol.T, self.omega_diag


@dataclass(frozen=True)
class Dataset:
    """An n x d matrix of observations, one row per observation."""

    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim == 1:
            rows = rows[:, None]
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError(f"rows must be a nonempty 2-D array, got shape {np.shape(self.rows)}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def column(self, j: int = 0) -> np.ndarray:
        return self.rows[:, j]

    @classmethod
    def from_csv(cls, path_or_file) -> "Dataset":
        """Read observations from CSV: one row per observation, optional header.

        Raises ValueError naming the offending row number on malformed input.
        """
        if hasattr(path_or_file, "read"):
            return cls._parse_csv(path_or_file, getattr(path_or_file, "name", "<stream>"))
        with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
            return cls._parse_csv(fh, os.fspath(path_or_file))

    @classmethod
    def _parse_csv(cls, fh, name) -> "Dataset":
        rows = []
        width = None
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header line
                raise ValueError(f"{name}: malformed row {lineno}: {record!r}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{name}: row {lineno} has {len(values)} columns, expected {width}"
                )
            rows.append(values)
        if not rows:
            raise ValueError(f"{name}: no numeric rows found")
        return cls(rows=np.asarray(rows, dtype=float))

    def to_csv(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        for row in self.rows:
            writer.writerow([format(v, ".17g") for v in row])

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()


def _mahalanobis_and_logdet(v, omega_mat):
    """Squared Mahalanobis distances of a stack of samples, and the log-determinants.

    Stacks ``v`` (m, n, d) and ``omega_mat`` (m, d, d) give (m, n) and (m,).
    One Cholesky call factors the stack; each triangular solve is LAPACK's
    trtrs on one matrix, called as ``scipy.linalg.solve_triangular(chol,
    v.T, lower=True)`` calls it, so every member of a stack is bit-equal to
    its own call.  Raises ``LinAlgError`` when a matrix is not positive
    definite and ``ValueError`` on non-finite input.
    """
    chol = np.linalg.cholesky(omega_mat)
    if not (np.isfinite(chol).all() and np.isfinite(v).all()):
        raise ValueError("array must not contain infs or NaNs")
    n, d = v.shape[-2:]
    chols = chol.reshape(-1, d, d)
    sols = []
    for c, w in zip(chols, v.reshape(len(chols), n, d)):
        sol, info = dtrtrs(c.T, w.T, lower=0, trans=1)
        if info:
            raise np.linalg.LinAlgError(f"singular matrix: zero at diagonal {info - 1}")
        sols.append(sol)
    sol = np.array(sols).reshape(len(chols), d, n)  # also for an empty stack
    qx = np.sum(sol * sol, axis=-2).reshape(v.shape[:-1])
    return qx, 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _mv_terms(rows, xi, omega_mat, alpha) -> tuple:
    """Squared Mahalanobis distances qx, log det Omega and u = alpha' omega^-1 (y - xi)
    of the (n, d) sample ``rows`` under each row of a stack: (m, n), (m,) and (m, n).

    Each row's xi and omegas are tiled to the sample's n d values, so the
    elementwise passes run along them.  Raises as :func:`_mahalanobis_and_logdet`.
    """
    n, d = rows.shape
    v = rows.reshape(-1) - np.tile(xi, n)
    qx, logdet = _mahalanobis_and_logdet(v.reshape(-1, n, d), omega_mat)
    omega_diag = np.sqrt(np.diagonal(omega_mat, axis1=1, axis2=2))
    u = np.matmul((v / np.tile(omega_diag, n)).reshape(-1, n, d), alpha[:, :, None])[..., 0]
    return qx, logdet, u


def _stack_log_terms(rows, xi, omega_mat, alpha, nu):
    """(m, n) log densities of the (n, d) sample ``rows`` under each row of a stack
    (xi, omega_mat, alpha); ``nu`` is None (skew-normal), a float or an (m, 1) column.
    The one kernel per d that the densities return and the log-likelihood sums: the
    scalar formula on (m, 1) columns for d = 1, the terms of :func:`_mv_terms` for d > 1."""
    if rows.shape[1] == 1:
        omega = np.sqrt(omega_mat[:, :, 0])
        z = (rows[:, 0] - xi) / omega
        if nu is None:
            return (-0.5 * z * z - 0.5 * _LOG2PI - np.log(omega)
                    + _LOG2 + special.log_ndtr(alpha * z))
        z2 = z * z
        arg = alpha * z * np.sqrt((nu + 1.0) / (nu + z2))
        if np.isinf(z2).any():  # the limit alpha sign(z) sqrt(nu + 1), where z^2 overflows
            arg = np.where(np.isinf(z2), alpha * np.sign(z) * np.sqrt(nu + 1.0), arg)
        return _LOG2 - np.log(omega) + _t_logpdf(z, nu) + t_logcdf(arg, nu + 1.0)
    qx, logdet, u = _mv_terms(rows, xi, omega_mat, alpha)
    d, logdet = rows.shape[1], logdet[:, None]
    if nu is None:
        return -0.5 * d * _LOG2PI - 0.5 * logdet - 0.5 * qx + zeta0(u)
    log1p_q, arg = np.log1p(qx / nu), u * np.sqrt((d + nu) / (qx + nu))
    far = np.isinf(qx)
    # where qx overflows, solve the difference scaled by its largest entry instead:
    # log1p(qx / nu) is then log qx - log nu, and the CDF argument takes its limit
    # sqrt(d + nu) u / sqrt(qx)
    nus = np.broadcast_to(nu, (len(qx), 1))
    for i in np.nonzero(far.any(axis=1))[0]:
        v = rows[far[i]] - xi[i]
        scale = np.max(np.abs(v), axis=1)
        q, _, w = _mv_terms(v / scale[:, None], np.zeros((1, d)), omega_mat[i:i + 1],
                            alpha[i:i + 1])
        log1p_q[i, far[i]] = 2.0 * np.log(scale) + np.log(q[0]) - np.log(nus[i, 0])
        arg[i, far[i]] = w[0] / np.sqrt(q[0]) * np.sqrt(d + nus[i, 0])
    return _st_log_terms(log1p_q, logdet, arg, d, nu)


def _logpdf(x, params: DirectParams):
    """Log densities at the points ``x`` under ``params``, evaluated as a one-row stack."""
    d, arr = params.d, np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
        squeeze = True
    elif arr.ndim == 1:
        # for d = 1 a flat vector is n scalar observations; otherwise one point
        if d == 1:
            squeeze = arr.shape[0] == 1
            arr = arr[:, None]
        else:
            squeeze = True
            arr = arr[None, :]
    elif arr.ndim == 2:
        squeeze = False
    else:
        raise ValueError(f"x must be at most 2-D, got shape {arr.shape}")
    if arr.shape[1] != d:
        raise ValueError(f"x has dimension {arr.shape[1]}, parameters have {d}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    out = _stack_log_terms(arr, params.xi[None], params.omega_mat[None], params.alpha[None],
                           params.nu)[0]
    return float(out[0]) if squeeze else out


def sn_logpdf(x, params: DirectParams):
    """Log density of the (multivariate) skew-normal distribution.

    log of 2 phi_d(x - xi; Omega) Phi(alpha' omega^-1 (x - xi)), evaluated
    as a one-row stack of :func:`_stack_log_terms`; the Phi factor goes
    through the stable log-CDF.  At d = 1 a sample's sum is ``loglik``, bit for bit.
    """
    if params.is_skew_t:
        raise ValueError("params carry nu; use st_logpdf")
    return _logpdf(x, params)


def st_logpdf(x, params: DirectParams):
    """Log density of the (multivariate) skew-t distribution.

    log of 2 t_d(x - xi; Omega, nu) T(sqrt((d + nu)/(Q + nu)) alpha'
    omega^-1 (x - xi); nu + d) with Q the squared Mahalanobis distance.
    Converges pointwise to the skew-normal log density as nu -> inf.
    Evaluated as a one-row stack of :func:`_stack_log_terms`; at d = 1 a
    sample's sum is ``loglik``, bit for bit.
    """
    if not params.is_skew_t:
        raise ValueError("params carry no nu; use sn_logpdf")
    return _logpdf(x, params)


def _st_log_terms(log1p_q, logdet, arg, d, nu):
    """Per-observation skew-t log densities from :func:`_mv_terms`' arrays.

    ``log1p_q`` holds log1p(qx / nu) of the squared Mahalanobis distances
    qx, ``logdet`` is log det Omega and ``arg`` holds the skew-t CDF
    argument u sqrt((d + nu) / (qx + nu)), u = alpha' omega^-1 (x - xi);
    ``nu`` is a float or an array broadcast against them.
    """
    log_td = (
        special.gammaln((nu + d) / 2.0)
        - special.gammaln(nu / 2.0)
        - 0.5 * d * np.log(nu * np.pi)
        - 0.5 * logdet
        - 0.5 * (nu + d) * log1p_q
    )
    return _LOG2 + log_td + t_logcdf(arg, nu + d)


def sample(params: DirectParams, n: int, seed) -> Dataset:
    """Draw n i.i.d. observations, deterministically for a given seed.

    Uses the convolution representation Z = delta |U0| + sqrt-factor U1
    of the skew-normal; skew-t draws divide the centered part by
    sqrt(V/nu) with V chi-square on nu degrees of freedom.
    ``seed`` may be an int, a SeedSequence, or a Generator.  The factors
    that depend on ``params`` alone are derived on its first draw.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    delta, chol_t, omega_diag = params._draw_factors
    u0 = np.abs(rng.standard_normal(n))
    z = u0[:, None] * delta + rng.standard_normal((n, params.d)) @ chol_t
    if params.is_skew_t:
        v = rng.chisquare(params.nu, size=n) / params.nu
        z = z / np.sqrt(v)[:, None]
    return Dataset(rows=params.xi + z * omega_diag)


def alpha_star(params: DirectParams) -> float:
    """Scalar shape summary sqrt(alpha' Omega-bar alpha); zero iff alpha = 0.  The square
    root of :func:`_alpha_star_sq` on a one-row stack, so |alpha| bit for bit at d = 1."""
    return float(np.sqrt(_alpha_star_sq(params.omega_mat[None], params.alpha[None])[0]))


def _alpha_star_sq(omega_mat: np.ndarray, alpha: np.ndarray) -> list:
    """alpha*^2 = alpha' Omega-bar alpha of each row of a stack (omega_mat (m, d, d), alpha
    (m, d)), as m floats: a * a for d = 1, v' Omega v with v = alpha / sqrt(diag Omega) for
    d > 1.  The one formula of the penalty, in the objective, standard errors and WBAR."""
    if alpha.shape[1] == 1:
        return [a * a for a in alpha[:, 0].tolist()]
    v = alpha / np.sqrt(np.diagonal(omega_mat, axis1=1, axis2=2))
    return [float(w @ o @ w) for w, o in zip(v, omega_mat)]


def delta_of_alpha(alpha: float) -> float:
    """delta(alpha) = alpha / sqrt(1 + alpha^2), odd and strictly in (-1, 1)."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return alpha / np.sqrt(1.0 + alpha * alpha)


def skewness_gamma1(alpha: float) -> float:
    """Index of skewness of the scalar skew-normal with shape ``alpha``.

    Accepts +-inf as a sentinel for the half-normal boundary, where the
    index reaches its extreme value of about +-0.99527.
    """
    alpha = float(alpha)
    if np.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    delta = np.sign(alpha) if np.isinf(alpha) else delta_of_alpha(alpha)
    mu = delta * np.sqrt(2.0 / np.pi)
    return float((4.0 - np.pi) / 2.0 * mu**3 / (1.0 - mu * mu) ** 1.5)


def prob_negative(alpha: float) -> float:
    """P{Z < 0} = 1/2 - arctan(alpha)/pi for Z ~ SN(0, 1, alpha).

    The mass below zero shrinks as alpha grows, vanishing in the
    half-normal limit.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return float(0.5 - np.arctan(alpha) / np.pi)


def prob_divergent_mle(n: int, alpha: float) -> float:
    """Probability that all n draws from SN(0, 1, alpha) share one sign.

    That event is exactly the one producing an unbounded shape MLE in the
    one-parameter model.  Symmetric in alpha <-> -alpha, decreasing in n.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    p = prob_negative(alpha)
    return float(p**n + (1.0 - p) ** n)


class CanonicalBasis(NamedTuple):
    transform: np.ndarray   # right-multiplies standardized rows
    rotation: np.ndarray    # orthogonal P, first column along C alpha
    chol_factor: np.ndarray  # C with C'C = Omega-bar
    alpha_star: float


def canonical_matrix(omega_bar: np.ndarray, alpha: np.ndarray) -> CanonicalBasis:
    """Build the linear map sending SN(0, Omega-bar, alpha) to independent coordinates.

    Factor Omega-bar = C'C (upper-triangular Cholesky) and complete the
    unit vector along C alpha to an orthogonal P by a Householder
    reflection.  Rows transform as z (C^-1 P); the first output
    coordinate is then SN(0, 1, alpha-star) and the rest are N(0, 1).
    """
    omega_bar = np.asarray(omega_bar, dtype=float)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    d = alpha.shape[0]
    if np.allclose(alpha, 0.0):
        raise ValueError("canonical transformation is undefined for alpha = 0")
    try:
        c = linalg.cholesky(omega_bar, lower=False)  # omega_bar = c' c
    except linalg.LinAlgError as exc:
        raise ValueError("omega_bar must be positive definite") from exc
    ca = c @ alpha
    a_star = float(np.linalg.norm(ca))
    v = ca / a_star
    e1 = np.zeros(d)
    e1[0] = 1.0
    w = v - e1
    wn = float(w @ w)
    if wn < 1e-24:
        p = np.eye(d)
    else:
        p = np.eye(d) - 2.0 * np.outer(w, w) / wn
    transform = linalg.solve_triangular(c, p, lower=False)
    return CanonicalBasis(transform=transform, rotation=p, chol_factor=c, alpha_star=a_star)


def canonical_transform(data: Dataset, params: DirectParams) -> tuple[Dataset, float]:
    """Rotate a skew-normal sample into canonical coordinates.

    Rows are first centered by xi and scaled by the marginal omegas,
    then right-multiplied by C^-1 P.  For d = 1 this is the identity on
    the standardized data and alpha-star is |alpha|.
    """
    if params.is_skew_t:
        raise ValueError("canonical transformation applies to the skew-normal family")
    if data.d != params.d:
        raise ValueError(f"data dimension {data.d} != parameter dimension {params.d}")
    z = (data.rows - params.xi) / params.omega_diag
    if params.d == 1:
        if params.alpha[0] == 0.0:
            raise ValueError("canonical transformation is undefined for alpha = 0")
        return Dataset(rows=z), abs(float(params.alpha[0]))
    basis = canonical_matrix(params.omega_bar, params.alpha)
    return Dataset(rows=z @ basis.transform), basis.alpha_star
