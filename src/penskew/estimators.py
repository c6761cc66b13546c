"""Fitting: plain and penalized maximum likelihood, the one-parameter
modified-score estimator, the profile deviance in the shape, and
standard errors from the penalized observed information.

Optimization runs in transformed coordinates (log scale, log nu, raw
shape) from a method-of-moments start: one quasi-Newton search whose
value and central-difference gradient come from one evaluation of the
point and its 2k neighbours as a single stack.  It runs scipy's BFGS
iteration directly, with the iterates of ``optimize.minimize``: each
step tests the Wolfe search's first trial itself and calls scipy's search
(the private ``_line_search_wolfe12``) only when that trial fails.  Its
status says whether the fit converged, and ``FitResult.stop_reason`` why
it stopped.
The stack, for any d, shares one pass of the stacked log-likelihood
that ``loglik`` also uses, with a skew-t nu that differs between rows as
a column: over an (m x n) array for d = 1, through one stacked Cholesky
factorization for d > 1 (where the skew-normal objective keeps its own
order of summation).  The standard errors evaluate the 2k(k+1) points
of their central-difference Hessian as one such stack too.  Each
point's value is bit-equal to that of a pass of its own.
The shape-only MLE, MPLE and SF (xi and omega pinned, d = 1) share one
sign-bracketed safeguarded Newton search on the closed-form score in
alpha plus the estimator's correction, one pass over the sample per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import optimize, special
from scipy.optimize._optimize import _LineSearchError, _line_search_wolfe12

from .distributions import Dataset, DirectParams, _alpha_star_sq, _mv_terms
from .likelihood import ModelSpec, _row_loglik, _stack_loglik, loglik, resolve_penalty
from .penalty import PenaltyCoeffs, q_value
from .specfun import _gauss_hermite, _zeta1, expect_t, zeta1_t

__all__ = [
    "FitResult",
    "OptimizationError",
    "RootBracketError",
    "InformationMatrixError",
    "DivergedMLEError",
    "ProfilePoint",
    "fit_mle",
    "fit_mple",
    "fit_sf_one_param",
    "profile_deviance",
    "st_m_exact",
    "sn_m_exact",
    "stderr_from_penalized_info",
    "resolve_penalty",
]

_BIG = 1e10
_GTOL = 1e-6
_MAXITER = 300
_GRAD_STEP = 1e-6
_HESSIAN_STEP = 1e-4
_LOG_NU_BOUNDS = (np.log(0.1), np.log(1e6))


class OptimizationError(RuntimeError):
    pass


class DivergedMLEError(RuntimeError):
    pass


class InformationMatrixError(RuntimeError):
    pass


class RootBracketError(RuntimeError):
    def __init__(self, message, lo, hi):
        super().__init__(f"{message}; searched [{lo}, {hi}]")
        self.interval = (lo, hi)


@dataclass
class FitResult:
    """Outcome of one estimator on one dataset.

    ``evaluations`` counts the log-likelihood points the search evaluated:
    rows of the objective for the quasi-Newton fits, score evaluations for
    the shape-only ones.  ``nu_at_bound`` flags a free nu that ended at or
    next to an edge of its search range [0.1, 1e6].  ``stop_reason`` says
    why the search behind the estimate ended: "gtol", "maxiter",
    "line-search", "non-finite" or "threshold" for BFGS; "root", "one-sign",
    "zero-score", "no-sign-change" or "maxiter" (its Newton search ran out
    of evaluations, ``converged`` false) for the shape-only bracket search;
    "separated" for a d > 1 shape-only skew-normal MLE whose sample is
    separated (:func:`fit_mle`).  ``rising_ray`` is set on a shape-only
    skew-t MLE whose sample is separated: a direction, scaled to largest
    |entry| 1, along which the log-likelihood rises; it does not set
    ``diverged`` (:func:`fit_mle`).
    """

    method: str
    estimates: DirectParams
    loglik_at_opt: float
    penalized_loglik_at_opt: float | None = None
    stderr: np.ndarray | None = None
    obs_info: np.ndarray | None = None
    diverged: bool = False
    converged: bool = True
    iterations: int = 0
    evaluations: int = 0
    optimizer_trace: list | None = None
    penalty: PenaltyCoeffs | None = None
    diagnostics: object = None
    nu_at_bound: bool = False
    stop_reason: str | None = None
    rising_ray: np.ndarray | None = None

    def __post_init__(self):
        if self.diverged and self.method != "MLE":
            raise ValueError(f"only the MLE may diverge, got method={self.method!r}")

    def to_json_dict(self) -> dict:
        est = self.estimates
        out = {
            "method": self.method,
            "estimates": {
                "xi": est.xi.tolist(),
                "omega_mat": est.omega_mat.tolist(),
                "alpha": est.alpha.tolist(),
                "nu": est.nu,
            },
            "loglik": self.loglik_at_opt,
            "penalized_loglik": self.penalized_loglik_at_opt,
            "stderr": None if self.stderr is None else np.asarray(self.stderr).tolist(),
            "diverged": self.diverged,
            "converged": self.converged,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "optimizer_trace": (None if self.optimizer_trace is None
                                else [list(stage) for stage in self.optimizer_trace]),
            "nu_at_bound": self.nu_at_bound,
            "stop_reason": self.stop_reason,
            "rising_ray": None if self.rising_ray is None else self.rising_ray.tolist(),
        }
        if est.d == 1:
            out["estimates"]["omega"] = est.omega
        if self.penalty is not None:
            out["penalty"] = {
                "c1": self.penalty.c1,
                "c2": self.penalty.c2,
                "provenance": self.penalty.provenance,
                "nu": self.penalty.nu,
            }
        return out


# ---------------------------------------------------------------------------
# parameter packing


class _FreeMap:
    """Maps between free-parameter vectors and DirectParams.

    A vector holds the free blocks (xi, scale, alpha, nu) in that order,
    leaving out what ``spec`` pins.  The two coordinate systems code only
    the scale and nu blocks differently.  Optimizer coordinates use
    log omega (d = 1), a Cholesky factor with log diagonal (d > 1), and
    log nu; ``direct`` coordinates are (xi, omega | vech Omega, alpha, nu)
    for information matrices.  :meth:`stack` is the one decoder, for any
    d: the objective, the standard errors and :meth:`unpack` (a one-row
    stack) all decode through it.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        d = self.d = spec.dimension
        self.free_xi = "xi" not in spec.fixed
        self.free_scale = "omega" not in spec.fixed and "omega_mat" not in spec.fixed
        self.free_alpha = "alpha" not in spec.fixed
        self.free_nu = spec.family == "st" and "nu" not in spec.fixed
        self._tril = np.tril_indices(d) if d > 1 else None
        labels = (lambda s: [s]) if d == 1 else (lambda s: [f"{s}_{j+1}" for j in range(d)])
        scale_names = ["omega"] if d == 1 else [f"omega_{i+1}{j+1}" for i, j in zip(*self._tril)]
        names, slices = [], []
        for free, block in ((self.free_xi, labels("xi")), (self.free_scale, scale_names),
                            (self.free_alpha, labels("alpha")), (self.free_nu, ["nu"])):
            slices.append(slice(len(names), len(names) + len(block)) if free else None)
            names += block if free else []
        self.direct_names = names
        self.n_free = len(names)
        self._xi, self._scale, self._alpha, _ = slices  # nu, when free, is x[-1]
        # scale codecs (encode DirectParams -> block, decode a stack of blocks -> Omegas)
        if d == 1:
            self._log_scale = (lambda p: [math.log(p.omega)], lambda B: np.array(
                [_exp_or_inf(2.0 * v) for v in B[:, 0].tolist()]).reshape(-1, 1, 1))
            self._raw_scale = (lambda p: [p.omega], lambda B: np.array(
                [v ** 2 for v in B[:, 0].tolist()]).reshape(-1, 1, 1))
        else:
            self._log_scale = (self._log_cholesky, self._from_log_cholesky)
            self._raw_scale = (lambda p: p.omega_mat[self._tril], self._from_vech)

    def _fixed(self, key):
        return np.broadcast_to(np.asarray(self.spec.fixed[key], dtype=float), (self.d,))

    def _fixed_omega_mat(self):
        if "omega" in self.spec.fixed:
            return np.array([[float(self.spec.fixed["omega"]) ** 2]])
        return np.asarray(self.spec.fixed["omega_mat"], dtype=float)

    def _log_cholesky(self, params: DirectParams) -> np.ndarray:
        chol = np.linalg.cholesky(params.omega_mat)
        chol[np.diag_indices(self.d)] = np.log(np.diag(chol))
        return chol[self._tril]

    def _from_log_cholesky(self, block: np.ndarray) -> np.ndarray:
        """Omega = C C' of a log-Cholesky block, or of each row of a stack of them."""
        chol = np.zeros(block.shape[:-1] + (self.d, self.d))
        chol[..., self._tril[0], self._tril[1]] = block
        diag = np.diag_indices(self.d)
        chol[..., diag[0], diag[1]] = np.exp(chol[..., diag[0], diag[1]])
        return chol @ np.swapaxes(chol, -1, -2)

    def _from_vech(self, block: np.ndarray) -> np.ndarray:
        """Symmetric Omega of a vech block, or of each row of a stack of them."""
        omega_mat = np.zeros(block.shape[:-1] + (self.d, self.d))
        omega_mat[..., self._tril[0], self._tril[1]] = block
        return omega_mat + np.swapaxes(np.tril(omega_mat, -1), -1, -2)

    def _pack(self, params: DirectParams, scale, nu) -> np.ndarray:
        """Free vector of ``params``; ``scale`` and ``nu`` encode those blocks."""
        out = []
        if self.free_xi:
            out.extend(params.xi)
        if self.free_scale:
            out.extend(scale(params))
        if self.free_alpha:
            out.extend(params.alpha)
        if self.free_nu:
            out.append(nu(params.nu))
        return np.asarray(out, dtype=float)

    def pack(self, params: DirectParams) -> np.ndarray:
        return self._pack(params, self._log_scale[0], math.log)

    def unpack(self, x: np.ndarray) -> DirectParams:
        return DirectParams(*(part[0] for part in self.stack(x[None])))

    def direct_pack(self, params: DirectParams) -> np.ndarray:
        return self._pack(params, self._raw_scale[0], float)

    def direct_unpack(self, x: np.ndarray) -> DirectParams:
        return DirectParams(*(part[0] for part in self.stack(x[None], direct=True)))

    def stack(self, X: np.ndarray, direct: bool = False) -> tuple:
        """(xi, omega_mat, alpha, nu) of each row of a stack X.

        X holds free vectors of a model of any d, in optimizer
        coordinates or, with ``direct``, in direct ones.  xi and alpha
        are (m, d) arrays, omega_mat is (m, d, d) and nu a list of m
        floats, or of None for the skew-normal.  An exp that overflows
        decodes as inf.
        """
        m, d = len(X), self.d
        (_, scale), nu_of = (self._raw_scale, float) if direct else (self._log_scale, _exp_or_inf)
        xi = X[:, self._xi] if self.free_xi else np.broadcast_to(self._fixed("xi"), (m, d))
        omega_mat = (scale(X[:, self._scale]) if self.free_scale
                     else np.broadcast_to(self._fixed_omega_mat(), (m, d, d)))
        alpha = (X[:, self._alpha] if self.free_alpha
                 else np.broadcast_to(self._fixed("alpha"), (m, d)))
        if self.free_nu:
            nu = [nu_of(v) for v in X[:, -1].tolist()]
        else:
            nu = [None if self.spec.family == "sn" else float(self.spec.fixed["nu"])] * m
        return xi, omega_mat, alpha, nu


# ---------------------------------------------------------------------------
# objectives and generic optimization


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _nu_in_range(nu: float) -> bool:
    """Whether a decoded nu lies in the search range _LOG_NU_BOUNDS."""
    lo_lnu, hi_lnu = _LOG_NU_BOUNDS
    return nu > 0.0 and lo_lnu <= math.log(nu) <= hi_lnu


def _neg_loglik_factory(data: Dataset, spec: ModelSpec, fmap: _FreeMap,
                        penalty: Callable | None) -> Callable:
    """Build the objective over stacks of free optimizer vectors.

    The objective maps X (m x p, one free vector per row) to the m values
    of minus the (penalized) log-likelihood.  ``penalty`` maps the valid
    rows' alpha*^2 and nu (two lists) to their penalty values, one call
    per stack (:func:`_stack_penalty`), or is None for the plain
    likelihood.  Every d takes one path: the stack decodes through
    :meth:`_FreeMap.stack`, invalid rows get a large value, and the valid
    rows share one :func:`_stack_loglik` pass (the d > 1 skew-normal sums
    the same terms in its own order).  A pass that fails (no Cholesky
    factor, a skew-t CDF argument that is not finite) is repeated row by
    row, and the rows that fail alone keep the large value.  Each row's
    value is bit-equal to that of a pass of its own.
    """
    d = spec.dimension
    if d == 1:
        y = data.column(0)
        y_lo, y_hi, inf = float(y.min()), float(y.max()), math.inf

        def rows_ok(xi, omega_mat, alpha):
            # z = (y - xi) / omega must be finite from min y to max y: where it
            # is not, the log-likelihood is not finite
            return [1e-6 < w < 1e6 and abs(a) <= 1e7
                    and -inf < (y_lo - x) / w <= (y_hi - x) / w < inf
                    for x, w, a in zip(xi[:, 0].tolist(), np.sqrt(omega_mat[:, 0, 0]).tolist(),
                                       alpha[:, 0].tolist())]
    else:
        def rows_ok(xi, omega_mat, alpha):
            diag = np.diagonal(omega_mat, axis1=1, axis2=2)
            return np.all((diag > 1e-12) & (diag <= 1e12), axis=1).tolist()  # NaN fails both

    if spec.family == "sn" and d > 1:
        def loglik_pass(xi, omega_mat, alpha, nu):
            # this sum adds log 2 and log Phi(u) one at a time, where the log
            # densities add log 2 + log Phi(u); either order in place of the
            # other moves estimates past the benchmark's 1e-6 reference check
            qx, logdet, u = _mv_terms(data.rows, xi, omega_mat, alpha)
            return np.sum(-0.5 * d * np.log(2 * np.pi) - 0.5 * logdet[:, None] - 0.5 * qx
                          + np.log(2.0) + special.log_ndtr(u), axis=-1)
    else:
        loglik_pass = partial(_stack_loglik, data)

    def objective(X):
        out = np.full(len(X), _BIG)
        stack = xi, omega_mat, alpha, nu = fmap.stack(X)
        ok = rows_ok(xi, omega_mat, alpha)
        if fmap.free_nu:
            ok = [k and _nu_in_range(v) for k, v in zip(ok, nu)]
        index = [i for i, k in enumerate(ok) if k]
        if len(index) < len(ok):
            stack = xi, omega_mat, alpha, nu = (xi[index], omega_mat[index], alpha[index],
                                                [nu[i] for i in index])
        try:
            ll = loglik_pass(*stack).tolist() if index else []
        except (np.linalg.LinAlgError, ValueError):
            ll = [_one_row(loglik_pass, stack, j) for j in range(len(index))]
        if penalty is None:
            for i, value in zip(index, ll):
                if math.isfinite(value):
                    out[i] = -value
        else:
            for i, value, q in zip(index, ll, penalty(_alpha_star_sq(omega_mat, alpha), nu)):
                if math.isfinite(value):
                    out[i] = -(value - q)
        return out

    return objective


def _one_row(loglik_pass: Callable, stack: tuple, j: int) -> float:
    """``loglik_pass`` on row j of ``stack`` alone; NaN where that row fails it."""
    try:
        return loglik_pass(*(part[j:j + 1] for part in stack))[0]
    except (np.linalg.LinAlgError, ValueError):
        return math.nan


def _factors(omega_mat: np.ndarray) -> bool:
    """Whether a matrix, or every matrix of a stack, has a Cholesky factor."""
    try:
        np.linalg.cholesky(omega_mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _bfgs(objective, x0, stop=None, gtol=_GTOL) -> optimize.OptimizeResult:
    """BFGS on central differences, each value and gradient from one batch.

    The batch stacks x and its 2k neighbours x +- h e_i with
    h = 1e-6 max(1, |x_i|).  The loop is scipy's ``_minimize_bfgs`` at
    ``gtol`` and maxiter = _MAXITER, with the iterates, batches and
    status of ``minimize(method="BFGS", jac=True)`` but not its wrappers.
    Each step tests the first trial step of scipy's Wolfe search itself
    and calls ``_line_search_wolfe12`` only when that trial fails (on
    table1_3p, about one step in four), so a step whose trial holds costs
    one batch and no line-search machinery.  A search also ends, with
    status 4, at the first accepted iterate x for which ``stop(x)`` is
    true.
    """
    k = len(x0)
    # the rows x, x + h_i e_i and x - h_i e_i are x - steps * h; the
    # entries that subtract +0.0 keep x bit for bit, -0.0 included
    steps = np.zeros((2 * k + 1, k))
    steps[1 + np.arange(k), np.arange(k)] = -1.0
    steps[1 + k + np.arange(k), np.arange(k)] = 1.0
    last = [None]  # x, value and gradient of the latest batch, as MemoizeJac keeps them

    def batch(x):
        if last[0] is None or not (x == last[0]).all():
            h = _GRAD_STEP * np.maximum(1.0, np.abs(x))
            f = objective(x - steps * h)
            last[:] = x.copy(), f[0], (f[1:k + 1] - f[k + 1:]) / (2.0 * h)
        return last

    value, grad = (lambda x: batch(x)[1]), (lambda x: batch(x)[2])
    x = np.array(x0, dtype=float)
    _, fx, g = batch(x)
    hess_inv = eye = np.eye(k, dtype=int)
    fx_before = fx + np.linalg.norm(g) / 2  # a first step of length about 1
    nit, status, gnorm = 0, 0, abs(g).max()
    while gnorm > gtol and nit < _MAXITER:
        p = -np.dot(hess_inv, g)
        # the search's first trial step and its strong Wolfe test (MINPACK
        # dcsrch from START), in scipy's arithmetic; any other case, the
        # trial's failure included, goes to scipy, whose first evaluation
        # is then this batch again
        slope, step = np.dot(g, p), None
        if slope < 0:
            trial = min(1.0, 1.01 * 2 * (fx - fx_before) / slope)
            trial = 1.0 if trial < 0 else trial
            if 1e-100 < trial < 1e100:
                _, f_new, g_new = batch(x + trial * p)
                if f_new <= fx + trial * (1e-4 * slope) and abs(np.dot(g_new, p)) <= 0.9 * -slope:
                    step, fx_before, fx = trial, fx, f_new
        if step is None:
            try:
                step, _, _, fx, fx_before, g_new = _line_search_wolfe12(
                    value, grad, x, p, g, fx, fx_before, amin=1e-100, amax=1e100, c1=1e-4,
                    c2=0.9)
            except _LineSearchError:
                status = 2
                break
        s = step * p
        x = x + s
        g_new = grad(x) if g_new is None else g_new
        y, g = g_new - g, g_new
        nit, gnorm = nit + 1, abs(g).max()
        if stop is not None and stop(x):
            status = 4
            break
        if gnorm <= gtol or step * (p * p).sum() ** 0.5 <= 0.0:  # scipy's xrtol = 0 test
            break
        if not math.isfinite(fx):
            status = 2
            break
        rho_inv = np.dot(y, s)
        rho = 1000.0 if rho_inv == 0.0 else 1.0 / rho_inv
        hess_inv = (np.dot(eye - s[:, None] * y[None, :] * rho,
                           np.dot(hess_inv, eye - y[:, None] * s[None, :] * rho))
                    + rho * s[:, None] * s[None, :])
    if status not in (2, 4):
        status = 1 if nit >= _MAXITER else 3 if np.isnan([gnorm, fx, *x]).any() else 0
    return optimize.OptimizeResult(x=x, fun=fx, nit=nit, status=status, success=status == 0)


@dataclass
class _SearchLog:
    """The :class:`FitResult` fields of a fit's searches: iterations, objective
    rows, (name, iterations, value) stages, and the latest search's
    convergence and stop reason."""

    iterations: int = 0
    evaluations: int = 0
    optimizer_trace: list = field(default_factory=list)
    converged: bool = True
    stop_reason: str | None = None

    def minimize(self, objective, x0, stop=None, gtol=_GTOL):
        """One quasi-Newton search on central-difference gradients (:func:`_bfgs`).

        It converged when it succeeded, stopped on status 2, "precision
        loss", which is common and benign at flat optima, or stopped
        where ``stop`` held, status 4.
        """
        def counted(X):
            self.evaluations += len(X)
            return objective(X)

        res = _bfgs(counted, x0, stop, gtol)
        self.iterations += res.nit
        self.optimizer_trace.append(("bfgs", int(res.nit), float(res.fun)))
        self.converged = bool(res.success or res.status in (2, 4))
        reasons = ("gtol", "maxiter", "line-search", "non-finite", "threshold")  # by status
        self.stop_reason = reasons[res.status] if np.isfinite(res.fun) else "non-finite"
        return res


# a clamped MLE's re-fit starts where the search crossed the threshold, not
# near a converged point; a gradient tolerance below _GTOL brings it to the
# estimate that a search run on to convergence before the clamp gave
_REFIT_GTOL = 1e-7


def _fit_alpha_pinned(data: Dataset, spec: ModelSpec, alpha, start: DirectParams, log,
                      gtol=_GTOL):
    """Plain-likelihood maximum over the free parameters of ``spec`` other than alpha.

    Alpha is pinned at ``alpha`` and the search starts from ``start``
    (its alpha is ignored) and runs to gradient tolerance ``gtol``; it
    adds to ``log``, which records whether it converged.  Returns the
    maximizer and the maximum.
    """
    pinned = replace(spec, fixed={**spec.fixed, "alpha": alpha})
    fmap = _FreeMap(pinned)
    res = log.minimize(_neg_loglik_factory(data, pinned, fmap, None), fmap.pack(start),
                       gtol=gtol)
    return fmap.unpack(res.x), -float(res.fun)


# a free nu counts as at an edge of its search range _LOG_NU_BOUNDS when,
# the other parameters held, the objective at that edge is within this of
# its value at the estimate: the likelihood cannot tell the two apart
_NU_EDGE_TOL = 1e-3


def _nu_at_bound(objective, fmap: _FreeMap, params: DirectParams) -> bool:
    """Whether the free nu of the fit ``params`` is at or next to an edge of its range."""
    if not fmap.free_nu:
        return False
    X = np.tile(fmap.pack(params), (3, 1))
    X[1:, -1] = _LOG_NU_BOUNDS
    f = objective(X)
    return bool(min(f[1], f[2]) - f[0] <= _NU_EDGE_TOL)


def _moment_shape(g1) -> tuple:
    """(mean, delta, alpha) of the SN(0, 1, alpha) with index of skewness ``g1``;
    g1 is clipped to +-0.9 and delta to +-0.995, so every value is finite."""
    c = np.cbrt(2.0 * np.minimum(np.maximum(g1, -0.9), 0.9) / (4.0 - np.pi))
    mz = c / np.sqrt(1.0 + c * c)
    delta = np.minimum(np.maximum(mz * np.sqrt(np.pi / 2.0), -0.995), 0.995)
    return mz, delta, delta / np.sqrt(1.0 - delta * delta)


def _shape_moment_alpha(z: np.ndarray) -> np.ndarray:
    """Shape-only moment estimate: match the skewness of standardized data ``z``.

    Works along axis 0, so a 2-D ``z`` gives one estimate per column and
    a 1-D ``z`` gives a scalar.
    """
    z2 = z * z
    return _moment_shape((z2 * z).sum(axis=0) / len(z)
                         / np.maximum(z2.sum(axis=0) / len(z), 1e-12) ** 1.5)[2]


def _mom_start(data: Dataset, spec: ModelSpec, fmap: _FreeMap) -> DirectParams:
    """Method-of-moments initial point honoring pinned components."""
    rows = data.rows
    d = spec.dimension
    m = rows.mean(axis=0)
    s = rows.std(axis=0)
    s[s == 0] = 1.0
    # alpha is the start of a d = 1 model with xi or omega free
    mz, delta, alpha = _moment_shape(np.mean(((rows - m) / s) ** 3, axis=0))
    omega = s / np.sqrt(np.maximum(1.0 - mz * mz, 1e-3))
    xi = m - omega * mz

    if "xi" in spec.fixed:
        xi = fmap._fixed("xi").copy()
    if not fmap.free_scale:
        omega_mat = fmap._fixed_omega_mat()
        omega = np.sqrt(np.diag(omega_mat))
    elif d == 1:
        omega_mat = np.array([[omega[0] ** 2]])
    else:
        corr = np.corrcoef(rows, rowvar=False)
        corr = 0.98 * corr + 0.02 * np.eye(d)  # keep comfortably positive definite
        omega_mat = corr * np.outer(omega, omega)

    if "alpha" in spec.fixed:
        alpha = fmap._fixed("alpha").copy()
    elif not fmap.free_xi and not fmap.free_scale:
        # shape-only model: moment-match on the standardized data
        alpha = _shape_moment_alpha((rows - xi) / omega)
    elif d > 1:
        omega_bar = omega_mat / np.outer(np.sqrt(np.diag(omega_mat)), np.sqrt(np.diag(omega_mat)))
        sol = np.linalg.solve(omega_bar, delta)
        quad = float(delta @ sol)
        if quad >= 0.98:
            sol *= np.sqrt(0.98 / quad)
            quad = 0.98
        alpha = sol / np.sqrt(1.0 - quad)

    nu = float(spec.fixed["nu"]) if "nu" in spec.fixed else (10.0 if spec.family == "st" else None)
    return DirectParams(xi=xi, omega_mat=omega_mat, alpha=alpha, nu=nu)


def _check_data(data: Dataset, spec: ModelSpec, fmap: _FreeMap):
    if data.d != spec.dimension:
        raise ValueError(f"data dimension {data.d} != model dimension {spec.dimension}")
    if fmap.free_scale:
        if np.any(np.ptp(data.rows, axis=0) == 0):
            raise ValueError("degenerate data: a column is constant, scale not identifiable")
        with np.errstate(over="ignore"):
            sd = data.rows.std(axis=0)
        if not np.all((sd > 0) & (sd < np.inf)):  # a spread that under- or overflows
            raise ValueError("degenerate data: a column's standard deviation is not finite "
                             "and positive, scale not identifiable")
        if data.n < spec.dimension + 2:
            raise ValueError(f"need at least d+2 = {spec.dimension + 2} observations, got {data.n}")


# ---------------------------------------------------------------------------
# one-parameter fits: safeguarded Newton on the analytic shape score

_NEWTON_STEP = 1e-7  # a Newton step this small, relative, ends the search
_NEWTON_XTOL = 1e-12  # as does a bisection bracket this narrow
_NEWTON_MAXEV = 100


class _ShapeScore:
    """Score of the shape-only log-likelihood in alpha, and its derivative.

    Skew-normal: sum z zeta1(alpha z).  Skew-t: sum w zeta1_t(alpha w; m)
    with w = z sqrt(m / (nu + z^2)) and m = nu + 1.  The derivatives use
    zeta1'(x) = -zeta1(x) (x + zeta1(x)) and
    zeta1_t'(x; m) = -zeta1_t(x; m) ((m + 1) x / (m + x^2) + zeta1_t(x; m)).
    The score at zero is a positive constant times sum(w), so the sign
    of ``w.sum()`` says on which side of zero the likelihood rises.
    """

    def __init__(self, z: np.ndarray, nu: float | None):
        self.m = None if nu is None else nu + 1.0
        self.w = z if nu is None else z * np.sqrt(self.m / (nu + z * z))
        self.w2 = self.w * self.w

    def __call__(self, a: float) -> tuple[float, float]:
        u = a * self.w
        if self.m is None:
            r = _zeta1(u)
            r_dr = r * (u + r)  # -zeta1'(u)
        else:
            r = zeta1_t(u, self.m)
            r_dr = r * ((self.m + 1.0) * u / (self.m + u * u) + r)
        return float((self.w * r).sum()), -float(self.w2 @ r_dr)


def _safeguarded_newton(f, lo: float, hi: float, x0: float) -> tuple[float, int, bool]:
    """Root of ``f`` in [lo, hi] given f(lo) > 0 > f(hi).

    ``f`` returns (value, derivative).  Each evaluation moves the end of
    the bracket whose sign it shares, and a Newton step that would leave
    the bracket becomes a bisection, so the search ends at a crossing
    from positive to negative: a local maximum when ``f`` is the
    derivative of an objective.  Starts at ``x0`` when it lies strictly
    inside, else at the midpoint.  A Newton step of at most
    1e-7 max(1, |x|) ends the search at its target, clamped to the
    bracket: that target's error is of the order of the step squared.
    Returns the root, the number of evaluations, and whether the search
    ended before ``_NEWTON_MAXEV`` evaluations ran out.
    """
    x = x0 if lo < x0 < hi else 0.5 * (lo + hi)
    for nfev in range(1, _NEWTON_MAXEV + 1):
        fx, dfx = f(x)
        if fx == 0.0:
            return x, nfev, True
        if fx > 0.0:
            lo = x
        else:
            hi = x
        scale = max(1.0, abs(x))
        x_new = x - fx / dfx if dfx != 0.0 else math.nan
        if abs(x_new - x) <= _NEWTON_STEP * scale:
            return min(max(x_new, lo), hi), nfev, True
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
            if hi - lo <= _NEWTON_XTOL * scale:
                return x_new, nfev, True
        x = x_new
    return x, _NEWTON_MAXEV, False


def _doublings(first: float):
    """Bracket ends first, 2 first, 4 first, ..., none beyond 2^45, made as they are asked for."""
    return (first * 2.0**j for j in range(46) if first * 2.0**j <= 2.0**45)


def _fit_shape_only(data: Dataset, spec: ModelSpec, method: str, ends) -> FitResult:
    """Shape-only MLE, MPLE or SF: the root of h = score + correction in alpha.

    The correction is 0, -q'(alpha) or M(alpha).  On the side the score at
    zero picks, h is evaluated at each of ``ends`` in turn until it is 0 or
    changes sign; safeguarded Newton from the moment estimate then finds
    the root between the last two points.  If h never changes sign, the
    MLE has diverged and the others raise :class:`RootBracketError`.
    """
    xi = float(spec.fixed["xi"]); omega = float(spec.fixed["omega"])
    nu = spec.fixed.get("nu")
    coeffs = resolve_penalty(spec) if method == "MPLE" else None

    def result(a: float, nfev: int, stop_reason: str, diverged: bool = False) -> FitResult:
        est = DirectParams.scalar(xi, omega, a, nu)
        ll = _row_loglik(est, data)
        return FitResult(method=method, estimates=est, loglik_at_opt=ll,
                         penalized_loglik_at_opt=None if coeffs is None
                         else ll - q_value(coeffs, a * a),
                         diverged=diverged, converged=stop_reason != "maxiter",
                         iterations=nfev, evaluations=nfev, penalty=coeffs,
                         stop_reason=stop_reason)

    z = (data.column(0) - xi) / omega
    if method == "MLE" and (np.all(z > 0) or np.all(z < 0)):
        # a one-sign sample maximizes the shape-only likelihood at infinity;
        # the sign test is exact where a search could stall on the
        # float-flat plateau short of the threshold
        return result(math.copysign(ends[-1], z[0]), 0, "one-sign", diverged=True)
    score = _ShapeScore(z, None if nu is None else float(nu))
    if method == "MLE":
        h = score
    elif method == "MPLE":
        k, c2 = 2.0 * coeffs.c1 * coeffs.c2, coeffs.c2

        def h(a):
            s, ds = score(a)
            den = 1.0 + c2 * a * a
            return s - k * a / den, ds - k * (1.0 - c2 * a * a) / (den * den)
    else:
        def h(a):
            s, ds = score(a)
            m, dm = _sn_m_and_slope(a)
            return s + m, ds + dm
    side = float(np.sign(score.w.sum()))
    if side == 0.0:
        return result(0.0, 0, "zero-score")
    lo, nfev = 0.0, 0
    for end in ends:
        hi = side * end
        h_hi = h(hi)[0]
        nfev += 1
        if h_hi == 0.0:
            return result(hi, nfev, "root")
        if h_hi < 0.0 if side > 0.0 else h_hi > 0.0:
            root, n_newton, found = _safeguarded_newton(h, *sorted((lo, hi)),
                                                        float(_shape_moment_alpha(z)))
            return result(root, nfev + n_newton, "root" if found else "maxiter")
        lo = hi
    if method == "MLE":
        return result(lo, nfev, "no-sign-change", diverged=True)
    raise RootBracketError(f"{'penalized' if method == 'MPLE' else 'modified'} score never "
                           "changed sign", *sorted((0.0, lo)))


# ---------------------------------------------------------------------------
# public fits


def _check_divergence_threshold(value: float) -> float:
    """``value``, or ValueError naming it when it is not a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"divergence_threshold must be positive and finite, got {value!r}")
    return value


def fit_mle(data: Dataset, spec: ModelSpec, *,
            divergence_threshold: float = 100.0) -> FitResult:
    """Maximum likelihood fit with divergence detection.

    A fit whose largest |alpha| component exceeds the keyword-only
    ``divergence_threshold`` is flagged and reported clamped at the
    threshold, never at infinity.  The quasi-Newton search stops at the
    first iterate past the threshold (``stop_reason`` "threshold");
    alpha is scaled back to it along that iterate's direction, and any
    other free parameters are re-maximized there to a gradient tolerance
    of 1e-7.  That re-fit then sets ``converged`` and ``stop_reason``.

    The other shape-only models (xi and Omega pinned) first look for a
    direction that separates the standardized sample
    (:func:`_separating_direction`).  For the skew-normal that is the
    exact test for a supremum at infinity: a sample it flags is reported
    clamped at the threshold along the direction, with no search and
    ``stop_reason`` "separated".  For the skew-t the search runs as
    usual, and the direction, along which the log-likelihood rises, is
    reported as ``rising_ray`` without ``diverged``: log T is not
    concave, so the rise does not show that no finite maximum exists.
    """
    thr = _check_divergence_threshold(divergence_threshold)
    fmap = _FreeMap(spec)
    _check_data(data, spec, fmap)
    if spec.is_one_param:
        return _fit_shape_only(data, spec, "MLE", (thr,))
    ray = None
    if fmap.free_alpha and not (fmap.free_xi or fmap.free_scale):
        xi, omega_mat = fmap._fixed("xi"), fmap._fixed_omega_mat()
        ray = _separating_direction((data.rows - xi) / np.sqrt(np.diag(omega_mat)))
        if ray is not None and spec.family == "sn":
            est = DirectParams(xi=xi, omega_mat=omega_mat, alpha=ray * (thr / abs(ray).max()))
            return FitResult(method="MLE", estimates=est, loglik_at_opt=loglik(est, data, spec),
                             diverged=True, stop_reason="separated")
    fit = _fit_bfgs(data, spec, fmap, None, thr)
    fit.rising_ray = None if ray is None else ray / abs(ray).max()
    return fit


def _separating_direction(z: np.ndarray) -> np.ndarray | None:
    """A direction a with a'z_i >= 0 for every row z_i of ``z`` and > 0 for some, or None.

    The shape-only skew-normal log-likelihood sum log 2 Phi(alpha' z_i) is
    a probit log-likelihood whose responses are all 1, concave in alpha;
    it has no finite maximum exactly when such an a exists, and rises
    along it toward its supremum at infinity (Albert & Anderson 1984).
    The linear program max sum a'z_i subject to a'z_i >= 0 and
    |a_j| <= 1 (scipy's HiGHS) finds one; its optimum is 0 when none
    exists, and one below 1e-9 sum |z| counts as 0, the solver's rounding.
    For the skew-t, log T is not concave, so a rising ray does not show
    that no finite maximum exists, and the test is not applied there.
    """
    res = optimize.linprog(-z.sum(axis=0), A_ub=-z, b_ub=np.zeros(len(z)),
                           bounds=(-1.0, 1.0), method="highs")
    if res.status != 0 or -res.fun <= 1e-9 * np.abs(z).sum():
        return None
    return res.x


def _fit_bfgs(data: Dataset, spec: ModelSpec, fmap: _FreeMap, penalty: Callable | None,
              thr: float = math.inf) -> FitResult:
    """The MLE (``penalty`` None) or MPLE: one quasi-Newton search from the moment start,
    then :func:`fit_mle`'s clamp at ``thr``, before the check for a finite optimum.

    The MLE's search stops at its first iterate whose largest |alpha_j|
    exceeds ``thr`` (stop reason "threshold"); the clamp then re-fits the
    other free parameters from there with alpha pinned.
    """
    objective = _neg_loglik_factory(data, spec, fmap, penalty)
    log = _SearchLog()
    stop = None
    if penalty is None and fmap.free_alpha:
        stop = lambda x: abs(x[fmap._alpha]).max() > thr
    res = log.minimize(objective, fmap.pack(_mom_start(data, spec, fmap)), stop)
    params, ll, diverged = fmap.unpack(res.x), -float(res.fun), False
    if fmap.free_alpha and np.max(np.abs(params.alpha)) > thr:
        clamped = params.alpha * (thr / np.max(np.abs(params.alpha)))
        if fmap.free_xi or fmap.free_scale or fmap.free_nu:
            params, ll = _fit_alpha_pinned(data, spec, clamped, params, log, _REFIT_GTOL)
        else:
            params = replace(params, alpha=clamped)
            ll = -float(objective(fmap.pack(params)[None])[0])
            log.evaluations += 1
        diverged = True
    elif not np.isfinite(res.fun) or res.fun >= _BIG:
        raise OptimizationError(f"{'likelihood' if penalty is None else 'penalized'} "
                                "optimization failed to find a finite optimum")
    if penalty is None:
        fields = dict(method="MLE", loglik_at_opt=ll, diverged=diverged)
    else:
        fields = dict(method="MPLE", loglik_at_opt=loglik(params, data, spec),
                      penalized_loglik_at_opt=ll, penalty=resolve_penalty(spec, params.nu))
    return FitResult(estimates=params, **fields, **vars(log),
                     nu_at_bound=_nu_at_bound(objective, fmap, params))


# the shape-only MPLE's first bracket end; the later ones double it
_MPLE_FIRST_END = 150.0


def fit_mple(data: Dataset, spec: ModelSpec) -> FitResult:
    """Maximum penalized likelihood fit; always interior, never diverges.

    The shape-only fit takes the first sign change of the penalized score
    along the ends 150, 300, 600, ..., and never reports an end.  The
    penalty coefficients are the model's (:func:`resolve_penalty`),
    re-resolved at each candidate nu when nu is free.
    """
    fmap = _FreeMap(spec)
    _check_data(data, spec, fmap)
    if spec.is_one_param:
        return _fit_shape_only(data, spec, "MPLE", _doublings(_MPLE_FIRST_END))
    return _fit_bfgs(data, spec, fmap, _stack_penalty(spec))


def _stack_penalty(spec: ModelSpec) -> Callable:
    """The MPLE objective's penalty: the lists alpha*^2 and nu of a stack's rows
    to their values c1 log(1 + c2 alpha*^2), each bit-equal to :func:`q_value`'s.

    The coefficients are the model's (:func:`resolve_penalty`): constant
    for the skew-normal and a pinned nu, resolved once per distinct nu of
    the stack when nu is free.
    """
    if spec.family == "st" and "nu" not in spec.fixed:
        def coefficients(nu):
            by_nu = {v: resolve_penalty(spec, v) for v in set(nu)}
            return np.array([by_nu[v].c1 for v in nu]), np.array([by_nu[v].c2 for v in nu])
    else:
        coeffs = resolve_penalty(spec)
        coefficients = lambda nu: (coeffs.c1, coeffs.c2)

    def penalty(a2, nu):
        c1, c2 = coefficients(nu)
        return (c1 * np.log1p(c2 * np.array(a2))).tolist()

    return penalty


# ---------------------------------------------------------------------------
# profile deviance


@dataclass(frozen=True)
class ProfilePoint:
    alpha: float
    deviance: float
    profile_loglik: float
    converged: bool


def profile_deviance(alpha_grid: Sequence[float], data: Dataset, spec: ModelSpec) -> list[ProfilePoint]:
    """Deviance profile D(alpha) = 2 {l(theta_hat) - l*(alpha)}, measured from the MLE.

    l(theta_hat) is :func:`fit_mle`'s maximum, so D keeps its meaning on
    a grid that misses alpha_hat; a diverged MLE reports l at its clamp,
    and a grid value above that takes its place.  Each grid point
    maximizes over the nuisance (xi, omega) with alpha pinned, by the
    quasi-Newton search that also re-fits a clamped divergent MLE (here
    to the default gradient tolerance, 1e-6), warm-started from its
    predecessor in grid order.  Nonconvergent inner fits are flagged per
    point rather than aborting the sweep.
    """
    if spec.dimension != 1:
        raise ValueError("profile deviance is implemented for d = 1")
    if "xi" in spec.fixed or "omega" in spec.fixed:
        raise ValueError("profile deviance needs xi and omega free")
    if spec.family == "st" and "nu" not in spec.fixed:
        raise ValueError("profile deviance over alpha needs nu pinned in the skew-t family")
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise ValueError("alpha_grid must be nonempty")
    mle = fit_mle(data, spec)
    y = data.column(0)
    start = DirectParams.scalar(y.mean(), y.std() if y.std() > 0 else 1.0, 0.0,
                                spec.fixed.get("nu"))
    values, oks = [], []
    for a in grid:
        log = _SearchLog()
        start, val = _fit_alpha_pinned(data, spec, a, start, log)
        values.append(val)
        oks.append(log.converged)
    l_max = max(mle.loglik_at_opt, *values)
    return [ProfilePoint(alpha=a, deviance=2.0 * (l_max - v), profile_loglik=v, converged=ok)
            for a, v, ok in zip(grid, values, oks)]


# ---------------------------------------------------------------------------
# modified-score estimator (one-parameter skew-normal)

_GH_NODES, _GH_WEIGHTS = _gauss_hermite(64)
_GH_W2 = _GH_WEIGHTS * _GH_NODES * _GH_NODES  # the data-free factors of _sn_m_and_slope
_GH_W24 = np.array([_GH_W2, _GH_W2 * _GH_NODES * _GH_NODES])  # rows w x^2 and w x^4
_GH_W24X = _GH_W24 * _GH_NODES


def _sn_m_and_slope(a: float) -> tuple[float, float]:
    """M(alpha) of :func:`sn_m_exact` and its derivative in alpha.

    With M = A(alpha) R(delta), A = -alpha / (2 (1 + alpha^2)) and
    R = E{X^4 zeta1(delta X)} / E{X^2 zeta1(delta X)}, the derivative is
    A' R + A R' d delta/d alpha, where d delta/d alpha = (1 + alpha^2)^(-3/2)
    and R' follows from zeta1'(x) = -zeta1(x) (x + zeta1(x)).
    """
    s = 1.0 + a * a
    u = (a / math.sqrt(s)) * _GH_NODES
    r = _zeta1(u)
    e2, e4 = (_GH_W24 @ r).tolist()
    de2, de4 = (_GH_W24X @ (r * (u + r))).tolist()  # minus the slopes
    ratio = e4 / e2
    d_ratio = (ratio * de2 - de4) / e2 / (s * math.sqrt(s))
    amp = -a / (2.0 * s)
    return amp * ratio, -(1.0 - a * a) / (2.0 * s * s) * ratio + amp * d_ratio


def sn_m_exact(alpha: float) -> float:
    """Score correction M(alpha) = -(alpha/2) a4/a2 for the scalar skew-normal.

    The moment ratio is computed from the standard-normal rewrite
    a_p(alpha) = sqrt(2/pi) (1+alpha^2)^(-(p+1)/2) E{X^p zeta1(delta X)},
    so a single 64-point Gauss-Hermite rule serves every alpha.
    """
    a = float(alpha)
    if a == 0.0:
        return 0.0
    return _sn_m_and_slope(a)[0]


def fit_sf_one_param(data: Dataset, spec: ModelSpec | None = None) -> FitResult:
    """Root of the modified score l'(alpha) + M(alpha) = 0, one-parameter model.

    The root always exists and is finite.  The fit takes the first sign
    change of the modified score along the ends 1, 2, 4, ..., 2^45, and
    safeguarded Newton steps on the analytic modified score and its
    derivative, started from the moment estimate, locate the root there.
    """
    if spec is None:
        spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
    if not (spec.family == "sn" and spec.is_one_param):
        raise ValueError("the modified-score estimator is implemented for the "
                         "one-parameter skew-normal model")
    return _fit_shape_only(data, spec, "SF", _doublings(1.0))


def st_m_exact(alpha: float, nu: float) -> float:
    """Score correction M(alpha) for the shape-only skew-t model.

    Evaluates the two change-of-variable expectations over t(nu+1) and
    t(nu+3); odd in alpha with M(alpha) * alpha < 0, and -alpha/(2 M)
    close to e1nu + e2nu alpha^2.
    """
    a = float(alpha)
    nu = float(nu)
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu!r}")
    if a == 0.0:
        return 0.0
    delta = a / math.sqrt(1.0 + a * a)
    one_minus_d2 = 1.0 / (1.0 + a * a)

    def integrand1(x):
        v = np.sqrt((nu + 1.0) / (nu + 1.0 + one_minus_d2 * x * x))
        return x * x * v * zeta1_t(delta * x * v, nu + 1.0)

    def integrand3(x):
        v = np.sqrt((nu + 1.0) / (nu + 3.0 + one_minus_d2 * x * x))
        return x**4 * v * zeta1_t(delta * x * v, nu + 1.0)

    e1 = expect_t(integrand1, nu + 1.0)
    e3 = expect_t(integrand3, nu + 3.0)
    ratio = math.sqrt((nu + 1.0) / (nu + 3.0)) * ((nu + 1.0) / (nu + 2.0)) ** 2 \
        * ((nu + 1.0) / (nu + 3.0))
    return -a / (2.0 * (1.0 + a * a)) * ratio * e3 / e1


# ---------------------------------------------------------------------------
# standard errors


def stderr_from_penalized_info(fit: FitResult, data: Dataset, spec: ModelSpec) -> np.ndarray:
    """Standard errors from the penalized observed information at the optimum.

    The Hessian of the penalized log-likelihood is differenced centrally
    in the direct parameterization; its negative must be positive
    definite, and every difference point must lie in the parameter space,
    otherwise :class:`InformationMatrixError` is raised (no silent
    regularization).  ``fit`` must be a fit of ``spec`` to ``data``, else
    ValueError.  The 2k(k+1) difference points are evaluated as one
    stack: :func:`loglik` of each, bit for bit, and alpha*^2 of all by the
    MPLE objective's formula (``_alpha_star_sq``).  The penalty coefficients
    are held at the fit's (``fit.penalty``): with nu free, those at the
    MPLE's nu at every difference point, while the MPLE's objective
    re-resolves them at each point's nu.  The result is also attached to ``fit``.
    """
    if fit.diverged:
        raise DivergedMLEError("standard errors are undefined for a diverged fit")
    if not fit.converged:
        raise OptimizationError("fit did not converge; refusing to compute standard errors")
    spec.validate_params(fit.estimates)
    fmap = _FreeMap(spec)
    _check_data(data, spec, fmap)
    coeffs = fit.penalty or resolve_penalty(spec, nu=fit.estimates.nu)
    names = fmap.direct_names
    x0 = fmap.direct_pack(fit.estimates)
    k = len(x0)
    h = _HESSIAN_STEP * np.maximum(1.0, np.abs(x0))
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    points = []
    for i, j in pairs:
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):  # pp, pm, mp, mm
            x = x0.copy(); x[i] += si * h[i]; x[j] += sj * h[j]
            points.append(x)
    X = np.array(points)
    xi, omega_mat, alpha, nu = fmap.stack(X, direct=True)
    # each point as DirectParams would check it; the first that fails names its step
    ok = np.isfinite(X).all(axis=1) & np.isfinite(omega_mat).all(axis=(1, 2))
    if fmap.free_nu:
        ok &= X[:, -1] > 0
    if fmap.d == 1:
        ok &= omega_mat[:, 0, 0] > 0
    elif not _factors(omega_mat[ok]):
        ok[ok] = [_factors(o) for o in omega_mat[ok]]
    bad = np.flatnonzero(~ok)
    if bad.size:
        i, j = pairs[bad[0] // 4]
        step = names[i] if i == j else f"{names[i]} and {names[j]}"
        try:
            fmap.direct_unpack(X[bad[0]])
        except ValueError as exc:
            raise InformationMatrixError(
                f"a Hessian point stepped in {step} leaves the parameter space: {exc}") from exc
    pll = [value - q_value(coeffs, a2) for value, a2 in
           zip(_stack_loglik(data, xi, omega_mat, alpha, nu).tolist(),
               _alpha_star_sq(omega_mat, alpha))]
    hess = np.empty((k, k))
    for p, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = pll[4 * p:4 * p + 4]
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * h[i] * h[j])
    obs_info = -hess
    try:
        chol = np.linalg.cholesky(obs_info)
    except np.linalg.LinAlgError as exc:
        raise InformationMatrixError(
            f"penalized observed information is not positive definite "
            f"(free parameters: {names})") from exc
    inv = np.linalg.inv(obs_info)
    se = np.sqrt(np.diag(inv))
    fit.stderr = se
    fit.obs_info = obs_info
    return se

