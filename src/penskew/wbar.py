"""Likelihood-ratio-type statistics W and W_p and the estimator they define.

The estimator sits where the two statistics coincide on the segment
joining the plain and penalized maximizers.  With the log-quadratic
penalty that is where alpha*^2 meets the ellipsoid value r(y): a closed
form in t for d = 1, and a scan plus Brent's method on the raw parameter
arrays for d > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .distributions import Dataset, DirectParams, _alpha_star_sq, sample
from .estimators import DivergedMLEError, FitResult, fit_mle, fit_mple
from .likelihood import ModelSpec, _row_loglik, loglik, penalized_loglik
from .penalty import q_value

__all__ = [
    "WbarBracketError",
    "WbarDiagnostics",
    "ScatterPoint",
    "w_statistics",
    "fit_wbar",
    "emit_w_scatter",
    "interpolate_params",
]

# a wrong-signed bracket end whose gap |g|/2 is within this fraction of
# max(1, |l(theta-hat)|) is a tie at rounding level, not a violation
_TIE_RTOL = 1e-10


@dataclass(frozen=True)
class WbarDiagnostics:
    q_of_y: float
    r_of_y: float
    segment_parameter: float
    sign_checks: dict
    root_multiplicity: int = 1
    used_boundary_mle: bool = False


@dataclass(frozen=True)
class ScatterPoint:
    w_at_true: float
    wp_at_true: float
    branch: str  # "both-over" | "both-under" | "mixed"


def interpolate_params(a: DirectParams, b: DirectParams, t: float) -> DirectParams:
    """Convex combination (1-t) a + t b, componentwise in the direct space.

    Positive definiteness and nu > 0 survive convex combination, so
    every point of the segment is a valid parameter.
    """
    _check_compatible(a, b)
    t = float(t)
    nu = None if a.nu is None else (1 - t) * a.nu + t * b.nu
    return DirectParams(
        xi=(1 - t) * a.xi + t * b.xi,
        omega_mat=(1 - t) * a.omega_mat + t * b.omega_mat,
        alpha=(1 - t) * a.alpha + t * b.alpha,
        nu=nu,
    )


def _check_compatible(a: DirectParams, b: DirectParams) -> None:
    if a.d != b.d or (a.nu is None) != (b.nu is None):
        raise ValueError("cannot interpolate between incompatible parameter vectors")


def w_statistics(theta: DirectParams, data: Dataset, spec: ModelSpec,
                 mle: FitResult, mple: FitResult) -> tuple[float, float]:
    """(W, W_p) at ``theta``: twice the likelihood drops from the two optima.

    W_p penalizes ``theta`` with the MPLE's coefficients, so for a
    skew-t with free nu they stay those at the MPLE's nu, not ``theta``'s.
    """
    if mle.diverged:
        raise DivergedMLEError("W is undefined when the MLE diverged")
    if not mple.converged or mple.penalized_loglik_at_opt is None:
        raise ValueError("need a converged penalized fit")
    coeffs = mple.penalty
    if coeffs is None:
        raise ValueError("penalized fit carries no penalty coefficients")
    ll = loglik(theta, data, spec)
    w = 2.0 * (mle.loglik_at_opt - ll)
    a2 = _alpha_star_sq(theta.omega_mat[None], theta.alpha[None])[0]
    wp = 2.0 * (mple.penalized_loglik_at_opt - (ll - q_value(coeffs, a2)))
    return float(w), float(wp)


class WbarBracketError(ValueError):
    """The MLE and the MPLE do not straddle the W = W_p surface.

    At the MLE, W_p - W = 2 {l_p(theta-tilde) - l_p(theta-hat)}; at the
    MPLE it is 2 {l(theta-tilde) - l(theta-hat)}.  A violated bracket
    therefore means one input fit is not the maximum it claims to be,
    except for a skew-t with free nu: l_p at the MLE is then penalized
    at the MPLE's nu, not its own, and that alone can violate the MLE end.
    The message then gives both gaps, with the coefficients held at the
    MPLE's nu and at the MLE's own, and blames the MPLE only when the
    MLE is above it at its own nu too.
    """


def fit_wbar(data: Dataset, spec: ModelSpec, mle: FitResult, mple: FitResult, *,
             allow_boundary_mle: bool = False) -> FitResult:
    """Locate the point on the segment from the MLE to the MPLE where W = W_p.

    The difference W_p - W reduces to g(t) = 2 {Q(theta_t) - q(y)} with
    q(y) = l(theta-hat) - l_p(theta-tilde), and Q increases in alpha*^2,
    so the crossing is where alpha*^2(t) meets the ellipsoid value
    r(y) = (exp(q/c1) - 1)/c2.  Both ends are checked first: g(0) > 0 > g(1)
    must hold, or ``WbarBracketError`` names the fit that is not a maximum.
    Q keeps the MPLE's coefficients along the whole segment; for a skew-t
    with free nu these are the closed-form ones at the MPLE's nu, so the
    check at the MLE end compares l_p values penalized at the MPLE's nu.
    An end of the wrong sign whose gap |g|/2 is at most
    1e-10 max(1, |l(theta-hat)|) is a tie at rounding level, not a
    violation: W = W_p holds there, so a tie at the MPLE end (the two
    log-likelihoods agree) returns the MPLE, and one at the MLE end
    returns the MLE.

    For d = 1, alpha*^2 = alpha^2 and alpha is linear in t, so the root is
    the closed form t = (alpha-hat - sign(alpha-hat) sqrt(r)) / (alpha-hat - alpha-tilde),
    unique because alpha(t)^2 - r is a quadratic positive at 0 and negative
    at 1.  For d > 1, a 33-point scan counts the sign changes and takes the
    one nearest the MPLE, then Brent's method refines it; both evaluate
    alpha*^2 (the MPLE objective's ``_alpha_star_sq``) on the raw arrays of
    the segment, and a parameter object is built only at the root.

    A diverged MLE leaves the estimator undefined; passing
    ``allow_boundary_mle=True`` instead uses the threshold-clamped fit
    the MLE reported, which is how simulation summaries that keep every
    replicate are produced.

    The construction is generic, but its comparative behaviour has only
    been studied for univariate skew-normal models; treat skew-t and
    multivariate use as experimental.
    """
    if mle.diverged and not allow_boundary_mle:
        raise DivergedMLEError("wbar is undefined when the MLE diverged")
    if not (mle.converged and mple.converged):
        raise ValueError("both input fits must have converged")
    if mple.penalty is None or mple.penalized_loglik_at_opt is None:
        raise ValueError("the MPLE input must carry penalty information")
    coeffs = mple.penalty
    q_y = float(mle.loglik_at_opt - mple.penalized_loglik_at_opt)
    r_y = float(np.expm1(q_y / coeffs.c1) / coeffs.c2)
    theta_hat, theta_tilde = mle.estimates, mple.estimates
    _check_compatible(theta_hat, theta_tilde)

    def g(t: float) -> float:
        alpha = (1 - t) * theta_hat.alpha + t * theta_tilde.alpha
        omega_mat = (1 - t) * theta_hat.omega_mat + t * theta_tilde.omega_mat
        return 2.0 * (q_value(coeffs, _alpha_star_sq(omega_mat[None], alpha[None])[0]) - q_y)

    g0, g1 = g(0.0), g(1.0)
    tie = 2.0 * _TIE_RTOL * max(1.0, abs(mle.loglik_at_opt))
    tie0 = not g0 > 0.0 and abs(g0) <= tie
    tie1 = not g1 < 0.0 and abs(g1) <= tie
    found = []
    if not (g0 > 0.0 or tie0):
        held = f"l_p at the MLE exceeds l_p at the MPLE by {-g0 / 2:.3g}"
        if spec.family == "st" and "nu" not in spec.fixed:
            own = penalized_loglik(theta_hat, data, spec) - mple.penalized_loglik_at_opt
            verdict = ("the MPLE is not the penalized maximum" if own > 0 else
                       "the bracket fails only because the coefficients are held fixed")
            found.append(f"{verdict}: with the coefficients held at the MPLE's "
                         f"nu = {theta_tilde.nu:.3g}, {held}; with those at the MLE's own "
                         f"nu = {theta_hat.nu:.3g}, l_p at the MLE is {abs(own):.3g} "
                         f"{'above' if own > 0 else 'below'} l_p at the MPLE")
        else:
            found.append(f"the MPLE is not the penalized maximum: with the MPLE's penalty, {held}")
    if not (g1 < 0.0 or tie1):
        found.append("the MLE is not the maximum: "
                     f"l at the MPLE exceeds l at the MLE by {g1 / 2:.3g}")
    if found:
        raise WbarBracketError(f"bracket violation: g(0)={g0:.3e}, g(1)={g1:.3e}, beyond the "
                               f"tie tolerance {tie / 2:.3g}; " + "; ".join(found))
    multiplicity = 1
    if tie1:
        t_root = 1.0  # the closed form's r(y) < 0 here would give NaN
    elif tie0:
        t_root = 0.0
    elif theta_hat.d == 1:
        a_hat, a_tilde = float(theta_hat.alpha[0]), float(theta_tilde.alpha[0])
        t_root = (a_hat - np.copysign(np.sqrt(r_y), a_hat)) / (a_hat - a_tilde)
    else:
        t_root, multiplicity = _scan_crossing(g)
    theta_bar = interpolate_params(theta_hat, theta_tilde, t_root)
    ll = _row_loglik(theta_bar, data)  # a point between two fits of spec is one too
    a2 = _alpha_star_sq(theta_bar.omega_mat[None], theta_bar.alpha[None])[0]
    diag = WbarDiagnostics(
        q_of_y=q_y,
        r_of_y=r_y,
        segment_parameter=float(t_root),
        sign_checks={"Wp_minus_W_at_tilde": g1, "Wp_minus_W_at_hat": g0},
        root_multiplicity=multiplicity,
        used_boundary_mle=bool(mle.diverged),
    )
    return FitResult(method="WBAR", estimates=theta_bar, loglik_at_opt=ll,
                     penalized_loglik_at_opt=ll - q_value(coeffs, a2),
                     converged=True, iterations=0, evaluations=1, penalty=coeffs,
                     diagnostics=diag)


def _scan_crossing(g) -> tuple[float, int]:
    """Root of g on [0, 1] given g(0) > 0 > g(1), and the scan's sign-change count.

    The bracket taken is the 33-point scan's last sign change, the one
    nearest the MPLE; Brent's method refines it.
    """
    ts = np.linspace(0.0, 1.0, 33)
    gs = np.array([g(t) for t in ts])
    flips = np.nonzero(np.sign(gs[:-1]) != np.sign(gs[1:]))[0]
    k = flips[-1]
    return float(optimize.brentq(g, ts[k], ts[k + 1])), len(flips)


def emit_w_scatter(n_reps: int, n: int, alpha_true: float, seed, *,
                   divergence_threshold: float = 100.0) -> list[ScatterPoint]:
    """Per-replicate (W, W_p) at the true shape value, tagged by error signs.

    One-parameter model; replicates whose MLE diverged (|alpha| beyond
    the keyword-only ``divergence_threshold``) are dropped, so the output
    holds ``n_reps`` minus the number of divergent samples.
    """
    spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
    truth = DirectParams.scalar(0.0, 1.0, alpha_true)
    points = []
    for rep in range(int(n_reps)):
        data = sample(truth, n, np.random.SeedSequence(seed, spawn_key=(n, rep)))
        mle = fit_mle(data, spec, divergence_threshold=divergence_threshold)
        if mle.diverged:
            continue
        mple = fit_mple(data, spec)
        w, wp = w_statistics(truth, data, spec, mle, mple)
        e_hat = float(mle.estimates.alpha[0]) - alpha_true
        e_tilde = float(mple.estimates.alpha[0]) - alpha_true
        if e_hat > 0 and e_tilde > 0:
            branch = "both-over"
        elif e_hat < 0 and e_tilde < 0:
            branch = "both-under"
        else:
            branch = "mixed"
        points.append(ScatterPoint(w_at_true=w, wp_at_true=wp, branch=branch))
    return points
