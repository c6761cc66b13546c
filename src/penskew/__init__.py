"""Penalized maximum likelihood estimation for skew-normal and skew-t models.

The shape-parameter MLE of these families escapes to the boundary with
non-negligible probability in small samples; the penalized estimator
here keeps it finite at no first-order asymptotic cost, alongside the
companion modified-score and W = W_p estimators and a reproducible
simulation harness for comparing them.
"""

__version__ = "0.1.0"

from .distributions import (
    Dataset,
    DirectParams,
    alpha_star,
    canonical_transform,
    delta_of_alpha,
    prob_divergent_mle,
    prob_negative,
    sample,
    skewness_gamma1,
    sn_logpdf,
    st_logpdf,
)
from .estimators import (
    FitResult,
    fit_mle,
    fit_mple,
    fit_sf_one_param,
    profile_deviance,
    st_m_exact,
    stderr_from_penalized_info,
)
from .likelihood import ModelSpec, loglik, penalized_loglik
from .montecarlo import RateCurves, StudyConfig, StudySummary, rate_curves, run_study
from .penalty import (
    PenaltyCoeffs,
    line_fit_check,
    q_prime,
    q_value,
    sn_coeffs,
    sn_e_coeffs,
    st_coeffs,
    st_e2_approx,
    st_e_coeffs_exact,
)
from .specfun import expect_normal, expect_t, t_cdf, t_pdf, zeta0, zeta1, zeta1_t
from .wbar import emit_w_scatter, fit_wbar, w_statistics

__all__ = [
    "Dataset",
    "DirectParams",
    "FitResult",
    "ModelSpec",
    "PenaltyCoeffs",
    "RateCurves",
    "StudyConfig",
    "StudySummary",
    "alpha_star",
    "canonical_transform",
    "delta_of_alpha",
    "emit_w_scatter",
    "expect_normal",
    "expect_t",
    "fit_mle",
    "fit_mple",
    "fit_sf_one_param",
    "fit_wbar",
    "line_fit_check",
    "loglik",
    "penalized_loglik",
    "prob_divergent_mle",
    "prob_negative",
    "profile_deviance",
    "q_prime",
    "q_value",
    "rate_curves",
    "run_study",
    "sample",
    "skewness_gamma1",
    "sn_coeffs",
    "sn_e_coeffs",
    "sn_logpdf",
    "st_coeffs",
    "st_e2_approx",
    "st_e_coeffs_exact",
    "st_logpdf",
    "st_m_exact",
    "stderr_from_penalized_info",
    "t_cdf",
    "t_pdf",
    "w_statistics",
    "zeta0",
    "zeta1",
    "zeta1_t",
]
