import dataclasses

import numpy as np
import pytest

import penskew.likelihood
import penskew.wbar
from penskew.distributions import Dataset, DirectParams, alpha_star, sample
from penskew.estimators import DivergedMLEError, fit_mle, fit_mple
from penskew.likelihood import ModelSpec, loglik, penalized_loglik
from penskew.penalty import q_value
from penskew.wbar import (WbarBracketError, emit_w_scatter, fit_wbar, interpolate_params,
                          w_statistics)

from conftest import sn_sample, seeded

ONE_PARAM = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
THREE_PARAM = ModelSpec(family="sn", dimension=1)
D2 = ModelSpec(family="sn", dimension=2)
SN5 = DirectParams.scalar(0.0, 1.0, 5.0)
ST_TRUTH = DirectParams.scalar(0.0, 1.0, 3.0, nu=4.0)
D2_TRUTH = DirectParams(xi=[0.0, 0.0], omega_mat=[[1.0, 0.5], [0.5, 1.0]], alpha=[3.0, -1.0])

# (spec, truth, n, seed key) of one seeded fit per model class
ORACLE_CASES = {
    "1p": (ONE_PARAM, SN5, 100, (32, 4)),
    "3p": (THREE_PARAM, SN5, 120, (31, 0)),
    "st_pin": (ModelSpec(family="st", dimension=1, fixed={"nu": 4.0}), ST_TRUTH, 200, (402, 0, 3)),
    "st_free": (ModelSpec(family="st", dimension=1), ST_TRUTH, 200, (402, 1, 3)),
    "d2": (D2, D2_TRUTH, 200, (401, 2, 3)),
}


def oracle_crossing(mle, mple):
    """Reference root search: a 33-point scan and bisection over validated
    parameter objects, the generic method for any dimension.

    Returns (t, number of sign changes the scan sees).
    """
    coeffs = mple.penalty
    q_y = mle.loglik_at_opt - mple.penalized_loglik_at_opt

    def g(t):
        params = interpolate_params(mle.estimates, mple.estimates, t)
        return 2.0 * (q_value(coeffs, alpha_star(params) ** 2) - q_y)

    ts = np.linspace(0.0, 1.0, 33)
    gs = np.array([g(t) for t in ts])
    flips = np.nonzero(np.sign(gs[:-1]) != np.sign(gs[1:]))[0]
    lo, hi = ts[flips[-1]], ts[flips[-1] + 1]
    glo, ghi = g(lo), g(hi)
    for _ in range(60):
        if hi - lo < 1e-10:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    t_root = 0.5 * (lo + hi)
    if ghi != glo:
        t_sec = lo - glo * (hi - lo) / (ghi - glo)
        if lo <= t_sec <= hi:
            t_root = t_sec
    return t_root, len(flips)


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def class_fits(request):
    spec, truth, n, key = ORACLE_CASES[request.param]
    data = sample(truth, n, seeded(*key))
    mle = fit_mle(data, spec)
    assert not mle.diverged
    return request.param, data, spec, mle, fit_mple(data, spec)


@pytest.fixture(scope="module")
def finite_fits():
    data = sn_sample(5.0, 120, seed=seeded(31, 0))
    mle = fit_mle(data, THREE_PARAM)
    assert not mle.diverged
    mple = fit_mple(data, THREE_PARAM)
    return data, mle, mple


class TestWStatistics:
    def test_zero_at_their_optima(self, finite_fits):
        data, mle, mple = finite_fits
        w_at_hat, _ = w_statistics(mle.estimates, data, THREE_PARAM, mle, mple)
        _, wp_at_tilde = w_statistics(mple.estimates, data, THREE_PARAM, mle, mple)
        assert w_at_hat == pytest.approx(0.0, abs=1e-8)
        assert wp_at_tilde == pytest.approx(0.0, abs=1e-8)

    def test_sign_facts(self, finite_fits):
        data, mle, mple = finite_fits
        w_tilde, wp_tilde = w_statistics(mple.estimates, data, THREE_PARAM, mle, mple)
        w_hat, wp_hat = w_statistics(mle.estimates, data, THREE_PARAM, mle, mple)
        assert w_tilde > 0
        assert wp_hat > 0
        assert wp_tilde - w_tilde < 0
        assert wp_hat - w_hat > 0

    def test_rejects_diverged_mle(self):
        y = np.abs(np.random.default_rng(3).normal(size=25)) + 0.01
        data = Dataset(y)
        mle = fit_mle(data, ONE_PARAM)
        assert mle.diverged
        mple = fit_mple(data, ONE_PARAM)
        with pytest.raises(DivergedMLEError):
            w_statistics(mple.estimates, data, ONE_PARAM, mle, mple)

    def test_evaluates_the_likelihood_once(self, class_fits, monkeypatch):
        _, data, spec, mle, mple = class_fits
        theta = interpolate_params(mle.estimates, mple.estimates, 0.3)
        at = []

        def counting(params, data_, spec_):
            at.append(params)
            return loglik(params, data_, spec_)

        monkeypatch.setattr(penskew.wbar, "loglik", counting)
        monkeypatch.setattr(penskew.likelihood, "loglik", counting)
        w, wp = w_statistics(theta, data, spec, mle, mple)
        assert len(at) == 1
        monkeypatch.undo()
        # bit for bit the definitions, with the MPLE's penalty
        penalized = loglik(theta, data, spec) - q_value(mple.penalty, alpha_star(theta) ** 2)
        assert w == 2.0 * (mle.loglik_at_opt - loglik(theta, data, spec))
        assert wp == 2.0 * (mple.penalized_loglik_at_opt - penalized)

    def test_rejects_a_fit_without_penalty(self, finite_fits):
        data, mle, mple = finite_fits
        bare = dataclasses.replace(mple, penalty=None)
        with pytest.raises(ValueError, match="carries no penalty coefficients"):
            w_statistics(mple.estimates, data, THREE_PARAM, mle, bare)


class TestFitWbar:
    def test_one_param_between_and_closed_form(self):
        data = sn_sample(5.0, 100, seed=seeded(32, 4))
        mle = fit_mle(data, ONE_PARAM)
        assert not mle.diverged
        mple = fit_mple(data, ONE_PARAM)
        wbar = fit_wbar(data, ONE_PARAM, mle, mple)
        a_hat = float(mle.estimates.alpha[0])
        a_tilde = float(mple.estimates.alpha[0])
        a_bar = float(wbar.estimates.alpha[0])
        lo, hi = sorted((a_hat, a_tilde))
        assert lo < a_bar < hi
        assert a_bar**2 == pytest.approx(wbar.diagnostics.r_of_y, abs=1e-6)

    def test_three_param_ellipsoid_consistency(self, finite_fits):
        data, mle, mple = finite_fits
        wbar = fit_wbar(data, THREE_PARAM, mle, mple)
        assert float(wbar.estimates.alpha[0]) ** 2 == pytest.approx(
            wbar.diagnostics.r_of_y, abs=1e-6)

    def test_components_are_convex_combinations(self, finite_fits):
        data, mle, mple = finite_fits
        wbar = fit_wbar(data, THREE_PARAM, mle, mple)
        t = wbar.diagnostics.segment_parameter
        assert 0.0 < t < 1.0
        for attr in ("xi", "alpha"):
            a = getattr(mle.estimates, attr)
            b = getattr(mple.estimates, attr)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            v = getattr(wbar.estimates, attr)
            assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)

    def test_rejects_diverged_unless_allowed(self):
        y = np.abs(np.random.default_rng(4).normal(size=30)) + 0.01
        data = Dataset(y)
        mle = fit_mle(data, ONE_PARAM)
        mple = fit_mple(data, ONE_PARAM)
        with pytest.raises(DivergedMLEError):
            fit_wbar(data, ONE_PARAM, mle, mple)
        wbar = fit_wbar(data, ONE_PARAM, mle, mple, allow_boundary_mle=True)
        assert wbar.diagnostics.used_boundary_mle
        assert float(mple.estimates.alpha[0]) < float(wbar.estimates.alpha[0]) <= 100.0

    def test_median_bias_beats_mle(self):
        a_hat, a_bar = [], []
        for i in range(300):
            data = sn_sample(5.0, 100, seed=seeded(33, i))
            mle = fit_mle(data, ONE_PARAM)
            if mle.diverged:
                continue
            mple = fit_mple(data, ONE_PARAM)
            wbar = fit_wbar(data, ONE_PARAM, mle, mple)
            a_hat.append(float(mle.estimates.alpha[0]))
            a_bar.append(float(wbar.estimates.alpha[0]))
        assert abs(np.median(a_bar) - 5.0) < abs(np.median(a_hat) - 5.0)


class TestRootSearch:
    def test_matches_scan_oracle(self, class_fits):
        name, data, spec, mle, mple = class_fits
        wbar = fit_wbar(data, spec, mle, mple)
        t_ref, flips_ref = oracle_crossing(mle, mple)
        t = wbar.diagnostics.segment_parameter
        assert t == pytest.approx(t_ref, rel=1e-9)
        ref = interpolate_params(mle.estimates, mple.estimates, t_ref)
        for attr in ("xi", "omega_mat", "alpha"):
            np.testing.assert_allclose(getattr(wbar.estimates, attr), getattr(ref, attr),
                                       rtol=1e-9, err_msg=f"{name}: {attr}")
        if ref.nu is not None:
            assert wbar.estimates.nu == pytest.approx(ref.nu, rel=1e-9)
        if spec.dimension == 1:
            assert wbar.diagnostics.root_multiplicity == 1 == flips_ref
        else:
            assert wbar.diagnostics.root_multiplicity == flips_ref

    def test_builds_no_parameter_object_per_search_point(self, class_fits, monkeypatch):
        _, data, spec, mle, mple = class_fits
        built = []
        post_init = DirectParams.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DirectParams, "__post_init__", counting)
        fit_wbar(data, spec, mle, mple)
        assert len(built) <= 3

    def test_evaluates_the_likelihood_once_at_theta_bar(self, class_fits, monkeypatch):
        _, data, spec, mle, mple = class_fits
        at = []

        def counting(fn):
            def counted(params, *args):
                at.append(params)
                return fn(params, *args)
            return counted

        # the checked loglik and the one-row pass behind it, wherever fit_wbar looks them up
        for module in (penskew.wbar, penskew.likelihood):
            for name in ("loglik", "_row_loglik"):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        wbar = fit_wbar(data, spec, mle, mple)
        assert len(at) == 1 and at[0] is wbar.estimates

    def test_bracket_violation_names_the_mple(self):
        # a seeded d = 2 sample whose MPLE is not the penalized maximum
        data = sample(D2_TRUTH, 200, np.random.SeedSequence(401, spawn_key=(2, 19)))
        mle, mple = fit_mle(data, D2), fit_mple(data, D2)
        gap = penalized_loglik(mle.estimates, data, D2) - mple.penalized_loglik_at_opt
        assert gap > 1.0
        with pytest.raises(WbarBracketError,
                           match="the MPLE is not the penalized maximum") as err:
            fit_wbar(data, D2, mle, mple)
        assert isinstance(err.value, ValueError)
        assert "the MLE is not the maximum" not in str(err.value)
        assert f"by {gap:.3g}" in str(err.value)
        assert "beyond the tie tolerance" in str(err.value)

    def test_free_nu_violation_comes_from_the_held_coefficients(self):
        # st_free sample (seed 402, key (1, 10)): penalized at its own nu-hat = 7.07 the
        # MLE is 0.141 below the MPLE in l_p; only with the MPLE's coefficients, held at
        # nu-tilde = 5.73, is it 0.0066 above, and the error says so instead of
        # blaming the MPLE
        spec = ModelSpec(family="st", dimension=1)
        data = sample(ST_TRUTH, 200, seeded(402, 1, 10))
        mle, mple = fit_mle(data, spec), fit_mple(data, spec)
        assert (mle.estimates.nu, mple.estimates.nu) == (pytest.approx(7.07, abs=5e-3),
                                                         pytest.approx(5.73, abs=5e-3))
        assert mple.penalized_loglik_at_opt == pytest.approx(-227.791, abs=5e-4)
        own = penalized_loglik(mle.estimates, data, spec)
        assert own == pytest.approx(-227.933, abs=5e-4)
        assert mple.penalized_loglik_at_opt - own == pytest.approx(0.141, abs=1e-3)
        held = mle.loglik_at_opt - q_value(mple.penalty, alpha_star(mle.estimates) ** 2)
        gap = held - mple.penalized_loglik_at_opt
        assert gap == pytest.approx(0.0066, abs=5e-5)
        with pytest.raises(WbarBracketError,
                           match="fails only because the coefficients are held fixed") as err:
            fit_wbar(data, spec, mle, mple)
        message = str(err.value)
        assert "the MPLE is not the penalized maximum" not in message
        assert (f"held at the MPLE's nu = {mple.estimates.nu:.3g}, l_p at the MLE exceeds "
                f"l_p at the MPLE by {gap:.3g}") in message
        assert (f"at the MLE's own nu = {mle.estimates.nu:.3g}, l_p at the MLE is "
                f"{mple.penalized_loglik_at_opt - own:.3g} below l_p at the MPLE") in message
        # an MPLE below the MLE at the MLE's own nu too is blamed
        short = dataclasses.replace(mple, penalized_loglik_at_opt=own - 0.5)
        with pytest.raises(WbarBracketError, match="the MPLE is not the penalized maximum") as err:
            fit_wbar(data, spec, mle, short)
        assert "l_p at the MLE is 0.5 above l_p at the MPLE" in str(err.value)

    def test_bracket_violation_names_the_mle(self, finite_fits):
        data, mle, mple = finite_fits
        worse = dataclasses.replace(mle, loglik_at_opt=mple.loglik_at_opt - 0.5)
        with pytest.raises(WbarBracketError, match="the MLE is not the maximum") as err:
            fit_wbar(data, THREE_PARAM, worse, mple)
        assert "by 0.5" in str(err.value)
        assert "the MPLE is not" not in str(err.value)


    def test_tie_at_rounding_level_returns_the_mple(self):
        # criterion-4 sample (base seed 24, n = 50, replicate 266): near alpha = 0,
        # l at the MPLE exceeds l at the MLE by 2.46e-12
        data = sample(SN5, 50, seeded(24, 50, 266))
        mle, mple = fit_mle(data, THREE_PARAM), fit_mple(data, THREE_PARAM)
        assert 0.0 < mple.loglik_at_opt - mle.loglik_at_opt < 1e-10
        wbar = fit_wbar(data, THREE_PARAM, mle, mple)
        assert wbar.diagnostics.segment_parameter == 1.0
        for key in ("xi", "omega_mat", "alpha"):
            assert np.array_equal(getattr(wbar.estimates, key), getattr(mple.estimates, key))
        assert np.isfinite(wbar.loglik_at_opt)

    def test_tie_at_the_mle_end_returns_the_mle(self, finite_fits):
        data, mle, mple = finite_fits
        l_p_hat = mle.loglik_at_opt - q_value(mple.penalty, alpha_star(mle.estimates) ** 2)
        tied = dataclasses.replace(mple, penalized_loglik_at_opt=l_p_hat - 1e-11)
        wbar = fit_wbar(data, THREE_PARAM, mle, tied)
        assert wbar.diagnostics.sign_checks["Wp_minus_W_at_hat"] < 0.0
        assert wbar.diagnostics.segment_parameter == 0.0
        for key in ("xi", "omega_mat", "alpha"):
            assert np.array_equal(getattr(wbar.estimates, key), getattr(mle.estimates, key))
        beyond = dataclasses.replace(mple, penalized_loglik_at_opt=l_p_hat - 1e-6)
        with pytest.raises(WbarBracketError, match="beyond the tie tolerance"):
            fit_wbar(data, THREE_PARAM, mle, beyond)

    def test_real_gap_is_not_a_tie(self):
        # a seeded d = 2 sample whose MPLE beats the MLE in l by 4.76
        data = sample(D2_TRUTH, 200, seeded(4099, 2, 12))
        mle, mple = fit_mle(data, D2), fit_mple(data, D2)
        with pytest.raises(WbarBracketError,
                           match="the MLE is not the maximum: l at the MPLE exceeds l at the "
                                 "MLE by 4.76"):
            fit_wbar(data, D2, mle, mple)


class TestInterpolate:
    def test_endpoints_and_midpoint(self):
        a = DirectParams.scalar(0.0, 1.0, 2.0)
        b = DirectParams.scalar(1.0, 3.0, 4.0)
        assert interpolate_params(a, b, 0.0).alpha[0] == 2.0
        assert interpolate_params(a, b, 1.0).alpha[0] == 4.0
        mid = interpolate_params(a, b, 0.5)
        assert mid.xi[0] == pytest.approx(0.5)
        assert mid.omega_mat[0, 0] == pytest.approx(0.5 * (1.0 + 9.0))

    def test_spd_preserved(self):
        a = DirectParams(xi=[0, 0], omega_mat=[[2.0, 0.9], [0.9, 1.0]], alpha=[1, 0])
        b = DirectParams(xi=[1, 1], omega_mat=[[1.0, -0.4], [-0.4, 3.0]], alpha=[0, 1])
        for t in np.linspace(0, 1, 11):
            np.linalg.cholesky(interpolate_params(a, b, t).omega_mat)


@pytest.fixture(scope="module")
def scatter():
    return emit_w_scatter(400, 100, 3.0, seed=77)


class TestWScatter:

    def test_nonnegative(self, scatter):
        assert all(p.w_at_true >= 0 and p.wp_at_true >= 0 for p in scatter)

    def test_mixed_branch_smallest(self, scatter):
        by_branch = {}
        for p in scatter:
            by_branch.setdefault(p.branch, []).append((p.w_at_true, p.wp_at_true))
        assert set(by_branch) >= {"both-over", "both-under", "mixed"}
        med = {k: np.median(np.asarray(v), axis=0) for k, v in by_branch.items()}
        assert med["mixed"][0] < min(med["both-over"][0], med["both-under"][0])
        assert med["mixed"][1] < min(med["both-over"][1], med["both-under"][1])

    def test_count_bookkeeping(self):
        reps, n, alpha = 150, 20, 5.0
        points = emit_w_scatter(reps, n, alpha, seed=79)
        truth = DirectParams.scalar(0.0, 1.0, alpha)
        n_div = 0
        for rep in range(reps):
            data = sample(truth, n, np.random.SeedSequence(79, spawn_key=(n, rep)))
            n_div += fit_mle(data, ONE_PARAM).diverged
        assert len(points) == reps - n_div
        assert 0 < n_div < reps
