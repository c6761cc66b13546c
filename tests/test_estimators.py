import json
import math
import re

import numpy as np
import pytest
from scipy import linalg, optimize, special
from scipy.optimize._optimize import _line_search_wolfe12

from penskew.distributions import Dataset, DirectParams, _st_log_terms, sample, st_logpdf
from penskew import estimators
from penskew.estimators import (
    _BIG,
    _LOG_NU_BOUNDS,
    DivergedMLEError,
    FitResult,
    InformationMatrixError,
    OptimizationError,
    RootBracketError,
    _FreeMap,
    _neg_loglik_factory,
    fit_mle,
    fit_mple,
    fit_sf_one_param,
    profile_deviance,
    resolve_penalty,
    sn_m_exact,
    st_m_exact,
    stderr_from_penalized_info,
)
from penskew.likelihood import ModelSpec, loglik, penalized_loglik
from penskew.penalty import q_prime, q_value, st_e_coeffs_exact
from penskew.specfun import t_logcdf, zeta1, zeta1_t

from conftest import sn1_log_terms, sn_sample, seeded, st1_log_terms

ONE_PARAM = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
THREE_PARAM = ModelSpec(family="sn", dimension=1)


def all_positive_sample(alpha, n, entropy):
    """Rejection-sample a one-sign dataset (the divergent-MLE scenario)."""
    for k in range(10_000):
        data = sample(DirectParams.scalar(0.0, 1.0, alpha), n, seeded(entropy, k))
        if np.all(data.column() > 0):
            return data
    raise RuntimeError("no all-positive sample found")


class TestFitMle:
    def test_one_param_positive_sample_diverges(self):
        data = all_positive_sample(5.0, 25, 1)
        fit = fit_mle(data, ONE_PARAM)
        assert fit.diverged
        assert fit.method == "MLE"
        assert abs(float(fit.estimates.alpha[0])) == 100.0  # reported at the threshold

    def test_one_param_mixed_sample_finite(self):
        data = Dataset(np.array([1.2, -0.3, 0.5, 2.0, -0.1, 0.8]))
        fit = fit_mle(data, ONE_PARAM)
        assert not fit.diverged
        assert np.isfinite(float(fit.estimates.alpha[0]))

    @pytest.mark.xfail(
        strict=True,
        reason="the shape MLE concentrates slowly at the singular point: with "
               "N(0,1) data at n=500 the true rate of |alpha-hat| < 1 is ~0.72-0.77 "
               "(confirmed by an optimizer-free profile-grid scan), so a 95% bar "
               "at threshold 1 is unattainable; see the companion test at 1.5")
    def test_gaussian_data_gives_small_alpha(self):
        hits = 0
        reps = 100
        spec = THREE_PARAM
        for i in range(reps):
            y = np.random.default_rng(seeded(505, i)).normal(size=500)
            fit = fit_mle(Dataset(y), spec)
            hits += abs(float(fit.estimates.alpha[0])) < 1.0
        assert hits / reps >= 0.95

    def test_gaussian_data_alpha_concentration(self):
        vals = []
        spec = THREE_PARAM
        for i in range(100):
            y = np.random.default_rng(seeded(505, i)).normal(size=500)
            vals.append(abs(float(fit_mle(Dataset(y), spec).estimates.alpha[0])))
        vals = np.asarray(vals)
        assert np.mean(vals < 1.5) >= 0.95
        assert np.median(vals) < 1.0
        assert np.all(vals < 3.0)

    def test_three_param_divergence_flag_and_clamp(self):
        data = all_positive_sample(5.0, 50, 2)
        fit = fit_mle(data, THREE_PARAM)
        assert fit.diverged
        assert abs(float(fit.estimates.alpha[0])) == 100.0
        assert np.isfinite(fit.loglik_at_opt)

    @pytest.mark.parametrize("xi, omega_mat", [
        ([0.0, 0.0], np.eye(2)),
        ([1.0, -1.0], np.array([[4.0, 1.0], [1.0, 1.0]])),
    ], ids=["identity", "correlated"])
    def test_d2_shape_only_separated_sample_diverges(self, xi, omega_mat):
        # the search stopped at alpha = (7.9, 15.3) with diverged=False and stop
        # "gtol"; every standardized row has positive entries, so l rises along (1, 1)
        z = np.abs(np.random.default_rng(5).normal(size=(30, 2)))
        data = Dataset(xi + z * np.sqrt(np.diag(omega_mat)))
        spec = ModelSpec(dimension=2, fixed={"xi": xi, "omega_mat": omega_mat})
        fit = fit_mle(data, spec)
        assert (fit.diverged, fit.converged, fit.stop_reason) == (True, True, "separated")
        assert fit.estimates.alpha.tolist() == [100.0, 100.0]
        assert fit.loglik_at_opt == loglik(fit.estimates, data, spec)
        ray = [loglik(DirectParams(xi=xi, omega_mat=omega_mat, alpha=[t, t]), data, spec)
               for t in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(ray + [fit.loglik_at_opt]) > 0)

    def test_d2_shape_only_overlapping_sample_keeps_its_search(self):
        data = Dataset(np.random.default_rng(5).normal(size=(30, 2)))
        spec = ModelSpec(dimension=2, fixed={"xi": 0.0, "omega_mat": np.eye(2)})
        fit = fit_mle(data, spec)
        searched = estimators._fit_bfgs(data, spec, _FreeMap(spec), None, 100.0)
        assert not fit.diverged and fit.stop_reason == "gtol"
        assert np.array_equal(fit.estimates.alpha, searched.estimates.alpha)
        assert fit.loglik_at_opt == searched.loglik_at_opt

    def test_d2_shape_only_skew_t_reports_the_rising_ray(self):
        # the search ends at alpha = (15.4, 38.5) with stop "gtol" (numpy 2.4, scipy
        # 1.17), while l keeps rising along (1, 1); log T is not concave, so the
        # ray is reported without a divergence flag
        spec = ModelSpec(family="st", dimension=2,
                         fixed={"xi": 0.0, "omega_mat": np.eye(2), "nu": 4.0})
        z = np.random.default_rng(5).normal(size=(30, 2))
        data = Dataset(np.abs(z))
        fit = fit_mle(data, spec)
        searched = estimators._fit_bfgs(data, spec, _FreeMap(spec), None, 100.0)
        assert (fit.diverged, fit.converged) == (False, True)
        assert np.array_equal(fit.estimates.alpha, searched.estimates.alpha)
        assert fit.rising_ray.tolist() == fit.to_json_dict()["rising_ray"] == [1.0, 1.0]
        along = [loglik(DirectParams(xi=[0.0, 0.0], omega_mat=np.eye(2), alpha=[t, t], nu=4.0),
                        data, spec) for t in (1.0, 10.0, 100.0, 1000.0)]
        assert np.all(np.diff(along) > 0) and along[-1] > fit.loglik_at_opt
        assert fit_mle(Dataset(z), spec).rising_ray is None  # overlapping: no ray

    def test_cli_fit_warns_of_a_rising_ray(self, tmp_path, capsys):
        # the shape-only skew-t with nu free: a one-sign sample separates at d = 1
        from penskew.cli import main
        csv = tmp_path / "y.csv"
        Dataset(np.abs(np.random.default_rng(5).normal(size=30))).to_csv(csv)
        out = tmp_path / "f.json"
        assert main(["fit", str(csv), "--family", "st", "--fix", "xi=0", "--fix", "omega=1",
                     "--estimator", "mle", "--out", str(out)]) == 0
        assert "warning: mle log-likelihood rises along alpha = t * [1.0]" in capsys.readouterr().err
        mle = json.loads(out.read_text())["fits"]["mle"]
        assert mle["rising_ray"] == [1.0] and mle["diverged"] is False

    def test_rejects_degenerate_data(self):
        with pytest.raises(ValueError):
            fit_mle(Dataset(np.ones(10)), THREE_PARAM)

    @pytest.mark.parametrize("rows, message", [
        ([0.1, 0.1, 0.1], "constant"),  # np.std is about 1.4e-17: the mean is not exact
        (np.full(50, 0.1), "constant"),
        ([0.0, 1e-320, 0.0, 2e-320], "standard deviation is not finite and positive"),
        ([1e300, -1e300, 0.0, 1.0], "standard deviation is not finite and positive"),
    ])
    def test_rejects_a_column_without_a_finite_positive_spread(self, rows, message):
        # no finite maximum to report; np.ptp > 0 for the last two, whose std is 0 or inf
        column = np.asarray(rows, dtype=float)
        for fit in (fit_mle, fit_mple):
            with pytest.raises(ValueError, match=message):
                fit(Dataset(column), THREE_PARAM)
        with pytest.raises(ValueError, match=message):
            profile_deviance([1.0], Dataset(column), THREE_PARAM)
        two = Dataset(np.column_stack([np.linspace(-1.0, 2.0, len(column)), column]))
        with pytest.raises(ValueError, match=message):
            fit_mle(two, ModelSpec(dimension=2))

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            fit_mle(Dataset(np.array([1.0, 2.0])), THREE_PARAM)


class TestFitMple:
    def test_positive_sample_stays_finite(self):
        data = all_positive_sample(5.0, 20, 3)
        fit = fit_mple(data, ONE_PARAM)
        assert not fit.diverged
        a = float(fit.estimates.alpha[0])
        assert 0.0 < a < 100.0

    def test_alpha_recovery_large_sample(self):
        data = sn_sample(3.0, 10_000, seed=seeded(7, 0))
        fit = fit_mple(data, THREE_PARAM)
        assert abs(float(fit.estimates.alpha[0]) - 3.0) < 0.3

    def test_penalized_value_consistent(self):
        data = sn_sample(4.0, 200, seed=seeded(8, 0))
        fit = fit_mple(data, THREE_PARAM)
        recomputed = penalized_loglik(fit.estimates, data, THREE_PARAM)
        assert fit.penalized_loglik_at_opt == pytest.approx(recomputed, abs=1e-9)

    # the d = 2 skew-normal is left out: its objective keeps its own order of
    # summation of the log densities, so its l_p at the optimum is not loglik's
    @pytest.mark.parametrize("name", ["1p", "3p", "st_pin", "st_free", "d2_st"])
    def test_penalized_loglik_is_the_objective_at_the_optimum(self, name):
        truth, spec = FREE_MAP_CLASSES[name]
        data = sample(truth, 150, seeded(9, len(name)))
        fit = fit_mple(data, spec)
        assert penalized_loglik(fit.estimates, data, spec) == fit.penalized_loglik_at_opt

    def test_first_order_conditions(self):
        data = sn_sample(4.0, 150, seed=seeded(9, 0))
        fit = fit_mple(data, THREE_PARAM)
        theta = np.array([float(fit.estimates.xi[0]), fit.estimates.omega,
                          float(fit.estimates.alpha[0])])
        h = 1e-5
        grads = []
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            grads.append((penalized_loglik(DirectParams.scalar(*tp), data, THREE_PARAM)
                          - penalized_loglik(DirectParams.scalar(*tm), data, THREE_PARAM))
                         / (2 * h))
        scale = 1.0 + abs(fit.penalized_loglik_at_opt)
        assert np.max(np.abs(grads)) < 1e-4 * scale

    def test_affine_equivariance(self):
        data = sn_sample(5.0, 120, seed=seeded(10, 0))
        a, b = 2.5, 4.0
        fit = fit_mple(data, THREE_PARAM)
        fit2 = fit_mple(Dataset(a + b * data.rows), THREE_PARAM)
        assert float(fit2.estimates.alpha[0]) == pytest.approx(float(fit.estimates.alpha[0]),
                                                               abs=1e-5)
        assert float(fit2.estimates.xi[0]) == pytest.approx(a + b * float(fit.estimates.xi[0]),
                                                            abs=1e-5)
        assert fit2.estimates.omega == pytest.approx(b * fit.estimates.omega, rel=1e-5)

    def test_mple_mle_gap_shrinks_with_n(self):
        gaps = {}
        for n in (100, 1000):
            g = []
            for i in range(150):
                data = sn_sample(5.0, n, seed=seeded(600 + n, i))
                mle = fit_mle(data, ONE_PARAM)
                if mle.diverged:
                    continue
                mple = fit_mple(data, ONE_PARAM)
                g.append(abs(float(mple.estimates.alpha[0]) - float(mle.estimates.alpha[0])))
            gaps[n] = np.median(g)
        assert gaps[100] / gaps[1000] > 5.0

    @staticmethod
    def tiny_scale_sample():
        # against omega = 1 these 20 positive values are nearly at zero: the
        # penalized score keeps its sign from 0.03 to past its first end, 150
        return Dataset(np.random.default_rng(3).uniform(0.0005, 0.005, 20))

    def test_shape_only_search_goes_past_its_first_end(self):
        data = self.tiny_scale_sample()
        fit = fit_mple(data, ONE_PARAM)
        a = float(fit.estimates.alpha[0])
        assert a > 150.0  # a search that stops at its first end gives 150, l_p = -21.90
        s, scale = shape_score(data, ONE_PARAM, a)
        assert abs(s - q_prime(fit.penalty, a)) <= 1e-9 * (1.0 + scale)
        assert fit.penalized_loglik_at_opt >= -17.34
        # the penalized maximum at alpha ~ 1046 beats the lower local one near 0.03
        grid = np.concatenate([np.linspace(0.0, 1.0, 101), np.geomspace(1.0, 1e5, 401)])
        at_grid = [penalized_loglik(DirectParams.scalar(0.0, 1.0, g), data, ONE_PARAM)
                   for g in grid]
        assert fit.penalized_loglik_at_opt >= max(at_grid) - 1e-9

    def test_shape_only_search_raises_when_the_sign_never_changes(self, monkeypatch):
        # with the ends cut to 150 and 300 the penalized score never changes sign
        monkeypatch.setattr(estimators, "_doublings", lambda first: [first, 2.0 * first])
        with pytest.raises(RootBracketError, match="penalized score never changed sign"):
            fit_mple(self.tiny_scale_sample(), ONE_PARAM)


class TestFitSf:
    def test_positive_sample_finite_root(self):
        data = all_positive_sample(5.0, 30, 4)
        fit = fit_sf_one_param(data)
        a = float(fit.estimates.alpha[0])
        assert np.isfinite(a) and 0.0 < a < 1e4
        assert fit.method == "SF"

    def test_balanced_sample_root_at_zero(self):
        v = np.array([0.3, 1.1, 0.7, 2.2])
        data = Dataset(np.concatenate([v, -v]))
        fit = fit_sf_one_param(data)
        assert float(fit.estimates.alpha[0]) == 0.0

    def test_close_to_mple(self):
        gaps = []
        for i in range(30):
            data = sn_sample(5.0, 100, seed=seeded(11, i))
            sf = fit_sf_one_param(data)
            mple = fit_mple(data, ONE_PARAM)
            gaps.append(abs(float(sf.estimates.alpha[0]) - float(mple.estimates.alpha[0])))
        assert np.median(gaps) < 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="the true relative gap between the exact correction and the "
               "penalty derivative peaks at 2.66% near alpha = 1 (endpoint "
               "matching leaves a mid-range bulge); 2% holds outside [0.7, 1.6]")
    def test_correction_close_to_penalty_derivative(self):
        # the two estimating-function corrections agree within 2% on [0.5, 10]
        from penskew.penalty import sn_coeffs
        c = sn_coeffs()
        for a in np.linspace(0.5, 10.0, 20):
            m = sn_m_exact(a)
            assert abs(m - (-q_prime(c, a))) <= 0.02 * abs(m)

    def test_correction_envelope(self):
        # measured worst case 2.66%; the curves are visually coincident
        from penskew.penalty import sn_coeffs
        c = sn_coeffs()
        rel = [abs(sn_m_exact(a) - (-q_prime(c, a))) / abs(sn_m_exact(a))
               for a in np.linspace(0.5, 10.0, 20)]
        assert max(rel) < 0.027

    def test_rejects_full_model_spec(self):
        with pytest.raises(ValueError):
            fit_sf_one_param(Dataset(np.array([0.1, -0.2, 0.3])), THREE_PARAM)

    def test_takes_the_first_sign_change_from_its_first_end(self):
        # the modified score of this sample falls through zero near 0.0275, rises
        # again, and falls through zero once more near 1046; SF brackets from
        # 1, so it takes the first root, and the MPLE, bracketing from 150, the last
        data = TestFitMple.tiny_scale_sample()
        fit = fit_sf_one_param(data)
        a = float(fit.estimates.alpha[0])
        assert a == pytest.approx(0.027501017, rel=1e-8)
        assert oracle_sf_score(data.column(0), 1.0) < 0.0 < oracle_sf_score(data.column(0), 1e-3)
        assert float(fit_mple(data, ONE_PARAM).estimates.alpha[0]) == pytest.approx(1045.8938,
                                                                                     rel=1e-7)


class TestStMExact:
    def test_zero_at_origin(self):
        assert st_m_exact(0.0, 3.0) == 0.0

    def test_odd_and_damping(self):
        for a, nu in ((1.0, 2.0), (3.0, 0.7), (0.5, 30.0)):
            m = st_m_exact(a, nu)
            assert m * a < 0
            assert st_m_exact(-a, nu) == pytest.approx(-m, rel=1e-6)

    @pytest.mark.parametrize("a2,nu", [(4.0, 2.0), (25.0, 10.0)])
    def test_linear_in_alpha_squared(self, a2, nu):
        a = np.sqrt(a2)
        e1, e2 = st_e_coeffs_exact(nu)
        assert -a / (2.0 * st_m_exact(a, nu)) == pytest.approx(e1 + e2 * a2, rel=0.03)

    def test_skew_normal_limit(self):
        assert st_m_exact(2.0, 1e5) == pytest.approx(sn_m_exact(2.0), abs=1e-3)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            st_m_exact(1.0, 0.0)


class TestStderr:
    def test_gaussian_submodel_location_se(self):
        n = 1000
        y = np.random.default_rng(3).normal(3.0, 2.0, size=n)
        spec = ModelSpec(family="sn", dimension=1, fixed={"alpha": 0.0})
        fit = fit_mple(Dataset(y), spec)
        se = stderr_from_penalized_info(fit, Dataset(y), spec)
        expected = fit.estimates.omega / np.sqrt(n)
        assert se[0] == pytest.approx(expected, rel=0.02)
        assert fit.stderr is not None and fit.obs_info is not None

    def test_refuses_diverged_fit(self):
        data = all_positive_sample(5.0, 25, 12)
        fit = fit_mle(data, ONE_PARAM)
        assert fit.diverged
        with pytest.raises(DivergedMLEError):
            stderr_from_penalized_info(fit, data, ONE_PARAM)

    def test_three_param_se_finite_and_positive(self):
        data = sn_sample(5.0, 300, seed=seeded(13, 0))
        fit = fit_mple(data, THREE_PARAM)
        se = stderr_from_penalized_info(fit, data, THREE_PARAM)
        assert se.shape == (3,)
        assert np.all(se > 0) and np.all(np.isfinite(se))

    def test_refuses_difference_points_outside_the_parameter_space(self):
        # two nearly collinear columns: the MPLE's Omega is so close to singular
        # that the Hessian's steps in omega_11 leave the positive definite cone
        rng = np.random.default_rng(0)
        x = sample(DirectParams.scalar(0.0, 1.0, 3.0), 60, rng).rows[:, 0]
        data = Dataset(np.column_stack([x, x + 0.01 * rng.normal(size=60)]))
        spec = ModelSpec(family="sn", dimension=2)
        fit = fit_mple(data, spec)
        with pytest.raises(InformationMatrixError,
                           match="stepped in xi_1 and omega_11 leaves the parameter space"):
            stderr_from_penalized_info(fit, data, spec)
        assert fit.stderr is None

    def test_refuses_a_free_nu_step_below_zero(self):
        # nu = 5e-5 and its step h = 1e-4: the first point in loop order with
        # nu - h < 0 is the (xi, nu) pair's pm point
        data = sample(DirectParams.scalar(0.0, 1.0, 3.0, 4.0), 100, seeded(19, 0))
        nu = 5e-5
        fit = FitResult(method="MPLE", estimates=DirectParams.scalar(0.0, 1.0, 3.0, nu),
                        loglik_at_opt=0.0)
        message = ("a Hessian point stepped in xi and nu leaves the parameter space: "
                   f"nu must be positive, got {nu - 1e-4!r}")
        with pytest.raises(InformationMatrixError, match=f"^{re.escape(message)}$"):
            stderr_from_penalized_info(fit, data, ModelSpec(family="st"))
        assert fit.stderr is None

    @pytest.mark.parametrize("case", ["data_dimension", "family", "pinned_xi"])
    def test_refuses_a_fit_of_another_model(self, case):
        data = sample(DirectParams.scalar(0, 1, 3), 100, 1)
        fit = fit_mple(data, ModelSpec())
        two_columns = Dataset(np.column_stack([data.rows[:, 0], data.rows[:, 0] ** 2]))
        other_data, spec, message = {
            "data_dimension": (two_columns, ModelSpec(), "data dimension 2 != model dimension 1"),
            "family": (data, ModelSpec(family="st", fixed={"nu": 4.0}),
                       "family 'st' inconsistent with params"),
            "pinned_xi": (data, ModelSpec(fixed={"xi": 0.0}), "violates pinned xi=0.0"),
        }[case]
        with pytest.raises(ValueError, match=message):
            stderr_from_penalized_info(fit, other_data, spec)
        assert fit.stderr is None


FREE_MAP_SN1 = DirectParams.scalar(0.3, 1.7, -2.2)
FREE_MAP_ST1 = DirectParams.scalar(0.3, 1.7, -2.2, nu=4.5)
FREE_MAP_SN2 = DirectParams(xi=[0.3, -0.2], omega_mat=[[1.5, 0.4], [0.4, 0.8]], alpha=[2.0, -1.0])
FREE_MAP_ST2 = DirectParams(xi=[0.3, -0.2], omega_mat=[[1.5, 0.4], [0.4, 0.8]], alpha=[2.0, -1.0],
                            nu=5.0)
FREE_MAP_CLASSES = {
    "1p": (FREE_MAP_SN1, ModelSpec(fixed={"xi": 0.3, "omega": 1.7})),
    "3p": (FREE_MAP_SN1, THREE_PARAM),
    "st_pin": (FREE_MAP_ST1, ModelSpec(family="st", fixed={"nu": 4.5})),
    "st_free": (FREE_MAP_ST1, ModelSpec(family="st")),
    "d2_sn": (FREE_MAP_SN2, ModelSpec(dimension=2)),
    "d2_st": (FREE_MAP_ST2, ModelSpec(family="st", dimension=2)),
    "xi_pinned": (FREE_MAP_SN1, ModelSpec(fixed={"xi": 0.3})),
    "omega_pinned": (FREE_MAP_SN1, ModelSpec(fixed={"omega": 1.7})),
    "xi_omega_pinned": (FREE_MAP_SN2, ModelSpec(dimension=2, fixed={
        "xi": FREE_MAP_SN2.xi, "omega_mat": FREE_MAP_SN2.omega_mat})),
}


@pytest.mark.parametrize("name", sorted(FREE_MAP_CLASSES))
def test_free_map_round_trips(name):
    truth, spec = FREE_MAP_CLASSES[name]
    fmap = _FreeMap(spec)
    x, xd = fmap.pack(truth), fmap.direct_pack(truth)
    assert len(fmap.direct_names) == fmap.n_free == len(x) == len(xd)
    assert np.array_equal(fmap.direct_pack(fmap.direct_unpack(xd)), xd)
    for back in (fmap.unpack(x), fmap.direct_unpack(xd)):
        # log, exp and sqrt round, so the parameter side agrees to a few ulps
        for key in ("xi", "omega_mat", "alpha"):
            np.testing.assert_allclose(getattr(back, key), getattr(truth, key), rtol=1e-14)
        if truth.nu is None:
            assert back.nu is None
        else:
            assert back.nu == pytest.approx(truth.nu, rel=1e-14)
        # pinned components come back as pinned, bit for bit
        if "xi" in spec.fixed:
            assert np.array_equal(back.xi, truth.xi)
        if "omega" in spec.fixed or "omega_mat" in spec.fixed:
            assert np.array_equal(back.omega_mat, truth.omega_mat)
        if "nu" in spec.fixed:
            assert back.nu == spec.fixed["nu"]
    if fmap.free_scale and spec.dimension == 1:
        # each system decodes its own coordinate: exp(2x) and x**2, not through the other
        k = fmap.direct_names.index("omega")
        assert fmap.unpack(x).omega_mat[0, 0] == math.exp(2.0 * x[k])
        assert fmap.direct_unpack(xd).omega_mat[0, 0] == float(xd[k]) ** 2
    if fmap.free_nu:
        assert fmap.unpack(x).nu == math.exp(x[-1])
        assert fmap.direct_unpack(xd).nu == xd[-1]
    # a single vector decodes bit for bit as its row of a stack, in either system
    for v, unpack, direct in ((x, fmap.unpack, False), (xd, fmap.direct_unpack, True)):
        X = v + np.array([[0.0], [1e-4], [-2e-4]]) * np.maximum(1.0, np.abs(v))
        stacked = fmap.stack(X, direct=direct)
        for r, row in enumerate(X):
            back = unpack(row)
            xi, omega_mat, alpha, nu = (part[r] for part in stacked)
            assert np.array_equal(xi, back.xi) and np.array_equal(omega_mat, back.omega_mat)
            assert np.array_equal(alpha, back.alpha) and nu == back.nu


class TestFitResultType:
    def test_only_mle_may_diverge(self):
        with pytest.raises(ValueError):
            FitResult(method="MPLE", estimates=DirectParams.scalar(0, 1, 1),
                      loglik_at_opt=0.0, diverged=True)

    def test_json_dict_shape(self):
        data = sn_sample(2.0, 60, seed=seeded(14, 0))
        fit = fit_mple(data, THREE_PARAM)
        d = fit.to_json_dict()
        assert d["method"] == "MPLE"
        assert "omega" in d["estimates"] and "penalty" in d
        assert d["penalty"]["provenance"] == "SN_EXACT"

    def test_bivariate_skew_t_objective_is_the_logpdf_sum(self):
        spec = ModelSpec(family="st", dimension=2)
        truth = DirectParams(xi=[0.3, -0.2], omega_mat=[[1.5, 0.4], [0.4, 0.8]],
                             alpha=[2.0, -1.0], nu=5.0)
        data = sample(truth, 300, seeded(16, 0))
        fmap = _FreeMap(spec)
        x = fmap.pack(truth)
        objective = _neg_loglik_factory(data, spec, fmap, None)
        value, = objective(x[None])
        assert value == -float(np.sum(st_logpdf(data.rows, fmap.unpack(x))))

    def test_loglik_consistent_with_public_evaluator(self):
        data = sn_sample(2.0, 80, seed=seeded(15, 0))
        fit = fit_mle(data, THREE_PARAM)
        assert fit.loglik_at_opt == pytest.approx(loglik(fit.estimates, data, THREE_PARAM),
                                                  abs=1e-9)


# ---------------------------------------------------------------------------
# one-parameter fits against the bounded-Brent and brentq searches they replaced

ONE_PARAM_ST4 = ModelSpec(family="st", dimension=1, fixed={"xi": 0.0, "omega": 1.0, "nu": 4.0})
ORACLE_THR = 100.0


def oracle_objective(data, spec, penalized):
    """alpha -> minus the (penalized) shape-only log-likelihood."""
    def negll(a):
        return -loglik(DirectParams.scalar(0.0, 1.0, a, spec.fixed.get("nu")), data, spec)
    if not penalized:
        return negll
    coeffs = resolve_penalty(spec)
    return lambda a: negll(a) + q_value(coeffs, a * a)


def oracle_brent(data, spec, penalized):
    """(alpha, diverged) from the bounded Brent search on [-150, 150]."""
    z = data.column(0)
    if not penalized and (np.all(z > 0) or np.all(z < 0)):
        return math.copysign(ORACLE_THR, z[0]), True
    res = optimize.minimize_scalar(oracle_objective(data, spec, penalized),
                                   bounds=(-ORACLE_THR - 50.0, ORACLE_THR + 50.0),
                                   method="bounded", options=dict(xatol=1e-9))
    a = float(res.x)
    if not penalized and abs(a) > ORACLE_THR:
        return math.copysign(ORACLE_THR, a), True
    return a, False


def oracle_sf_score(z, a):
    return float(np.sum(z * zeta1(a * z))) + sn_m_exact(a)


def oracle_brentq_sf(data):
    """Modified-score root from geometric bracket expansion and brentq."""
    z = data.column(0)
    h0 = oracle_sf_score(z, 0.0)
    if h0 == 0.0:
        return 0.0
    lo, hi = 0.0, math.copysign(1.0, h0)
    while oracle_sf_score(z, hi) * h0 > 0:
        lo, hi = hi, hi * 2.0
    return float(optimize.brentq(lambda a: oracle_sf_score(z, a), min(lo, hi), max(lo, hi),
                                 xtol=1e-10))


def shape_weights(data, spec):
    """(w, m): the shape-only log-likelihood is sum log F(alpha w), F = Phi or T(.; m)."""
    z = data.column(0)
    if spec.family == "sn":
        return z, None
    m = spec.fixed["nu"] + 1.0
    return z * np.sqrt(m / (spec.fixed["nu"] + z * z)), m


def shape_score(data, spec, a):
    """Closed-form score of the shape-only log-likelihood, and the sum of its terms' sizes."""
    w, m = shape_weights(data, spec)
    terms = w * (zeta1(a * w) if m is None else zeta1_t(a * w, m))
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def penalized_shape_loglik(data, spec, alphas):
    """Penalized shape-only log-likelihood at each of ``alphas``, up to a constant."""
    w, m = shape_weights(data, spec)
    u = np.multiply.outer(np.asarray(alphas, dtype=float), w)
    ll = np.sum(special.log_ndtr(u) if m is None else t_logcdf(u, m), axis=-1)
    c = resolve_penalty(spec)
    return ll - c.c1 * np.log1p(c.c2 * np.asarray(alphas) ** 2)


ORACLE_CASES = [(spec, n, alpha)
                for spec in (ONE_PARAM, ONE_PARAM_ST4)
                for n in (10, 20, 50, 1000)
                for alpha in (0.0, 2.0, 5.0, 20.0)]


@pytest.mark.parametrize("spec,n,alpha", ORACLE_CASES,
                         ids=[f"{s.family}-n{n}-a{a:g}" for s, n, a in ORACLE_CASES])
def test_one_param_fits_match_brent_oracle(spec, n, alpha):
    grid = np.linspace(-150.0, 150.0, 1201)
    for rep in range(3):
        truth = DirectParams.scalar(0.0, 1.0, alpha, spec.fixed.get("nu"))
        data = sample(truth, n, seeded(3303, n, int(alpha), rep))
        for penalized, fit in ((False, fit_mle), (True, fit_mple)):
            got = fit(data, spec)
            a_new = float(got.estimates.alpha[0])
            a_old, div_old = oracle_brent(data, spec, penalized)
            assert got.diverged == div_old
            assert abs(a_new - a_old) <= 1e-6 * max(1.0, abs(a_old))
            if got.diverged:
                continue
            s, scale = shape_score(data, spec, a_new)
            if penalized:
                s -= q_prime(got.penalty, a_new)
            assert abs(s) <= 1e-9 * (1.0 + scale)
            if penalized:
                at_fit = float(penalized_shape_loglik(data, spec, [a_new])[0])
                on_grid = penalized_shape_loglik(data, spec, grid)
                assert at_fit >= on_grid.max() - 1e-9 * abs(at_fit)
        if spec.family == "sn":
            sf = float(fit_sf_one_param(data, spec).estimates.alpha[0])
            assert abs(sf - oracle_brentq_sf(data)) <= 1e-6 * max(1.0, abs(sf))
            assert abs(oracle_sf_score(data.column(0), sf)) <= 1e-9 * n


# shape-only (MLE, MPLE, SF) estimates and score evaluations on the criterion-5
# samples SeedSequence(20260810, spawn_key=(n, rep)) of SN(0, 1, 5): the
# estimates recorded before zeta1 took its erfcx form, the evaluations since
# a Newton step below 1e-7 relative ends the search
RECORDED_SHAPE_FITS = {
    (50, 0): ((8.159299877654695, 5.743547475339278, 5.738360455407868), (6, 5, 9)),
    (50, 1): ((12.694316302348273, 4.913424758765962, 4.906066689050211), (8, 8, 9)),
    (1000, 0): ((5.386721741905404, 5.327357469930555, 5.3271825140057585), (6, 6, 9)),
    (1000, 1): ((5.84030316256407, 5.7766366543696295, 5.776475643309863), (5, 5, 8)),
}


@pytest.mark.parametrize("key", sorted(RECORDED_SHAPE_FITS))
def test_shape_only_fits_match_their_recorded_values(key):
    data = sample(DirectParams.scalar(0.0, 1.0, 5.0), key[0], seeded(20260810, *key))
    fits = [fit(data, ONE_PARAM) for fit in (fit_mle, fit_mple, fit_sf_one_param)]
    alphas, evaluations = RECORDED_SHAPE_FITS[key]
    np.testing.assert_allclose([float(f.estimates.alpha[0]) for f in fits], alphas,
                               rtol=1e-12, atol=0)
    assert tuple(f.evaluations for f in fits) == evaluations
    assert not fits[0].diverged


def oracle_shape_root(h):
    """brentq at xtol 1e-15 on the first doubling 1, 2, 4, ... (on the side that h(0)'s sign
    picks) where h changes sign, or None when it keeps its sign up to 2^45."""
    side, lo = math.copysign(1.0, h(0.0)), 0.0
    for j in range(46):
        hi = side * 2.0 ** j
        if h(hi) * side <= 0.0:
            return float(optimize.brentq(h, min(lo, hi), max(lo, hi), xtol=1e-15))
        lo = hi
    return None


# the four recorded samples, and the first 10 replicates of each criterion-5
# sample size at the held-out seed 4099
ORACLE_SHAPE_SAMPLES = ([(20260810, *key) for key in sorted(RECORDED_SHAPE_FITS)]
                        + [(4099, n, rep) for n in (50, 100, 250, 500, 1000) for rep in range(10)])


@pytest.mark.parametrize("seed,n,rep", ORACLE_SHAPE_SAMPLES)
def test_shape_only_fits_match_a_tight_brentq_oracle(seed, n, rep):
    # the Newton search stops on a step below 1e-7 relative: its estimate is
    # then about that step squared from the root
    data = sample(DirectParams.scalar(0.0, 1.0, 5.0), n, seeded(seed, n, rep))
    z = data.column(0)
    coeffs = resolve_penalty(ONE_PARAM)
    scores = {"MLE": lambda a: shape_score(data, ONE_PARAM, a)[0],
              "MPLE": lambda a: shape_score(data, ONE_PARAM, a)[0] - q_prime(coeffs, a),
              "SF": lambda a: oracle_sf_score(z, a)}
    for method, fit in (("MLE", fit_mle), ("MPLE", fit_mple), ("SF", fit_sf_one_param)):
        got = fit(data, ONE_PARAM)
        if got.diverged:
            assert method == "MLE" and got.stop_reason == "one-sign"
            continue
        assert (got.stop_reason, got.converged) == ("root", True)
        want = oracle_shape_root(scores[method])
        assert abs(float(got.estimates.alpha[0]) - want) <= 1e-12 * abs(want), method


# the bracket ends each fit evaluates before its Newton search on the sample
# below (alpha-hat about 5.8): the threshold 100, the end 150, and 1, 2, 4, 8
@pytest.mark.parametrize("fit, ends", [(fit_mle, 1), (fit_mple, 1), (fit_sf_one_param, 4)])
def test_shape_only_newton_out_of_evaluations_reports_maxiter(fit, ends, monkeypatch):
    monkeypatch.setattr(estimators, "_NEWTON_MAXEV", 2)
    data = sample(DirectParams.scalar(0.0, 1.0, 5.0), 1000, seeded(20260810, 1000, 1))
    got = fit(data, ONE_PARAM)
    assert (got.stop_reason, got.converged) == ("maxiter", False)
    assert got.evaluations == ends + 2


def test_newton_derivatives_match_central_differences():
    # the one-parameter fits step with these slopes; a wrong one would only slow them
    from penskew.estimators import _ShapeScore, _sn_m_and_slope
    z = sample(DirectParams.scalar(0.0, 1.0, 3.0, 4.0), 80, seeded(3304)).column(0)
    h = 1e-6
    for f in (_ShapeScore(z, None), _ShapeScore(z, 4.0), _sn_m_and_slope):
        for a in (-3.0, 0.5, 2.0, 7.0):
            fd = (f(a + h)[0] - f(a - h)[0]) / (2 * h)
            assert f(a)[1] == pytest.approx(fd, rel=1e-6, abs=1e-7)


# ---------------------------------------------------------------------------
# the divergence threshold is the one settable fit value

THRESHOLD = 8.0
BAD_THRESHOLDS = [-1.0, 0.0, math.nan, math.inf]
# (spec, n, rep): replicate ``rep`` of SeedSequence(411, spawn_key=(n, rep))
# from alpha = 5 has a finite MLE with THRESHOLD < |alpha-hat| < 100
BETWEEN = {
    "3p": (THREE_PARAM, 30, 0),    # alpha-hat 14.7
    "1p": (ONE_PARAM, 20, 14),     # alpha-hat 33.4
}


def between_sample(key):
    spec, n, rep = BETWEEN[key]
    return sample(DirectParams.scalar(0.0, 1.0, 5.0), n, seeded(411, n, rep)), spec


class TestDivergenceThreshold:
    @pytest.mark.parametrize("key", sorted(BETWEEN))
    def test_fit_mle_flags_and_clamps_at_threshold(self, key):
        data, spec = between_sample(key)
        default = fit_mle(data, spec)
        a_hat = float(default.estimates.alpha[0])
        assert not default.diverged and THRESHOLD < abs(a_hat) < 100.0
        fit = fit_mle(data, spec, divergence_threshold=THRESHOLD)
        assert fit.diverged
        assert float(fit.estimates.alpha[0]) == pytest.approx(math.copysign(THRESHOLD, a_hat),
                                                              rel=1e-12)
        mple = fit_mple(data, spec)
        assert not mple.diverged and np.isfinite(float(mple.estimates.alpha[0]))

    @pytest.mark.parametrize("key", sorted(BETWEEN))
    def test_run_study_passes_threshold(self, key):
        from penskew.montecarlo import StudyConfig, run_study
        spec, n, rep = BETWEEN[key]
        cfg = dict(true_params=DirectParams.scalar(0.0, 1.0, 5.0), sample_sizes=(n,),
                   replicates=rep + 1, base_seed=411, fixed=spec.fixed, estimators=("MLE",))
        low = run_study(StudyConfig(**cfg, divergence_threshold=THRESHOLD))
        high = run_study(StudyConfig(**cfg))
        direct = [fit_mle(sample(DirectParams.scalar(0.0, 1.0, 5.0), n, seeded(411, n, r)), spec,
                          divergence_threshold=THRESHOLD).diverged for r in range(rep + 1)]
        assert list(low.metadata["diverged"][n]) == direct
        assert direct[rep] and not high.metadata["diverged"][n][rep]

    @pytest.mark.parametrize("key", sorted(BETWEEN))
    def test_cli_fit_exits_two_below_estimate(self, key, tmp_path):
        from penskew.cli import main
        data, spec = between_sample(key)
        csv = tmp_path / "between.csv"
        data.to_csv(csv)
        fix = [arg for name, value in spec.fixed.items() for arg in ("--fix", f"{name}={value}")]
        args = ["fit", str(csv), "--estimator", "mle", *fix, "--out", str(tmp_path / "fit.json")]
        assert main(args) == 0
        assert main(args + ["--divergence-threshold", str(THRESHOLD)]) == 2

    @pytest.mark.parametrize("fit", [fit_mle, fit_mple])
    def test_positional_threshold_is_rejected(self, fit):
        data, spec = between_sample("3p")
        with pytest.raises(TypeError):
            fit(data, spec, THRESHOLD)

    @staticmethod
    def refusal(value):
        return re.escape(f"divergence_threshold must be positive and finite, got {value!r}")

    @pytest.mark.parametrize("value", BAD_THRESHOLDS)
    def test_fits_reject_a_non_positive_or_non_finite_threshold(self, value):
        # with -1 the shape-only MLE of this positively skewed sample was reported
        # diverged at alpha = -1, and NaN failed with "parameters must be finite"
        data = Dataset(np.random.default_rng(1).normal(size=30) + 0.5)
        for spec in (ONE_PARAM, THREE_PARAM):
            with pytest.raises(ValueError, match=self.refusal(value)):
                fit_mle(data, spec, divergence_threshold=value)

    @pytest.mark.parametrize("value", BAD_THRESHOLDS)
    def test_w_scatter_and_study_config_reject_it(self, value):
        from penskew.montecarlo import StudyConfig
        from penskew.wbar import emit_w_scatter
        with pytest.raises(ValueError, match=self.refusal(value)):
            emit_w_scatter(2, 20, 3.0, 5, divergence_threshold=value)
        with pytest.raises(ValueError, match=self.refusal(value)):
            StudyConfig(true_params=DirectParams.scalar(0.0, 1.0, 5.0), sample_sizes=(20,),
                        replicates=1, base_seed=411, divergence_threshold=value)

    @pytest.mark.parametrize("text", ["-1", "0", "nan", "inf"])
    def test_cli_flags_reject_it(self, text, tmp_path, capsys):
        from penskew.cli import main
        csv = tmp_path / "y.csv"
        between_sample("3p")[0].to_csv(csv)
        for args in (["fit", str(csv)], ["wscatter", "--reps", "2", "--n", "20", "--alpha", "3"]):
            with pytest.raises(SystemExit) as exc:
                main([*args, f"--divergence-threshold={text}"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --divergence-threshold: divergence_threshold must be positive" in err
            assert repr(float(text)) in err


class TestOptimizerTrace:
    @staticmethod
    def check_stages(fit):
        assert isinstance(fit.optimizer_trace, list) and fit.optimizer_trace
        assert fit.optimizer_trace[0][0] == "bfgs"
        assert sum(nit for _, nit, _ in fit.optimizer_trace) == fit.iterations

    def test_three_param_mle(self):
        fit = fit_mle(sn_sample(3.0, 100, seed=seeded(16, 0)), THREE_PARAM)
        assert not fit.diverged
        self.check_stages(fit)

    def test_bivariate_mple(self):
        truth = DirectParams(xi=np.zeros(2), omega_mat=np.array([[1.0, 0.5], [0.5, 1.0]]),
                             alpha=np.array([3.0, -1.0]))
        spec = ModelSpec(family="sn", dimension=2)
        self.check_stages(fit_mple(sample(truth, 200, seeded(16, 1)), spec))

    def test_diverged_mle_records_the_pinned_refit(self):
        fit = fit_mle(all_positive_sample(5.0, 50, 2), THREE_PARAM)
        assert fit.diverged
        self.check_stages(fit)
        assert len(fit.optimizer_trace) == 2  # the re-fit at the clamped shape ran too

    def test_json_report_lists_the_stages(self):
        fit = fit_mle(all_positive_sample(5.0, 50, 2), THREE_PARAM)
        trace = json.loads(json.dumps(fit.to_json_dict()))["optimizer_trace"]
        assert trace == [[name, nit, value] for name, nit, value in fit.optimizer_trace]
        shape_only = fit_mle(sn_sample(2.0, 60, seed=seeded(14, 1)), ONE_PARAM)
        assert shape_only.optimizer_trace is None
        assert shape_only.to_json_dict()["optimizer_trace"] is None


class TestStopReason:
    def test_shape_only_fits_say_how_the_bracket_search_ended(self):
        data = sn_sample(2.0, 60, seed=seeded(14, 1))
        for fit in (fit_mle(data, ONE_PARAM), fit_mple(data, ONE_PARAM),
                    fit_sf_one_param(data, ONE_PARAM)):
            assert fit.stop_reason == "root"
        one_sign = fit_mle(all_positive_sample(5.0, 50, 2), ONE_PARAM)
        assert one_sign.diverged and one_sign.stop_reason == "one-sign"
        symmetric = Dataset(np.array([-2.0, -1.0, 1.0, 2.0]))  # score exactly 0 at alpha = 0
        assert fit_mple(symmetric, ONE_PARAM).stop_reason == "zero-score"
        # the score is still positive at the threshold 1
        short = fit_mle(Dataset(np.array([-0.01, 1.0, 2.0, 3.0])), ONE_PARAM,
                        divergence_threshold=1.0)
        assert short.diverged and short.stop_reason == "no-sign-change"

    def test_a_search_stopped_at_the_threshold_says_so(self):
        # d = 2 with xi and Omega pinned: no re-fit follows the clamp, so the
        # stopped search is the one behind the estimate.  One row in the
        # negative quadrant keeps the sample from being separated (fit_mle
        # reports a separated one without a search); its MLE is about (2.4, 6.9)
        spec = ModelSpec(dimension=2, fixed={"xi": [0.0, 0.0], "omega_mat": np.eye(2)})
        rows = np.abs(np.random.default_rng(5).normal(size=(30, 2)))
        rows[0] = -0.02
        data = Dataset(rows)
        fit = fit_mle(data, spec, divergence_threshold=5.0)
        assert fit.diverged and fit.converged and fit.stop_reason == "threshold"
        assert len(fit.optimizer_trace) == 1 and np.max(np.abs(fit.estimates.alpha)) == 5.0

    def test_reason_is_in_the_json_report(self):
        data = sn_sample(3.0, 100, seed=seeded(16, 0))
        mle, mple = fit_mle(data, THREE_PARAM), fit_mple(data, THREE_PARAM)
        assert mle.to_json_dict()["stop_reason"] == mle.stop_reason == "line-search"
        from penskew.wbar import fit_wbar
        assert fit_wbar(data, THREE_PARAM, mle, mple).to_json_dict()["stop_reason"] is None


class TestOneSearch:
    """Each BFGS-path fit is one search, and that search's status is the fit's."""

    def test_a_search_cut_at_its_iteration_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(estimators, "_MAXITER", 2)
        data = sn_sample(3.0, 100, seed=seeded(16, 0))
        mle, mple = fit_mle(data, THREE_PARAM), fit_mple(data, THREE_PARAM)
        for fit in (mle, mple):
            assert not fit.converged and not fit.diverged and fit.iterations == 2
            [(name, nit, _)] = fit.optimizer_trace
            assert (name, nit) == ("bfgs", 2)
        with pytest.raises(OptimizationError, match="did not converge"):
            stderr_from_penalized_info(mple, data, THREE_PARAM)
        from penskew.wbar import fit_wbar
        with pytest.raises(ValueError, match="must have converged"):
            fit_wbar(data, THREE_PARAM, mle, mple)

    def test_a_clamped_mle_reports_its_pinned_refit(self, monkeypatch):
        # cap the second search, the re-fit at the clamped shape, at 2 iterations
        searches = []

        def cap_the_refit(objective, x0, *args, bfgs=estimators._bfgs):
            searches.append(x0)
            if len(searches) == 2:
                monkeypatch.setattr(estimators, "_MAXITER", 2)
            return bfgs(objective, x0, *args)

        monkeypatch.setattr(estimators, "_bfgs", cap_the_refit)
        fit = fit_mle(all_positive_sample(5.0, 50, 2), THREE_PARAM)
        assert fit.diverged and not fit.converged
        assert [(name, nit) for name, nit, _ in fit.optimizer_trace] == [("bfgs", 16), ("bfgs", 2)]


# (spec, n, rep) -> the clamped MLE (xi, omega, alpha) of replicate rep of
# SeedSequence(20260809, spawn_key=(n, rep)) from alpha = 5 when its first search
# ran on to convergence (65 iterations each) before the clamp and re-fit
RUN_TO_CONVERGENCE = {
    (50, 1): [-0.136849607808156, 1.0721268359491063, 99.99999999999999],
    (50, 88): [-3.08963317052293e-05, 1.0347677670167412, 100.00000000000001],
}


class TestThresholdStop:
    """The MLE's search stops at its first iterate past the divergence threshold."""

    @staticmethod
    def divergent(n, rep):
        return sample(TRUTH5, n, seeded(20260809, n, rep))

    def test_search_stops_at_the_first_iterate_past_the_threshold(self):
        data = self.divergent(50, 1)
        fmap = _FreeMap(THREE_PARAM)
        objective = _neg_loglik_factory(data, THREE_PARAM, fmap, None)
        x0 = fmap.pack(estimators._mom_start(data, THREE_PARAM, fmap))
        tests = []

        def stop(x):
            tests.append(abs(x[2]) > 100.0)
            return tests[-1]

        log = estimators._SearchLog()
        res = log.minimize(objective, x0, stop)
        assert tests == [False] * (res.nit - 1) + [True]
        assert (res.status, log.stop_reason, log.converged) == (4, "threshold", True)
        # with no stop test the same search runs on toward alpha = infinity
        assert estimators._bfgs(objective, x0).nit > 4 * res.nit

    @pytest.mark.parametrize("key", sorted(RUN_TO_CONVERGENCE))
    def test_clamped_mle_keeps_the_run_to_convergence_estimate(self, key):
        fit = fit_mle(self.divergent(*key), THREE_PARAM)
        assert fit.diverged and fit.converged and len(fit.optimizer_trace) == 2
        np.testing.assert_allclose(_FreeMap(THREE_PARAM).direct_pack(fit.estimates),
                                   RUN_TO_CONVERGENCE[key], rtol=1e-6, atol=0)


# ---------------------------------------------------------------------------
# the batch objective and one-pass BFGS against the per-point objective and
# the central-difference gradient they replaced


def point_mahalanobis_and_logdet(v, omega_mat):
    """One matrix's squared Mahalanobis distances and log det, through solve_triangular."""
    chol = np.linalg.cholesky(omega_mat)
    sol = linalg.solve_triangular(chol, v.T, lower=True)
    return np.sum(sol * sol, axis=0), 2.0 * np.sum(np.log(np.diag(chol)))


def point_st_log1p_and_arg(v, omega_mat, alpha, qx, u, nu):
    """log1p(qx / nu) and the skew-t CDF argument u sqrt((d + nu) / (qx + nu)); where
    qx overflows, log qx - log nu and the limit sqrt(d + nu) u / sqrt(qx), from each
    difference scaled by its largest entry."""
    d = len(alpha)
    log1p_q, arg = np.log1p(qx / nu), u * np.sqrt((d + nu) / (qx + nu))
    far = np.isinf(qx)
    if far.any():
        scale = np.max(np.abs(v[far]), axis=1)
        vs = v[far] / scale[:, None]
        qs, _ = point_mahalanobis_and_logdet(vs, omega_mat)
        us = (vs / np.sqrt(np.diag(omega_mat))) @ alpha
        log1p_q[far] = 2.0 * np.log(scale) + np.log(qs) - np.log(nu)
        arg[far] = us / np.sqrt(qs) * np.sqrt(d + nu)
    return log1p_q, arg


def point_decode(fmap, x):
    """(xi, omega_mat, alpha, nu) of one optimizer vector, decoded on its own."""
    fixed, d = fmap.spec.fixed, fmap.d
    xi = x[fmap._xi] if fmap.free_xi else np.broadcast_to(np.asarray(fixed["xi"], float), (d,))
    if not fmap.free_scale:
        omega_mat = (np.array([[float(fixed["omega"]) ** 2]]) if "omega" in fixed
                     else np.asarray(fixed["omega_mat"], float))
    elif d == 1:
        omega_mat = np.array([[math.exp(2.0 * x[fmap._scale][0])]])
    else:
        omega_mat = fmap._from_log_cholesky(x[fmap._scale])
    alpha = (x[fmap._alpha] if fmap.free_alpha
             else np.broadcast_to(np.asarray(fixed["alpha"], float), (d,)))
    nu = math.exp(x[-1]) if fmap.free_nu else fixed.get("nu")
    return xi, omega_mat, alpha, None if nu is None else float(nu)


def point_objective(data, spec, fmap, penalty):
    """Minus the (penalized) log-likelihood at one free vector, evaluated alone."""
    y = data.column(0) if spec.dimension == 1 else None
    rows = data.rows
    lo_lnu, hi_lnu = _LOG_NU_BOUNDS

    def objective(x):
        try:
            xi, omega_mat, alpha, nu = point_decode(fmap, x)
        except (OverflowError, ValueError):
            return _BIG
        if fmap.free_nu and not (lo_lnu <= math.log(nu) <= hi_lnu):
            return _BIG
        if spec.dimension == 1:
            omega = math.sqrt(omega_mat[0, 0])
            if not (1e-6 < omega < 1e6) or abs(alpha[0]) > 1e7:
                return _BIG
            if not np.all(np.isfinite((y - xi[0]) / omega)):
                return _BIG
            try:
                if spec.family == "sn":
                    ll = float(np.sum(sn1_log_terms(y, xi[0], omega, alpha[0])))
                else:
                    ll = float(np.sum(st1_log_terms(y, xi[0], omega, alpha[0], nu)))
            except ValueError:  # a skew-t CDF argument that is not finite
                return _BIG
            a2 = alpha[0] * alpha[0]
        else:
            diag = np.diag(omega_mat)
            if not np.all(np.isfinite(diag)) or np.any(diag <= 1e-12) or np.any(diag > 1e12):
                return _BIG
            v = rows - xi
            try:
                qx, logdet = point_mahalanobis_and_logdet(v, omega_mat)
            except np.linalg.LinAlgError:
                return _BIG
            omega_diag = np.sqrt(diag)
            u = (v / omega_diag) @ alpha
            try:
                if spec.family == "sn":
                    ll = float(np.sum(-0.5 * spec.dimension * np.log(2 * np.pi) - 0.5 * logdet
                                      - 0.5 * qx + np.log(2.0) + special.log_ndtr(u)))
                else:
                    log1p_q, arg = point_st_log1p_and_arg(v, omega_mat, alpha, qx, u, nu)
                    ll = float(np.sum(_st_log_terms(log1p_q, logdet, arg, spec.dimension, nu)))
            except ValueError:  # a skew-t CDF argument that is not finite
                return _BIG
            w = alpha / omega_diag
            a2 = float(w @ omega_mat @ w)
        if not np.isfinite(ll):
            return _BIG
        if penalty is not None:
            ll -= penalty([a2], [nu])[0]
        return -ll

    return objective


def central_grad(f, x):
    g = np.empty(len(x))
    for i in range(len(x)):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def per_point_factory(data, spec, fmap, penalty):
    point = point_objective(data, spec, fmap, penalty)
    return lambda X: np.array([point(x) for x in X])


class Crossed(Exception):
    """Raised from a minimize callback at the first iterate where the stop test holds."""


def per_point_bfgs(objective, x0, stop=None, gtol=1e-6):
    """BFGS with the value and the central-difference gradient evaluated point by point.

    With ``stop``, the search ends at the first iterate where ``stop`` holds,
    as status 4.  A minimize callback cannot end a search on scipy 1.10, so
    one run finds that iteration and a second runs to it as its maxiter.
    """
    f = lambda x: objective(x[None])[0]

    def run(maxiter, callback=None):
        return optimize.minimize(f, x0, method="BFGS", jac=lambda x: central_grad(f, x),
                                 callback=callback, options=dict(maxiter=maxiter, gtol=gtol))

    if stop is None:
        return run(300)
    nit = []

    def count_to_the_crossing(xk):
        nit.append(None)
        if stop(xk):
            raise Crossed

    try:
        return run(300, count_to_the_crossing)
    except Crossed:
        res = run(len(nit))
        assert res.nit == len(nit) and stop(res.x)
        res.status, res.success = 4, False
        return res


def per_point_stderr(fit, data, spec):
    """The standard errors' Hessian differenced point by point: one DirectParams,
    loglik and q_value per difference point.  Returns (se, obs_info)."""
    coeffs = fit.penalty or resolve_penalty(spec, nu=fit.estimates.nu)
    fmap = _FreeMap(spec)

    def pll(xd):
        params = fmap.direct_unpack(xd)
        alpha, omega_mat = params.alpha, params.omega_mat
        if params.d == 1:  # alpha*^2 as point_objective forms it
            a2 = alpha[0] * alpha[0]
        else:
            w = alpha / np.sqrt(np.diag(omega_mat))
            a2 = float(w @ omega_mat @ w)
        return loglik(params, data, spec) - q_value(coeffs, a2)

    x0 = fmap.direct_pack(fit.estimates)
    k = len(x0)
    h = 1e-4 * np.maximum(1.0, np.abs(x0))
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            xpp = x0.copy(); xpp[i] += h[i]; xpp[j] += h[j]
            xpm = x0.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = x0.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = x0.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
            diff = pll(xpp) - pll(xpm) - pll(xmp) + pll(xmm)
            hess[i, j] = hess[j, i] = diff / (4 * h[i] * h[j])
    return np.sqrt(np.diag(np.linalg.inv(-hess))), -hess


def model_penalty(spec):
    """The objective's penalty of a stack (lists of alpha*^2 and nu), row by row by q_value."""
    return lambda a2, nu: [q_value(resolve_penalty(spec, v), a) for a, v in zip(a2, nu)]


BATCH_TRUTH_ST1 = DirectParams.scalar(0.3, 1.4, 3.0, nu=4.0)
BATCH_CLASSES = {
    "1p": (FREE_MAP_SN1, ModelSpec(fixed={"xi": 0.0, "omega": 1.0})),
    "3p": (FREE_MAP_SN1, THREE_PARAM),
    "alpha_pinned": (FREE_MAP_SN1, ModelSpec(fixed={"alpha": -2.2})),
    "st_pin": (BATCH_TRUTH_ST1, ModelSpec(family="st", fixed={"nu": 4.0})),
    "st_free": (BATCH_TRUTH_ST1, ModelSpec(family="st")),
    "st_free_bfgs": (BATCH_TRUTH_ST1, ModelSpec(family="st")),
    "d2": (FREE_MAP_SN2, ModelSpec(dimension=2)),
    "d2_st_pin": (FREE_MAP_ST2, ModelSpec(family="st", dimension=2, fixed={"nu": 5.0})),
    "d2_st_free": (FREE_MAP_ST2, ModelSpec(family="st", dimension=2)),
    "d2_xi_pinned": (FREE_MAP_SN2, ModelSpec(dimension=2, fixed={"xi": FREE_MAP_SN2.xi})),
    "d2_alpha_pinned": (FREE_MAP_SN2, ModelSpec(dimension=2, fixed={"alpha": FREE_MAP_SN2.alpha})),
}


CHOLESKY_FAILS = "Cholesky fails"


def batch_rows(name, x, rng):
    """40 random rows about x, or for a "_bfgs" class the stack one BFGS step
    evaluates: x and x -+ h e_i, where only the two log-nu rows carry their own nu."""
    if name.endswith("_bfgs"):
        steps = np.diag(1e-6 * np.maximum(1.0, np.abs(x)))
        return np.vstack([x, x - steps, x + steps])
    return x + rng.normal(scale=0.5, size=(40, len(x)))


def invalid_rows(fmap, x):
    """Rows of the free stack that the objective must reject, with what each breaks."""
    out = {}
    if fmap.free_scale and fmap.d == 1:
        k = fmap.direct_names.index("omega")
        for name, value in (("omega below 1e-6", math.log(5e-7)),
                            ("omega above 1e6", math.log(2e6)), ("exp overflow", 400.0)):
            out[name] = x.copy()
            out[name][k] = value
    if fmap.free_scale and fmap.d > 1:
        k = fmap.direct_names.index("omega_11")  # log C_11 of the log-Cholesky block
        for name, value in (("Omega_11 at most 1e-12", math.log(1e-7)),
                            ("Omega_11 above 1e12", math.log(2e6)),
                            ("log-diagonal exp overflow", 800.0)):
            out[name] = x.copy()
            out[name][k] = value
        # C = [[1, 0], [1e5, e^-30]]: Omega's diagonal is in range, but C C' rounds
        # to a singular matrix, so only this row of the stack fails the factorization
        out[CHOLESKY_FAILS] = x.copy()
        out[CHOLESKY_FAILS][k:k + 3] = (0.0, 1e5, -30.0)
    if fmap.free_xi and fmap.free_scale and fmap.d == 1:
        # omega in range, but (y - xi) / omega overflows: the log-likelihood
        # is not finite
        out["z not finite"] = x.copy()
        out["z not finite"][[0, 1]] = (1e308, math.log(1e-5))
    if fmap.free_xi and fmap.free_scale and fmap.d > 1 and fmap.spec.family == "sn":
        # Omega_11 = 1e-10 is in range, but (y_1 - xi_1) / omega_1 overflows:
        # qx is inf (the skew-t log density takes its far-tail form there)
        out["residual overflows"] = x.copy()
        out["residual overflows"][[0, 1]] = (1e308, 0.0)
        out["residual overflows"][fmap.direct_names.index("omega_11")] = math.log(1e-5)
    if fmap.free_alpha and fmap.d == 1:
        out["|alpha| above 1e7"] = x.copy()
        out["|alpha| above 1e7"][fmap.direct_names.index("alpha")] = -2e7
    if fmap.free_nu:
        for name, value in (("log nu below range", _LOG_NU_BOUNDS[0] - 0.5),
                            ("log nu above range", _LOG_NU_BOUNDS[1] + 0.5),
                            ("nu exp overflow", 800.0)):
            out[name] = x.copy()
            out[name][-1] = value
    if fmap.free_xi and fmap.spec.family == "sn":
        # (y - xi)^2 overflows: a non-finite log-likelihood (the skew-t log
        # density takes its far-tail form there and stays finite)
        out["non-finite loglik"] = x.copy()
        out["non-finite loglik"][0] = 1e300
    return out


@pytest.mark.parametrize("penalized", [False, True])
@pytest.mark.parametrize("name", sorted(BATCH_CLASSES))
def test_batch_objective_equals_per_point_objective(name, penalized):
    truth, spec = BATCH_CLASSES[name]
    fmap = _FreeMap(spec)
    data = sample(truth, 120, seeded(17, len(name)))
    penalty = model_penalty(spec) if penalized else None
    rng = np.random.default_rng(seeded(17, len(name), penalized))
    x = fmap.pack(truth)
    random_rows = batch_rows(name, x, rng)
    bad = invalid_rows(fmap, x)
    X = np.vstack([random_rows, *bad.values()]) if bad else random_rows
    point = point_objective(data, spec, fmap, penalty)
    objective = _neg_loglik_factory(data, spec, fmap, penalty)
    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite row overflows
        batch = objective(X)
        assert np.array_equal(batch, [point(row) for row in X])
    assert np.all(batch[:len(random_rows)] < _BIG)
    assert np.all(batch[len(random_rows):] == _BIG), sorted(bad)
    # the valid rows alone take the one stacked factorization, and agree too
    assert np.array_equal(objective(random_rows), batch[:len(random_rows)])
    if CHOLESKY_FAILS in bad:
        omega_mat = fmap._from_log_cholesky(bad[CHOLESKY_FAILS][fmap._scale])
        assert np.all((np.diag(omega_mat) > 1e-12) & (np.diag(omega_mat) <= 1e12))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(omega_mat)


@pytest.mark.parametrize("name", ["3p", "st_pin", "st_free", "d2_st_free"])
def test_penalized_objective_equals_penalized_loglik_per_row(name):
    """The MPLE's objective prices the penalty once per stack: on a stack that mixes
    valid and invalid rows, each valid row is minus penalized_loglik at its point,
    bit for bit, and each invalid one the large value.  (The d > 1 skew-normal
    objective sums its terms in an order of its own, so it is left out.)"""
    truth, spec = BATCH_CLASSES[name]
    fmap = _FreeMap(spec)
    data = sample(truth, 120, seeded(19, len(name)))
    x = fmap.pack(truth)
    rng = np.random.default_rng(seeded(19, len(name)))
    rows = ([(row, True) for row in batch_rows(name, x, rng)[:8]]
            + [(row, False) for row in invalid_rows(fmap, x).values()])
    order = rng.permutation(len(rows))  # valid and invalid rows mixed
    X = np.array([rows[i][0] for i in order])
    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite rows overflow
        values = _neg_loglik_factory(data, spec, fmap, estimators._stack_penalty(spec))(X)
    for i, value in zip(order, values):
        row, ok = rows[i]
        assert value == (-penalized_loglik(fmap.unpack(row), data, spec) if ok else _BIG)


@pytest.mark.parametrize("name", ["st_free", "d2_st_free"])
def test_free_nu_penalty_resolves_once_per_distinct_nu(name, monkeypatch):
    truth, spec = BATCH_CLASSES[name]
    fmap = _FreeMap(spec)
    x = fmap.pack(truth)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    X = np.vstack([x, x + np.diag(h), x - np.diag(h)])  # a BFGS batch: 2k + 1 rows, 3 nu
    resolve, calls = estimators.resolve_penalty, []

    def counted(spec, nu=None):
        calls.append(nu)
        return resolve(spec, nu)

    monkeypatch.setattr(estimators, "resolve_penalty", counted)
    objective = _neg_loglik_factory(sample(truth, 120, seeded(23)), spec, fmap,
                                    estimators._stack_penalty(spec))
    objective(X)
    assert len(X) > 3 and sorted(calls) == sorted(set(fmap.stack(X)[3])) and len(calls) == 3


@pytest.mark.parametrize("name", ["st_pin", "st_free", "d2_st_pin", "d2_st_free"])
def test_skew_t_objective_is_finite_where_the_residual_square_overflows(name):
    truth, spec = BATCH_CLASSES[name]
    fmap = _FreeMap(spec)
    data = sample(truth, 120, seeded(17, len(name)))
    X = np.vstack([fmap.pack(truth)] * 2)
    X[0, 0] = 1e300  # xi (xi_1): every (y - xi)^2 overflows
    # z is finite, but alpha z overflows too: alpha z * 0 is NaN until the
    # skew-t CDF argument takes its limit (for d = 1, alpha sign(z) sqrt(nu + 1))
    X[1, [0, fmap.direct_names.index("omega" if fmap.d == 1 else "omega_11")]] = (
        1e305, math.log(1e-3))
    with np.errstate(over="ignore", invalid="ignore"):
        values = _neg_loglik_factory(data, spec, fmap, None)(X)
        assert np.array_equal(values, [point_objective(data, spec, fmap, None)(x) for x in X])
    assert np.all(values < _BIG)


TRUTH5 = DirectParams.scalar(0.0, 1.0, 5.0)
ORACLE_FITS = {
    # the divergent table1_3p replicate: a search stopped past the threshold, then the re-fit
    "3p_divergent": (TRUTH5, THREE_PARAM, 50, seeded(20260809, 50, 1)),
    "3p": (TRUTH5, THREE_PARAM, 50, seeded(20260809, 50, 0)),
    "st_pin": (DirectParams.scalar(0.0, 1.0, 3.0, 4.0), ModelSpec(family="st", fixed={"nu": 4.0}),
               200, seeded(20260811, 0, 0)),
    "st_free": (DirectParams.scalar(0.0, 1.0, 3.0, 4.0), ModelSpec(family="st"),
                200, seeded(20260811, 1, 0)),
    "d2": (DirectParams(xi=np.zeros(2), omega_mat=np.array([[1.0, 0.5], [0.5, 1.0]]),
                        alpha=np.array([3.0, -1.0])), ModelSpec(dimension=2),
           100, seeded(20260811, 2, 0)),
    "d2_st_pin": (FREE_MAP_ST2, ModelSpec(family="st", dimension=2, fixed={"nu": 5.0}),
                  100, seeded(20260811, 3, 0)),
}


def fit_fingerprint(fit):
    est = fit.estimates
    return (est.xi.tolist(), est.omega_mat.tolist(), est.alpha.tolist(), est.nu,
            fit.loglik_at_opt, fit.penalized_loglik_at_opt, fit.iterations,
            fit.optimizer_trace, fit.diverged, fit.converged, fit.nu_at_bound)


@pytest.mark.parametrize("fit", [fit_mle, fit_mple])
@pytest.mark.parametrize("name", sorted(ORACLE_FITS))
def test_one_pass_bfgs_reproduces_the_per_point_fit(name, fit, monkeypatch):
    truth, spec, n, seed = ORACLE_FITS[name]
    data = sample(truth, n, seed)
    batched = fit(data, spec)
    monkeypatch.setattr(estimators, "_neg_loglik_factory", per_point_factory)
    monkeypatch.setattr(estimators, "_bfgs", per_point_bfgs)
    per_point = fit(data, spec)
    assert fit_fingerprint(batched) == fit_fingerprint(per_point)
    if name == "3p_divergent" and fit is fit_mle:
        assert batched.diverged and batched.optimizer_trace[0][1] == 12
        assert len(batched.optimizer_trace) >= 2  # the pinned re-fit ran


ST4, D2 = ORACLE_FITS["st_pin"][0], ORACLE_FITS["d2"][0]
# (truth, spec, n, seed, penalized, maxiter, the exit's scipy status, stop reason);
# the line-search exits are a fit_mix skew-t MPLE and a d = 2 MPLE
BFGS_EXITS = {
    "gtol": (TRUTH5, THREE_PARAM, 50, seeded(20260809, 50, 0), False, 300, 0, "gtol"),
    "maxiter": (TRUTH5, THREE_PARAM, 50, seeded(20260809, 50, 0), False, 2, 1, "maxiter"),
    "st_pin_line_search": (ST4, ModelSpec(family="st", fixed={"nu": 4.0}), 200,
                           seeded(20260811, 0, 4), True, 300, 2, "line-search"),
    "d2_line_search": (D2, ModelSpec(dimension=2), 200, seeded(20260811, 2, 17), True, 300,
                       2, "line-search"),
}


@pytest.mark.parametrize("name", sorted(BFGS_EXITS))
def test_bfgs_loop_reproduces_scipy_minimize(name, monkeypatch):
    """Each exit of the BFGS loop against scipy's minimize on the same batches:
    the same iterate, value, iteration count and status, and the same stacks
    handed to the objective in the same order, both for the steps whose first
    trial the loop accepts itself and for those it hands to scipy's search."""
    truth, spec, n, seed, penalized, maxiter, status, reason = BFGS_EXITS[name]
    monkeypatch.setattr(estimators, "_MAXITER", maxiter)
    data = sample(truth, n, seed)
    fmap = _FreeMap(spec)
    objective = _neg_loglik_factory(data, spec, fmap, model_penalty(spec) if penalized else None)
    x0 = fmap.pack(estimators._mom_start(data, spec, fmap))
    k = len(x0)
    stacks = {"loop": [], "minimize": []}

    searches = []  # the steps the loop hands to scipy's line search

    def counted_search(*args, **kwargs):
        searches.append(None)
        return _line_search_wolfe12(*args, **kwargs)

    monkeypatch.setattr(estimators, "_line_search_wolfe12", counted_search)

    def recorded(key):
        return lambda X: stacks[key].append(X) or objective(X)

    def value_and_grad(x):  # the batch: x, x + h e_i, x - h e_i (x - 0.0 keeps a -0.0)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        f = recorded("minimize")(np.vstack([x, x - np.diag(-h), x - np.diag(h)]))
        return f[0], (f[1:k + 1] - f[k + 1:]) / (2.0 * h)

    res = estimators._bfgs(recorded("loop"), x0)
    ref = optimize.minimize(value_and_grad, x0, method="BFGS", jac=True,
                            options=dict(maxiter=maxiter, gtol=1e-6))
    assert res.status == ref.status == status
    assert np.array_equal(res.x, ref.x) and res.fun == ref.fun and res.nit == ref.nit
    assert len(stacks["loop"]) == len(stacks["minimize"])
    assert all(np.array_equal(a, b) for a, b in zip(stacks["loop"], stacks["minimize"]))
    if name == "gtol":
        # the loop settles most steps on their first trial and hands the rest to scipy
        assert 0 < len(searches) < res.nit
    fit = (fit_mple if penalized else fit_mle)(data, spec)
    assert (fit.stop_reason, fit.converged) == (reason, status != 1)


HESSIAN_CLASSES = {
    **FREE_MAP_CLASSES,
    "d3_sn": (DirectParams(xi=[0.0, 1.0, -1.0], alpha=[2.0, -1.0, 0.5],
                           omega_mat=[[1.0, 0.3, 0.2], [0.3, 2.0, -0.4], [0.2, -0.4, 1.5]]),
              ModelSpec(dimension=3)),
}


@pytest.mark.parametrize("name", sorted(HESSIAN_CLASSES))
def test_stacked_hessian_reproduces_the_per_point_hessian(name):
    truth, spec = HESSIAN_CLASSES[name]
    data = sample(truth, 120, seeded(18, len(name)))
    fit = fit_mple(data, spec)
    se, obs_info = per_point_stderr(fit, data, spec)
    assert np.array_equal(stderr_from_penalized_info(fit, data, spec), se)
    assert np.array_equal(fit.obs_info, obs_info)


# fit_mle on sn_sample(3.0, 100, seeded(16, 0)): 9 BFGS iterations, 14 batches of 7 rows
ITERATIONS_3P, EVALUATIONS_3P = 9, 98


class TestEvaluations:
    def test_three_param_count_is_pinned(self):
        fit = fit_mle(sn_sample(3.0, 100, seed=seeded(16, 0)), THREE_PARAM)
        assert fit.optimizer_trace == [("bfgs", fit.iterations, -fit.loglik_at_opt)]
        # every BFGS step evaluates the point and its 2k = 6 neighbours together
        assert fit.evaluations % 7 == 0
        assert fit.evaluations == EVALUATIONS_3P
        assert fit.to_json_dict()["evaluations"] == fit.evaluations

    def test_shape_only_counts_score_calls(self):
        data = sn_sample(2.0, 60, seed=seeded(14, 1))
        for fit in (fit_mle(data, ONE_PARAM), fit_mple(data, ONE_PARAM),
                    fit_sf_one_param(data, ONE_PARAM)):
            assert fit.evaluations == fit.iterations > 0

    def test_cli_fit_reports_counts_on_stderr(self, tmp_path, capsys):
        from penskew.cli import main
        csv = tmp_path / "y.csv"
        sn_sample(3.0, 100, seed=seeded(16, 0)).to_csv(csv)
        assert main(["fit", str(csv), "--estimator", "mle", "--out", str(tmp_path / "f.json")]) == 0
        assert (f"mle: {ITERATIONS_3P} iterations, {EVALUATIONS_3P} log-likelihood evaluations"
                in capsys.readouterr().err)


def platykurtic_sample():
    """Lighter-than-normal tails: the free-nu likelihood rises toward nu = infinity."""
    rng = np.random.default_rng(seeded(88, 50, 0))
    return Dataset(rng.uniform(-1.0, 1.0, size=50) + 0.3 * rng.exponential(size=50))


class TestNuAtBound:
    def test_free_nu_driven_to_the_upper_edge_is_flagged(self):
        fit = fit_mle(platykurtic_sample(), ModelSpec(family="st"))
        assert _LOG_NU_BOUNDS[1] - math.log(fit.estimates.nu) < 0.1
        assert fit.nu_at_bound and fit.to_json_dict()["nu_at_bound"] is True

    def test_interior_and_pinned_nu_are_not_flagged(self):
        data = sample(DirectParams.scalar(0.0, 1.0, 3.0, 4.0), 1000, seeded(77, 1000, 0))
        assert not fit_mle(data, ModelSpec(family="st")).nu_at_bound
        assert not fit_mple(data, ModelSpec(family="st")).nu_at_bound
        assert not fit_mle(platykurtic_sample(), ModelSpec(family="st", fixed={"nu": 4.0})).nu_at_bound

    def test_both_edges_are_inside_the_search_range(self):
        spec = ModelSpec(family="st")
        fmap = _FreeMap(spec)
        X = np.tile(fmap.pack(BATCH_TRUTH_ST1), (2, 1))
        X[:, -1] = _LOG_NU_BOUNDS
        values = _neg_loglik_factory(sample(BATCH_TRUTH_ST1, 50, 3), spec, fmap, None)(X)
        assert np.all(values < _BIG)

    def test_cli_fit_warns_on_stderr(self, tmp_path, capsys):
        from penskew.cli import main
        csv = tmp_path / "y.csv"
        platykurtic_sample().to_csv(csv)
        out = tmp_path / "f.json"
        assert main(["fit", str(csv), "--family", "st", "--estimator", "mle", "--out", str(out)]) == 0
        assert "warning: mle nu = " in capsys.readouterr().err
        assert json.loads(out.read_text())["fits"]["mle"]["nu_at_bound"] is True
