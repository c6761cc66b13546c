import dataclasses
import io

import numpy as np
import pytest
from scipy import integrate, linalg, special, stats

from penskew.distributions import (
    Dataset,
    DirectParams,
    _mahalanobis_and_logdet,
    alpha_star,
    canonical_matrix,
    canonical_transform,
    delta_of_alpha,
    prob_divergent_mle,
    prob_negative,
    sample,
    skewness_gamma1,
    sn_logpdf,
    st_logpdf,
)
from penskew import distributions
from penskew.specfun import t_logcdf

from conftest import sn1_log_terms, st1_log_terms

HALF_NORMAL_GAMMA1 = 0.9952717464311565  # skewness of the |N(0,1)| boundary case


class TestDirectParams:
    def test_scalar_roundtrip(self):
        p = DirectParams.scalar(1.0, 2.0, -3.0)
        assert p.d == 1
        assert p.omega == pytest.approx(2.0)
        assert p.omega_bar[0, 0] == pytest.approx(1.0)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError, match="omega_mat must be positive definite"):
            DirectParams(xi=[0, 0], omega_mat=[[1, 2], [2, 1]], alpha=[0, 0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="omega_mat must be symmetric"):
            DirectParams(xi=[0, 0], omega_mat=[[1, 0.5], [0.2, 1]], alpha=[0, 0])

    @pytest.mark.parametrize("omega_mat, message", [
        ([[0.0]], "omega_mat must be positive definite"),
        ([[-1.0]], "omega_mat must be positive definite"),
        ([[-0.0]], "omega_mat must be positive definite"),
        ([[np.nan]], "parameters must be finite"),
        ([[np.inf]], "parameters must be finite"),
        ([[1.0, 0.0]], "inconsistent dimensions"),
        ([[1.0], [0.0]], "inconsistent dimensions"),
    ], ids=["zero", "negative", "negative-zero", "nan", "inf", "row", "column"])
    def test_scalar_scale_validation(self, omega_mat, message):
        # d = 1 skips the symmetry and Cholesky checks; the errors must be unchanged
        with pytest.raises(ValueError, match=message):
            DirectParams(xi=[0.0], omega_mat=omega_mat, alpha=[1.0])

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["xi", "alpha"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_location_and_shape(self, d, name, bad):
        # the scalar tests of d = 1 refuse what the array tests of d > 1 do
        args = dict(xi=np.zeros(d), omega_mat=np.eye(d), alpha=np.ones(d))
        args[name][0] = bad
        with pytest.raises(ValueError, match="^parameters must be finite$"):
            DirectParams(**args)

    def test_scalar_tiny_positive_scale_accepted(self):
        assert DirectParams(xi=[0.0], omega_mat=[[5e-324]], alpha=[1.0]).d == 1

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            DirectParams.scalar(0, 1, 0, nu=-1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DirectParams(xi=[0, 0], omega_mat=np.eye(2), alpha=[0, 0, 0])


class TestSnLogpdf:
    def test_gaussian_reduction(self):
        p = DirectParams.scalar(0.0, 1.0, 0.0)
        assert sn_logpdf([0.0], p) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_phi_factor_cancels_at_origin(self):
        for a in (0.5, 2.0, -7.0):
            p = DirectParams.scalar(0.0, 1.0, a)
            assert sn_logpdf([0.0], p) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_univariate_normalization(self):
        p = DirectParams.scalar(0.3, 1.7, 4.0)
        val, _ = integrate.quad(lambda x: np.exp(sn_logpdf([x], p)), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_bivariate_normalization(self):
        p = DirectParams(xi=[0.0, 0.0], omega_mat=np.eye(2), alpha=[3.0, -1.0])
        val, _ = integrate.dblquad(
            lambda y, x: np.exp(sn_logpdf([x, y], p)), -9, 9, -9, 9,
            epsabs=1e-9, epsrel=1e-9)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_reflection_identity(self, rng):
        xs = rng.normal(size=20)
        p_pos = DirectParams.scalar(0.0, 1.3, 2.5)
        p_neg = DirectParams.scalar(0.0, 1.3, -2.5)
        for x in xs:
            assert sn_logpdf([-x], p_pos) == pytest.approx(sn_logpdf([x], p_neg), abs=1e-13)

    def test_reflection_identity_bivariate(self, rng):
        omega = np.array([[2.0, 0.6], [0.6, 1.0]])
        pa = DirectParams(xi=[0, 0], omega_mat=omega, alpha=[1.5, -2.0])
        pb = DirectParams(xi=[0, 0], omega_mat=omega, alpha=[-1.5, 2.0])
        for x in rng.normal(size=(20, 2)):
            assert sn_logpdf(-x, pa) == pytest.approx(sn_logpdf(x, pb), abs=1e-13)

    def test_rejects_skew_t_params(self):
        with pytest.raises(ValueError):
            sn_logpdf([0.0], DirectParams.scalar(0, 1, 0, nu=3.0))


class TestMahalanobisAndLogdet:
    """The stack-aware helper against scipy's solve_triangular, one matrix at a time."""

    @staticmethod
    def reference(v, omega_mat):
        chol = np.linalg.cholesky(omega_mat)
        sol = linalg.solve_triangular(chol, v.T, lower=True)
        return np.sum(sol * sol, axis=0), 2.0 * np.sum(np.log(np.diag(chol)))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_each_member_of_a_stack_is_its_own_call(self, d, rng):
        a = rng.normal(size=(7, d, d))
        omega = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(d)
        scales = np.array([1e-3, 1.0, 1e3, 1.0, 1.0, 2.0, 0.5])
        v = rng.normal(size=(7, 40, d)) * scales[:, None, None]
        qx, logdet = _mahalanobis_and_logdet(v, omega)
        assert qx.shape == (7, 40) and logdet.shape == (7,)
        for i in range(7):
            q1, ld1 = _mahalanobis_and_logdet(v[i], omega[i])
            q0, ld0 = self.reference(v[i], omega[i])
            assert np.array_equal(qx[i], q1) and np.array_equal(q1, q0)
            assert logdet[i] == ld1 == ld0

    def test_keeps_the_errors_of_the_reference(self):
        v = np.ones((3, 2))
        with pytest.raises(np.linalg.LinAlgError):
            _mahalanobis_and_logdet(v, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _mahalanobis_and_logdet(np.array([[np.inf, 0.0]]), np.eye(2))
        qx, logdet = _mahalanobis_and_logdet(np.empty((0, 2)), np.eye(2))
        assert qx.shape == (0,) and logdet == 0.0


LOGPDF_CASES = {
    1: DirectParams(xi=[0.3], omega_mat=[[1.7]], alpha=[-2.2]),
    2: DirectParams(xi=[0.3, -0.2], omega_mat=[[1.5, 0.4], [0.4, 0.8]], alpha=[2.0, -1.0]),
    3: DirectParams(xi=[0.0, 1.0, -1.0], alpha=[2.0, -1.0, 0.5],
                    omega_mat=[[1.0, 0.3, 0.2], [0.3, 2.0, -0.4], [0.2, -0.4, 1.5]]),
}


class TestLogpdfPerMatrix:
    """The densities, one-row stacks of the fits' terms, against the scalar formulas
    for d = 1 and the per-matrix formulas for d > 1."""

    @staticmethod
    def reference(rows, params):
        d, nu = params.d, params.nu
        if d == 1:
            cols = (rows[:, 0], params.xi[0], params.omega, params.alpha[0])
            return sn1_log_terms(*cols) if nu is None else st1_log_terms(*cols, nu)
        v = rows - params.xi
        qx, logdet = TestMahalanobisAndLogdet.reference(v, params.omega_mat)
        u = (v / params.omega_diag) @ params.alpha
        if nu is None:
            return (-0.5 * d * np.log(2 * np.pi) - 0.5 * logdet - 0.5 * qx
                    + (np.log(2.0) + special.log_ndtr(u)))
        log_td = (special.gammaln((nu + d) / 2.0) - special.gammaln(nu / 2.0)
                  - 0.5 * d * np.log(nu * np.pi) - 0.5 * logdet
                  - 0.5 * (nu + d) * np.log1p(qx / nu))
        return np.log(2.0) + log_td + t_logcdf(u * np.sqrt((d + nu) / (qx + nu)), nu + d)

    @pytest.mark.parametrize("nu", [None, 4.5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_point_and_sample(self, d, nu, rng):
        params = dataclasses.replace(LOGPDF_CASES[d], nu=nu)
        pdf = sn_logpdf if nu is None else st_logpdf
        rows = sample(params, 50, rng).rows
        assert np.array_equal(pdf(rows, params), self.reference(rows, params))
        point = pdf(rows[0], params)
        assert type(point) is float and point == self.reference(rows[:1], params)[0]

    @pytest.mark.parametrize("nu", [None, 4.5])
    def test_d1_makes_no_matrix_call(self, nu, monkeypatch):
        def refuse(*args):
            raise AssertionError("d = 1 densities took the multivariate terms")

        monkeypatch.setattr(distributions, "_mahalanobis_and_logdet", refuse)
        monkeypatch.setattr(distributions, "_mv_terms", refuse)
        params = dataclasses.replace(LOGPDF_CASES[1], nu=nu)
        pdf = sn_logpdf if nu is None else st_logpdf
        rows = sample(params, 50, 5).rows
        assert np.array_equal(pdf(rows, params), self.reference(rows, params))
        assert pdf(0.7, params) == self.reference(np.array([[0.7]]), params)[0]


class TestStLogpdf:
    def test_symmetric_reduction_to_t(self):
        # alpha = 0: the distribution-function factor halves away the 2
        p = DirectParams.scalar(0.0, 1.0, 0.0, nu=3.0)
        expected = np.log(stats.t.pdf(1.3, 3.0))
        assert st_logpdf([1.3], p) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        p = DirectParams.scalar(0.0, 1.0, 2.0, nu=3.0)
        val, _ = integrate.quad(lambda x: np.exp(st_logpdf([x], p)), -np.inf, np.inf,
                                limit=200)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_skew_normal_limit(self):
        p_t = DirectParams.scalar(0.0, 1.0, 5.0, nu=1e6)
        p_n = DirectParams.scalar(0.0, 1.0, 5.0)
        assert st_logpdf([1.0], p_t) == pytest.approx(sn_logpdf([1.0], p_n), abs=1e-4)

    def test_bivariate_normalization(self):
        p = DirectParams(xi=[0.0, 0.0], omega_mat=np.eye(2), alpha=[2.0, 0.5], nu=5.0)
        val, _ = integrate.dblquad(
            lambda y, x: np.exp(st_logpdf([x, y], p)), -60, 60, -60, 60,
            epsabs=1e-8, epsrel=1e-8)
        assert val == pytest.approx(1.0, abs=1e-5)


class TestSample:
    def test_gaussian_case_moments(self):
        omega = np.array([[2.0, 0.7], [0.7, 1.5]])
        p = DirectParams(xi=[1.0, -2.0], omega_mat=omega, alpha=[0.0, 0.0])
        n = 100_000
        data = sample(p, n, 7)
        mean_se = np.sqrt(np.diag(omega) / n)
        assert np.all(np.abs(data.rows.mean(axis=0) - p.xi) < 3 * mean_se)
        cov = np.cov(data.rows, rowvar=False)
        cov_se = np.sqrt((np.outer(np.diag(omega), np.diag(omega)) + omega**2) / n)
        assert np.all(np.abs(cov - omega) < 3 * cov_se)

    def test_negative_fraction_matches_quadrature(self):
        n = 200_000
        data = sample(DirectParams.scalar(0.0, 1.0, 5.0), n, 11)
        p_neg = prob_negative(5.0)
        se = np.sqrt(p_neg * (1 - p_neg) / n)
        frac = float(np.mean(data.column() < 0))
        assert abs(frac - p_neg) < 3 * se

    def test_skew_t_distribution_function(self):
        params = DirectParams.scalar(0.0, 1.0, 3.0, nu=4.0)
        n = 10_000
        data = sample(params, n, 13)
        # independent CDF oracle: dense-grid quadrature of the density
        grid = np.concatenate([
            np.linspace(-150.0, -10.0, 300),
            np.linspace(-10.0, 20.0, 6001)[1:],
            np.geomspace(20.0, 500.0, 400)[1:],
        ])
        pdf = np.exp(st_logpdf(grid[:, None], params))
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (pdf[1:] + pdf[:-1]))])
        cdf /= cdf[-1]
        res = stats.kstest(data.column(), lambda x: np.interp(x, grid, cdf))
        assert res.pvalue > 0.01

    def test_deterministic_given_seed(self):
        p = DirectParams.scalar(0.0, 1.0, 2.0, nu=6.0)
        a = sample(p, 50, 99).rows
        b = sample(p, 50, 99).rows
        assert np.array_equal(a, b)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample(DirectParams.scalar(0, 1, 0), 0, 1)


def uncached_sample(params, n, seed):
    """Draws of ``sample`` with every factor derived from ``params`` on the call."""
    rng = np.random.default_rng(seed)
    omega_bar = params.omega_bar
    delta = (omega_bar @ params.alpha) / np.sqrt(1.0 + float(params.alpha @ omega_bar @ params.alpha))
    chol = np.linalg.cholesky(omega_bar - np.outer(delta, delta))
    z = np.abs(rng.standard_normal(n))[:, None] * delta + rng.standard_normal((n, params.d)) @ chol.T
    if params.is_skew_t:
        z = z / np.sqrt(rng.chisquare(params.nu, size=n) / params.nu)[:, None]
    return params.xi + z * params.omega_diag


DRAW_ARGS = {
    "sn1": dict(xi=[0.5], omega_mat=[[2.0]], alpha=[5.0]),
    "st1": dict(xi=[0.0], omega_mat=[[1.0]], alpha=[3.0], nu=4.0),
    "sn2": dict(xi=[0.0, 1.0], omega_mat=[[1.0, 0.5], [0.5, 2.0]], alpha=[3.0, -1.0]),
    "st3": dict(xi=[0.0, 1.0, -1.0], omega_mat=np.eye(3) + 0.3, alpha=[2.0, -1.0, 0.5], nu=6.0),
}


class TestSampleFactors:
    """``sample`` keeps the factors it derives from the parameters on the first draw."""

    @pytest.mark.parametrize("key", sorted(DRAW_ARGS))
    def test_draws_are_bit_equal_before_and_after_the_cache_fills(self, key):
        p = DirectParams(**DRAW_ARGS[key])
        seed = np.random.SeedSequence(5, spawn_key=(40, 1))
        first = sample(p, 40, seed).rows
        assert "_draw_factors" in vars(p)
        assert np.array_equal(first, uncached_sample(p, 40, seed))
        assert np.array_equal(sample(p, 40, seed).rows, first)
        assert np.array_equal(sample(DirectParams(**DRAW_ARGS[key]), 40, seed).rows, first)

    def test_arrays_are_read_only_copies(self):
        xi, omega_mat, alpha = np.zeros(2), np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([3.0, -1.0])
        p = DirectParams(xi=xi, omega_mat=omega_mat, alpha=alpha)
        before = sample(p, 30, 8).rows
        xi[0], omega_mat[0, 0], alpha[0] = 9.0, 9.0, 9.0
        assert p.xi.tolist() == [0.0, 0.0] and p.alpha.tolist() == [3.0, -1.0]
        assert p.omega_mat.tolist() == [[1.0, 0.5], [0.5, 2.0]]
        assert np.array_equal(sample(p, 30, 8).rows, before)
        for name in ("xi", "omega_mat", "alpha"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[0] = 1.0

    @pytest.mark.parametrize("key", ["st1", "sn2"])
    def test_pickle_round_trip_draws_the_same(self, key):
        import pickle
        p = DirectParams(**DRAW_ARGS[key])
        drawn = sample(p, 30, 12).rows  # fills the cache before pickling
        back = pickle.loads(pickle.dumps(p))
        assert not any(getattr(back, name).flags.writeable for name in ("xi", "omega_mat", "alpha"))
        assert np.array_equal(sample(back, 30, 12).rows, drawn)


class TestScalarSummaries:
    def test_alpha_star_zero(self):
        p = DirectParams(xi=[0, 0], omega_mat=np.eye(2), alpha=[0, 0])
        assert alpha_star(p) == 0.0

    def test_alpha_star_identical_components(self):
        for d in (2, 3, 5):
            p = DirectParams(xi=np.zeros(d), omega_mat=np.eye(d), alpha=np.full(d, 0.8))
            assert alpha_star(p) == pytest.approx(np.sqrt(d) * 0.8, rel=1e-13)

    def test_alpha_star_scalar(self):
        assert alpha_star(DirectParams.scalar(3.0, 2.0, -4.0)) == pytest.approx(4.0)

    @pytest.mark.parametrize("v", [1e-3, 0.3, 1.0, 1.7, 2.0, 3.0, 1e4])
    def test_alpha_star_is_abs_alpha_at_d1(self, v):
        # alpha*^2 is a * a at d = 1, and sqrt(a * a) is |a| bit for bit, also
        # when Omega = v is not the square of a double, as a fitted omega^2 is not
        for a in (-1e6, -123.456, -2.2, -0.1, 0.0, 1e-8, 0.7, 3.0, 5.123456789, 99.9, 1e5):
            for p in (DirectParams(xi=[0.4], omega_mat=[[v]], alpha=[a]),
                      DirectParams.scalar(0.4, v, a)):
                assert alpha_star(p) == abs(a)

    def test_delta(self):
        assert delta_of_alpha(0.0) == 0.0
        assert delta_of_alpha(1.0) == pytest.approx(1 / np.sqrt(2))
        assert delta_of_alpha(1e8) == pytest.approx(1.0, abs=1e-15)
        assert delta_of_alpha(-2.0) == -delta_of_alpha(2.0)

    def test_gamma1(self):
        assert skewness_gamma1(0.0) == 0.0
        assert skewness_gamma1(6.256) == pytest.approx(0.899, abs=5e-4)
        assert skewness_gamma1(np.inf) == pytest.approx(0.99527, abs=5e-5)
        assert skewness_gamma1(-np.inf) == pytest.approx(-0.99527, abs=5e-5)
        assert skewness_gamma1(-3.0) == -skewness_gamma1(3.0)
        assert abs(skewness_gamma1(50.0)) < HALF_NORMAL_GAMMA1


class TestProbDivergent:
    def test_reference_values(self):
        assert prob_divergent_mle(25, 5.0) == pytest.approx(0.197, abs=5e-4)
        assert prob_divergent_mle(50, 5.0) == pytest.approx(0.039, abs=5e-4)

    def test_symmetric_shape(self):
        assert prob_divergent_mle(17, 3.0) == pytest.approx(prob_divergent_mle(17, -3.0))

    def test_zero_shape(self):
        for n in (1, 5, 20):
            assert prob_divergent_mle(n, 0.0) == pytest.approx(2.0 * 0.5**n, rel=1e-13)

    def test_decreasing_in_n(self):
        vals = [prob_divergent_mle(n, 4.0) for n in (5, 10, 25, 50, 100)]
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("n,alpha", [(10, 2.0), (25, 5.0)])
    def test_matches_brute_force_frequency(self, n, alpha):
        reps = 10_000
        rng = np.random.default_rng(314)
        d = alpha / np.sqrt(1 + alpha * alpha)
        z = d * np.abs(rng.standard_normal((reps, n))) \
            + np.sqrt(1 - d * d) * rng.standard_normal((reps, n))
        same_sign = np.mean(np.all(z > 0, axis=1) | np.all(z < 0, axis=1))
        p = prob_divergent_mle(n, alpha)
        assert abs(same_sign - p) < 3 * np.sqrt(p * (1 - p) / reps)

    def test_prob_negative_sign_convention(self):
        # right-skewed variables put less than half their mass below zero
        assert prob_negative(5.0) < 0.5
        assert prob_negative(0.0) == 0.5
        for alpha in (5.0, -5.0, 0.3):
            # oracle: quadrature of the SN(0, 1, alpha) density over (-inf, 0)
            mass, _ = integrate.quad(
                lambda u: np.exp(sn_logpdf(-u, DirectParams.scalar(0.0, 1.0, alpha))),
                0.0, np.inf, epsabs=1e-12, limit=200)
            assert prob_negative(alpha) == pytest.approx(mass, abs=1e-10)


class TestCanonicalTransform:
    def test_axis_aligned_is_identity_up_to_sign(self):
        p = DirectParams(xi=[0, 0], omega_mat=np.eye(2), alpha=[2.5, 0.0])
        data = Dataset(rows=np.array([[1.0, 2.0], [0.5, -0.25]]))
        out, a_star = canonical_transform(data, p)
        assert a_star == pytest.approx(2.5)
        assert np.allclose(np.abs(out.rows), np.abs(data.rows), atol=1e-12)
        assert np.allclose(out.rows[:, 0], data.rows[:, 0], atol=1e-12)

    def test_identical_components_alpha_star(self):
        a0 = 1.1
        p = DirectParams(xi=np.zeros(3), omega_mat=np.eye(3), alpha=np.full(3, a0))
        data = Dataset(rows=np.zeros((2, 3)) + 0.5)
        _, a_star = canonical_transform(data, p)
        assert a_star == pytest.approx(np.sqrt(3) * a0, rel=1e-13)

    def test_rotation_orthogonal_and_unit_variance_directions(self):
        omega_bar = np.array([[1.0, 0.4, -0.2], [0.4, 1.0, 0.1], [-0.2, 0.1, 1.0]])
        alpha = np.array([1.0, -2.0, 0.5])
        basis = canonical_matrix(omega_bar, alpha)
        p = basis.rotation
        assert np.allclose(p.T @ p, np.eye(3), atol=1e-12)
        m = basis.transform  # columns are the new coordinate directions
        assert np.allclose(m.T @ omega_bar @ m, np.eye(3), atol=1e-12)

    def test_sampling_law_after_transform(self):
        omega_bar = np.array([[1.0, 0.5], [0.5, 1.0]])
        alpha = np.array([2.0, 1.0])
        p = DirectParams(xi=[0.0, 0.0], omega_mat=omega_bar, alpha=alpha)
        n = 100_000
        data = sample(p, n, 21)
        out, a_star = canonical_transform(data, p)
        z2 = out.rows[:, 1]
        assert abs(stats.skew(z2)) < 3 * np.sqrt(6.0 / n)
        assert abs(z2.var() - 1.0) < 3 * np.sqrt(2.0 / n) * 1.5
        z1 = out.rows[:, 0]
        g1_expected = skewness_gamma1(a_star)
        assert abs(stats.skew(z1) - g1_expected) < 4 * np.sqrt(6.0 / n)

    def test_rejects_zero_alpha(self):
        p = DirectParams(xi=[0, 0], omega_mat=np.eye(2), alpha=[0.0, 0.0])
        with pytest.raises(ValueError):
            canonical_transform(Dataset(rows=np.zeros((1, 2)) + 1.0), p)

    def test_scalar_case_identity(self):
        p = DirectParams.scalar(1.0, 2.0, 3.0)
        data = Dataset(rows=np.array([[3.0], [5.0]]))
        out, a_star = canonical_transform(data, p)
        assert a_star == pytest.approx(3.0)
        assert np.allclose(out.rows[:, 0], (data.rows[:, 0] - 1.0) / 2.0)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        rows = np.array([[1.5, -2.0], [0.25, 3.75]])
        path = tmp_path / "data.csv"
        Dataset(rows=rows).to_csv(path)
        back = Dataset.from_csv(path)
        assert np.array_equal(back.rows, rows)

    def test_header_skipped(self):
        data = Dataset.from_csv(io.StringIO("x,y\n1.0,2.0\n3.0,4.0\n"))
        assert data.n == 2 and data.d == 2

    def test_malformed_row_reports_line(self):
        with pytest.raises(ValueError, match="row 3"):
            Dataset.from_csv(io.StringIO("1.0\n2.0\nbogus\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 2"):
            Dataset.from_csv(io.StringIO("1.0,2.0\n3.0\n"))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(rows=np.array([[np.nan]]))
