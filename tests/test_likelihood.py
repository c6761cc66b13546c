import dataclasses

import numpy as np
import pytest
from scipy import special, stats

from penskew.distributions import (Dataset, DirectParams, alpha_star, sample, sn_logpdf,
                                   st_logpdf)
from penskew.estimators import fit_mle, profile_deviance
from penskew.likelihood import (
    ModelSpec,
    loglik,
    penalized_loglik,
    resolve_penalty,
    score_proportionality_check,
)
from penskew.penalty import q_value, sn_coeffs, st_coeffs
from penskew.specfun import t_logcdf, t_logpdf

from conftest import sn1_log_terms, sn_sample, st1_log_terms


def gaussian_loglik(y, mu, sigma):
    return float(np.sum(stats.norm.logpdf(y, mu, sigma)))


class TestLoglik:
    def test_gaussian_reduction(self, rng):
        y = rng.normal(size=40)
        spec = ModelSpec(family="sn", dimension=1)
        p = DirectParams.scalar(0.3, 1.2, 0.0)
        assert loglik(p, Dataset(y), spec) == pytest.approx(gaussian_loglik(y, 0.3, 1.2), rel=1e-13)

    def test_one_param_monotone_for_positive_sample(self):
        data = Dataset(np.abs(np.random.default_rng(5).normal(size=30)))
        spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
        grid = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0]
        vals = [loglik(DirectParams.scalar(0, 1, a), data, spec) for a in grid]
        assert np.all(np.diff(vals) > 0)

    def test_location_shift_invariance(self, rng):
        y = rng.normal(size=25)
        spec = ModelSpec(family="sn", dimension=1)
        c = 3.7
        a = loglik(DirectParams.scalar(0.4, 1.1, 2.0), Dataset(y), spec)
        b = loglik(DirectParams.scalar(0.4 + c, 1.1, 2.0), Dataset(y + c), spec)
        assert a == pytest.approx(b, rel=1e-13)

    def test_matches_logpdf_sum_multivariate(self):
        # one kernel per d: the log-likelihood is the densities' sum, bit for bit
        cases = [DirectParams(xi=[0.5, -1.0], omega_mat=[[2.0, 0.3], [0.3, 1.0]],
                              alpha=[1.0, -0.5]),
                 DirectParams.scalar(0.3, 1.4, -2.0), DirectParams.scalar(-1.1, 0.6, 4.0)]
        for case in cases:
            for nu, logpdf in ((None, sn_logpdf), (5.0, st_logpdf), (0.7, st_logpdf)):
                p = dataclasses.replace(case, nu=nu)
                spec = ModelSpec(family="sn" if nu is None else "st", dimension=p.d)
                for n, seed in ((1, 0), (50, 3), (333, 4)):
                    data = sample(p, n, seed)
                    assert loglik(p, data, spec) == float(np.sum(logpdf(data.rows, p)))

    @pytest.mark.parametrize("nu", [None, 4.5], ids=["sn", "st"])
    def test_d1_equals_the_scalar_kernel_call(self, nu):
        # the one-row stack keeps the bits of the scalar call on floats
        spec = ModelSpec(family="sn" if nu is None else "st")
        for n, seed in ((1, 0), (7, 1), (400, 2)):
            p = DirectParams.scalar(0.3, 1.4, -2.0, nu)
            y = sample(p, n, seed).column(0)
            xi, omega, alpha = float(p.xi[0]), p.omega, float(p.alpha[0])
            expected = (sn1_log_terms(y, xi, omega, alpha) if nu is None
                        else st1_log_terms(y, xi, omega, alpha, nu))
            assert loglik(p, Dataset(y), spec) == float(np.sum(expected))

    def test_validates_pinned_components(self):
        spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
        data = Dataset(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            loglik(DirectParams.scalar(0.5, 1.0, 1.0), data, spec)

    @pytest.mark.parametrize("key,pinned,params,message", [
        ("xi", 0.0, lambda eps: DirectParams.scalar(eps, 1.0, 1.0),
         r"params\.xi=\[2\.e-09\] violates pinned xi=0\.0"),
        ("omega", 1.0, lambda eps: DirectParams.scalar(0.0, 1.0 + eps, 1.0),
         r"params\.omega=1\.000000002 violates pinned omega=1\.0"),
        ("alpha", 1.0, lambda eps: DirectParams.scalar(0.0, 1.0, 1.0 + eps),
         r"params\.alpha=\[1\.\] violates pinned alpha=1\.0"),
        ("nu", 4.0, lambda eps: DirectParams.scalar(0.0, 1.0, 1.0, 4.0 + eps),
         r"params\.nu=4\.000000002 violates pinned nu=4\.0"),
    ], ids=["xi", "omega", "alpha", "nu"])
    def test_pinned_component_tolerance_and_message(self, key, pinned, params, message):
        # |difference| <= 1e-9 passes, 2e-9 is rejected with the component named
        family = "st" if key == "nu" else "sn"
        spec = ModelSpec(family=family, dimension=1, fixed={key: pinned})
        data = Dataset(np.array([0.1, 0.2]))
        loglik(params(5e-10), data, spec)
        with pytest.raises(ValueError, match=message):
            loglik(params(2e-9), data, spec)

    def test_skew_t_kernel_is_bit_equal_to_the_expression_it_replaced(self):
        xi, omega, alpha, nu = 0.2, 1.3, 1.5, 4.5
        for seed in range(5):
            y = sample(DirectParams.scalar(0.3, 1.4, 2.0, nu=nu), 100, seed).column(0)
            z = (y - xi) / omega
            log_t = (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
                     - 0.5 * np.log(nu * np.pi) - 0.5 * (nu + 1.0) * np.log1p(z * z / nu))
            assert np.array_equal(t_logpdf(z, nu), log_t)
            arg = alpha * z * np.sqrt((nu + 1.0) / (nu + z * z))
            old = float(np.sum(np.log(2.0) - np.log(omega) + log_t + t_logcdf(arg, nu + 1.0)))
            p = DirectParams.scalar(xi, omega, alpha, nu)
            assert loglik(p, Dataset(y), ModelSpec(family="st")) == old

    def test_skew_t_one_param_fast_path(self, rng):
        y = rng.standard_t(5, size=30)
        spec = ModelSpec(family="st", dimension=1, fixed={"xi": 0.0, "omega": 1.0, "nu": 5.0})
        p = DirectParams.scalar(0.0, 1.0, 1.5, nu=5.0)
        assert loglik(p, Dataset(y), spec) == float(np.sum(st_logpdf(y[:, None], p)))

    # log densities of ST(0, 1, 3, nu = 5) where z^2 overflows, by mpmath at 50 digits
    FAR_TAIL = {1e200: -2758.5494327645894, -1e200: -2767.2741807332120,
                1e160: -2205.9290104460185}

    @pytest.mark.parametrize("y", sorted(FAR_TAIL))
    def test_skew_t_far_tail(self, y):
        # the CDF argument alpha z sqrt((nu + 1) / (nu + z^2)) takes its limit
        # alpha sign(z) sqrt(nu + 1); evaluated as written it rounds to T(0)
        p = DirectParams.scalar(0.0, 1.0, 3.0, 5.0)
        with np.errstate(over="ignore"):
            values = loglik(p, Dataset([y]), ModelSpec(family="st")), st_logpdf(y, p)
        np.testing.assert_allclose(values, self.FAR_TAIL[y], rtol=1e-13, atol=0)

    # log densities of the bivariate ST(0, [[1, .5], [.5, 1]], (3, -1), nu = 5) where
    # the squared Mahalanobis distance qx overflows, by mpmath at 60 digits
    FAR_TAIL_D2 = {(1e200, 0.0): -3219.9939920255175, (-1e200, 0.0): -3229.0351705465561,
                   (1e160, -3e159): -2576.4227920163203, (0.0, 1e200): -3223.5747654535984,
                   (3e154, 1e154): -2485.3722719598864}

    def test_bivariate_skew_t_far_tail(self):
        p = DirectParams(xi=[0.0, 0.0], omega_mat=[[1.0, 0.5], [0.5, 1.0]], alpha=[3.0, -1.0],
                         nu=5.0)
        near = sample(p, 20, 3).rows
        x = np.vstack([list(self.FAR_TAIL_D2), near])
        with np.errstate(over="ignore"):
            values = st_logpdf(x, p)
            spec = ModelSpec(family="st", dimension=2)
            sums = [loglik(p, Dataset(np.array([row])), spec) for row in x[:5]]
        np.testing.assert_allclose(values[:5], list(self.FAR_TAIL_D2.values()), rtol=1e-13,
                                   atol=0)
        assert np.array_equal(sums, values[:5])
        # the rows whose qx is finite keep their bits
        assert np.array_equal(values[5:], st_logpdf(near, p))


class TestPenalizedLoglik:
    def test_equals_loglik_at_zero_shape(self, rng):
        y = rng.normal(size=30)
        spec = ModelSpec(family="sn", dimension=1)
        p = DirectParams.scalar(0.1, 1.0, 0.0)
        assert penalized_loglik(p, Dataset(y), spec) == loglik(p, Dataset(y), spec)

    def test_direct_substitution(self, rng):
        y = rng.normal(size=30)
        c = sn_coeffs()
        spec = ModelSpec(family="sn", dimension=1)
        p = DirectParams.scalar(0.0, 1.0, 3.0)
        expected = loglik(p, Dataset(y), spec) - c.c1 * np.log(1 + 9 * c.c2)
        assert penalized_loglik(p, Dataset(y), spec) == pytest.approx(expected, rel=1e-14)

    def test_penalty_gap_identity(self, rng):
        # l_p - l == -Q(alpha*^2) at random parameter points
        c = sn_coeffs()
        spec = ModelSpec(family="sn", dimension=2)
        data = sample(DirectParams(xi=[0, 0], omega_mat=np.eye(2), alpha=[1, 1]), 40, 8)
        for _ in range(10):
            p = DirectParams(xi=rng.normal(size=2),
                             omega_mat=np.diag(rng.uniform(0.5, 2.0, 2)),
                             alpha=rng.normal(size=2) * 3)
            gap = penalized_loglik(p, data, spec) - loglik(p, data, spec)
            assert gap == pytest.approx(-q_value(c, alpha_star(p) ** 2), abs=1e-11)

    def test_interior_maximum_for_positive_sample(self):
        data = Dataset(np.abs(np.random.default_rng(6).normal(size=25)))
        spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
        grid = np.geomspace(0.5, 1000.0, 60)
        plain = np.array([loglik(DirectParams.scalar(0, 1, a), data, spec) for a in grid])
        pen = np.array([penalized_loglik(DirectParams.scalar(0, 1, a), data, spec) for a in grid])
        # plain likelihood climbs into a float-flat plateau at the right edge
        assert plain.max() - plain[-1] < 1e-9
        assert plain[-1] > plain[0] + 1.0
        k = int(np.argmax(pen))
        assert 0 < k < len(grid) - 1               # penalized one peaks inside
        assert pen[k] > pen[-1] + 1.0

    def test_coefficients_follow_the_model(self, rng):
        # skew-t: exact at a pinned nu, closed-form approximate at params.nu when nu is free
        data = Dataset(rng.standard_t(5.0, size=40))
        p = DirectParams.scalar(0.1, 1.2, 2.5, nu=5.0)
        for spec, coeffs in ((ModelSpec(family="st", fixed={"nu": 5.0}), st_coeffs(5.0, "exact")),
                             (ModelSpec(family="st"), st_coeffs(5.0, "approx"))):
            assert resolve_penalty(spec, p.nu) == coeffs
            q = q_value(coeffs, alpha_star(p) ** 2)
            assert penalized_loglik(p, data, spec) == loglik(p, data, spec) - q
        with pytest.raises(ValueError, match="without nu"):
            resolve_penalty(ModelSpec(family="st"))


class TestAffineInvariance:
    def test_univariate(self, rng):
        y = rng.normal(size=35)
        spec = ModelSpec(family="sn", dimension=1)
        a, b = -2.0, 3.5
        p = DirectParams.scalar(0.2, 0.9, 2.5)
        p2 = DirectParams.scalar(a + b * 0.2, b * 0.9, 2.5)
        n = len(y)
        for fn in (loglik, penalized_loglik):
            lhs = fn(p2, Dataset(a + b * y), spec)
            rhs = fn(p, Dataset(y), spec) - n * np.log(b)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_bivariate_diagonal(self, rng):
        p = DirectParams(xi=[0.5, -0.5], omega_mat=[[1.5, 0.4], [0.4, 1.0]], alpha=[2.0, -1.0])
        data = sample(p, 30, 9)
        spec = ModelSpec(family="sn", dimension=2)
        shift = np.array([1.0, -2.0])
        scale = np.array([2.0, 0.5])
        omega2 = p.omega_mat * np.outer(scale, scale)
        p2 = DirectParams(xi=shift + scale * p.xi, omega_mat=omega2, alpha=p.alpha)
        data2 = Dataset(shift + scale * data.rows)
        log_jac = data.n * np.log(scale).sum()
        for fn in (loglik, penalized_loglik):
            assert fn(p2, data2, spec) == pytest.approx(fn(p, data, spec) - log_jac, rel=1e-12)


class TestOneParamScoreSign:
    def test_same_sign_derivative(self):
        data = Dataset(np.abs(np.random.default_rng(17).normal(size=20)))
        spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
        grid = np.linspace(0.5, 99.5, 100)
        h = 1e-5
        deriv = [(loglik(DirectParams.scalar(0, 1, a + h), data, spec)
                  - loglik(DirectParams.scalar(0, 1, a - h), data, spec)) / (2 * h)
                 for a in grid]
        assert np.all(np.asarray(deriv) > 0)


class TestProfileDeviance:
    def test_zero_at_mle(self):
        data = sn_sample(3.0, 80, seed=101)
        spec = ModelSpec(family="sn", dimension=1)
        mle = fit_mle(data, spec)
        assert not mle.diverged
        a_hat = float(mle.estimates.alpha[0])
        grid = np.unique(np.concatenate([np.linspace(a_hat - 2, a_hat + 2, 9), [a_hat]]))
        points = profile_deviance(grid, data, spec)
        dev = np.array([p.deviance for p in points])
        assert np.all(dev >= -1e-9)
        assert dev.min() < 1e-6

    def test_positive_sample_monotone_flattening(self):
        y = np.abs(np.random.default_rng(23).normal(size=50)) + 0.05
        data = Dataset(y)
        spec = ModelSpec(family="sn", dimension=1)
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0])
        points = profile_deviance(grid, data, spec)
        dev = np.array([p.deviance for p in points])
        assert np.all(np.diff(dev) < 1e-6)                       # decreasing throughout
        drops = -np.diff(dev)
        assert drops[-1] < 0.05 * drops.max()                    # flat at the right end

    def test_wilks_calibration_at_zero_shape(self):
        crit = stats.chi2(1).ppf(0.95)
        hits = 0
        reps = 200
        grid = np.linspace(-2.5, 2.5, 21)
        spec = ModelSpec(family="sn", dimension=1)
        for i in range(reps):
            y = np.random.default_rng(np.random.SeedSequence(404, spawn_key=(i,))).normal(size=60)
            points = profile_deviance(np.unique(np.concatenate([grid, [0.0]])), Dataset(y), spec)
            d0 = next(p.deviance for p in points if p.alpha == 0.0)
            hits += d0 < crit
        assert hits / reps >= 0.90

    @pytest.mark.parametrize("family, fixed, nu", [("sn", {}, None), ("st", {"nu": 4.0}, 4.0)])
    def test_points_are_the_pinned_alpha_fits(self, family, fixed, nu):
        spec = ModelSpec(family=family, dimension=1, fixed=fixed)
        data = sample(DirectParams.scalar(0.3, 1.4, 3.0, nu), 80, np.random.SeedSequence(505))
        for p in profile_deviance(np.linspace(-1.0, 8.0, 10), data, spec):
            pinned = ModelSpec(family=family, dimension=1, fixed={**fixed, "alpha": p.alpha})
            assert p.converged
            assert p.profile_loglik == pytest.approx(fit_mle(data, pinned).loglik_at_opt,
                                                     rel=0, abs=1e-9)

    def test_grid_order_does_not_move_the_deviances(self):
        # each point is warm-started from its predecessor, so the two orders
        # reach l* along different paths; D must not depend on the path
        data = sample(DirectParams.scalar(0.0, 1.0, 3.0), 80, np.random.SeedSequence(5))
        spec = ModelSpec(family="sn", dimension=1)
        grid = np.linspace(0.5, 8.0, 9)
        ascending = profile_deviance(grid, data, spec)
        descending = profile_deviance(grid[::-1], data, spec)[::-1]
        assert [p.alpha for p in descending] == grid.tolist()
        assert min(p.deviance for p in ascending) == pytest.approx(0.0178, abs=1e-4)
        assert [p.deviance for p in descending] == pytest.approx(
            [p.deviance for p in ascending], rel=0, abs=1e-9)

    @pytest.mark.parametrize("grid", [[0.5, 1.0, 1.5], [-3.0, -2.0, -1.0]])
    def test_grid_that_misses_the_mle(self, grid):
        # alpha_hat = 4.03 lies right of both grids, so no grid point is near D = 0
        data = sample(DirectParams.scalar(0.0, 1.0, 3.0), 80, np.random.SeedSequence(5))
        spec = ModelSpec(family="sn", dimension=1)
        l_hat = fit_mle(data, spec).loglik_at_opt
        points = profile_deviance(grid, data, spec)
        for p in points:
            assert p.deviance == pytest.approx(2.0 * (l_hat - p.profile_loglik), rel=0, abs=1e-9)
        assert min(p.deviance for p in points) > 3.0

    def test_rejects_pinned_nuisance(self):
        spec = ModelSpec(family="sn", dimension=1, fixed={"xi": 0.0, "omega": 1.0})
        with pytest.raises(ValueError):
            profile_deviance([0.0, 1.0], Dataset(np.array([0.1, -0.2, 0.3])), spec)


class TestScoreProportionality:
    def test_cosine_is_one_at_zero_shape(self, rng):
        for n in (1, 7, 200):
            data = Dataset(rng.normal(size=n) * 2 + 1)
            spec = ModelSpec(family="sn", dimension=1)
            assert score_proportionality_check(data, spec) == pytest.approx(1.0, abs=1e-6)

    def test_cosine_below_one_away_from_zero(self, rng):
        data = Dataset(rng.normal(size=100))
        spec = ModelSpec(family="sn", dimension=1, fixed={"alpha": 0.5})
        assert score_proportionality_check(data, spec) < 1.0 - 1e-6

    def test_rejects_multivariate(self):
        spec = ModelSpec(family="sn", dimension=2)
        with pytest.raises(ValueError):
            score_proportionality_check(Dataset(np.zeros((3, 2)) + 0.5), spec)


class TestModelSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            ModelSpec(family="cauchy")

    def test_rejects_unknown_fixed_key(self):
        with pytest.raises(ValueError):
            ModelSpec(family="sn", fixed={"sigma": 1.0})

    def test_rejects_nu_pin_for_sn(self):
        with pytest.raises(ValueError):
            ModelSpec(family="sn", fixed={"nu": 4.0})

    @pytest.mark.parametrize("family, fixed, message", [
        ("sn", {"xi": np.nan}, "pinned xi must be finite, got nan"),
        ("sn", {"xi": np.inf, "omega": 1.0}, "pinned xi must be finite, got inf"),
        ("sn", {"omega": np.nan}, "pinned omega must be finite, got nan"),
        ("sn", {"alpha": -np.inf}, "pinned alpha must be finite, got -inf"),
        ("st", {"nu": np.inf}, "pinned nu must be finite, got inf"),
        ("sn", {"xi": 0.0, "omega": 0.0}, "pinned omega must be positive, got 0.0"),
        ("sn", {"omega": -1.0}, "pinned omega must be positive, got -1.0"),
        ("st", {"nu": 0.0}, "pinned nu must be positive, got 0.0"),
        # it would bypass the shape-only model and its exact one-sign test
        ("sn", {"xi": 0.0, "omega_mat": [[1.0]]}, "pin 'omega' rather than 'omega_mat' for d = 1"),
    ], ids=["xi=nan", "xi=inf", "omega=nan", "alpha=-inf", "nu=inf", "omega=0", "omega=-1",
            "nu=0", "omega_mat-d1"])
    def test_rejects_a_bad_pinned_value(self, family, fixed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelSpec(family=family, fixed=fixed)

    def test_rejects_a_non_finite_pinned_matrix_entry(self):
        omega_mat = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="pinned omega_mat must be finite"):
            ModelSpec(dimension=2, fixed={"omega_mat": omega_mat})

    def test_one_param_detection(self):
        assert ModelSpec(family="sn", dimension=1, fixed={"xi": 0, "omega": 1}).is_one_param
        assert not ModelSpec(family="sn", dimension=1).is_one_param
        assert ModelSpec(family="st", dimension=1,
                         fixed={"xi": 0, "omega": 1, "nu": 3}).is_one_param
        assert not ModelSpec(family="st", dimension=1, fixed={"xi": 0, "omega": 1}).is_one_param
