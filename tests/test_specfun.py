import numpy as np
import pytest
from scipy import integrate

from penskew.specfun import (
    QuadratureError,
    _check_nu,
    _gauss_hermite,
    expect_normal,
    expect_t,
    t_cdf,
    t_logcdf,
    t_logpdf,
    t_pdf,
    zeta0,
    zeta1,
    zeta1_t,
)

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


class TestZeta0:
    def test_at_zero(self):
        assert zeta0(0.0) == pytest.approx(np.log(2.0) + np.log(0.5), abs=1e-15)

    def test_right_limit(self):
        assert zeta0(40.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_left_tail_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        exact = float(mp.log(2 * mp.ncdf(-10)))
        assert zeta0(-10.0) == pytest.approx(exact, rel=1e-10)

    def test_no_underflow_deep_left(self):
        vals = zeta0(np.array([-20.0, -30.0, -40.0]))
        assert np.all(np.isfinite(vals))

    def test_monotone(self):
        x = np.linspace(-30, 30, 301)
        assert np.all(np.diff(zeta0(x)) >= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            zeta0(np.nan)
        with pytest.raises(ValueError):
            zeta0(np.inf)

    def test_nonfinite_message_is_bounded(self):
        with pytest.raises(ValueError, match=r"^x must be finite, got inf$"):
            zeta0(float("inf"))
        x = np.zeros((7, 200))
        x[3, 17] = -np.inf
        with pytest.raises(ValueError) as info:
            t_logcdf(x, 4.0)
        message = str(info.value)
        assert message == "x must be finite, got 1 non-finite of 1400 entries, the first -inf"
        assert len(message) < 100

    def test_derivative_matches_zeta1(self):
        # finite differences of zeta0 against zeta1 on [-8, 8]
        x = np.linspace(-8, 8, 81)
        h = 1e-6
        fd = (zeta0(x + h) - zeta0(x - h)) / (2 * h)
        assert np.allclose(fd, zeta1(x), atol=1e-6, rtol=1e-6)


class TestZeta1:
    def test_at_zero(self):
        assert zeta1(0.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-15)

    def test_right_tail(self):
        v = zeta1(30.0)
        assert 0.0 < v < 1e-100
        assert np.isfinite(v)

    def test_left_tail_asymptote(self):
        # Mills-ratio series: zeta1(-t) ~ t + 1/t - 2/t^3 + ...
        assert zeta1(-30.0) == pytest.approx(30.0 + 1.0 / 30.0, rel=1e-3)

    def test_positive_everywhere(self):
        assert np.all(zeta1(np.linspace(-37, 37, 149)) > 0)

    def test_against_mpmath(self):
        # the closed form sqrt(2/pi) / erfcx(-x / sqrt(2)) on [-40, 37]: about 1e-16
        # in the left tail, growing to about 1e-13 at x = 37 where the ratio is ~1e-298
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = np.linspace(-40.0, 37.0, 155)
        exact = np.array([float(mp.npdf(v) / mp.ncdf(v)) for v in x])
        np.testing.assert_allclose(zeta1(x), exact, rtol=3e-13, atol=0)
        left = x <= 0
        np.testing.assert_allclose(zeta1(x[left]), exact[left], rtol=1e-15, atol=0)
        assert zeta1(-40.0) == pytest.approx(float(mp.npdf(-40) / mp.ncdf(-40)), rel=1e-15)


class TestStudentT:
    def test_cdf_at_zero(self):
        assert t_cdf(0.0, 7.3) == pytest.approx(0.5, abs=1e-15)

    def test_cauchy_pdf(self):
        assert t_pdf(0.0, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)

    def test_cauchy_cdf(self):
        assert t_cdf(1.0, 1.0) == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.7, 2.0, 5.5])
    def test_pdf_normalized(self, nu):
        val, _ = integrate.quad(lambda x: t_pdf(x, nu), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_monotone(self):
        x = np.linspace(-40, 40, 401)
        assert np.all(np.diff(t_cdf(x, 3.3)) >= 0)

    def test_rejects_bad_nu(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                t_pdf(0.0, bad)
            with pytest.raises(ValueError):
                t_cdf(0.0, bad)

    def test_normal_limit(self):
        x = np.linspace(-5, 5, 41)
        norm = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        assert np.allclose(t_pdf(x, 1e6), norm, atol=1e-5)

    def test_logcdf_matches_cdf(self):
        x = np.linspace(-30, 5, 71)
        assert np.allclose(np.exp(t_logcdf(x, 2.5)), t_cdf(x, 2.5), rtol=1e-12)


class TestZeta1T:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 4.2, 50.0])
    def test_at_zero(self, nu):
        assert zeta1_t(0.0, nu) == pytest.approx(2.0 * t_pdf(0.0, nu), rel=1e-13)

    def test_deep_left_tail_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def t_cdf_mp(x, nu):
            z = nu / (nu + x * x)
            return mp.betainc(nu / 2, mp.mpf(1) / 2, 0, z, regularized=True) / 2

        def t_pdf_mp(x, nu):
            return (mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
                    * (1 + x * x / nu) ** (-(nu + 1) / 2))

        exact = float(t_pdf_mp(mp.mpf(-50), 2) / t_cdf_mp(mp.mpf(-50), 2))
        assert zeta1_t(-50.0, 2.0) == pytest.approx(exact, rel=1e-8)

    def test_normal_limit(self):
        for x in (-2.0, 0.0, 2.0):
            assert zeta1_t(x, 1e6) == pytest.approx(zeta1(x), rel=1e-4, abs=1e-4)

    def test_positive(self):
        assert np.all(zeta1_t(np.linspace(-60, 60, 121), 1.5) > 0)


class TestArrayNu:
    """An array nu broadcasts against x, each element bit-equal to its scalar call."""

    # mixed signs, signed zeros, and |x| far enough out for the algebraic-tail
    # fallback: at -1e120 for nu >= 3, and at -1e200, where x * x overflows
    X = np.array([-1e200, -1e120, -50.0, -2.5, -0.0, 0.0, 0.7, 3.0, 40.0, 1e120, 1e200])
    NU = np.array([[0.6], [3.0], [4.0], [5.0], [57.5]])

    @pytest.mark.parametrize("fn", [t_logcdf, zeta1_t])
    def test_equals_scalar_calls(self, fn):
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(self.X, self.NU)
            scalar = [[fn(x, nu) for x in self.X] for nu in self.NU[:, 0]]
        assert out.shape == (len(self.NU), len(self.X))
        assert np.array_equal(out, scalar, equal_nan=True)

    def test_fallback_is_reached(self):
        # the incomplete-beta tail underflows at -1e120 for nu >= 3; the
        # algebraic tail term keeps log T finite
        assert np.all(np.isfinite(t_logcdf(-1e120, self.NU[1:, 0])))

    @pytest.mark.parametrize("fn", [t_logcdf, zeta1_t])
    def test_broadcast_shape(self, fn):
        nu = self.NU[:, 0]
        assert fn(self.X[2:9, None], nu).shape == (7, len(nu))
        assert np.array_equal(fn(-2.5, nu), [fn(-2.5, v) for v in nu])
        assert np.array_equal(fn(self.X[2:7], nu), [fn(x, v) for x, v in zip(self.X[2:7], nu)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_any_bad_element(self, bad):
        nu = np.array([[2.0], [bad], [5.0]])
        with pytest.raises(ValueError, match="degrees of freedom must be positive"):
            _check_nu(nu)
        for fn in (t_logcdf, zeta1_t):
            with pytest.raises(ValueError):
                fn(np.zeros(4), nu)


class TestFarTail:
    """At |x| = 1e200, where x * x overflows, against 50-digit mpmath values."""

    NU = (0.6, 3.0, 57.5)

    @staticmethod
    def exact(x, nu):
        """(log t, log T, t / T) at ``x`` with ``nu`` degrees of freedom."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            x, nu = mp.mpf(x), mp.mpf(nu)
            log_t = (mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2) - mp.log(nu * mp.pi) / 2
                     - (nu + 1) / 2 * mp.log1p(x * x / nu))
            tail = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2
            log_cdf = mp.log(tail) if x < 0 else mp.log1p(-tail)
            return float(log_t), float(log_cdf), float(mp.exp(log_t - log_cdf))

    @pytest.mark.parametrize("x", [-1e200, 1e200])
    def test_scalar_and_array_nu(self, x):
        exact = np.array([self.exact(x, nu) for nu in self.NU])
        fns = (t_logpdf, t_logcdf, zeta1_t)
        with np.errstate(over="ignore"):
            got = np.array([[fn(x, nu) for fn in fns] for nu in self.NU])
            got_array = np.column_stack([fn(x, np.array(self.NU)) for fn in fns])
        assert np.array_equal(got_array, got)
        # log T(1e200; 0.6) is -3e-121: the incomplete-beta tail underflows to 0
        np.testing.assert_allclose(got[:, :2], exact[:, :2], rtol=1e-13, atol=1e-100)
        # t / T = exp(log t - log T): the difference of logs near -2.7e4 keeps ~1e-12
        np.testing.assert_allclose(got[:, 2], exact[:, 2], rtol=1e-10)


class TestGaussHermite:
    def test_gauss_hermite_unit_mass(self):
        nodes, weights = _gauss_hermite(64)
        assert len(nodes) == len(weights) == 64
        assert np.all(weights > 0)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-10)
        # cached and shared between callers, so not writable
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestExpectations:
    def test_normal_second_moment(self):
        assert expect_normal(lambda x: x * x) == pytest.approx(1.0, abs=1e-10)

    def test_normal_ladder_failure_reports_last_change(self):
        # |x| is not smooth at 0, so the Gauss-Hermite ladder never settles
        with pytest.raises(QuadratureError) as err:
            expect_normal(np.abs)
        assert err.value.value == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-2)
        assert err.value.achieved > 1e-9

    def test_t_second_moment(self):
        assert expect_t(lambda x: x * x, 5.0) == pytest.approx(5.0 / 3.0, abs=1e-7)

    def test_normal_moments_through_degree_ten(self):
        # E X^k = (k-1)!! for even k, 0 for odd k
        double_fact = {0: 1, 2: 1, 4: 3, 6: 15, 8: 105, 10: 945}
        for k in range(11):
            expected = double_fact.get(k, 0.0)
            assert expect_normal(lambda x, k=k: x**k) == pytest.approx(expected, abs=1e-10)

    def test_mills_moment_ratio(self):
        num = expect_normal(lambda x: x * x * zeta1(x))
        den = expect_normal(lambda x: x**4 * zeta1(x))
        assert num / den == pytest.approx(0.2854166, abs=1e-5)

    def test_t_expectation_heavy_tail(self):
        # integrand with algebraic tails at small nu still converges
        val = expect_t(lambda x: x * x * zeta1_t(x, 1.25), 1.25)
        assert np.isfinite(val) and val > 0
