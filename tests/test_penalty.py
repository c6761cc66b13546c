import numpy as np
import pytest
from scipy import integrate

from penskew.estimators import sn_m_exact
from penskew.penalty import (
    EULER_GAMMA,
    LineFitResult,
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
from penskew.specfun import t_pdf, zeta1


def a_p_direct(p, alpha):
    """Independent oracle: E{Z^p zeta1(alpha Z)^2} straight from the density."""
    from scipy.special import ndtr

    def integrand(z):
        return z**p * zeta1(alpha * z) ** 2 \
            * 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) * ndtr(alpha * z)
    val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
    return val


class TestQValue:
    def test_zero_at_origin(self):
        assert q_value(sn_coeffs(), 0.0) == 0.0

    def test_direct_substitution(self):
        c = sn_coeffs()
        assert q_value(c, 1.0) == pytest.approx(c.c1 * np.log(1 + c.c2), rel=1e-14)

    def test_monotone(self):
        for coeffs in (sn_coeffs(), PenaltyCoeffs(0.3, 2.0)):
            assert q_value(coeffs, 4.0) > q_value(coeffs, 1.0) > 0.0

    def test_unbounded(self):
        # logarithmic but unbounded growth along any shape ray
        for coeffs in (sn_coeffs(), st_coeffs(2.0, "approx")):
            assert q_value(coeffs, 1e12) > 2.0 * q_value(coeffs, 1e3) > 0.0

    def test_scalar_form_identity(self):
        c = PenaltyCoeffs(0.7, 1.9)
        for a in (0.0, 0.3, 2.0, -5.0):
            assert q_value(c, a * a) == pytest.approx(0.7 * np.log(1 + 1.9 * a * a), rel=1e-15)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            q_value(sn_coeffs(), -1.0)


class TestQPrime:
    def test_zero_at_origin(self):
        assert q_prime(sn_coeffs(), 0.0) == 0.0

    def test_sign(self):
        c = sn_coeffs()
        for a in (0.1, 1.0, 17.0):
            assert q_prime(c, a) * a > 0
            assert q_prime(c, -a) * (-a) > 0

    def test_vanishes_at_infinity(self):
        assert abs(q_prime(sn_coeffs(), 1e9)) < 1e-8

    def test_matches_finite_differences(self, rng):
        c = sn_coeffs()
        h = 1e-6
        for a in rng.uniform(-8, 8, size=20):
            fd = (q_value(c, (a + h) ** 2) - q_value(c, (a - h) ** 2)) / (2 * h)
            assert q_prime(c, a) == pytest.approx(fd, abs=1e-7)


class TestSnCoeffs:
    def test_e1_exact(self):
        assert sn_e_coeffs()[0] == 1.0 / 3.0

    def test_e2_value(self):
        assert sn_e_coeffs()[1] == pytest.approx(0.2854166, abs=1e-5)

    def test_c1_c2_values(self):
        c = sn_coeffs()
        assert c.c1 == pytest.approx(0.875913, abs=1e-5)
        assert c.c2 == pytest.approx(0.856250, abs=1e-5)
        assert c.provenance == "SN_EXACT"

    def test_c1_c2_bits(self):
        # pinned bit for bit: a change to zeta1 that moves e2 moves every
        # shape-only and 3-parameter MPLE objective
        c = sn_coeffs()
        assert (c.c1.hex(), c.c2.hex()) == ("0x1.c0779f6e7119ep-1", "0x1.b6665e81eafe5p-1")
        assert sn_e_coeffs()[1] == 0.2854165882616437

    def test_moment_ratio_linearity(self):
        # a2/a4 at alpha^2 = 25 against the independent density-based oracle
        e1, e2 = sn_e_coeffs()
        ratio = a_p_direct(2, 5.0) / a_p_direct(4, 5.0)
        assert ratio == pytest.approx(e1 + e2 * 25.0, rel=0.02)

    @pytest.mark.xfail(
        strict=True,
        reason="the true gap between Q and the integrated correction grows to "
               "0.0415 at alpha=10 (adaptive-quadrature value, ~1% of Q); it "
               "already exceeds 0.02 at alpha=2; endpoint-matched coefficients "
               "trade mid-range fidelity for the exact limits")
    def test_penalty_matches_integrated_correction(self):
        # Q vs the trapezoid integral of -M on [0, 10]
        c = sn_coeffs()
        grid = np.linspace(0.0, 10.0, 401)
        m_vals = np.array([-sn_m_exact(a) for a in grid])
        integral = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (m_vals[1:] + m_vals[:-1]))])
        q_vals = np.array([q_value(c, a * a) for a in grid])
        assert np.max(np.abs(integral - q_vals)) < 0.02

    def test_penalty_tracks_integrated_correction_relatively(self):
        # measured worst case is 2.21% near alpha = 1.4
        c = sn_coeffs()
        grid = np.linspace(0.0, 10.0, 401)
        m_vals = np.array([-sn_m_exact(a) for a in grid])
        integral = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (m_vals[1:] + m_vals[:-1]))])
        q_vals = np.array([q_value(c, a * a) for a in grid])
        mask = grid >= 0.5
        rel = np.abs(integral[mask] - q_vals[mask]) / integral[mask]
        assert np.max(rel) < 0.023


class TestStCoeffs:
    def test_e1_at_nu_one(self):
        e1, _ = st_e_coeffs_exact(1.0)
        assert e1 == pytest.approx(1.0, rel=1e-14)

    def test_e2_limit_to_sn(self):
        _, e2nu = st_e_coeffs_exact(1e6)
        assert e2nu == pytest.approx(0.2854166, abs=1e-3)

    @pytest.mark.parametrize("nu", [0.5, 2.0, 10.0])
    def test_e1_closed_form_identity(self, nu):
        # b-ratio form of the same coefficient, evaluated independently
        def b(m):
            return 2.0 * t_pdf(0.0, m)
        closed = (1.0 / 3.0) * (b(nu + 1) / b(nu + 3)) ** 2 * ((nu + 2) / (nu + 1)) ** 3
        e1, _ = st_e_coeffs_exact(nu)
        assert e1 == pytest.approx(closed, abs=1e-10)

    def test_approx_limit(self):
        assert st_e2_approx(1e9) == pytest.approx(sn_e_coeffs()[1], abs=1e-8)

    def test_approx_at_nu_one(self):
        expected = sn_e_coeffs()[1] * (1.0 + 4.0 / (1.0 + EULER_GAMMA))
        assert st_e2_approx(1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("nu", [
        pytest.param(0.25, marks=pytest.mark.xfail(
            strict=True,
            reason="true relative gap at nu=0.25 is ~6.0% (checked against a "
                   "30-digit mpmath oracle); the 5% band holds from nu=0.5 up")),
        0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 250.0,
    ])
    def test_approx_within_five_percent(self, nu):
        _, exact = st_e_coeffs_exact(nu)
        assert abs(st_e2_approx(nu) - exact) / exact <= 0.05

    def test_coeff_modes(self):
        exact = st_coeffs(2.0, "exact")
        approx = st_coeffs(2.0, "approx")
        assert exact.provenance == "ST_EXACT" and approx.provenance == "ST_APPROX"
        assert exact.nu == approx.nu == 2.0
        assert exact.c1 == pytest.approx(approx.c1, rel=0.05)
        assert exact.c2 == pytest.approx(approx.c2, rel=0.05)

    def test_continuity_to_sn(self):
        big = st_coeffs(1e6, "exact")
        c = sn_coeffs()
        assert big.c1 == pytest.approx(c.c1, abs=1e-3)
        assert big.c2 == pytest.approx(c.c2, abs=1e-3)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            st_e_coeffs_exact(0.0)
        with pytest.raises(ValueError):
            st_e2_approx(-2.0)


@pytest.fixture(scope="module")
def fit() -> LineFitResult:
    return line_fit_check()


class TestLineFit:

    def test_intercept(self, fit):
        assert fit.intercept == pytest.approx(1.37, abs=0.05)

    def test_slope(self, fit):
        assert fit.slope == pytest.approx(-1.00, abs=0.05)

    def test_residuals(self, fit):
        assert fit.max_abs_residual < 0.1


class TestPenaltyCoeffsType:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PenaltyCoeffs(0.0, 1.0)
        with pytest.raises(ValueError):
            PenaltyCoeffs(1.0, -1.0)

    def test_st_requires_nu(self):
        with pytest.raises(ValueError):
            PenaltyCoeffs(1.0, 1.0, provenance="ST_EXACT")
