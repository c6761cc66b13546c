import numpy as np
import pytest
from scipy import special

from penskew import DirectParams, sample
from penskew.specfun import t_logcdf, t_logpdf


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def sn_sample(alpha, n, seed, xi=0.0, omega=1.0):
    """Shortcut: a univariate skew-normal sample as a Dataset."""
    return sample(DirectParams.scalar(xi, omega, alpha), n, seed)


def seeded(base, *key):
    return np.random.SeedSequence(base, spawn_key=tuple(int(k) for k in key))


# The d = 1 log densities written out as the scalar formulas, apart from the
# package's kernel, as oracles for the likelihood, the densities and the fits.


def sn1_log_terms(y, xi, omega, alpha):
    """log of 2 phi(z) Phi(alpha z) / omega at each y, z = (y - xi) / omega."""
    z = (y - xi) / omega
    return (-0.5 * z * z - 0.5 * np.log(2.0 * np.pi) - np.log(omega)
            + np.log(2.0) + special.log_ndtr(alpha * z))


def st1_log_terms(y, xi, omega, alpha, nu):
    """log of 2 t(z; nu) T(alpha z sqrt((nu + 1) / (nu + z^2)); nu + 1) / omega at
    each y; where z^2 overflows, the CDF argument takes its limit
    alpha sign(z) sqrt(nu + 1)."""
    z = (y - xi) / omega
    z2 = z * z
    arg = alpha * z * np.sqrt((nu + 1.0) / (nu + z2))
    arg = np.where(np.isinf(z2), alpha * np.sign(z) * np.sqrt(nu + 1.0), arg)
    return np.log(2.0) - np.log(omega) + t_logpdf(z, nu) + t_logcdf(arg, nu + 1.0)
