import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import model_zoo as mz
from h2h2 import surface_calculus as sc
from h2h2.report import sobol_points


def domain_samples(surface, n, seed=0):
    return sobol_points(surface.domain, n, seed)


def counted_chart(surface):
    """The surface with a chart that counts its evaluations in ``calls``."""
    calls = []

    def chart(u):
        calls.append(u)
        return surface.chart(u)

    return sc.Hypersurface(chart=chart, domain=surface.domain, name=surface.name), calls


@pytest.fixture(scope="session")
def m_gamma_geodesic():
    return mz.make_M_Gamma(0.0)


@pytest.fixture(scope="session")
def m_gamma_2():
    return mz.make_M_Gamma(2.0)


@pytest.fixture(scope="session")
def m_1m1_half():
    return mz.make_M_1m1(0.5)


@pytest.fixture(scope="session")
def m_1m1_04():
    return mz.make_M_1m1(0.4)


@pytest.fixture(scope="session")
def m_11_half():
    return mz.make_M_11(0.5)


@pytest.fixture(scope="session")
def m_11_03():
    return mz.make_M_11(0.3)


@pytest.fixture(scope="session")
def m_tau_m2():
    return mz.make_M_tau(-2.0)


@pytest.fixture(scope="session")
def m_kk_tanh():
    return mz.make_M_kk(0.5, ad.tanh, 1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def level_set():
    """The level set cosh(r_p) cosh(r_q) = 3, r_p and r_q the distances of p and q from (1,0,0).

    Unlike the model zoo, its product angle C varies from point to point and
    its chart's normal is not unit, so dC, dV and the normalization of the
    normal enter every exact derivative.  The normal is the gradient of
    <p,e><q,e> (e = (1,0,0)) projected onto T(H² x H²).
    """
    k = 3.0

    def chart(u):
        r, phi, psi = u
        ch = k / ad.cosh(r)
        sh = ad.sqrt(ch * ch - 1.0)
        p = [ad.cosh(r), ad.sinh(r) * ad.cos(phi), ad.sinh(r) * ad.sin(phi)]
        q = [ch, sh * ad.cos(psi), sh * ad.sin(psi)]
        e = (1.0, 0.0, 0.0)
        n = ([-q[0] * (e[i] - p[0] * p[i]) for i in range(3)]
             + [-p[0] * (e[i] - q[0] * q[i]) for i in range(3)])
        return p, q, n

    return sc.Hypersurface(chart=chart, domain=((0.3, 1.0), (0.2, 1.8), (0.2, 1.8)),
                           name="level_set")
