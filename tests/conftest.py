import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import surface_calculus as sc
from h2h2.product_space import ETA6
from h2h2.report import sobol_points


def inner(w1, w2) -> float:
    """Block-Lorentz pairing of ambient 6-vectors."""
    return float(np.asarray(w1) @ ETA6 @ np.asarray(w2))


def domain_samples(surface, n, seed=0):
    return sobol_points(surface.domain, n, seed)


def as_matrices(entries) -> np.ndarray:
    """The parallel flow's nested 3x3 entries ``entries[i][j]``, each over a
    batch, broadcast against each other and stacked as matrices (..., 3, 3)."""
    cells = np.broadcast_arrays(*(x for row in entries for x in row))
    return np.stack(cells, axis=-1).reshape(cells[0].shape + (3, 3))


def scan_of(surface, points, l_grid):
    """The isoparametric scan of the surface's base points ``points``."""
    return pf.isoparametric_scan(sc.point_geometry(surface, points, order=2), l_grid)


def counted_chart(surface):
    """The surface with a chart that counts its evaluations in ``calls``."""
    calls = []

    def chart(u):
        calls.append(u)
        return surface.chart(u)

    return sc.Hypersurface(chart=chart, domain=surface.domain, name=surface.name), calls


def gauss_operator(pg, X, Y, Z):
    """R(X,Y)Z of the hypersurface by the Gauss equation: algebraic in the
    tangential operator T, the shape operator A and the metric."""
    TX, TY = pg.T_apply(X), pg.T_apply(Y)
    AX, AY = pg.shape_apply(X), pg.shape_apply(Y)
    return (-0.5 * (inner(Y, Z) * X - inner(X, Z) * Y + inner(TY, Z) * TX - inner(TX, Z) * TY)
            + inner(AY, Z) * AX - inner(AX, Z) * AY)


def sectional(pg, X, Y):
    """Sectional curvature of the tangent plane spanned by X and Y."""
    den = inner(X, X) * inner(Y, Y) - inner(X, Y) ** 2
    return inner(gauss_operator(pg, X, Y, Y), X) / den


@pytest.fixture(scope="session")
def m_gamma_geodesic():
    return mz.make_M_Gamma(0.0)


@pytest.fixture(scope="session")
def m_gamma_2():
    return mz.make_M_Gamma(2.0)


@pytest.fixture(scope="session")
def m_1m1_half():
    return mz.build_model(mz.ModelSpec("M_1m1", {"c": 0.5}))


@pytest.fixture(scope="session")
def m_1m1_04():
    return mz.build_model(mz.ModelSpec("M_1m1", {"c": 0.4}))


@pytest.fixture(scope="session")
def m_11_half():
    return mz.build_model(mz.ModelSpec("M_11", {"c": 0.5}))


@pytest.fixture(scope="session")
def m_11_03():
    return mz.build_model(mz.ModelSpec("M_11", {"c": 0.3}))


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
