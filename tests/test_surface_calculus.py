import dataclasses
import itertools
import math

import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import lorentz as lz
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import product_space as ps
from h2h2 import report as rp
from h2h2 import surface_calculus as sc

from conftest import counted_chart, domain_samples, gauss_operator, inner, sectional


def polar(rho, phi):
    return [ad.cosh(rho), ad.sinh(rho) * ad.cos(phi), ad.sinh(rho) * ad.sin(phi)]


def e_rho(rho, phi):
    """Unit radial direction d/drho of polar(rho, phi)."""
    return [ad.sinh(rho), ad.cosh(rho) * ad.cos(phi), ad.cosh(rho) * ad.sin(phi)]


@pytest.fixture(scope="module")
def graph_surface():
    # q lies at distance r_q(u1) = 0.8 + 0.3 sin u1 from the origin, so the
    # normal pairs -r_q'(u1) e_rho in the first factor with e_rho in the second
    def chart(u):
        u1, u2, u3 = u
        r_q = 0.8 + 0.3 * ad.sin(u1)
        n = [-0.3 * ad.cos(u1) * x for x in e_rho(u1, u2)] + e_rho(r_q, u3)
        return polar(u1, u2), polar(r_q, u3), n

    return sc.Hypersurface(chart=chart, domain=((0.4, 1.4), (0.2, 1.8), (0.2, 1.8)),
                           name="graph")


class TestChartJet:
    def test_jet_matches_finite_differences(self, m_11_03):
        surface, _ = m_11_03
        u = np.array([0.3, -0.5, 0.8])
        jet = sc.chart_jet(surface, u)
        h = 1e-5
        for m in range(3):
            e = np.zeros(3)
            e[m] = h
            fd = (surface.point(u + e) - surface.point(u - e)) / (2 * h)
            assert np.max(np.abs(jet.jac[:, m] - fd)) < 1e-8
            fdd = (surface.point(u + e) - 2 * jet.val + surface.point(u - e)) / h ** 2
            assert np.max(np.abs(jet.hess[:, m, m] - fdd)) < 1e-4

    def test_chart_evaluates_at_all_orders(self, m_11_03):
        # scalar and jet arguments give the same chart point and normal
        surface, _ = m_11_03
        u = np.array([0.3, -0.5, 0.8])
        p0, q0, n0 = surface.chart([float(x) for x in u])
        p, q, n = surface.chart(ad.jet_variables(u))
        for comp, want in zip((*p, *q, *n), (*p0, *q0, *n0)):
            assert isinstance(comp, ad.Jet)
            assert ad.value(comp) == pytest.approx(want, abs=1e-14)

    def test_third_derivatives_of_polynomial_chart(self):
        # components x^2 y z, y^3, x z^2 + z, and three constants; the
        # normal x y, z^2 and four constants rides in the same jet pass
        def chart(u):
            x, y, z = u
            return ([x * x * y * z, y ** 3, x * z * z + z], [1.0, 0.0, 0.0],
                    [x * y, z * z, 1.0, 0.0, 0.0, 0.0])

        surface = sc.Hypersurface(chart=chart, domain=((0, 1),) * 3, name="polynomial")
        x, y, z = 0.6, -1.1, 1.7
        jet = sc.chart_jet(surface, [x, y, z])
        want = np.zeros((6, 3, 3, 3))
        third = [{(0, 0, 1): 2 * z, (0, 0, 2): 2 * y, (0, 1, 2): 2 * x},
                 {(1, 1, 1): 6.0},
                 {(0, 2, 2): 2.0}]
        for comp, entries in enumerate(third):
            for idx, v in entries.items():
                for perm in itertools.permutations(idx):
                    want[(comp, *perm)] = v
        assert np.array_equal(jet.d3, want)
        assert np.array_equal(jet.n, [x * y, z * z, 1.0, 0.0, 0.0, 0.0])
        want_dn = np.zeros((6, 3))
        want_dn[0] = [y, x, 0.0]
        want_dn[1] = [0.0, 0.0, 2 * z]
        assert np.array_equal(jet.dn, want_dn)

    def test_m_tau_chart_derivatives_match_closed_form(self, m_tau_m2):
        # each M_tau component is a sum of separable terms c f1(u1) f2(u2) f3(u3),
        # so every partial derivative is a product of univariate derivatives
        surface, _ = m_tau_m2
        radius = mz.mtau_focal_radius(-2.0)
        a = math.cosh(radius / math.sqrt(2.0))
        b = math.sinh(radius / math.sqrt(2.0))   # sqrt(2) sinh(.) times the 1/sqrt(2) of v
        derivs = {"1": lambda t, m: 1.0 if m == 0 else 0.0,
                  "cosh": lambda t, m: math.cosh(t) if m % 2 == 0 else math.sinh(t),
                  "sinh": lambda t, m: math.sinh(t) if m % 2 == 0 else math.cosh(t),
                  "cos": lambda t, m: (math.cos(t), -math.sin(t), -math.cos(t), math.sin(t))[m % 4],
                  "sin": lambda t, m: (math.sin(t), math.cos(t), -math.sin(t), -math.cos(t))[m % 4]}
        p = [[(1.0, "cosh", "1", "1")],
             [(1.0, "sinh", "cos", "1")],
             [(1.0, "sinh", "sin", "1")]]
        v = [[(1.0, "sinh", "1", "cos")],
             [(1.0, "cosh", "cos", "cos"), (-1.0, "1", "sin", "sin")],
             [(1.0, "cosh", "sin", "cos"), (1.0, "1", "cos", "sin")]]
        # x = a p + b v and y = a p - b v
        comps = [[(a * c, *f) for c, *f in p[i]] + [(sign * b * c, *f) for c, *f in v[i]]
                 for sign in (1.0, -1.0) for i in range(3)]

        def partial(u, idx):
            counts = [idx.count(m) for m in range(3)]
            return np.array([sum(c * derivs[f1](u[0], counts[0]) * derivs[f2](u[1], counts[1])
                                 * derivs[f3](u[2], counts[2]) for c, f1, f2, f3 in terms)
                             for terms in comps])

        for u in domain_samples(surface, 4):
            jet = sc.chart_jet(surface, u)
            for order, got in ((1, jet.jac), (2, jet.hess), (3, jet.d3)):
                for idx in itertools.product(range(3), repeat=order):
                    want = partial(u, idx)
                    assert np.max(np.abs(got[(slice(None), *idx)] - want)) < 1e-12 * max(
                        1.0, float(np.max(np.abs(want))))

    def test_constraints_and_rank(self, m_tau_m2):
        surface, _ = m_tau_m2
        for u in domain_samples(surface, 16):
            pg = sc.point_geometry(surface, u)
            x = pg.val
            assert abs(x[:3] @ lz.ETA3 @ x[:3] + 1.0) < 1e-10
            assert abs(x[3:] @ lz.ETA3 @ x[3:] + 1.0) < 1e-10
            assert np.linalg.eigvalsh(pg.g)[0] > sc.RANK_SIGMA_MIN ** 2

    def test_rank_deficient_chart_raises(self):
        def chart(u):
            u1, u2, u3 = u
            return polar(u1, u2), polar(1.0, 0.5 + 0.0 * u3), [0.0] * 3 + e_rho(1.0, 0.5)

        bad = sc.Hypersurface(chart=chart, domain=((0.5, 1), (0.5, 1), (0.5, 1)))
        with pytest.raises(sc.ChartRankError):
            sc.point_geometry(bad, np.array([0.7, 0.7, 0.7]))


class TestPointGeometry:
    def test_invariants_on_zoo(self, m_1m1_04, m_tau_m2, m_kk_tanh):
        for surface, _ in (m_1m1_04, m_tau_m2, m_kk_tanh):
            for u in domain_samples(surface, 25):
                pg = sc.point_geometry(surface, u)
                assert np.all(np.linalg.eigvalsh(pg.g) > 0)
                assert abs(inner(pg.N, pg.N) - 1.0) < 1e-10
                assert np.max(np.abs(pg.jac.T @ ps.ETA6 @ pg.N)) < 1e-10
                assert -1.0 - 1e-12 <= pg.C <= 1.0 + 1e-12
                assert abs(inner(pg.V, pg.V) - (1 - pg.C ** 2)) < 1e-9
                assert pg.H == pytest.approx(np.trace(pg.A), abs=1e-9)
                assert pg.K == pytest.approx(np.linalg.det(pg.A), abs=1e-9)
                assert pg.rho == pytest.approx(-2 + pg.H ** 2 - pg.norm_A_sq, abs=1e-12)

    def test_m1m1_half_two_curvatures(self, m_1m1_half):
        surface, _ = m_1m1_half
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            assert np.max(np.abs(pg.lambdas - np.array([0, 1, 1]) / math.sqrt(2))) < 1e-8

    def test_m_gamma_geodesic_totally_geodesic(self, m_gamma_geodesic):
        surface, _ = m_gamma_geodesic
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            assert np.max(np.abs(pg.lambdas)) < 1e-10

    def test_product_angle_constant(self, m_kk_tanh):
        surface, oracle = m_kk_tanh
        for u in domain_samples(surface, 25):
            pg = sc.point_geometry(surface, u)
            assert abs(pg.C - oracle.C) < 1e-10

    def test_self_adjointness(self, m_11_03, rng):
        surface, _ = m_11_03
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            for _ in range(5):
                x = pg.from_coords(rng.normal(size=3))
                y = pg.from_coords(rng.normal(size=3))
                assert inner(pg.shape_apply(x), y) == pytest.approx(
                    inner(x, pg.shape_apply(y)), abs=1e-9)

    def test_minor_sum_identity(self, m_tau_m2):
        surface, _ = m_tau_m2
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            lam = pg.lambdas
            e2 = 2 * (lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2])
            assert abs(e2 - (pg.rho + 2)) < 1e-10


class TestNormalWithoutHint:
    """The nullspace normal, found from the chart's Jacobian without its normal."""

    def test_nullspace_normal(self, graph_surface):
        for u in domain_samples(graph_surface, 12, seed=3):
            pg = sc.point_geometry(graph_surface, u)
            assert abs(inner(pg.N, pg.N) - 1.0) < 1e-10
            assert np.max(np.abs(pg.jac.T @ ps.ETA6 @ pg.N)) < 1e-10
            # it agrees with the chart's own normal up to sign
            n_null = sc._normal_from_constraints(pg)
            assert min(np.max(np.abs(n_null - pg.N)), np.max(np.abs(n_null + pg.N))) < 1e-10


class TestAngleOperators:
    def test_product_angle_examples(self):
        # C = <PN, N> = <J1 N, J2 N> for a unit normal N
        base = np.array([1.0, 0, 0, 1.0, 0, 0])
        s = 1 / math.sqrt(2)
        for n, want in (([0.0, 1, 0, 0, 0, 0], 1.0), ([0.0, 0, 0, 0, 1, 0], -1.0),
                        ([0.0, s, 0, 0, 0, s], 0.0)):
            n = np.array(n)
            j1n, j2n = ps.complex_structures(base, n)
            assert inner(ps.P6 @ n, n) == pytest.approx(want, abs=1e-15)
            assert inner(j1n, j2n) == pytest.approx(want, abs=1e-15)

    def test_vector_v_degenerate(self, m_gamma_2):
        # V = PN - CN vanishes where C^2 = 1
        surface, _ = m_gamma_2
        pgs = sc.point_geometry(surface, domain_samples(surface, 10))
        assert np.max(np.abs(pgs.V)) < 1e-15

    def test_vector_v_on_m_tau(self, m_tau_m2):
        surface, _ = m_tau_m2
        tau = -2.0
        u = np.array([0.8, 1.3, 2.5])
        pg = sc.point_geometry(surface, u)
        p, q = pg.val[:3], pg.val[3:]
        expected = np.concatenate([q + tau * p, -p - tau * q]) / math.sqrt(
            2 * (tau ** 2 - 1))
        assert np.max(np.abs(pg.V - expected)) < 1e-12

    def test_pv_two_ways(self, rng, m_11_03):
        surface, _ = m_11_03
        for u in domain_samples(surface, 5):
            pg = sc.point_geometry(surface, u)
            pv = ps.P6 @ pg.V
            other = pg.N - pg.C * (ps.P6 @ pg.N)
            assert np.max(np.abs(pv - other)) < 1e-12


class TestTangentialT:
    def test_tv_inner_product(self, m_11_03):
        surface, _ = m_11_03
        for u in domain_samples(surface, 8):
            pg = sc.point_geometry(surface, u)
            tv = pg.T_apply(pg.V)
            want = -pg.C * (1 - pg.C ** 2)
            assert inner(tv, pg.V) == pytest.approx(want, abs=1e-10)
            # TV = -CV as an algebraic consequence of P^2 = Id
            assert np.max(np.abs(tv + pg.C * pg.V)) < 1e-10

    def test_fixed_vector(self, m_1m1_04):
        # the first-factor curve direction satisfies PX = X and X _|_ V
        surface, _ = m_1m1_04
        u = np.array([0.2, 0.5, -0.7])
        pg = sc.point_geometry(surface, u)
        # d/dr of the chart moves only the first factor, along the curve
        x = pg.jac[:, 1]
        assert np.max(np.abs(x[3:])) == 0.0
        assert abs(inner(x, pg.V)) < 1e-12
        tx = pg.T_apply(x)
        assert np.max(np.abs(tx - ps.P6 @ x)) < 1e-12

    def test_trace_is_minus_C(self, m_11_03, m_tau_m2):
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 6):
                pg = sc.point_geometry(surface, u)
                tr = sum(inner(pg.T_apply(pg.principal_ambient[:, i]),
                                          pg.principal_ambient[:, i]) for i in range(3))
                assert tr == pytest.approx(-pg.C, abs=1e-10)


def structural(surface, u):
    return sc.structural_residuals(sc.point_geometry(surface, u))


class TestAngleDerivativeIdentities:
    def test_residuals_small(self, m_11_03, m_tau_m2):
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 6):
                r = structural(surface, u)
                assert r.grad_C < 1e-10
                assert r.V_derivative < 1e-10

    def test_degenerate_family(self, m_gamma_2):
        surface, _ = m_gamma_2
        r = structural(surface, np.array([0.3, 0.9, 1.2]))
        assert r.grad_C < 1e-10   # C constant and AV = 0
        assert r.V_derivative < 1e-10


class TestGaussCodazzi:
    def test_residuals(self, m_1m1_half):
        surface, _ = m_1m1_half
        for u in domain_samples(surface, 6):
            r = structural(surface, u)
            assert r.gauss < 1e-8
            assert r.codazzi < 1e-10

    def test_geodesic_product(self, m_gamma_geodesic):
        surface, _ = m_gamma_geodesic
        r = structural(surface, np.array([0.4, 0.8, 1.9]))
        assert r.gauss < 1e-8
        assert r.codazzi < 1e-10



def richardson(fn, u, m, h=1e-3):
    """Richardson-refined central difference of fn along the chart axis m."""
    e = np.zeros(3)
    e[m] = 1.0

    def diff(hh):
        return (fn(u + hh * e) - fn(u - hh * e)) / (2.0 * hh)

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


class TestExactDerivatives:
    def test_point_derivatives_match_differences(self, m_kk_tanh, m_tau_m2, level_set):
        for surface in (m_kk_tanh[0], m_tau_m2[0], level_set):
            for u in domain_samples(surface, 3):
                pg = sc.point_geometry(surface, u)
                d = sc.point_derivatives(pg)
                fields = {"dN": lambda x: sc.point_geometry(surface, x).N,
                          "dV": lambda x: sc.point_geometry(surface, x).V,
                          "dC": lambda x: sc.point_geometry(surface, x).C,
                          "dg": lambda x: sc.point_geometry(surface, x).g,
                          "dA": lambda x: sc.point_geometry(surface, x).A}
                for name, fn in fields.items():
                    exact = getattr(d, name)
                    for m in range(3):
                        got = exact[..., m] if name in ("dN", "dV") else exact[m]
                        ref = richardson(fn, u, m)
                        scale = max(1.0, np.max(np.abs(ref)))
                        assert np.max(np.abs(got - ref)) < 1e-7 * scale, name

    def test_structural_equations_on_a_varying_angle(self, level_set):
        # C varies here, so grad C = -2AV and nabla V = CA - TA compare
        # nonzero sides, unlike on the constant-angle model zoo
        for u in domain_samples(level_set, 6):
            pg = sc.point_geometry(level_set, u)
            assert np.max(np.abs(sc.point_derivatives(pg).dC)) > 0.5
            r = sc.structural_residuals(pg)
            assert max(r.grad_C, r.V_derivative, r.codazzi) < 1e-10
            assert r.gauss < 1e-8

    def test_no_other_point_is_evaluated(self, m_1m1_half, monkeypatch):
        surface, _ = m_1m1_half
        pg = sc.point_geometry(surface, np.array([0.2, -0.3, 0.5]))
        calls = {"point_geometry": 0, "chart_jet": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sc, "point_geometry", counted("point_geometry", sc.point_geometry))
        monkeypatch.setattr(sc, "chart_jet", counted("chart_jet", sc.chart_jet))
        sc.structural_residuals(pg)
        assert calls == {"point_geometry": 0, "chart_jet": 0}


class TestOneChartPass:
    @pytest.mark.parametrize("spec", [mz.ModelSpec("M_Gamma", {"kappa_gamma": 0.5}),
                                      mz.ModelSpec("M_1m1", {"c": 0.4}),
                                      mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh",
                                                            "kappa_tilde": "one"}),
                                      mz.ModelSpec("M_tau", {"tau": -2.0})])
    def test_one_chart_evaluation_per_point(self, spec):
        surface, calls = counted_chart(mz.build_model(spec)[0])
        for k, u in enumerate(domain_samples(surface, 4), start=1):
            pg = sc.point_geometry(surface, u)
            assert len(calls) == k
            assert all(isinstance(x, ad.Jet) for x in calls[-1])
            sc.point_derivatives(pg)
            sc.structural_residuals(pg)
            assert len(calls) == k


class TestRicciSectional:
    def test_ricci_trace_is_scalar_curvature(self, m_11_03, m_tau_m2):
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 6):
                pg = sc.point_geometry(surface, u)
                # Ric(e_i, e_i) = sum_j <R(e_i, e_j) e_j, e_i> in the principal frame
                e = pg.principal_ambient.T
                tr = sum(inner(gauss_operator(pg, e[i], e[j], e[j]), e[i])
                         for i in range(3) for j in range(3))
                assert tr == pytest.approx(pg.rho, abs=1e-9)

    def test_minimal_constant_sectional_model(self, m_11_half, rng):
        surface, _ = m_11_half
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            assert abs(pg.H) < 1e-9
            for _ in range(5):
                x = pg.from_coords(rng.normal(size=3))
                y = pg.from_coords(rng.normal(size=3))
                assert sectional(pg, x, y) == pytest.approx(-0.5, abs=1e-6)


class TestAmbientCurvatureConsistency:
    def test_gauss_operator_against_ambient_tensor(self, m_11_03, m_tau_m2, rng):
        # <R(X,Y)Z, W> = Rbar(X,Y,Z,W) + <AX,W><AY,Z> - <AX,Z><AY,W> ties the
        # hypersurface operator to the ambient curvature tensor directly

        def ambient_curvature(x, y, z, w):
            # Rbar(X,Y,Z,W) = -1/2 {<Y,Z><X,W> - <X,Z><Y,W> + <PY,Z><PX,W> - <PX,Z><PY,W>}
            px, py = ps.P6 @ x, ps.P6 @ y
            return -0.5 * (inner(y, z) * inner(x, w) - inner(x, z) * inner(y, w)
                           + inner(py, z) * inner(px, w) - inner(px, z) * inner(py, w))

        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 4):
                pg = sc.point_geometry(surface, u)
                x, y, z, w = (pg.from_coords(rng.normal(size=3)) for _ in range(4))
                lhs = inner(gauss_operator(pg, x, y, z), w)
                ax, ay = pg.shape_apply(x), pg.shape_apply(y)
                rhs = (ambient_curvature(x, y, z, w)
                       + inner(ax, w) * inner(ay, z)
                       - inner(ax, z) * inner(ay, w))
                assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


class TestChartIndependence:
    def test_overlapping_charts_agree(self, m_kk_tanh):
        surface, _ = m_kk_tanh

        def warp(u):
            return [u[0] + 0.1 * ad.sin(u[1]), u[1], u[2] - 0.2 * u[0]]

        def warp_floats(u):
            return [float(u[0]) + 0.1 * math.sin(float(u[1])), float(u[1]),
                    float(u[2]) - 0.2 * float(u[0])]

        reparam = sc.Hypersurface(
            chart=lambda u: surface.chart(warp(u)),
            domain=surface.domain,
            name="reparametrized")

        for u in domain_samples(surface, 8, seed=5):
            u = 0.5 * u    # stay inside the warped domain
            pg1 = sc.point_geometry(reparam, u)
            pg2 = sc.point_geometry(surface, warp_floats(u))
            assert np.max(np.abs(pg1.val - pg2.val)) < 1e-12
            assert abs(pg1.C - pg2.C) < 1e-8
            assert np.max(np.abs(pg1.lambdas - pg2.lambdas)) < 1e-8


CATALOG_NAMES = [spec.kind + str(sorted(spec.params.items())) for spec in mz.CATALOG]
BATCH_SURFACES = CATALOG_NAMES + ["M_kk tanh/one", "level_set", "graph",
                                  "parallel M_tau(-2) l=0.25"]
STRUCTURAL_SURFACES = CATALOG_NAMES + ["M_kk tanh/one", "M_tau(-1.0001)", "level_set", "graph"]


@pytest.fixture(scope="module")
def batch_surface(request, level_set, graph_surface):
    name = request.param
    for spec in mz.CATALOG:
        if name == spec.kind + str(sorted(spec.params.items())):
            return mz.build_model(spec)[0]
    return {"M_kk tanh/one": lambda: mz.make_M_kk(0.5, ad.tanh, 1.0)[0],
            "level_set": lambda: level_set,
            "graph": lambda: graph_surface,
            "M_tau(-1.0001)": lambda: mz.make_M_tau(-1.0001)[0],
            "parallel M_tau(-2) l=0.25":
                lambda: pf.parallel_surface(mz.make_M_tau(-2.0)[0], 0.25)}[name]()


def _shifted_normal(base, shift):
    """base with the normal n + shift(u) (0, e_rho(rho, phi)) of an M_Gamma chart
    (r, rho, phi): orthogonal to the tangent d/drho only where shift(u) = 0."""
    def chart(u):
        p, q, n = base.chart(u)
        w = shift(u)
        return p, q, list(n[:3]) + [n[3 + i] + w * e for i, e in enumerate(e_rho(u[1], u[2]))]

    return sc.Hypersurface(chart=chart, domain=base.domain, name="shifted normal")


class TestBatchedJets:
    @pytest.mark.parametrize("batch_surface", BATCH_SURFACES, indirect=True)
    def test_batch_rows_equal_single_points_bitwise(self, batch_surface):
        U = domain_samples(batch_surface, 12, seed=2)
        jet = sc.chart_jet(batch_surface, U)
        pgs = sc.point_geometry(batch_surface, U)
        assert len(pgs) == len(U)
        for i, u in enumerate(U):
            single = sc.chart_jet(batch_surface, u)
            for name in ("u", "val", "jac", "hess", "d3", "n", "dn"):
                assert np.array_equal(getattr(jet, name)[i], getattr(single, name)), name
            pg = sc.point_geometry(batch_surface, u)
            for f in dataclasses.fields(sc.PointGeometry):
                got, want = getattr(pgs[i], f.name), getattr(pg, f.name)
                assert type(got) is type(want), f.name
                assert np.array_equal(got, want), f.name

    @pytest.mark.parametrize("batch_surface", STRUCTURAL_SURFACES, indirect=True)
    def test_batched_checks_equal_single_points_bitwise(self, batch_surface):
        # the structural equations, the exact derivatives, the nullspace
        # normal and AV judged on a batch give each row's one-point values
        U = domain_samples(batch_surface, 64, seed=4)
        pgs = sc.point_geometry(batch_surface, U)
        res = sc.structural_residuals(pgs)
        deriv = sc.point_derivatives(pgs)
        gam = sc.christoffels(pgs)
        normal = sc._normal_from_constraints(pgs)
        av = pgs.shape_apply(pgs.V)
        for i, pg in enumerate(pgs):
            one = sc.structural_residuals(pg)
            for name in one._fields:
                assert type(getattr(one, name)) is float, name
                assert getattr(res, name)[i] == getattr(one, name), (i, name)
            for name, x in sc.point_derivatives(pg)._asdict().items():
                assert np.array_equal(getattr(deriv, name)[i], x), (i, name)
            assert np.array_equal(gam[i], sc.christoffels(pg)), i
            assert np.array_equal(normal[i], sc._normal_from_constraints(pg)), i
            assert np.array_equal(av[i], pg.shape_apply(pg.V)), i

    def test_batch_indexing(self, m_tau_m2):
        surface, _ = m_tau_m2
        U = domain_samples(surface, 5)
        pgs = sc.point_geometry(surface, U)
        assert pgs.batch_shape == (5,) and len(pgs) == 5
        assert pgs.C.shape == (5,) and pgs.jac.shape == (5, 6, 3)
        row = pgs[3]
        assert row.batch_shape == () and type(row.C) is float and type(row.rho) is float
        assert np.array_equal(row.u, U[3])
        part = pgs[1:4]
        assert len(part) == 3 and np.array_equal(part.lambdas, pgs.lambdas[1:4])
        assert [pg.H for pg in pgs] == pgs.H.tolist()
        with pytest.raises(TypeError):
            len(row)
        with pytest.raises(TypeError):
            row[0]

    def test_one_chart_call_for_the_batch(self, m_1m1_half):
        surface, calls = counted_chart(m_1m1_half[0])
        U = domain_samples(surface, 16)
        pgs = sc.point_geometry(surface, U)
        assert len(calls) == 1 and len(pgs) == 16
        assert calls[0][0].val.shape == (16,)

    def test_first_failing_point_raises_its_own_error(self, m_gamma_geodesic):
        # the point at index 2 is rank-deficient (rho ~ 1e-7 collapses
        # d/dphi); the point at index 3 has a normal that is not orthogonal
        surface = _shifted_normal(m_gamma_geodesic[0], lambda u: u[0] - 1.0)
        U = np.array([[1.0, 0.8, 0.5], [1.0, 1.2, 1.0], [1.0, 1e-7, 0.7], [1.5, 0.9, 0.2]])
        sc.point_geometry(surface, U[:2])
        with pytest.raises(sc.ChartRankError) as rank:
            sc.point_geometry(surface, U[2])
        with pytest.raises(sc.NormalSpaceError, match="orthogonal"):
            sc.point_geometry(surface, U[3])
        assert "sigma_min=1.000e-07" in str(rank.value)
        with pytest.raises(sc.ChartRankError) as batch:
            sc.point_geometry(surface, U)
        assert str(batch.value) == str(rank.value)
        with pytest.raises(sc.NormalSpaceError, match="orthogonal"):
            sc.point_geometry(surface, U[[0, 3, 2]])

    def test_a_bad_point_in_a_batch_raises(self, m_gamma_geodesic):
        # the normal is scaled by 1/(rho - 0.9), which divides by zero at rho = 0.9
        base = m_gamma_geodesic[0]

        def chart(u):
            p, q, n = base.chart(u)
            s = 1.0 / (u[1] - 0.9)
            return p, q, [x * s for x in n]

        surface = sc.Hypersurface(chart=chart, domain=base.domain, name="pole")
        U = np.array([[0.1, 0.5, 0.3], [0.2, 0.9, 0.4], [0.3, 1.1, 0.5]])
        sc.point_geometry(surface, U[[0, 2]])
        with pytest.raises(FloatingPointError):
            sc.chart_jet(surface, U)
        with pytest.raises(ZeroDivisionError):
            sc.point_geometry(surface, U[1])
        with pytest.raises(ZeroDivisionError):
            sc.point_geometry(surface, U)


ORDER_SURFACES = CATALOG_NAMES + ["M_kk tanh/one", "M_tau(-1.0001)", "level_set"]


class TestJetOrder:
    """An order-2 pass leaves out the chart's third derivatives and nothing else."""

    @pytest.mark.parametrize("batch_surface", ORDER_SURFACES, indirect=True)
    def test_order_two_equals_order_three_bitwise(self, batch_surface):
        U = domain_samples(batch_surface, 12, seed=5)
        for u in (U, U[3]):
            full, low = sc.chart_jet(batch_surface, u), sc.chart_jet(batch_surface, u, order=2)
            assert low.d3 is None and full.d3.shape == full.hess.shape + (3,)
            for f in dataclasses.fields(sc.ChartJet):
                if f.name != "d3":
                    assert np.array_equal(getattr(low, f.name), getattr(full, f.name)), f.name
            full, low = sc.point_geometry(batch_surface, u), sc.point_geometry(batch_surface, u, 2)
            assert low.d3 is None
            for f in dataclasses.fields(sc.PointGeometry):
                if f.name != "d3":
                    got, want = getattr(low, f.name), getattr(full, f.name)
                    assert type(got) is type(want), f.name
                    assert np.array_equal(got, want), f.name
        # indexing an order-2 batch passes the missing third order through
        assert sc.point_geometry(batch_surface, U, order=2)[2:5].d3 is None

    def test_point_derivatives_refuses_an_order_two_bundle(self, m_tau_m2):
        surface, _ = m_tau_m2
        U = domain_samples(surface, 4)
        for pg in (sc.point_geometry(surface, U, order=2), sc.point_geometry(surface, U[0], 2)):
            with pytest.raises(ValueError, match="order 2"):
                sc.point_derivatives(pg)
            with pytest.raises(ValueError, match="order 2"):
                sc.structural_residuals(pg)


JOIN_SURFACES = CATALOG_NAMES + ["M_kk tanh/one", "M_tau(-1.0001)"]


class TestSampleBundle:
    """verify's samples: an order-3 pass over the first n_fd points joined
    to an order-2 pass over the rest."""

    @pytest.mark.parametrize("batch_surface", JOIN_SURFACES, indirect=True)
    def test_joined_bundle_equals_one_order_two_pass(self, batch_surface):
        for n in (7, 50, 51, 200):
            pts = rp.sobol_points(batch_surface.domain, n, 0)
            pg3, pgs = rp._sample_bundle(batch_surface, pts, min(50, n))
            whole = sc.point_geometry(batch_surface, pts, order=2)
            assert len(pg3) == min(50, n) and len(pgs) == n
            assert pgs.d3 is (pg3.d3 if n <= 50 else None)
            assert pg3.d3 is not None
            for f in dataclasses.fields(sc.PointGeometry):
                if f.name != "d3":
                    got, want = getattr(pgs, f.name), getattr(whole, f.name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (n, f.name)
                    assert np.array_equal(getattr(pg3, f.name), want[:len(pg3)]), (n, f.name)

    def test_join_keeps_the_rows_in_order(self, m_tau_m2):
        surface, _ = m_tau_m2
        U = domain_samples(surface, 9, seed=3)
        parts = [sc.point_geometry(surface, U[a:b], order)
                 for a, b, order in ((0, 2, 3), (2, 7, 3), (7, 9, 2))]
        whole = sc.point_geometry(surface, U)
        assert sc.join(*parts[:2]).d3 is not None and sc.join(*parts).d3 is None
        assert np.array_equal(sc.join(*parts[:2]).d3, whole.d3[:7])
        for f in dataclasses.fields(sc.PointGeometry):
            if f.name != "d3":
                assert np.array_equal(getattr(sc.join(*parts), f.name), getattr(whole, f.name))

    def test_failing_sample_raises_the_first_failing_row(self, m_gamma_geodesic):
        # index 2 is rank-deficient and index 3 has a normal that is not
        # orthogonal (see TestBatchedJets), on either side of the split
        surface = _shifted_normal(m_gamma_geodesic[0], lambda u: u[0] - 1.0)
        U = np.array([[1.0, 0.8, 0.5], [1.0, 1.2, 1.0], [1.0, 1e-7, 0.7], [1.5, 0.9, 0.2]])
        for n_fd in (1, 2, 3, 4):
            with pytest.raises(sc.ChartRankError, match="sigma_min=1.000e-07"):
                rp._sample_bundle(surface, U, n_fd)
            with pytest.raises(sc.NormalSpaceError, match="orthogonal"):
                rp._sample_bundle(surface, U[[0, 3, 2]], n_fd)


FRAME_SURFACES = CATALOG_NAMES + ["M_kk tanh/one", "M_tau(-1.0001)", "level_set", "graph"]


def frame_report_key(checks, rows=slice(None)):
    """Everything the frame identities hold at the rows ``rows``, as bytes."""
    return tuple(np.ascontiguousarray(column[rows]).tobytes() for column in checks)


def stacked(rows):
    """One batch bundle of one-point bundles, which may come from several charts."""
    return sc.PointGeometry(**{f.name: np.stack([getattr(pg, f.name) for pg in rows])
                               for f in dataclasses.fields(sc.PointGeometry)})


class TestBatchedFrameIdentities:
    @pytest.mark.parametrize("batch_surface", FRAME_SURFACES, indirect=True)
    def test_rows_equal_single_points_bitwise(self, batch_surface):
        U = domain_samples(batch_surface, 16, seed=6)
        checks = pf.frame_identity_checks(sc.point_geometry(batch_surface, U))
        assert type(checks) is pf.FrameChecks
        assert checks.residual.shape == checks.skip.shape == (len(U), len(pf.FRAME_ITEMS))
        assert checks.min_gap.shape == (len(U),)
        assert checks.residual.dtype == checks.min_gap.dtype == np.float64
        assert checks.skip.dtype == np.int8
        # a residual is NaN exactly where its item is skipped
        assert np.array_equal(np.isnan(checks.residual), checks.skip != 0)
        for i, u in enumerate(U):
            one = pf.frame_identity_checks(sc.point_geometry(batch_surface, u[None]))
            assert frame_report_key(checks, [i]) == frame_report_key(one)

    def test_rows_of_every_branch_in_one_batch(self, level_set, graph_surface, m_gamma_2):
        # the rows take different hypothesis branches: a degenerate angle
        # (M_Gamma), equal curvatures (M_1m1 c=1/2), no principal J1N+J2N
        # (M_tau), all items (M_11), varying curvatures (M_kk tanh) and AV != 0
        # (the level set and the graph)
        charts = [m_gamma_2[0], mz.build_model(mz.ModelSpec("M_1m1", {"c": 0.5}))[0],
                  mz.make_M_tau(-2.0)[0], mz.build_model(mz.ModelSpec("M_11", {"c": 0.3}))[0],
                  mz.make_M_kk(0.5, ad.tanh, 1.0)[0], level_set, graph_surface]
        rows = [sc.point_geometry(M, u) for M in charts for u in domain_samples(M, 2, seed=1)]
        singles = [frame_report_key(pf.frame_identity_checks(stacked([pg]))) for pg in rows]
        order = np.random.default_rng(3).permutation(len(rows))
        batch = pf.frame_identity_checks(stacked([rows[i] for i in order]))
        assert [frame_report_key(batch, [r]) for r in range(len(rows))] == [
            singles[i] for i in order]
        assert len({tuple(codes) for codes in batch.skip.tolist()}) >= 6
        # every skip reason, and judged items, are seen in the one batch
        assert set(np.unique(batch.skip).tolist()) == set(range(len(pf.FRAME_SKIPS)))

    def test_takes_a_batch_only(self, m_tau_m2):
        # one return shape: a single point is a batch of one
        surface, _ = m_tau_m2
        with pytest.raises(TypeError, match="no length"):
            pf.frame_identity_checks(sc.point_geometry(surface, domain_samples(surface, 1)[0]))

    def test_needs_an_order_three_bundle(self, m_tau_m2):
        surface, _ = m_tau_m2
        with pytest.raises(ValueError, match="order 2"):
            pf.frame_identity_checks(sc.point_geometry(surface, domain_samples(surface, 3), 2))
