import itertools
import math

import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import lorentz as lz
from h2h2 import model_zoo as mz
from h2h2 import product_space as ps
from h2h2 import surface_calculus as sc

from conftest import domain_samples


def polar(rho, phi):
    return [ad.cosh(rho), ad.sinh(rho) * ad.cos(phi), ad.sinh(rho) * ad.sin(phi)]


@pytest.fixture(scope="module")
def hintless_surface():
    # graph-like surface with no closed-form normal: exercises the
    # nullspace route and the deterministic sign rule
    def chart(u):
        u1, u2, u3 = u
        return polar(u1, u2), polar(0.8 + 0.3 * ad.sin(u1), u3)

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
        # scalar and jet arguments give the same chart point
        surface, _ = m_11_03
        u = np.array([0.3, -0.5, 0.8])
        val = surface.point(u)
        p, q = surface.chart(ad.jet_variables(u))
        for i, comp in enumerate((*p, *q)):
            assert isinstance(comp, ad.Jet)
            assert ad.value(comp) == pytest.approx(val[i], abs=1e-14)

    def test_third_derivatives_of_polynomial_chart(self):
        # components x^2 y z, y^3, x z^2 + z, and three constants
        def chart(u):
            x, y, z = u
            return [x * x * y * z, y ** 3, x * z * z + z], [1.0, 0.0, 0.0]

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
            assert surface.constraint_residual(u) < 1e-10
            pg = sc.point_geometry(surface, u)
            assert pg.sigma_min > 1e-6

    def test_rank_deficient_chart_raises(self):
        def chart(u):
            u1, u2, u3 = u
            return polar(u1, u2), polar(1.0, 0.5 + 0.0 * u3)

        bad = sc.Hypersurface(chart=chart, domain=((0.5, 1), (0.5, 1), (0.5, 1)))
        with pytest.raises(sc.ChartRankError):
            sc.point_geometry(bad, np.array([0.7, 0.7, 0.7]))


class TestPointGeometry:
    def test_invariants_on_zoo(self, m_1m1_04, m_tau_m2, m_kk_tanh):
        for surface, _ in (m_1m1_04, m_tau_m2, m_kk_tanh):
            for u in domain_samples(surface, 25):
                pg = sc.point_geometry(surface, u)
                assert np.all(np.linalg.eigvalsh(pg.g) > 0)
                assert abs(ps.ambient_inner(pg.N, pg.N) - 1.0) < 1e-10
                assert np.max(np.abs(pg.jac.T @ ps.ETA6 @ pg.N)) < 1e-10
                assert -1.0 - 1e-12 <= pg.C <= 1.0 + 1e-12
                assert abs(ps.ambient_inner(pg.V, pg.V) - (1 - pg.C ** 2)) < 1e-9
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
            assert pg.frame_asymmetry < 1e-9
            for _ in range(5):
                x = pg.from_coords(rng.normal(size=3))
                y = pg.from_coords(rng.normal(size=3))
                assert ps.ambient_inner(pg.shape_apply(x), y) == pytest.approx(
                    ps.ambient_inner(x, pg.shape_apply(y)), abs=1e-9)

    def test_minor_sum_identity(self, m_tau_m2):
        surface, _ = m_tau_m2
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            lam = pg.lambdas
            e2 = 2 * (lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2])
            assert abs(e2 - (pg.rho + 2)) < 1e-10


class TestNormalWithoutHint:
    def test_nullspace_normal(self, hintless_surface):
        for u in domain_samples(hintless_surface, 12, seed=3):
            pg = sc.point_geometry(hintless_surface, u)
            assert abs(ps.ambient_inner(pg.N, pg.N) - 1.0) < 1e-10
            assert np.max(np.abs(pg.jac.T @ ps.ETA6 @ pg.N)) < 1e-10

    def test_sign_rule_deterministic(self, hintless_surface):
        u = np.array([0.9, 1.0, 0.7])
        n1 = sc.point_geometry(hintless_surface, u).N
        n2 = sc.point_geometry(hintless_surface, u).N
        assert np.array_equal(n1, n2)
        nz = n1[np.abs(n1) > 1e-9]
        assert nz[0] > 0


class TestAngleOperators:
    def test_product_angle_examples(self, rng):
        base = ps.ProductPoint(lz.H2Point(np.array([1.0, 0, 0])),
                               lz.H2Point(np.array([1.0, 0, 0])))
        first = ps.ProductTangent(base, np.array([0.0, 1, 0]), np.zeros(3))
        assert sc.product_angle_C(first) == pytest.approx(1.0)
        second = ps.ProductTangent(base, np.zeros(3), np.array([0.0, 1, 0]))
        assert sc.product_angle_C(second) == pytest.approx(-1.0)
        s = 1 / math.sqrt(2)
        balanced = ps.ProductTangent(base, np.array([0.0, s, 0]), np.array([0.0, 0, s]))
        assert sc.product_angle_C(balanced) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError):
            sc.product_angle_C(ps.ProductTangent(base, np.array([0.0, 2, 0]), np.zeros(3)))

    def test_vector_v_degenerate(self):
        base = ps.ProductPoint(lz.H2Point(np.array([1.0, 0, 0])),
                               lz.H2Point(np.array([1.0, 0, 0])))
        n = ps.ProductTangent(base, np.array([0.0, 1, 0]), np.zeros(3))
        v = sc.vector_V(n)
        assert np.max(np.abs(v.ambient)) < 1e-15

    def test_vector_v_on_m_tau(self, m_tau_m2):
        surface, _ = m_tau_m2
        tau = -2.0
        u = np.array([0.8, 1.3, 2.5])
        pg = sc.point_geometry(surface, u)
        p, q = pg.val[:3], pg.val[3:]
        expected = np.concatenate([q + tau * p, -p - tau * q]) / math.sqrt(
            2 * (tau ** 2 - 1))
        v = sc.vector_V(pg.normal)
        assert np.max(np.abs(v.ambient - expected)) < 1e-12

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
            tv = sc.tangential_T(pg, pg.V)
            want = -pg.C * (1 - pg.C ** 2)
            assert ps.ambient_inner(tv, pg.V) == pytest.approx(want, abs=1e-10)
            # TV = -CV as an algebraic consequence of P^2 = Id
            assert np.max(np.abs(tv + pg.C * pg.V)) < 1e-10

    def test_fixed_vector(self, m_1m1_04):
        # the first-factor curve direction satisfies PX = X and X _|_ V
        surface, oracle = m_1m1_04
        u = np.array([0.2, 0.5, -0.7])
        pg = sc.point_geometry(surface, u)
        x = oracle.frame_eigen(u)[1][0]
        assert abs(ps.ambient_inner(x, pg.V)) < 1e-12
        tx = sc.tangential_T(pg, x)
        assert np.max(np.abs(tx - ps.P6 @ x)) < 1e-12

    def test_trace_is_minus_C(self, m_11_03, m_tau_m2):
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 6):
                pg = sc.point_geometry(surface, u)
                tr = sum(ps.ambient_inner(sc.tangential_T(pg, pg.principal_ambient[:, i]),
                                          pg.principal_ambient[:, i]) for i in range(3))
                assert tr == pytest.approx(-pg.C, abs=1e-10)

    def test_rejects_non_tangent(self, m_11_03):
        surface, _ = m_11_03
        u = np.array([0.2, 0.5, -0.7])
        pg = sc.point_geometry(surface, u)
        with pytest.raises(ValueError):
            sc.tangential_T(pg, pg.N)


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

    def test_hintless_surface_raises(self, hintless_surface):
        pg = sc.point_geometry(hintless_surface, np.array([0.9, 1.0, 0.7]))
        with pytest.raises(ValueError, match="normal_hint"):
            sc.structural_residuals(pg)
        with pytest.raises(ValueError, match="normal_hint"):
            sc.point_derivatives(pg)


class TestRicciSectional:
    def test_ricci_trace_is_scalar_curvature(self, m_11_03, m_tau_m2):
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 6):
                pg = sc.point_geometry(surface, u)
                tr = sum(sc.ricci(pg, pg.principal_ambient[:, i],
                                  pg.principal_ambient[:, i]) for i in range(3))
                assert tr == pytest.approx(pg.rho, abs=1e-9)

    def test_minimal_constant_sectional_model(self, m_11_half, rng):
        surface, _ = m_11_half
        for u in domain_samples(surface, 10):
            pg = sc.point_geometry(surface, u)
            assert abs(pg.H) < 1e-9
            for _ in range(5):
                x = pg.from_coords(rng.normal(size=3))
                y = pg.from_coords(rng.normal(size=3))
                assert sc.sectional(pg, x, y) == pytest.approx(-0.5, abs=1e-6)

    def test_degenerate_plane_rejected(self, m_11_half):
        surface, _ = m_11_half
        pg = sc.point_geometry(surface, np.array([0.1, 0.1, 0.1]))
        x = pg.from_coords(np.array([1.0, 0, 0]))
        with pytest.raises(ValueError):
            sc.sectional(pg, x, 2.0 * x)


class TestAmbientCurvatureConsistency:
    def test_gauss_operator_against_ambient_tensor(self, m_11_03, m_tau_m2, rng):
        # <R(X,Y)Z, W> = Rbar(X,Y,Z,W) + <AX,W><AY,Z> - <AX,Z><AY,W> ties the
        # hypersurface operator to the ambient curvature tensor directly
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 4):
                pg = sc.point_geometry(surface, u)
                base = pg.point
                vecs = [pg.from_coords(rng.normal(size=3)) for _ in range(4)]
                x, y, z, w = vecs
                lhs = ps.ambient_inner(sc.gauss_curvature_operator(pg, x, y, z), w)
                tangents = [ps.ProductTangent.from_ambient(base, v) for v in vecs]
                ax, ay = pg.shape_apply(x), pg.shape_apply(y)
                rhs = (ps.curvature_tensor(*tangents)
                       + ps.ambient_inner(ax, w) * ps.ambient_inner(ay, z)
                       - ps.ambient_inner(ax, z) * ps.ambient_inner(ay, w))
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
            normal_hint=lambda u: surface.normal_hint(warp(u)),
            name="reparametrized")

        for u in domain_samples(surface, 8, seed=5):
            u = 0.5 * u    # stay inside the warped domain
            pg1 = sc.point_geometry(reparam, u)
            pg2 = sc.point_geometry(surface, warp_floats(u))
            assert np.max(np.abs(pg1.val - pg2.val)) < 1e-12
            assert abs(pg1.C - pg2.C) < 1e-8
            assert np.max(np.abs(pg1.lambdas - pg2.lambdas)) < 1e-8
