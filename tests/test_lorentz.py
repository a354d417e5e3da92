import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from h2h2 import lorentz as lz

def frenet(curve, r):
    """Frenet data (gamma, T, N, kappa) of the curve at a float arc length r:
    the columns of its frame, which must be Lorentz-orthonormal."""
    g, t, n = lz._frame_columns(curve._frame(r).copy())
    return g, t, n, curve.kappa_at(r)


vec = st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
               min_size=3, max_size=3).map(np.array)


class TestInnerAndCross:
    def test_inner_examples(self):
        assert lz.lorentz_inner((1, 0, 0), (1, 0, 0)) == -1
        assert lz.lorentz_inner((1, 0, 0), (0, 1, 0)) == 0
        assert lz.lorentz_inner((2, 1, 1), (1, 1, 0)) == -1

    def test_cross_examples(self):
        assert np.allclose(lz.lorentz_cross((1, 0, 0), (0, 1, 0)), (0, 0, 1))
        a = np.array([1.3, -0.2, 0.7])
        assert np.allclose(lz.lorentz_cross(a, a), 0.0)
        assert np.allclose(lz.lorentz_cross((1, 0, 0), (0, 0, 1)), (0, -1, 0))

    @settings(max_examples=80, deadline=None)
    @given(vec, vec)
    def test_cross_orthogonality_and_antisymmetry(self, a, b):
        c = lz.lorentz_cross(a, b)
        scale = max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)))
        assert abs(lz.lorentz_inner(c, a)) <= 1e-12 * scale
        assert abs(lz.lorentz_inner(c, b)) <= 1e-12 * scale
        assert np.allclose(c, -lz.lorentz_cross(b, a))

    @settings(max_examples=40, deadline=None)
    @given(vec, vec)
    def test_inner_symmetric_bilinear(self, a, b):
        assert lz.lorentz_inner(a, b) == pytest.approx(lz.lorentz_inner(b, a))
        assert lz.lorentz_inner(2.0 * a, b) == pytest.approx(2.0 * lz.lorentz_inner(a, b))


class TestComplexStructure:
    """J u = x ⊠ u, the rotation of the tangent plane at x."""

    def test_rotation_at_origin(self):
        x = np.array([1.0, 0, 0])
        assert np.allclose(lz.lorentz_cross(x, np.array([0.0, 1, 0])), (0, 0, 1))
        ju = lz.lorentz_cross(x, np.array([0.0, 0, 1]))
        assert np.allclose(ju, (0, -1, 0))
        # J^2 = -Id
        jju = lz.lorentz_cross(x, ju)
        assert np.allclose(jju, (0, 0, -1))

    def test_rotation_at_moved_point(self):
        # the image is pinned by orthogonality, unit norm, and orientation
        x = np.array([math.cosh(1), math.sinh(1), 0.0])
        u = np.array([math.sinh(1), math.cosh(1), 0.0])
        ju = lz.lorentz_cross(x, u)
        assert abs(lz.lorentz_inner(ju, ju) - 1.0) < 1e-12
        assert abs(lz.lorentz_inner(ju, u)) < 1e-12
        assert abs(lz.lorentz_inner(ju, x)) < 1e-12
        # solve for the orthogonal unit tangent directly and compare up to sign
        eta = np.diag([-1.0, 1, 1])
        rows = np.stack([eta @ x, eta @ u])
        _, _, vt = np.linalg.svd(rows)
        w = vt[-1]
        w = w / math.sqrt(lz.lorentz_inner(w, w))
        assert min(np.max(np.abs(ju - w)), np.max(np.abs(ju + w))) < 1e-12
        # orientation: det [x, u, Ju] keeps the sign of the standard frame
        assert np.linalg.det(np.stack([x, u, ju])) > 0

    def test_isometry_of_tangent_plane(self, rng):
        for _ in range(20):
            w = rng.normal(size=2)
            r = math.hypot(*w)
            # the point at distance |w| from (1,0,0) in the direction (0, w)
            x = np.array([math.cosh(r), math.sinh(r) * w[0] / r, math.sinh(r) * w[1] / r])
            # build two tangents at x
            t1 = np.array([0.0, 1.0, 0.3]) + rng.normal(size=3) * 0.1
            t1 = t1 + lz.lorentz_inner(t1, x) * x
            t2 = lz.lorentz_cross(x, t1)
            assert abs(lz.lorentz_inner(t2, t2) - lz.lorentz_inner(t1, t1)) < 1e-12 * max(
                1.0, abs(lz.lorentz_inner(t1, t1)))


class TestExponentialMap:
    """The geodesic PlaneCurve(0.0) is r -> exp(r (0,1,0)) from (1,0,0)."""

    def frame(self, r):
        return np.stack(frenet(lz.PlaneCurve(0.0), r)[:3], axis=1)

    def test_identity_case(self):
        assert np.array_equal(self.frame(0.0), np.eye(3))

    def test_standard_geodesic(self):
        g = frenet(lz.PlaneCurve(0.0), 1.0)[0]
        assert np.allclose(g, (math.cosh(1), math.sinh(1), 0))

    def test_distance_additivity(self):
        # the frame at a + b is the frame at a applied to the frame at b
        a, b = 0.9, 1.4
        assert np.max(np.abs(self.frame(a + b) - self.frame(a) @ self.frame(b))) < 1e-10

    def test_stays_on_hyperboloid_far_out(self):
        g = frenet(lz.PlaneCurve(0.0), 10.0)[0]
        # judged relative to |x|^2: the constraint cancels terms of that size
        assert abs(lz.lorentz_inner(g, g) + 1.0) < 1e-12 * float(g @ g)


def test_frame_check_rejects_a_non_orthonormal_frame():
    # the frame check of PlaneCurve.jet, on one frame and on a batch with
    # one bad frame
    bad = np.diag([1.0, 1.0 + 1e-8, 1.0])
    with pytest.raises(ValueError, match="not Lorentz-orthonormal"):
        lz._frame_columns(bad)
    with pytest.raises(ValueError, match="not Lorentz-orthonormal"):
        lz._frame_columns(np.stack([np.eye(3), bad, np.eye(3)]))
    g, t, n = lz._frame_columns(np.stack([np.eye(3)] * 2))
    assert g.shape == (3, 2) and np.array_equal(t, [[0, 0], [1, 1], [0, 0]])


def exact_constant_curvature_state(kappa, r):
    # Frenet system is linear with constant coefficients: F(r) = F(0) e^{rC}
    C = np.array([[0.0, 1, 0], [1, 0, -kappa], [0, kappa, 0]])
    F = np.eye(3) @ expm(r * C)
    return F[:, 0], F[:, 1], F[:, 2]


def rk4_reference(kappa, r_target, h):
    """Plain RK4 of the Frenet system for (gamma, T) from r = 0 to r_target."""
    g = np.array([1.0, 0, 0])
    t = np.array([0.0, 1, 0])

    def rhs(r, g, t):
        return t, g + kappa(r) * lz.lorentz_cross(g, t)

    n = int(round(r_target / h))
    for i in range(n):
        r = i * h
        k1g, k1t = rhs(r, g, t)
        k2g, k2t = rhs(r + h / 2, g + h / 2 * k1g, t + h / 2 * k1t)
        k3g, k3t = rhs(r + h / 2, g + h / 2 * k2g, t + h / 2 * k2t)
        k4g, k4t = rhs(r + h, g + h * k3g, t + h * k3t)
        g = g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
        t = t + h / 6 * (k1t + 2 * k2t + 2 * k3t + k4t)
    return g, t


class TestCurves:
    def test_horocycle_at_zero(self):
        g, _, n, kappa = frenet(lz.PlaneCurve(1.0), 0.0)
        assert np.allclose(g, (1, 0, 0))
        assert np.allclose(n, (0, 0, 1))
        assert kappa == 1.0

    def test_horocycle_closed_form(self):
        r = 1.3
        g, _, n, _ = frenet(lz.PlaneCurve(1.0), r)
        assert np.allclose(g, ((2 + r * r) / 2, r, r * r / 2))
        assert np.allclose(n, (-r * r / 2, -r, (2 - r * r) / 2))

    def test_geodesic(self):
        g, _, n, _ = frenet(lz.PlaneCurve(0.0), 0.83)
        assert np.allclose(g, (math.cosh(0.83), math.sinh(0.83), 0))
        assert np.allclose(n, (0, 0, 1))

    # 1 +- 1e-9 and -1 +- 1e-9 sit on both sides of the branch change at w² = 0
    @pytest.mark.parametrize("kappa", [2.0, 0.5, -0.7, -1.0, 3.5,
                                       1.0 + 1e-9, 1.0 - 1e-9, -1.0 + 1e-9, -1.0 - 1e-9])
    def test_integrated_curves_match_exact_solution(self, kappa):
        # the closed form, and the Magnus stepper run on the same constant
        # handed over as a function
        for curve in (lz.PlaneCurve(kappa), lz.PlaneCurve(lambda _r: kappa)):
            for r in (-2.3, -0.4, 0.7, 1.9):
                got = frenet(curve, r)[:3]
                for x, want in zip(got, exact_constant_curvature_state(kappa, r)):
                    assert np.max(np.abs(x - want)) < 1e-9

    def test_kappa_2_frenet_residual(self):
        # independent oracle: plain RK4 of the Frenet system at step 1e-4,
        # cross-checked against its own half-step run before use
        kappa = 2.0
        r_target = 0.7
        g1, t1 = rk4_reference(lambda _r: kappa, r_target, 1e-4)
        g2, t2 = rk4_reference(lambda _r: kappa, r_target, 5e-5)
        assert np.max(np.abs(g1 - g2)) < 1e-12   # oracle self-consistency

        g, t, _, _ = frenet(lz.PlaneCurve(kappa), r_target)
        assert np.max(np.abs(g - g2)) < 1e-9
        assert np.max(np.abs(t - t2)) < 1e-9

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0, 2.0, 0.4])
    def test_orthonormality_along_long_arcs(self, kappa):
        curve = lz.PlaneCurve(kappa)
        drift = max(lz.frame_residual(*frenet(curve, r)[:3]) for r in np.linspace(-5, 5, 81))
        assert drift < 1e-8

    def test_variable_curvature_frenet_closure(self):
        # N = J(T) makes the Frenet equations hold with signed curvature
        from h2h2 import autodiff as ad
        curve = lz.PlaneCurve(ad.tanh)
        h = 1e-4
        rs = (-1.2, 0.3, 0.9)
        for r in rs:
            _, tp, n_plus, _ = frenet(curve, r + h)
            _, tm, n_minus, _ = frenet(curve, r - h)
            g0, t0, n0, k0 = frenet(curve, r)
            dN = (n_plus - n_minus) / (2 * h)
            assert np.max(np.abs(dN + k0 * t0)) < 1e-6
            dT = (tp - tm) / (2 * h)
            assert np.max(np.abs(dT - g0 - k0 * n0)) < 1e-6
        # the sixth-order Magnus steps against plain RK4 at a fine step
        g_ref, t_ref = rk4_reference(math.tanh, 1.5, 1e-3)
        g, t, _, _ = frenet(curve, 1.5)
        assert np.max(np.abs(g - g_ref)) < 1e-11
        assert np.max(np.abs(t - t_ref)) < 1e-11
        # knots grow in a fixed order, so frames do not depend on the query order
        fresh = lz.PlaneCurve(ad.tanh)
        for r in reversed(rs):
            for x, y in zip(frenet(fresh, r), frenet(curve, r)):
                assert np.array_equal(x, y)

    def test_curve_jet_matches_finite_differences(self):
        curve = lz.PlaneCurve(1.0)
        from h2h2 import autodiff as ad
        r0 = 0.6
        x = ad.jet_variables([r0, 0.0, 0.0])[0]
        g, n = curve.jet(x)
        h = 1e-5
        gp, _, n_plus, _ = frenet(curve, r0 + h)
        gm, _, n_minus, _ = frenet(curve, r0 - h)
        g0 = frenet(curve, r0)[0]
        for i in range(3):
            assert g[i].d[0] == pytest.approx((gp[i] - gm[i]) / (2 * h), abs=1e-8)
            assert n[i].d[0] == pytest.approx((n_plus[i] - n_minus[i]) / (2 * h), abs=1e-8)
            d2 = (gp[i] - 2 * g0[i] + gm[i]) / h ** 2
            assert g[i].dd[0, 0] == pytest.approx(d2, abs=1e-4)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
    def test_curve_jet_derivatives_match_closed_form(self, kappa):
        # F(r) = e^{rC} gives every derivative in closed form: F^(m) = F C^m
        from h2h2 import autodiff as ad
        C = np.array([[0.0, 1, 0], [1, 0, -kappa], [0, kappa, 0]])
        for r0 in (-1.3, 0.4, 2.1):
            g, n = lz.PlaneCurve(kappa).jet(ad.jet_variables([r0, 0.0, 0.0])[0])
            F = expm(r0 * C)
            for m, order in enumerate(("val", "d", "dd", "ddd")):
                want = F @ np.linalg.matrix_power(C, m)
                got_g = np.array([np.ravel(getattr(c, order))[0] for c in g])
                got_n = np.array([np.ravel(getattr(c, order))[0] for c in n])
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got_g - want[:, 0])) < 1e-12 * scale
                assert np.max(np.abs(got_n - want[:, 2])) < 1e-12 * scale

    def test_curve_jet_third_derivatives_variable_curvature(self):
        # third derivatives against a central difference of the exact second ones
        from h2h2 import autodiff as ad
        curve = lz.PlaneCurve(ad.tanh)
        h = 1e-4

        def second(r):
            g, n = curve.jet(ad.jet_variables([r, 0.0, 0.0])[0])
            return np.array([c.dd[0, 0] for c in (*g, *n)])

        for r0 in (-1.2, 0.3, 0.9):   # each r0 +- h stays inside one knot interval
            g, n = curve.jet(ad.jet_variables([r0, 0.0, 0.0])[0])
            third = np.array([c.ddd[0, 0, 0] for c in (*g, *n)])
            fd = (second(r0 + h) - second(r0 - h)) / (2 * h)
            assert np.max(np.abs(third - fd)) < 1e-7


class TestHorocycleSigns:
    def test_positive_sign(self):
        _, _, n, kappa = frenet(lz.PlaneCurve(1.0, normal_sign=1), 0.0)
        assert np.allclose(n, (0, 0, 1))
        assert kappa == 1.0

    def test_negative_sign(self):
        _, _, n, kappa = frenet(lz.PlaneCurve(-1.0, normal_sign=-1), 0.0)
        assert np.allclose(n, (0, 0, -1))
        assert kappa == -1.0
        for bad in (0, 2, -2):
            with pytest.raises(ValueError):
                lz.PlaneCurve(1.0, normal_sign=bad)

    def test_on_hyperboloid(self):
        r = 3.2
        g = frenet(lz.PlaneCurve(1.0, normal_sign=1), r)[0]
        assert abs(lz.lorentz_inner(g, g) + 1.0) < 1e-12 * max(
            1.0, abs(lz.lorentz_inner(g, g)))

    def test_negative_sign_matches_display(self):
        s = 0.9
        n = frenet(lz.PlaneCurve(-1.0, normal_sign=-1), s)[2]
        assert np.allclose(n, (s * s / 2, s, (-2 + s * s) / 2))


def test_parallel_curve_curvature_fixed_points():
    # horocycle curvatures +-1 are fixed points of the parallel flow
    for l in (-0.8, 0.3, 1.1):
        assert lz.parallel_curve_curvature(1.0, l) == pytest.approx(1.0)
        assert lz.parallel_curve_curvature(-1.0, l) == pytest.approx(-1.0)

