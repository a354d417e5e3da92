import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from h2h2 import autodiff as ad
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import product_space as ps
from h2h2 import report as rp
from h2h2 import surface_calculus as sc

from conftest import counted_chart, domain_samples

sym_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def synthetic_frames(draw):
    vals = [draw(sym_entries) for _ in range(6)]
    a = np.array([[vals[0], vals[1], vals[2]],
                  [vals[1], vals[3], vals[4]],
                  [vals[2], vals[4], vals[5]]])
    c = draw(st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
    return pf.AdaptedFrame(c, a)


class TestAdaptedFrame:
    def test_orthonormal_on_models(self, m_1m1_04, m_tau_m2, m_kk_tanh):
        for surface, _ in (m_1m1_04, m_tau_m2, m_kk_tanh):
            for u in domain_samples(surface, 8):
                af = pf.adapted_frame(sc.point_geometry(surface, u))
                assert pf.frame_orthonormality_residual(af) < 1e-10
                assert np.max(np.abs(af.A - af.A.T)) < 1e-12

    def test_m11_frame_is_diagonal(self, m_11_03):
        surface, _ = m_11_03
        u = np.array([0.3, 0.4, -0.6])
        af = pf.adapted_frame(sc.point_geometry(surface, u))
        off = af.A - np.diag(np.diag(af.A))
        assert np.max(np.abs(off)) < 1e-10
        want = {0.0, math.sqrt(0.7), -math.sqrt(0.3)}
        got = sorted(np.diag(af.A))
        assert np.max(np.abs(np.array(got) - np.array(sorted(want)))) < 1e-10

    def test_m_tau_frame_components(self, m_tau_m2):
        # the V row vanishes and the spectrum matches the closed forms; the
        # 2x2 block mixes the two complex-structure directions, which are at
        # 45 degrees to the adapted frame when C = 0
        surface, oracle = m_tau_m2
        u = np.array([0.7, 1.1, 2.0])
        af = pf.adapted_frame(sc.point_geometry(surface, u))
        assert np.max(np.abs(af.A[0])) < 1e-10
        lam_b = mz.mtau_lambda_big(-2.0)
        lam_s = mz.mtau_lambda_small(-2.0)
        assert af.A[1, 1] == pytest.approx((lam_b + lam_s) / 2, abs=1e-10)
        assert af.A[1, 2] == pytest.approx((lam_b - lam_s) / 2, abs=1e-10)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(af.A))
                             - oracle.lambdas(u))) < 1e-10

    def test_h_matches_point_geometry(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        for u in domain_samples(surface, 6):
            pg = sc.point_geometry(surface, u)
            af = pf.adapted_frame(pg)
            assert af.H == pytest.approx(pg.H, abs=1e-9)
            assert af.rho == pytest.approx(pg.rho, abs=1e-9)

    def test_degenerate_angle_rejected(self, m_gamma_2):
        surface, _ = m_gamma_2
        with pytest.raises(sc.DegenerateProductAngleError):
            pf.adapted_frame(sc.point_geometry(surface, np.array([0.3, 0.8, 1.0])))


class TestQMatrix:
    def test_identity_at_zero(self, m_11_03):
        surface, _ = m_11_03
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.2, 0.1, 0.3])))
        assert np.allclose(pf.q_matrix(af, 0.0), np.eye(3))

    @settings(max_examples=30, deadline=None)
    @given(synthetic_frames())
    def test_qprime_at_zero_is_minus_A(self, af):
        assert np.allclose(pf.q_prime(af, 0.0), -af.A, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_qprime_matches_finite_differences(self, af, l):
        h = 1e-6
        fd = (pf.q_matrix(af, l + h) - pf.q_matrix(af, l - h)) / (2 * h)
        assert np.max(np.abs(fd - pf.q_prime(af, l))) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_detq_expansion_is_determinant(self, af, l):
        det = float(np.linalg.det(pf.q_matrix(af, l)))
        assert pf.detq_expansion(af, l) == pytest.approx(det, abs=1e-10 * max(1, abs(det)))

    def test_detq_at_zero(self, m_11_03):
        surface, _ = m_11_03
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.2, 0.1, 0.3])))
        assert pf.detq_expansion(af, 0.0) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_detq_prime_analytic(self, af, l):
        h = 1e-6
        fd = (pf.detq_expansion(af, l + h) - pf.detq_expansion(af, l - h)) / (2 * h)
        assert pf.detq_expansion_prime(af, l) == pytest.approx(fd, abs=1e-7)


class TestArrayCalls:
    """One call over an array of l gives the scalar calls' values bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames(),
           st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=1, max_size=12))
    def test_q_and_detq(self, af, ls):
        ls = np.array(ls)
        for f in (pf.q_matrix, pf.q_prime, pf.detq_expansion):
            got = f(af, ls)
            want = np.array([f(af, l) for l in ls])
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_parallel_curvatures(self, m_kk_tanh, m_tau_m2):
        ls = np.linspace(-0.9, 0.9, 37)   # M_tau(-2) is focal only at 0.931
        for surface, _ in (m_kk_tanh, m_tau_m2):
            for u in domain_samples(surface, 3):
                af = pf.adapted_frame(sc.point_geometry(surface, u))
                for f in (pf.parallel_lambdas, pf.mean_curvature_of_parallel):
                    assert np.array_equal(f(af, ls), np.array([f(af, l) for l in ls]))

    def test_focal_value_in_array_raises(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.7, 1.1, 2.0])))
        ls = np.array([0.0, 0.3, mz.mtau_focal_radius(-2.0), 0.5])
        for f in (pf.parallel_shape_operator, pf.mean_curvature_of_parallel,
                  pf.parallel_lambdas):
            with pytest.raises(pf.FocalPointError):
                f(af, ls)


class TestMeanCurvature:
    def test_h_at_zero_is_trace(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        for u in domain_samples(surface, 5):
            pg = sc.point_geometry(surface, u)
            af = pf.adapted_frame(pg)
            assert pf.mean_curvature_of_parallel(af, 0.0) == pytest.approx(pg.H, abs=1e-11)

    def test_constant_along_flow_for_horocycle_products(self, m_1m1_04):
        surface, _ = m_1m1_04
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.2, -0.3, 0.5])))
        h0 = pf.mean_curvature_of_parallel(af, 0.0)
        for l in np.linspace(-1, 1, 21):
            assert pf.mean_curvature_of_parallel(af, l) == pytest.approx(h0, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_two_expressions_agree(self, af, l):
        det = pf.detq_expansion(af, l)
        if abs(det) < 1e-6:
            return
        q = pf.q_matrix(af, l)
        h_tr = -float(np.trace(np.linalg.solve(q, pf.q_prime(af, l))))
        h_det = -pf.detq_expansion_prime(af, l) / det
        assert abs(h_tr - h_det) < 1e-9 * max(1.0, abs(h_tr))

    def test_direct_recomputation_on_parallel_chart(self, m_tau_m2):
        surface, _ = m_tau_m2
        u = np.array([0.7, 1.1, 2.0])
        pg = sc.point_geometry(surface, u)
        af = pf.adapted_frame(pg)
        for l in (0.3, -0.5):
            pgl = sc.point_geometry(pf.parallel_surface(surface, l), u)
            assert pgl.H == pytest.approx(pf.mean_curvature_of_parallel(af, l), abs=1e-6)
            assert np.max(np.abs(pgl.lambdas - pf.parallel_lambdas(af, l))) < 1e-6

    def test_focal_point_raises(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.7, 1.1, 2.0])))
        l_star = mz.mtau_focal_radius(-2.0)
        with pytest.raises(pf.FocalPointError):
            pf.mean_curvature_of_parallel(af, l_star)


def flowed(surface, u, l):
    """Point and unit normal of the parallel chart at distance l, as ambient 6-vectors."""
    p, q, n = pf.parallel_surface(surface, l).chart([float(x) for x in u])
    return np.array([*p, *q], dtype=float), np.array(n, dtype=float)


class TestParallelPoints:
    def test_zero_distance(self, m_1m1_04):
        surface, _ = m_1m1_04
        u = np.array([0.2, -0.3, 0.5])
        pg = sc.point_geometry(surface, u)
        point, normal = flowed(surface, u, 0.0)
        assert np.allclose(point, pg.val)
        assert np.allclose(normal, pg.N)

    def test_angle_preserved_along_flow(self):
        surface, _ = mz.make_M_1m1(0.4)
        u = np.array([0.2, -0.3, 0.5])
        pg = sc.point_geometry(surface, u)
        point, nl = flowed(surface, u, 0.37)
        assert ps.ambient_inner(ps.P6 @ nl, nl) == pytest.approx(pg.C, abs=1e-10)
        # J1 N is untouched by the flow
        j1_base = ps.complex_structures(pg.val, pg.N)[0]
        j1_flow = ps.complex_structures(point, nl)[0]
        assert np.max(np.abs(j1_base - j1_flow)) < 1e-10

    def test_shifted_argument_closed_form(self, m_1m1_04):
        surface, _ = m_1m1_04
        c = 0.4
        t, r, s = 0.2, -0.3, 0.5
        l = 0.37
        point, _ = flowed(surface, [t, r, s], l)
        from h2h2.lorentz import PlaneCurve
        g1, _, n1, _ = PlaneCurve(1.0).state(r)
        g2, _, n2, _ = PlaneCurve(-1.0, normal_sign=-1).state(s)
        a1 = math.sqrt(c) * t + math.sqrt(1 - c) * l
        a2 = math.sqrt(1 - c) * t - math.sqrt(c) * l
        want = np.concatenate([
            math.cosh(a1) * g1 + math.sinh(a1) * n1,
            math.cosh(a2) * g2 + math.sinh(a2) * n2,
        ])
        assert np.max(np.abs(point - want)) < 1e-12

    def test_flow_is_factorwise_exponential(self, m_11_03):
        # the parallel point is exp_p(l N1) x exp_q(l N2) in the two factors
        def h2_exp(p, w, l):
            # the geodesic from p with velocity w, at parameter l
            nrm = math.sqrt(w[1] ** 2 + w[2] ** 2 - w[0] ** 2)
            return math.cosh(nrm * l) * p + math.sinh(nrm * l) * w / nrm

        surface, _ = m_11_03
        u = np.array([0.3, -0.6, 0.8])
        pg = sc.point_geometry(surface, u)
        for l in (0.45, -0.7):
            point, _ = flowed(surface, u, l)
            p_l = h2_exp(pg.val[:3], pg.N[:3], l)
            q_l = h2_exp(pg.val[3:], pg.N[3:], l)
            assert np.max(np.abs(point - np.concatenate([p_l, q_l]))) < 1e-13

    def test_parallel_normal_unit_and_orthogonal(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        u = np.array([0.1, 0.4, -0.2])
        l = 0.45
        _, nl = flowed(surface, u, l)
        pgl = sc.point_geometry(pf.parallel_surface(surface, l), u)
        assert abs(ps.ambient_inner(nl, nl) - 1.0) < 1e-10
        assert np.max(np.abs(pgl.N - nl)) < 1e-10
        assert np.max(np.abs(pgl.jac.T @ sc.ETA6 @ nl)) < 1e-9

    def test_parallel_chart_calls_the_base_chart_once(self, m_kk_tanh):
        base, calls = counted_chart(m_kk_tanh[0])
        u = np.array([0.1, 0.4, -0.2])
        parallel = pf.parallel_surface(base, 0.45)
        parallel.chart(ad.jet_variables(u))
        assert len(calls) == 1
        sc.point_geometry(parallel, u)
        assert len(calls) == 2


class TestEq35:
    def test_closed_form_parallel_curvatures(self):
        c = 0.4
        surface, _ = mz.make_M_kk(c, 1.0, -1.0)
        for u in domain_samples(surface, 5):
            af = pf.adapted_frame(sc.point_geometry(surface, u))
            t = float(u[0])
            for l in (0.3, -0.45, 0.8):
                a1 = math.sqrt(c) * t + math.sqrt(1 - c) * l
                a2 = math.sqrt(1 - c) * t - math.sqrt(c) * l
                lam2 = -math.sqrt(1 - c) * (math.sinh(a1) - math.cosh(a1)) / (
                    math.cosh(a1) - math.sinh(a1))
                lam3 = math.sqrt(c) * (math.sinh(a2) + math.cosh(a2)) / (
                    math.cosh(a2) + math.sinh(a2))
                want = np.sort([0.0, lam2, lam3])
                assert np.max(np.abs(pf.parallel_lambdas(af, l) - want)) < 1e-8


class TestDetQDerivatives:
    def test_order_one_is_minus_h(self, m_11_03):
        surface, _ = m_11_03
        pg = sc.point_geometry(surface, np.array([0.2, 0.1, 0.3]))
        af = pf.adapted_frame(pg)
        der = pf.detq_derivatives_at_0(af, pg.rho)
        assert der[1] == pytest.approx(-pg.H, abs=1e-12)

    def test_order_two_is_rho_plus_three(self, m_1m1_04):
        surface, _ = m_1m1_04
        pg = sc.point_geometry(surface, np.array([0.2, 0.1, 0.3]))
        af = pf.adapted_frame(pg)
        der = pf.detq_derivatives_at_0(af, pg.rho)
        assert der[2] == pytest.approx(pg.rho + 3.0, abs=1e-12)
        num = pf.detq_derivatives_numeric(af)
        assert num[2] == pytest.approx(pg.rho + 3.0, abs=1e-12)

    def test_m_tau_order_four_value(self, m_tau_m2):
        # C = 0, H12 = H13 = 0, rho = -1 gives 6 - 0 + 0 + 0 - 2 = 4
        surface, _ = m_tau_m2
        pg = sc.point_geometry(surface, np.array([0.7, 1.1, 2.0]))
        af = pf.adapted_frame(pg)
        der = pf.detq_derivatives_at_0(af, pg.rho)
        assert der[4] == pytest.approx(4.0, abs=1e-9)
        num = pf.detq_derivatives_numeric(af)
        assert num[4] == pytest.approx(4.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames())
    def test_closed_forms_match_stencils(self, af):
        rho = af.rho
        closed = pf.detq_derivatives_at_0(af, rho)
        numeric = pf.detq_derivatives_numeric(af)
        scale = max(1.0, float(np.max(np.abs(af.A))) ** 3)
        assert abs(closed[1] - numeric[1]) < 1e-12 * scale
        assert abs(closed[2] - numeric[2]) < 1e-12 * scale
        assert abs(closed[4] - numeric[4]) < 1e-11 * scale
        assert abs(closed[6] - numeric[6]) < 1e-11 * scale
        assert abs(closed[8] - numeric[8]) < 1e-11 * scale

    @settings(max_examples=40, deadline=None)
    @given(synthetic_frames())
    def test_minor_sum_identity_synthetic(self, af):
        h12, h13, h23 = af.principal_minors()
        lam = np.linalg.eigvalsh(af.A)
        e2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
        assert 2 * (h12 + h13 + h23) == pytest.approx(2 * e2, abs=1e-10)
        assert af.rho + 2 == pytest.approx(2 * e2, abs=1e-10)


class TestFocalStructure:
    def test_root_location(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.7, 1.1, 2.0])))
        root = pf.find_focal_radius(af, 0.5, 1.2)
        assert abs(root - mz.mtau_focal_radius(-2.0)) < 1e-6

    def test_pushforward_norm(self, m_tau_m2):
        surface, _ = m_tau_m2
        u = np.array([0.7, 1.1, 2.0])
        assert pf.focal_pushforward_norm(surface, u, 0.0) == pytest.approx(1.0, abs=1e-12)
        l_star = mz.mtau_focal_radius(-2.0)
        assert pf.focal_pushforward_norm(surface, u, l_star) < 1e-8

    def test_bracket_sign_change(self, m_tau_m2):
        # cosh(l/sqrt2) - sqrt((tau-1)/(tau+1)) sinh(l/sqrt2) flips sign at
        # the focal radius, and the pushforward norm is its absolute value
        surface, _ = m_tau_m2
        u = np.array([0.7, 1.1, 2.0])
        ratio = math.sqrt(3.0)
        l_star = mz.mtau_focal_radius(-2.0)
        for l in (l_star - 0.2, l_star + 0.2):
            bracket = math.cosh(l / math.sqrt(2)) - ratio * math.sinh(l / math.sqrt(2))
            assert pf.focal_pushforward_norm(surface, u, l) == pytest.approx(
                abs(bracket), abs=1e-10)
        before = math.cosh((l_star - 0.2) / math.sqrt(2)) - ratio * math.sinh(
            (l_star - 0.2) / math.sqrt(2))
        after = math.cosh((l_star + 0.2) / math.sqrt(2)) - ratio * math.sinh(
            (l_star + 0.2) / math.sqrt(2))
        assert before > 0 > after


class TestFlowInvariants:
    def test_q_and_det_along_the_flow(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, np.array([0.7, 1.1, 2.0])))
        q0 = pf.q_matrix(af, 0.0)
        assert np.allclose(q0, np.eye(3))
        assert float(np.linalg.det(q0)) == pytest.approx(1.0)
        # det Q stays positive on the component of l = 0 before the focal value
        l_star = mz.mtau_focal_radius(-2.0)
        for l in np.linspace(-0.5, l_star - 0.05, 15):
            assert float(np.linalg.det(pf.q_matrix(af, l))) > 0


def focal_flags_reference(values):
    flags = np.min(np.abs(values), axis=0) < 1e-8
    for col in values:
        for j in range(len(col) - 1):
            if col[j] * col[j + 1] < 0:
                flags[j if abs(col[j]) <= abs(col[j + 1]) else j + 1] = True
    return flags


det_samples = st.one_of(st.sampled_from([0.0, -0.0, 5e-9, -5e-9, 0.5, -0.5, 1.0, -1.0]),
                        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
              elements=det_samples))
@example(np.array([[1.0, -1.0, 0.5, -0.5, 0.0, 2.0, -2.0],
                   [0.3, 0.3, -0.3, 5e-9, -1.0, 1.0, 1.0]]))
def test_focal_flags_match_double_loop(values):
    assert np.array_equal(pf._focal_flags(values), focal_flags_reference(values))


class TestIsoparametricScan:
    def grid(self):
        return np.linspace(-1.0, 1.0, 21)

    def test_horocycle_product_isoparametric(self, m_1m1_04):
        surface, _ = m_1m1_04
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 6), self.grid())
        assert rep.mode == "adapted"
        assert rep.isoparametric_within(1e-8)

    def test_tube_isoparametric(self):
        surface, _ = mz.make_M_tau(-3.0)
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 6), self.grid())
        assert rep.isoparametric_within(1e-8)
        assert not rep.excluded   # focal radius 1.2465 lies outside the grid

    def test_generic_curve_not_isoparametric(self):
        surface, _ = mz.make_M_kk(0.5, ad.tanh, 1.0)
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 6), self.grid())
        assert max(rep.max_h_spread, rep.max_lambda_spread) > 1e-3

    def test_curve_factor_mode(self, m_gamma_2):
        surface, _ = m_gamma_2
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 6), self.grid())
        assert rep.mode == "curve_factor"
        assert rep.isoparametric_within(1e-8)
        # kappa = 2 has a focal value at arctanh(1/2) ~ 0.549; the grid point
        # nearest it survives because the pole sits between grid nodes
        assert np.all(~np.isnan(rep.h_spread) | rep.focal)

    def test_focal_exclusion_in_curve_mode(self, m_gamma_2):
        surface, _ = m_gamma_2
        l_pole = math.atanh(0.5)
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 4),
                                    np.array([0.0, l_pole, 1.0]))
        assert rep.excluded == [pytest.approx(l_pole)]


class TestFrameIdentities:
    def test_all_pass_on_m11(self, m_11_03):
        surface, _ = m_11_03
        rep = pf.frame_identity_checks(sc.point_geometry(surface, np.array([0.25, 0.5, -0.4])))
        assert not any(it.skipped for it in rep.items)
        assert rep.max_residual() < 1e-7

    def test_m_tau_skips_product_frame_identity(self, m_tau_m2):
        surface, _ = m_tau_m2
        rep = pf.frame_identity_checks(sc.point_geometry(surface, np.array([0.7, 1.1, 2.0])))
        assert rep.item("product_frame_connections").skipped
        assert "principal" in rep.item("product_frame_connections").reason
        others = [it for it in rep.items if it.name != "product_frame_connections"]
        assert not any(it.skipped for it in others)
        assert rep.max_residual() < 1e-7

    def test_equal_curvature_pair_skips(self, m_1m1_half):
        surface, _ = m_1m1_half
        rep = pf.frame_identity_checks(sc.point_geometry(surface, np.array([0.2, 0.3, -0.1])))
        it = rep.item("eigenframe_connections")
        assert it.skipped
        assert "lambda_1 != lambda_2" in it.reason

    def test_nonconstant_curvature_guards(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        rep = pf.frame_identity_checks(sc.point_geometry(surface, np.array([0.2, 0.4, -0.3])))
        assert not rep.item("v_direction_identity").skipped
        assert not rep.item("product_frame_connections").skipped
        assert rep.item("codazzi_frame_relation").skipped
        assert "constant" in rep.item("codazzi_frame_relation").reason
        assert rep.max_residual() < 1e-7

    def test_degenerate_angle_skips_everything(self, m_gamma_2):
        surface, _ = m_gamma_2
        rep = pf.frame_identity_checks(sc.point_geometry(surface, np.array([0.3, 0.8, 1.0])))
        assert all(it.skipped for it in rep.items)


class TestFocalRoots:
    def test_every_base_point_is_bisected(self):
        # each base point of M_kk(c=0.5, kappa=2, kappa~=1) has its own focal
        # value, so every excluded node comes with its own root
        spec = mz.ModelSpec("M_kk", {"c": 0.5, "kappa": 2.0, "kappa_tilde": "one"})
        surface, _ = mz.build_model(spec)
        step = 0.01
        grid = rp.SuiteConfig(model=spec, l_grid=(-2.0, 2.0, step)).grid()
        rep = pf.isoparametric_scan(surface, rp.sobol_points(surface.domain, 8, 0), grid)
        assert len(rep.excluded) == 8
        assert len(rep.focal_roots) == len(rep.excluded)
        for node, root in zip(rep.excluded, rep.focal_roots):
            assert abs(node - root) < step

    def test_shared_focal_value_is_reported_once(self, m_tau_m2):
        surface, _ = m_tau_m2
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 8),
                                    np.linspace(-2.0, 2.0, 401))
        assert rep.focal_roots == [pytest.approx(mz.mtau_focal_radius(-2.0), abs=1e-9)]


class TestScanColumns:
    """The columnar report against the per-row code it replaced."""

    def scan(self):
        surface, _ = mz.make_M_tau(-1.5)
        pts = rp.sobol_points(surface.domain, 8, 0)
        grid = rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -1.5}),
                              l_grid=(-2.0, 2.0, 0.002)).grid()
        return surface, pts, grid, pf.isoparametric_scan(surface, pts, grid)

    def test_columns_and_spreads_equal_the_per_row_code(self):
        _, _, grid, rep = self.scan()
        columns = (rep.l, rep.h_mean, rep.h_spread, rep.lambda_spread, rep.min_abs_detq, rep.focal)
        assert all(len(c) == len(grid) for c in columns)
        assert np.array_equal(rep.l, grid)
        # the per-row code: one tuple of Python scalars per node, reduced by
        # generators over the non-focal rows
        rows = list(zip(*(c.tolist() for c in columns)))
        assert 0 < sum(r[5] for r in rows) < len(rows)      # the grid crosses a focal value
        assert rep.excluded == [r[0] for r in rows if r[5]]
        assert rep.max_h_spread == max(r[2] for r in rows if not r[5])
        assert rep.max_lambda_spread == max(r[3] for r in rows if not r[5])
        assert type(rep.max_h_spread) is float and type(rep.max_lambda_spread) is float
        # NaN exactly on the focal nodes
        for c in (rep.h_mean, rep.h_spread, rep.lambda_spread):
            assert np.array_equal(np.isnan(c), rep.focal)

    def test_columns_equal_a_per_node_recomputation(self):
        surface, pts, grid, rep = self.scan()
        frames = [pf.adapted_frame(pg) for pg in sc.point_geometry(surface, pts)]
        for j in range(0, len(grid), 97):
            l = float(grid[j])
            dets = [float(pf.detq_expansion(af, l)) for af in frames]
            assert rep.min_abs_detq[j] == min(map(abs, dets))
            if rep.focal[j]:
                continue
            hs = [float(pf.mean_curvature_of_parallel(af, l)) for af in frames]
            lams = np.array([pf.parallel_lambdas(af, l) for af in frames])
            spread = float(np.max(lams.max(axis=0) - lams.min(axis=0)))
            assert rep.h_mean[j] == pytest.approx(np.mean(hs), rel=1e-13, abs=1e-13)
            assert rep.h_spread[j] == pytest.approx(max(hs) - min(hs), abs=1e-13)
            assert rep.lambda_spread[j] == pytest.approx(spread, abs=1e-13)

    def test_every_node_focal_has_no_spread(self, m_tau_m2):
        surface, _ = m_tau_m2
        rep = pf.isoparametric_scan(surface, domain_samples(surface, 8),
                                    np.array([mz.mtau_focal_radius(-2.0)]))
        assert rep.focal.all()
        assert math.isnan(rep.max_h_spread) and math.isnan(rep.max_lambda_spread)
        assert not rep.isoparametric_within(1.0)


def richardson(fn, u, m, h=1e-3):
    """Richardson-refined central difference of fn along the chart axis m."""
    e = np.zeros(3)
    e[m] = 1.0

    def diff(hh):
        return (fn(u + hh * e) - fn(u - hh * e)) / (2.0 * hh)

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


class TestFrameFieldJacobians:
    """Exact field Jacobians against differences of per-point recomputations."""

    def check(self, exact, fn, u):
        for m in range(3):
            ref = richardson(fn, u, m)
            assert np.max(np.abs(exact[..., m] - ref)) < 1e-7 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("model", ["m_kk_tanh", "m_tau_m2", "level_set"])
    def test_adapted_frame_fields(self, model, request):
        surface = request.getfixturevalue(model)
        surface = surface[0] if isinstance(surface, tuple) else surface
        for u in domain_samples(surface, 3):
            pg = sc.point_geometry(surface, u)
            d = sc.point_derivatives(pg)
            dE = pf._adapted_frame_jacobians(pg, d)
            self.check(np.moveaxis(dE, 0, 1),
                       lambda x: pf.frame_vectors(sc.point_geometry(surface, x)).T, u)
            for i in (1, 2):
                self.check(pf._shape_apply_jacobian(pg, d, pf.frame_vectors(pg)[i], dE[i]),
                           lambda x, i=i: (lambda q: q.shape_apply(pf.frame_vectors(q)[i]))(
                               sc.point_geometry(surface, x)), u)

    @pytest.mark.parametrize("model", ["m_kk_tanh", "m_tau_m2"])
    def test_principal_fields(self, model, request):
        # both models have three distinct principal curvatures
        surface, _ = request.getfixturevalue(model)
        for u in domain_samples(surface, 3):
            pg = sc.point_geometry(surface, u)
            dlam, dP = pf._principal_jacobians(pg, sc.point_derivatives(pg))
            self.check(dlam, lambda x: sc.point_geometry(surface, x).lambdas, u)

            def principal(x):
                # eigenvector signs follow the centre point's
                cols = sc.point_geometry(surface, x).principal_ambient
                signs = np.sign(np.einsum("ai,ab,bi->i", cols, sc.ETA6, pg.principal_ambient))
                return cols * signs

            self.check(np.moveaxis(dP, 0, 1), principal, u)
