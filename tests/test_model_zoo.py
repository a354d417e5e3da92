import math

import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import model_zoo as mz
from h2h2 import product_space as ps
from h2h2 import surface_calculus as sc

from conftest import domain_samples, inner, sectional


class TestMGamma:
    @pytest.mark.parametrize("kappa,expect", [
        (0.0, (0.0, 0.0, 0.0)),
        (1.0, (0.0, 0.0, 1.0)),
        (2.0, (0.0, 0.0, 2.0)),
        (0.5, (0.0, 0.0, 0.5)),
    ])
    def test_curvature_spectrum(self, kappa, expect):
        surface, oracle = mz.make_M_Gamma(kappa)
        for u in domain_samples(surface, 8):
            pg = sc.point_geometry(surface, u)
            assert np.max(np.abs(pg.lambdas - np.array(expect))) < 1e-8
            assert abs(pg.C - 1.0) < 1e-9
        assert oracle.C == 1.0


class TestMkk:
    def test_horocycle_pair_curvatures(self):
        surface, _ = mz.make_M_kk(0.5, 1.0, -1.0)
        want = np.sort([0.0, math.sqrt(0.5), math.sqrt(0.5)])
        for u in domain_samples(surface, 8):
            pg = sc.point_geometry(surface, u)
            assert np.max(np.abs(pg.lambdas - want)) < 1e-8

    def test_equal_horocycle_curvatures(self):
        surface, _ = mz.make_M_kk(0.3, 1.0, 1.0)
        want = np.sort([0.0, math.sqrt(0.7), -math.sqrt(0.3)])
        for u in domain_samples(surface, 8):
            pg = sc.point_geometry(surface, u)
            assert np.max(np.abs(pg.lambdas - want)) < 1e-8

    def test_generic_curvature_matches_formula(self):
        surface, oracle = mz.make_M_kk(0.4, ad.tanh, 0.0)
        u = np.array([0.2, 0.5, -0.3])
        pg = sc.point_geometry(surface, u)
        assert np.max(np.abs(pg.lambdas - oracle.lambdas(u))) < 1e-7
        # the formula values themselves at this point
        sc_, s1c = math.sqrt(0.4), math.sqrt(0.6)
        k = math.tanh(0.5)
        lam2 = -s1c * (math.sinh(sc_ * 0.2) - math.cosh(sc_ * 0.2) * k) / (
            math.cosh(sc_ * 0.2) - math.sinh(sc_ * 0.2) * k)
        lam3 = sc_ * math.tanh(s1c * 0.2)
        assert np.max(np.abs(pg.lambdas - np.sort([0.0, lam2, lam3]))) < 1e-7

    def test_constant_angle(self):
        for c in (0.2, 0.5, 0.8):
            surface, oracle = mz.make_M_kk(c, ad.tanh, 0.0)
            assert oracle.C == pytest.approx(1 - 2 * c)
            u = np.array([0.1, -0.4, 0.9])
            assert abs(sc.point_geometry(surface, u).C - (1 - 2 * c)) < 1e-10

    def test_domain_error_names_offending_factor(self):
        surface, oracle = mz.make_M_kk(0.5, 2.0, 0.0)
        t_star = math.atanh(0.5) / math.sqrt(0.5)
        with pytest.raises(mz.DomainError, match="first-factor"):
            oracle.lambdas(np.array([t_star, 0.0, 0.0]))

    def test_c_range_validation(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                mz.make_M_kk(bad, 1.0, -1.0)


class TestSpecializations:
    def test_m1m1_quarter(self):
        surface, _ = mz.build_model(mz.ModelSpec("M_1m1", {"c": 0.25}))
        want = np.sort([0.0, 0.5, math.sqrt(0.75)])
        for u in domain_samples(surface, 8):
            assert np.max(np.abs(sc.point_geometry(surface, u).lambdas - want)) < 1e-8

    def test_m11_half_minimal(self, m_11_half, rng):
        surface, _ = m_11_half
        for u in domain_samples(surface, 8):
            pg = sc.point_geometry(surface, u)
            assert abs(pg.H) < 1e-9
            x = pg.from_coords(rng.normal(size=3))
            y = pg.from_coords(rng.normal(size=3))
            assert sectional(pg, x, y) == pytest.approx(-0.5, abs=1e-6)


class TestMtau:
    def test_eigenvalues(self, m_tau_m2):
        surface, _ = m_tau_m2
        want = np.sort([0.0, math.sqrt(1 / 6), math.sqrt(3 / 2)])
        for u in domain_samples(surface, 8):
            pg = sc.point_geometry(surface, u)
            assert np.max(np.abs(pg.lambdas - want)) < 1e-8

    def test_product_angle_vanishes(self, m_tau_m2):
        surface, _ = m_tau_m2
        c_dev = max(abs(sc.point_geometry(surface, u).C)
                    for u in domain_samples(surface, 100))
        assert c_dev < 1e-10

    def test_level_set_constraint(self, m_tau_m2):
        surface, _ = m_tau_m2
        eta = np.diag([-1.0, 1, 1])
        for u in domain_samples(surface, 20):
            x = surface.point(u)
            assert abs(x[:3] @ eta @ x[3:] + 2.0) < 1e-10

    def test_tube_identity(self):
        for tau in (-1.5, -2.0, -5.0):
            radius = mz.mtau_focal_radius(tau)
            assert abs(math.cosh(math.sqrt(2) * radius) + tau) < 1e-10

    def test_tau_range_validation(self):
        for bad in (-1.0, 0.0, 2.0):
            with pytest.raises(ValueError):
                mz.make_M_tau(bad)


class TestOracles:
    def test_closed_form_principal_directions(self, m_1m1_04, m_tau_m2, m_kk_tanh, m_gamma_2):
        # the chart directions of the curve-built families, and V, J1 N, J2 N
        # of the tube, are principal with the oracle's curvatures
        for surface, oracle in (m_1m1_04, m_tau_m2, m_kk_tanh, m_gamma_2):
            for u in domain_samples(surface, 6):
                pg = sc.point_geometry(surface, u)
                if surface is m_tau_m2[0]:
                    j1n, j2n = ps.complex_structures(pg.val, pg.N)
                    pairs = [(pg.V / math.sqrt(1.0 - pg.C ** 2), 0.0),
                             (j1n, mz.mtau_lambda_big(-2.0)),
                             (j2n, mz.mtau_lambda_small(-2.0))]
                else:
                    pairs = []
                    for k in range(3):
                        x = pg.jac[:, k] / math.sqrt(inner(pg.jac[:, k], pg.jac[:, k]))
                        pairs.append((x, inner(pg.shape_apply(x), x)))
                    assert np.sort([lam for _, lam in pairs]) == pytest.approx(
                        oracle.lambdas(u), abs=1e-8)
                for vec, lam in pairs:
                    av = pg.shape_apply(vec)
                    assert np.max(np.abs(av - lam * vec)) < 1e-8

    @pytest.mark.parametrize("spec", mz.CATALOG + (
        mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"}),), ids=str)
    def test_sample_array_equals_row_calls(self, spec):
        surface, oracle = mz.build_model(spec)
        u = domain_samples(surface, 40)
        lam = oracle.lambdas(u)
        assert lam.shape == (40, 3)
        assert np.array_equal(lam, [oracle.lambdas(x) for x in u])

    def test_sample_array_equals_math_reference(self):
        # the two-curve formula float by float through math, as one point takes it
        c = 0.5
        surface, oracle = mz.build_model(
            mz.ModelSpec("M_kk", {"c": c, "kappa": "tanh", "kappa_tilde": "one"}))
        u = domain_samples(surface, 1000)
        got = oracle.lambdas(u)
        sc_, s1c = math.sqrt(c), math.sqrt(1.0 - c)
        for row, (t, r, _) in zip(got, u.tolist()):
            k1 = math.tanh(r)
            lam2 = -s1c * (math.sinh(sc_ * t) - math.cosh(sc_ * t) * k1) / (
                math.cosh(sc_ * t) - math.sinh(sc_ * t) * k1)
            lam3 = sc_ * (math.sinh(s1c * t) - math.cosh(s1c * t)) / (
                math.cosh(s1c * t) - math.sinh(s1c * t))
            assert row.tolist() == sorted([0.0, lam2, lam3])

    def test_sample_array_raises_the_first_failing_rows_error(self):
        _, oracle = mz.make_M_kk(0.3, 2.0, 2.0)
        t1 = math.atanh(0.5) / math.sqrt(0.3)     # the first factor's denominator vanishes
        t2 = math.atanh(0.5) / math.sqrt(0.7)     # the second factor's
        u = np.array([[0.1, 0.0, 0.0], [t2, 0.0, 0.0], [t1, 0.0, 0.0]])
        with pytest.raises(mz.DomainError) as row:
            oracle.lambdas(u[1])
        with pytest.raises(mz.DomainError, match="second-factor") as batch:
            oracle.lambdas(u)
        assert str(batch.value) == str(row.value)
        with pytest.raises(mz.DomainError, match="first-factor"):
            oracle.lambdas(u[[0, 2, 1]])

    def test_normal_matches_hint_up_to_sign(self, m_11_03, m_tau_m2):
        for surface, _ in (m_11_03, m_tau_m2):
            for u in domain_samples(surface, 10):
                pg = sc.point_geometry(surface, u)
                n_null = sc._normal_from_constraints(sc.chart_jet(surface, u))
                if float(n_null @ ps.ETA6 @ pg.N) < 0:
                    n_null = -n_null
                assert np.max(np.abs(n_null - pg.N)) < 1e-9

    def test_av_zero_constant_angle_families(self, m_1m1_04, m_11_03, m_tau_m2, m_kk_tanh):
        for surface, _ in (m_1m1_04, m_11_03, m_tau_m2, m_kk_tanh):
            for u in domain_samples(surface, 10):
                pg = sc.point_geometry(surface, u)
                assert np.linalg.norm(pg.shape_apply(pg.V)) < 1e-8


class TestClosedForms:
    @pytest.mark.parametrize("c,k0", [(0.5, 0.0), (0.3, 0.6), (0.7, -0.4)])
    def test_product_lambdas_follow_the_tanh_profile(self, c, k0):
        # for a constant first curvature |k0| < 1 the first factor's nonzero
        # principal curvature is -sqrt(1-c) tanh(sqrt(c) t - arctanh(k0))
        t = np.linspace(-1.0, 1.0, 41)
        lam = mz.product_lambdas(c, math.sqrt(c) * t, math.sqrt(1.0 - c) * t, k0, 0.3)
        profile = -math.sqrt(1.0 - c) * np.tanh(math.sqrt(c) * t - math.atanh(k0))
        assert np.max(np.min(np.abs(lam - profile[:, None]), axis=1)) < 1e-14

    @pytest.mark.parametrize("tau", [-1.0001, -1.5, -2.0, -5.0])
    def test_mtau_focal_radius_is_the_tube_radius(self, tau):
        # cosh(sqrt(2) r) = -tau at the tube radius over the diagonal
        assert math.cosh(math.sqrt(2.0) * mz.mtau_focal_radius(tau)) == pytest.approx(-tau, rel=1e-15)


class TestRegistry:
    def test_build_model_roundtrip(self):
        spec = mz.ModelSpec("M_tau", {"tau": -2.0})
        surface, oracle = mz.build_model(spec)
        assert "M_tau" in surface.name
        assert oracle.C == 0.0

    def test_parse_kappa(self):
        assert mz.parse_kappa("one") == 1.0
        assert mz.parse_kappa("const:0.3") == 0.3
        assert mz.parse_kappa("-2.5") == -2.5
        assert mz.parse_kappa("tanh") is ad.tanh
        with pytest.raises(ValueError):
            mz.parse_kappa("nope")
        spec = mz.ModelSpec("M_kk", {"c": 0.4, "kappa": "tanh", "kappa_tilde": "const:0.3"})
        assert mz.curvature_pair(spec) == (ad.tanh, 0.3)
        assert mz.curvature_pair(mz.ModelSpec("M_1m1", {"c": 0.4})) == (1.0, -1.0)
        assert mz.curvature_pair(mz.ModelSpec("M_tau", {"tau": -2.0})) is None

    def test_build_m_kk_with_names(self):
        spec = mz.ModelSpec("M_kk", {"c": 0.4, "kappa": "tanh", "kappa_tilde": "zero"})
        surface, oracle = mz.build_model(spec)
        u = np.array([0.2, 0.5, -0.3])
        assert np.max(np.abs(sc.point_geometry(surface, u).lambdas
                             - oracle.lambdas(u))) < 1e-7

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mz.build_model(mz.ModelSpec("M_weird", {}))
