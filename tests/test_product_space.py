import math

import numpy as np
import pytest

from h2h2 import lorentz as lz
from h2h2 import product_space as ps

from conftest import inner


def h2_point(w):
    """Point of H² at distance |w| from (1,0,0) in the direction (0, w1, w2)."""
    r = math.hypot(*w)
    return np.array([math.cosh(r), math.sinh(r) * w[0] / r, math.sinh(r) * w[1] / r])


def random_product_point(rng):
    return np.concatenate([h2_point(rng.normal(size=2) * 0.8),
                           h2_point(rng.normal(size=2) * 0.8)])


def random_tangent(base, rng, scale=1.0):
    def tangentize(x, raw):
        return raw + lz.lorentz_inner(raw, x) * x

    return np.concatenate([tangentize(base[:3], rng.normal(size=3) * scale),
                           tangentize(base[3:], rng.normal(size=3) * scale)])


def J1(x, w):
    return ps.complex_structures(x, w)[0]


def J2(x, w):
    return ps.complex_structures(x, w)[1]


def act(g, x):
    """Image of an ambient 6-vector under the blocks (A1, A2)."""
    return np.concatenate([g[0] @ x[:3], g[1] @ x[3:]])


ORIGIN = np.array([1.0, 0, 0, 1.0, 0, 0])


class TestMetricAndStructures:
    def test_metric_examples(self):
        x = np.array([0.0, 1, 0, 0, 0, 0])
        assert inner(x, x) == 1.0
        y = np.array([0.0, 0, 0, 0, 1, 0])
        assert inner(x, y) == 0.0
        z = np.array([0.0, 1, 0, 0, 0, 1])
        assert inner(z, z) == 2.0

    def test_p_eigenspaces(self):
        x = np.array([0.0, 1, 0, 0, 0, 0])
        assert np.allclose(ps.P6 @ x, x)
        y = np.array([0.0, 0, 0, 0, 0, 1])
        assert np.allclose(ps.P6 @ y, -y)

    def test_p_involution(self, rng):
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            assert np.allclose(ps.P6 @ (ps.P6 @ x), x)

    def test_j_squares_to_minus_one(self, rng):
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            assert np.allclose(J1(base, J1(base, x)), -x, atol=1e-12)
            assert np.allclose(J2(base, J2(base, x)), -x, atol=1e-12)

    def test_p_from_complex_structures(self, rng):
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            lhs = -J1(base, J2(base, x))
            assert np.allclose(lhs, ps.P6 @ x, atol=1e-12)
            rhs = -J2(base, J1(base, x))
            assert np.allclose(rhs, ps.P6 @ x, atol=1e-12)

    def test_j_isometries(self, rng):
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            y = random_tangent(base, rng)
            m = inner(x, y)
            assert inner(J1(base, x), J1(base, y)) == pytest.approx(m, abs=1e-11)
            assert inner(J2(base, x), J2(base, y)) == pytest.approx(m, abs=1e-11)

    def test_p_self_adjoint(self, rng):
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            y = random_tangent(base, rng)
            assert inner(ps.P6 @ x, y) == pytest.approx(
                inner(x, ps.P6 @ y), abs=1e-11)

    def test_j_columns_of_a_jacobian(self, rng):
        # a 6 x k array is taken column by column, as for a chart Jacobian
        base = random_product_point(rng)
        cols = np.stack([random_tangent(base, rng) for _ in range(3)], axis=1)
        got1, got2 = ps.complex_structures(base, cols)
        for i in range(3):
            assert np.array_equal(got1[:, i], J1(base, cols[:, i]))
            assert np.array_equal(got2[:, i], J2(base, cols[:, i]))


class TestIsometries:
    def test_lorentz_defect_of_invalid_block(self):
        bad = np.eye(3)
        bad[0, 0] = 2.0
        assert ps.lorentz_defect([bad, np.eye(3)]) == 3.0
        assert ps.lorentz_defect([np.eye(3), np.eye(3)]) == 0.0

    @pytest.mark.parametrize("c", [0.25, 0.3, 0.5, 0.77])
    def test_stacked_blocks_equal_the_one_point_blocks(self, c):
        # the orbit checks' 125 grid points as one stacked call: each block,
        # and the defect of the stack, bit for bit the one-point code
        axes = [np.linspace(-1.0, 1.0, 5), np.linspace(-1.5, 1.5, 5), np.linspace(-2.0, 2.0, 5)]
        t, r, s = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3).T
        eta = np.diag([-1.0, 1.0, 1.0])
        for maker in (ps.group_element_G, ps.group_element_B):
            g1, g2 = maker(c, t, r, s)
            assert g1.shape == g2.shape == (125, 3, 3)
            worst = 0.0
            for i, args in enumerate(zip(t.tolist(), r.tolist(), s.tolist())):
                h1, h2 = maker(c, *args)
                assert np.array_equal(g1[i], h1) and np.array_equal(g2[i], h2)
                for b in (h1, h2):
                    worst = max(worst, float(np.max(np.abs(b.T @ eta @ b - eta))))
            assert ps.lorentz_defect(np.concatenate([g1, g2])) == worst

    def test_group_identity_elements(self):
        for maker in (ps.group_element_G, ps.group_element_B):
            g1, g2 = maker(0.37, 0.0, 0.0, 0.0)
            assert np.allclose(g1, np.eye(3), atol=1e-15)
            assert np.allclose(g2, np.eye(3), atol=1e-15)

    def test_block_preserves_lorentz_form(self):
        eta = np.diag([-1.0, 1, 1])
        g1 = ps.group_element_G(0.4, 0.3, -1.1, 0.0)[0]
        assert np.max(np.abs(g1.T @ eta @ g1 - eta)) < 1e-12

    def test_c_out_of_range(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                ps.group_element_G(bad, 0.1, 0.2, 0.3)
            with pytest.raises(ValueError):
                ps.group_element_B(bad, 0.1, 0.2, 0.3)

    def test_composition_closure(self, rng):
        for _ in range(10):
            t1, r1, s1, t2, r2, s2 = rng.normal(size=6)
            for maker, c in ((ps.group_element_G, 0.6), (ps.group_element_B, 0.3)):
                g, h = maker(c, t1, r1, s1), maker(c, t2, r2, s2)
                assert ps.lorentz_defect([g[0] @ h[0], g[1] @ h[1]]) < 1e-10

    def test_metric_preservation(self, rng):
        g = ps.group_element_G(0.25, -0.7, 0.5, 1.2)
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            y = random_tangent(base, rng)
            assert inner(act(g, x), act(g, y)) == \
                pytest.approx(inner(x, y), abs=1e-10)

    def test_p_commutes_with_diagonal_isometries(self, rng):
        g = ps.group_element_G(0.45, 0.6, -0.4, 0.9)
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            lhs = ps.P6 @ act(g, x)
            rhs = act(g, ps.P6 @ x)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
