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


def random_isometry(rng):
    """Blocks (A1, A2) of SO+(1,2) x SO+(1,2): exponentials of random so(1,2)
    elements."""
    return tuple(lz.so12_exp(lz._so12(rng.normal(size=3))) for _ in range(2))


def form_defect(blocks):
    """max |Bᵀ η B - η| over 3x3 blocks B: how far they are from O(1,2)."""
    return max(float(np.max(np.abs(b.T @ lz.ETA3 @ b - lz.ETA3))) for b in blocks)


class TestIsometries:
    def test_composition_closure(self, rng):
        for _ in range(10):
            g, h = random_isometry(rng), random_isometry(rng)
            assert form_defect([g[0] @ h[0], g[1] @ h[1]]) < 1e-10

    def test_metric_preservation(self, rng):
        g = random_isometry(rng)
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            y = random_tangent(base, rng)
            assert inner(act(g, x), act(g, y)) == \
                pytest.approx(inner(x, y), abs=1e-10)

    def test_p_commutes_with_diagonal_isometries(self, rng):
        g = random_isometry(rng)
        for _ in range(10):
            base = random_product_point(rng)
            x = random_tangent(base, rng)
            lhs = ps.P6 @ act(g, x)
            rhs = act(g, ps.P6 @ x)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestKillingFields:
    def test_pairing_with_a_normal_is_the_pairing_with_j1n(self, rng):
        # <(w1 ⊠ p, w2 ⊠ q), N> = <w, J1 N>, both pairings ETA6's, for any
        # w of R³ ⊕ R³ and any N tangent to H² × H² at (p, q)
        for _ in range(20):
            base = random_product_point(rng)
            normal = random_tangent(base, rng)
            w = rng.normal(size=6)
            field = np.concatenate([lz.lorentz_cross(w[:3], base[:3]),
                                    lz.lorentz_cross(w[3:], base[3:])])
            assert inner(field, normal) == pytest.approx(inner(w, J1(base, normal)), abs=1e-12)

    def test_fields_are_tangent_to_the_product(self, rng):
        for _ in range(20):
            base = random_product_point(rng)
            w = rng.normal(size=6)
            p_part = lz.lorentz_cross(w[:3], base[:3])
            q_part = lz.lorentz_cross(w[3:], base[3:])
            assert lz.lorentz_inner(p_part, base[:3]) == pytest.approx(0.0, abs=1e-12)
            assert lz.lorentz_inner(q_part, base[3:]) == pytest.approx(0.0, abs=1e-12)

    def test_fields_are_velocities_of_isometries(self, rng):
        # w ⊠ p = X p for X = η [w]x, an element of so(1,2): the field is the
        # velocity at t = 0 of the isometries exp(t X)
        for _ in range(10):
            w, p = rng.normal(size=3), h2_point(rng.normal(size=2))
            cross = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
            X = lz.ETA3 @ cross
            assert np.array_equal(X.T @ lz.ETA3 + lz.ETA3 @ X, np.zeros((3, 3)))
            assert np.allclose(X @ p, lz.lorentz_cross(w, p), rtol=0.0, atol=1e-14)
            h = 1e-4
            velocity = (lz.so12_exp(h * X) @ p - lz.so12_exp(-h * X) @ p) / (2.0 * h)
            assert np.allclose(velocity, X @ p, rtol=0.0, atol=1e-6)
