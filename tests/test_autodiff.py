import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2h2 import autodiff as ad

from conftest import assert_rows_are_their_sub_batches, assert_rows_equal, one

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def f_test(x, y, z):
    # sinh(x) cos(y) + exp(xz) / cosh(z) - sqrt(y + 4), exp as cosh + sinh
    return (ad.sinh(x) * ad.cos(y) + (ad.cosh(x * z) + ad.sinh(x * z)) / ad.cosh(z)
            - ad.sqrt(y + 4.0))


def test_hyperdual_matches_finite_differences():
    # val, d and dd of a Jet are the old hyper-dual part of the jet
    u = np.array([0.4, -0.7, 0.9])
    xs = ad.jet_variables(one(u))
    out = f_test(*xs)

    def fval(v):
        return f_test(*v)

    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (fval(u + e) - fval(u - e)) / (2 * h)
        assert out.d[0, i] == pytest.approx(fd, abs=5e-9)
        for j in range(3):
            e2 = np.zeros(3)
            e2[j] = h
            fdd = (fval(u + e + e2) - fval(u + e - e2)
                   - fval(u - e + e2) + fval(u - e - e2)) / (4 * h * h)
            assert out.dd[0, i, j] == pytest.approx(fdd, abs=5e-6)


def test_float_passthrough():
    assert f_test(0.4, -0.7, 0.9) == pytest.approx(
        math.sinh(0.4) * math.cos(-0.7) + math.exp(0.36) / math.cosh(0.9)
        - math.sqrt(3.3))


def test_dual_first_order():
    # d of a Jet is the dual-number (first-order) part of the jet
    x, y, z = 0.4, -0.7, 0.9
    out = f_test(*ad.jet_variables([[x, y, z]]))
    # gradient of sinh(x) cos(y) + exp(xz)/cosh(z) - sqrt(y + 4) by hand
    e = math.exp(x * z) / math.cosh(z)
    want = [math.cosh(x) * math.cos(y) + z * e,
            -math.sinh(x) * math.sin(y) - 0.5 / math.sqrt(y + 4.0),
            x * e - e * math.tanh(z)]
    assert np.allclose(out.d[0], want, rtol=0, atol=1e-14)
    assert out.val[0] == f_test(x, y, z)


@settings(max_examples=60, deadline=None)
@given(finite, finite)
def test_product_rule(a, b):
    x, y, _ = ad.jet_variables([[a, b, 0.0]])
    p = x * y
    assert p.val[0] == a * b
    assert np.allclose(p.d[0], [b, a, 0])
    # d^2(xy)/dxdy = 1, other second derivatives vanish
    want = np.zeros((3, 3))
    want[0, 1] = want[1, 0] = 1.0
    assert np.allclose(p.dd[0], want)
    # d^3(x^2 y)/dx^2 dy = 2 in each of its three index orders
    q = x * p
    want3 = np.zeros((3, 3, 3))
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        want3[idx] = 2.0
    assert np.array_equal(q.ddd[0], want3)


@settings(max_examples=60, deadline=None)
@given(finite)
def test_division_and_powers(a):
    x = ad.jet_variables([[a + 4.0, 0.0, 0.0]])[0]
    lhs = 1.0 / x
    rhs = x ** -1
    assert lhs.val[0] == pytest.approx(rhs.val[0])
    assert np.allclose(lhs.d, rhs.d, atol=1e-14)
    assert np.allclose(lhs.dd, rhs.dd, atol=1e-14)
    assert np.allclose(lhs.ddd, rhs.ddd, atol=1e-14)
    cube = x * x * x
    pw = x ** 3
    assert cube.val[0] == pytest.approx(pw.val[0])
    assert np.allclose(cube.dd, pw.dd, atol=1e-12)
    assert np.allclose(cube.ddd, pw.ddd, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(finite)
def test_tanh_consistency(a):
    x = ad.jet_variables([[a, 0.0, 0.0]])[0]
    direct = ad.tanh(x)
    ratio = ad.sinh(x) / ad.cosh(x)
    assert direct.val[0] == pytest.approx(ratio.val[0], abs=1e-14)
    assert np.allclose(direct.d, ratio.d, atol=1e-12)
    assert np.allclose(direct.dd, ratio.dd, atol=1e-10)
    assert np.allclose(direct.ddd, ratio.ddd, atol=1e-10)


def test_compose_jet_chain_rule():
    # pushes a known univariate jet through a jet argument
    u = np.array([0.3, 1.1, -0.2])
    xs = ad.jet_variables(one(u))
    arg = xs[0] * xs[1] + xs[2]          # r(u)
    r0 = ad.value(arg)
    out = ad.compose_jet(np.sin(r0), np.cos(r0), -np.sin(r0), -np.cos(r0), arg)
    ref = ad.sin(arg)
    assert out.val[0] == pytest.approx(ref.val[0])
    assert np.allclose(out.d, ref.d, atol=1e-14)
    assert np.allclose(out.dd, ref.dd, atol=1e-14)
    assert np.allclose(out.ddd, ref.ddd, atol=1e-14)


def test_compose_jet_scalar_passthrough():
    assert ad.compose_jet(2.0, 3.0, 4.0, 5.0, 0.5) == 2.0


def test_third_derivatives_of_polynomial():
    # f = x^3 y + 2xyz - y^2 z^2 + z^3 and its third derivatives by hand
    x, y, z = 0.7, -1.3, 0.4
    X, Y, Z = ad.jet_variables([[x, y, z]])
    f = X ** 3 * Y + 2.0 * X * Y * Z - Y * Y * Z * Z + Z ** 3
    assert f.val[0] == pytest.approx(x ** 3 * y + 2 * x * y * z - y * y * z * z + z ** 3, abs=1e-14)
    assert np.allclose(f.d[0], [3 * x * x * y + 2 * y * z, x ** 3 + 2 * x * z - 2 * y * z * z,
                             2 * x * y - 2 * y * y * z + 3 * z * z], rtol=0, atol=1e-14)
    hess = [[6 * x * y, 3 * x * x + 2 * z, 2 * y],
            [3 * x * x + 2 * z, -2 * z * z, 2 * x - 4 * y * z],
            [2 * y, 2 * x - 4 * y * z, -2 * y * y + 6 * z]]
    assert np.allclose(f.dd[0], hess, rtol=0, atol=1e-14)
    third = {(0, 0, 0): 6 * y, (0, 0, 1): 6 * x, (0, 1, 2): 2.0,
             (1, 1, 2): -4 * z, (1, 2, 2): -4 * y, (2, 2, 2): 6.0}
    want = np.zeros((3, 3, 3))
    for idx, v in third.items():
        for perm in itertools.permutations(idx):
            want[perm] = v
    assert np.allclose(f.ddd[0], want, rtol=0, atol=1e-14)


X0 = 0.83
ELEMENTARY = {
    # name: (function, value and first three derivatives at X0)
    "sqrt": (ad.sqrt, [X0 ** 0.5, 0.5 * X0 ** -0.5, -0.25 * X0 ** -1.5, 0.375 * X0 ** -2.5]),
    "sin": (ad.sin, [math.sin(X0), math.cos(X0), -math.sin(X0), -math.cos(X0)]),
    "cos": (ad.cos, [math.cos(X0), -math.sin(X0), -math.cos(X0), math.sin(X0)]),
    "sinh": (ad.sinh, [math.sinh(X0), math.cosh(X0), math.sinh(X0), math.cosh(X0)]),
    "cosh": (ad.cosh, [math.cosh(X0), math.sinh(X0), math.cosh(X0), math.sinh(X0)]),
    "tanh": (ad.tanh, [math.tanh(X0), math.cosh(X0) ** -2,
                       -2 * math.sinh(X0) * math.cosh(X0) ** -3,
                       (4 * math.sinh(X0) ** 2 - 2) * math.cosh(X0) ** -4]),
    "reciprocal": (lambda x: 1.0 / x, [1 / X0, -1 / X0 ** 2, 2 / X0 ** 3, -6 / X0 ** 4]),
    "power": (lambda x: x ** 2.5, [X0 ** 2.5, 2.5 * X0 ** 1.5, 3.75 * X0 ** 0.5,
                                   1.875 * X0 ** -0.5]),
}


@pytest.mark.parametrize("name", sorted(ELEMENTARY))
def test_elementary_third_derivatives(name):
    fn, want = ELEMENTARY[name]
    x = ad.jet_variables([[X0, 0.0, 0.0]])[0]
    out = fn(x)
    got = [out.val[0], out.d[0, 0], out.dd[0, 0, 0], out.ddd[0, 0, 0, 0]]
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    assert fn(X0) == pytest.approx(want[0], rel=1e-15)
    # only the seeded direction carries derivatives
    assert np.count_nonzero(out.ddd) <= 1


BATCHED = {
    # name: function of a jet whose value stays in its domain
    "sqrt": lambda x: ad.sqrt(x * x + 0.5),
    "sin": ad.sin,
    "cos": ad.cos,
    "sinh": ad.sinh,
    "cosh": ad.cosh,
    "tanh": ad.tanh,
    "reciprocal": lambda x: 1.0 / (x * x + 0.5),
    "power": lambda x: (x * x + 0.5) ** 2.5,
    "cube": lambda x: x ** 3,
}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=24))
def test_batch_rows_equal_their_batches_of_one(rows):
    # every elementary function, power and reciprocal of an (n,) batch is
    # bit for bit each row's batch of one, and each run of rows at several
    # offsets, at all four orders
    def elementary(U):
        x, y, z = ad.jet_variables(U)
        return {name: fn(x * y - z) for name, fn in BATCHED.items()}

    assert_rows_are_their_sub_batches(elementary, np.array(rows))


# every numpy ufunc the package evaluates on values, with its arguments
# taken from [-3, 3] ([0, 3] for sqrt)
UFUNCS = {
    "cosh": np.cosh, "sinh": np.sinh, "tanh": np.tanh, "sin": np.sin, "cos": np.cos,
    "sqrt": np.sqrt,
    "power 2": lambda x: np.power(x, 2), "power 3": lambda x: np.power(x, 3),
    "power 4": lambda x: np.power(x, 4),
}


@pytest.mark.parametrize("name", sorted(UFUNCS))
def test_ufuncs_give_an_element_the_bits_it_has_alone(name):
    # the premise of "each row bit for bit its batch of one": on the
    # installed numpy a ufunc's SIMD loop treats every element of a batch as
    # it treats the element alone, whatever the batch's length, the
    # element's offset in it, or the stride of the column it is read from
    fn = UFUNCS[name]
    x = np.random.default_rng(7).uniform(-3.0 if name != "sqrt" else 0.0, 3.0, 4099 + 64)
    alone = np.concatenate([fn(x[i:i + 1]) for i in range(len(x))])
    columns = np.stack([-x, x, 2.0 * x], axis=1)          # x strided, as u[:, 1]
    for n in (1, 7, 13, 200, 4099):
        for offset in range(0, 64, 7):
            rows = slice(offset, offset + n)
            for batch in (x[rows], columns[rows, 1], x[rows].copy()):
                assert fn(batch).tobytes() == alone[rows].tobytes(), (name, n, offset)


PER_ROW = {
    "jet * c": lambda j, c: j * c,
    "c * jet": lambda j, c: c * j,
    "jet + c": lambda j, c: j + c,
    "c + jet": lambda j, c: c + j,
    "jet - c": lambda j, c: j - c,
    "c - jet": lambda j, c: c - j,
    "jet / c": lambda j, c: j / c,
    "c / jet": lambda j, c: c / (j * j + 1.0),
    "tanh(jet * c)": lambda j, c: ad.tanh(j * c),
}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=6))
def test_per_row_constants_equal_float_constants(rows):
    # a float array of the batch shape is one constant per row: each row is
    # bit for bit its batch of one with that row's float, at both orders,
    # and numpy's operators defer to the jet
    U, c = np.array(rows)[:, :3], np.array(rows)[:, 3] + 3.5
    for order in (2, 3):
        bx, by, bz = ad.jet_variables(U, order)
        for name, op in PER_ROW.items():
            batch = op(f_test(bx, by, bz), c)
            assert isinstance(batch, ad.Jet) and batch.val.shape == (len(U),), name
            assert (batch.ddd is None) == (order == 2)
            for i in range(len(U)):
                single = op(f_test(*ad.jet_variables(U[i:i + 1], order)), float(c[i]))
                assert_rows_equal(single, batch, slice(i, i + 1))


def test_batch_division_by_zero_raises():
    # a batch, and the batch of one of its zero row, raise under the error
    # state the chart pass runs in instead of leaving inf in a row
    U = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for rows in (U, U[1:]):
        x = ad.jet_variables(rows)[0]
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            with pytest.raises(FloatingPointError):
                1.0 / x


class TestJetOrder:
    """Order-2 jets carry no third derivatives and leave the other orders as
    order 3 gives them."""

    def test_number_minus_jet_third_derivative(self):
        # d³(c - x³)/dx³ = -6 and d³(c - x y z)/dx dy dz = -1, with every
        # other third derivative of c - x y z zero
        x, y, z = ad.jet_variables([[0.7, -0.4, 1.3]])
        cube = 2.5 - x ** 3
        assert cube.ddd[0, 0, 0, 0] == -6.0
        assert np.count_nonzero(cube.ddd) == 1
        triple = 2.5 - x * y * z
        want = np.zeros((3, 3, 3))
        for perm in itertools.permutations(range(3)):
            want[perm] = -1.0
        assert np.array_equal(triple.ddd[0], want)
        assert np.array_equal((2.5 - f_test(x, y, z)).ddd, -f_test(x, y, z).ddd)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=4))
    def test_order_two_equals_order_three_below_third(self, rows):
        U = np.array(rows)
        for u in (U, U[:1]):
            full = ad.jet_variables(u)
            low = ad.jet_variables(u, order=2)
            assert all(x.ddd is None for x in low)
            for fn in [*BATCHED.values(), lambda x: 1.5 - x, lambda x: -x / 2.0,
                       lambda x: 3.0 * x - x * 0.5]:
                for f3, f2 in ((fn(full[0] * full[1] - full[2]), fn(low[0] * low[1] - low[2])),
                               (f_test(*full), f_test(*low))):
                    assert f2.ddd is None
                    for order in ("val", "d", "dd"):
                        assert np.array_equal(getattr(f2, order), getattr(f3, order))

    def test_mixed_orders_truncate(self):
        x3 = ad.jet_variables([[0.3, 0.2, 0.1]])[0]
        x2 = ad.jet_variables([[0.3, 0.2, 0.1]], order=2)[0]
        for mixed in (x3 + x2, x3 - x2, x3 * x2, x2 * x3, x3 / (x2 + 1.0)):
            assert mixed.ddd is None

    def test_unknown_order_is_refused(self):
        for order in (1, 4):
            with pytest.raises(ValueError, match="order"):
                ad.jet_variables([[0.0, 0.0, 0.0]], order=order)
