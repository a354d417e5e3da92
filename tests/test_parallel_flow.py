import dataclasses
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from h2h2 import autodiff as ad
from h2h2 import lorentz as lz
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import product_space as ps
from h2h2 import report as rp
from h2h2 import surface_calculus as sc

from conftest import (as_matrices, assert_rows_are_their_sub_batches, assert_rows_equal,
                      counted_chart, domain_samples, geometry_at, inner, one, scan_of)


def q_matrix(af, l):
    """Q(l) of the frames ``af`` as matrices (..., 3, 3)."""
    return as_matrices(pf._q_rows(af, np.asarray(l, dtype=float))[0])


def q_prime(af, l):
    """Q'(l) of the frames ``af`` as matrices (..., 3, 3)."""
    return as_matrices(pf._q_rows(af, np.asarray(l, dtype=float))[1])


def shape_operator(af, l):
    """S(l) = -Q^{-1} Q' of the frames ``af`` as matrices (..., 3, 3)."""
    return as_matrices(pf._flow(af, l))


def entries(m):
    """Matrices (..., 3, 3) as the flow's nested entries ``entries(m)[i][j]``."""
    return np.moveaxis(m, (-2, -1), (0, 1))


def real_spectrum(s):
    """``pf._spectrum`` of the matrices s (..., 3, 3), stacked (..., 3)."""
    return np.stack(pf._spectrum(entries(s)), axis=-1)


def pushforward_norm(surface, u, l):
    """|Q(l)^T (0, C+, C-)|: J1 N = C+ E2 + C- E3 pushed along the flow,
    whose norm vanishes exactly at the focal points of a tube."""
    af = pf.adapted_frame(sc.point_geometry(surface, one(u)))
    return float(np.linalg.norm(q_matrix(af, l)[0].T @ np.array([0.0, af.cplus[0], af.cminus[0]])))


def isoparametric_within(scan, tol):
    return scan.max_h_spread < tol and scan.max_lambda_spread < tol


sym_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def synthetic_frames(draw):
    """A batch of one random frame."""
    vals = [draw(sym_entries) for _ in range(6)]
    a = np.array([[vals[0], vals[1], vals[2]],
                  [vals[1], vals[3], vals[4]],
                  [vals[2], vals[4], vals[5]]])
    c = draw(st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
    return pf.AdaptedFrame(np.array([c]), a[None])


class TestAdaptedFrame:
    def test_orthonormal_on_models(self, m_1m1_04, m_tau_m2, m_kk_tanh):
        for surface, _ in (m_1m1_04, m_tau_m2, m_kk_tanh):
            pgs = sc.point_geometry(surface, domain_samples(surface, 8))
            e = pf.frame_vectors(pgs)
            assert np.max(np.abs(e @ ps.ETA6 @ e.swapaxes(-1, -2) - np.eye(3))) < 1e-10
            af = pf.adapted_frame(pgs)
            assert np.max(np.abs(af.A - af.A.swapaxes(-1, -2))) < 1e-12

    def test_m11_frame_is_diagonal(self, m_11_03):
        surface, _ = m_11_03
        A = pf.adapted_frame(sc.point_geometry(surface, one([0.3, 0.4, -0.6]))).A[0]
        off = A - np.diag(np.diag(A))
        assert np.max(np.abs(off)) < 1e-10
        want = {0.0, math.sqrt(0.7), -math.sqrt(0.3)}
        got = sorted(np.diag(A))
        assert np.max(np.abs(np.array(got) - np.array(sorted(want)))) < 1e-10

    def test_m_tau_frame_components(self, m_tau_m2):
        # the V row vanishes and the spectrum matches the closed forms; the
        # 2x2 block mixes the two complex-structure directions, which are at
        # 45 degrees to the adapted frame when C = 0
        surface, oracle = m_tau_m2
        u = one([0.7, 1.1, 2.0])
        A = pf.adapted_frame(sc.point_geometry(surface, u)).A[0]
        assert np.max(np.abs(A[0])) < 1e-10
        lam_b = mz.mtau_lambda_big(-2.0)
        lam_s = mz.mtau_lambda_small(-2.0)
        assert A[1, 1] == pytest.approx((lam_b + lam_s) / 2, abs=1e-10)
        assert A[1, 2] == pytest.approx((lam_b - lam_s) / 2, abs=1e-10)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(A))
                             - oracle.lambdas(u)[0])) < 1e-10

    def test_h_matches_point_geometry(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        pgs = sc.point_geometry(surface, domain_samples(surface, 6))
        af = pf.adapted_frame(pgs)
        assert np.max(np.abs(af.H - pgs.H)) < 1e-9
        assert np.max(np.abs(minor_rho(af) - pgs.rho)) < 1e-9

    def test_degenerate_angle_rejected(self, m_gamma_2):
        surface, _ = m_gamma_2
        with pytest.raises(sc.DegenerateProductAngleError):
            pf.adapted_frame(sc.point_geometry(surface, one([0.3, 0.8, 1.0])))


class TestQMatrix:
    def test_identity_at_zero(self, m_11_03):
        surface, _ = m_11_03
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.2, 0.1, 0.3])))
        assert np.allclose(q_matrix(af, 0.0), np.eye(3))

    @settings(max_examples=30, deadline=None)
    @given(synthetic_frames())
    def test_qprime_at_zero_is_minus_A(self, af):
        assert np.allclose(q_prime(af, 0.0), -af.A, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_qprime_matches_finite_differences(self, af, l):
        h = 1e-6
        fd = (q_matrix(af, l + h) - q_matrix(af, l - h)) / (2 * h)
        assert np.max(np.abs(fd - q_prime(af, l))) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_detq_expansion_is_determinant(self, af, l):
        det = float(np.linalg.det(q_matrix(af, l))[0])
        assert pf.detq_expansion(af, l)[0] == pytest.approx(det, abs=1e-10 * max(1, abs(det)))

    def test_detq_at_zero(self, m_11_03):
        surface, _ = m_11_03
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.2, 0.1, 0.3])))
        assert pf.detq_expansion(af, 0.0)[0] == 1.0

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_detq_prime_analytic(self, af, l):
        h = 1e-6
        fd = (pf.detq_expansion(af, l + h) - pf.detq_expansion(af, l - h)) / (2 * h)
        assert pf.detq_expansion_prime(af, l)[0] == pytest.approx(fd[0], abs=1e-7)


class TestArrayCalls:
    """One call over an array of l gives each distance's batch of one, and
    each run of distances, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames(),
           st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=1, max_size=12))
    def test_q_and_detq(self, af, ls):
        for f in (q_matrix, q_prime, pf.detq_expansion):
            assert_rows_are_their_sub_batches(lambda x: f(af, x), np.array(ls))

    def test_parallel_curvatures(self, m_kk_tanh, m_tau_m2):
        ls = np.linspace(-0.9, 0.9, 37)   # M_tau(-2) is focal only at 0.931
        for surface, _ in (m_kk_tanh, m_tau_m2):
            frames = pf.adapted_frame(sc.point_geometry(surface, domain_samples(surface, 3)))
            for i in range(3):
                for f in (pf.parallel_lambdas, pf.mean_curvature_of_parallel):
                    assert_rows_are_their_sub_batches(lambda x: f(frames[i:i + 1], x), ls)

    def test_focal_value_in_array_raises(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.7, 1.1, 2.0])))
        ls = np.array([0.0, 0.3, mz.mtau_focal_radius(-2.0), 0.5])
        for f in (shape_operator, pf.mean_curvature_of_parallel,
                  pf.parallel_lambdas):
            with pytest.raises(pf.FocalPointError):
                f(af, ls)


def assert_symmetric_with_real_spectrum(s):
    """S (..., 3, 3) is symmetric to roundoff, and its spectrum equals the
    sorted real parts of the general eigensolver's, both relative to max(1, |S|)."""
    scale = np.maximum(1.0, np.max(np.abs(s), axis=(-2, -1)))
    asymmetry = np.linalg.norm(s - s.swapaxes(-1, -2), axis=(-2, -1))
    assert np.all(asymmetry <= 1e-12 * scale), np.max(asymmetry / scale)
    reference = np.sort(np.linalg.eigvals(s).real, axis=-1)
    spectrum = real_spectrum(s)
    assert np.all(np.max(np.abs(spectrum - reference), axis=-1) <= 1e-12 * scale)


def assert_cofactor_det(q):
    """The cofactor det Q against LAPACK's: to roundoff of the entries' scale
    everywhere, and to 1e-12 relative where |det Q| is not small on that scale."""
    _, det = pf._adjugate(entries(q))
    reference = np.linalg.det(q)
    cube = np.maximum(1.0, np.max(np.abs(q), axis=(-2, -1))) ** 3
    assert np.all(np.abs(det - reference) <= 1e-13 * cube)
    off_focal = np.abs(det) >= 1e-2 * cube
    assert np.all(np.abs(det - reference)[off_focal] <= 1e-12 * np.abs(det[off_focal]))


class TestSymmetricShapeOperator:
    """S(l) = -Q^{-1} Q' is symmetric for every frame and every l (the
    Wronskian argument of the module docstring), so its spectrum is real and
    the symmetric closed form of ``_symmetric_spectrum`` takes it."""

    @settings(max_examples=60, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_synthetic_frames(self, af, l):
        q = q_matrix(af, l)
        assert_cofactor_det(q)
        assume(abs(pf.detq_expansion(af, l)) > 1e-6)
        s = shape_operator(af, l)
        assert_symmetric_with_real_spectrum(s)
        assert np.array_equal(pf.parallel_lambdas(af, l), real_spectrum(s))
        # -Q^{-1} Q' by LAPACK, to roundoff of the condition of Q
        solved = -np.linalg.solve(q, q_prime(af, l))
        bound = 1e-13 * np.linalg.cond(q) * max(1.0, np.max(np.abs(solved)))
        assert np.max(np.abs(s - solved)) <= bound

    def test_level_set_frames(self, level_set):
        # AV != 0 on the level set (V is principal there, AV = A_11 V), so
        # Q's V column carries -l A_11, which the catalog's frames zero
        pgs = sc.point_geometry(level_set, domain_samples(level_set, 16))
        af = pf.adapted_frame(pgs)
        assert np.min(sc._norm(pgs.shape_apply(pgs.V))) > 0.1
        assert np.min(np.abs(af.A[:, 0, 0])) > 0.1
        ls = np.linspace(-2.0, 2.0, 81)
        assert_cofactor_det(q_matrix(af, ls[:, None]))
        li, fi = np.nonzero(np.abs(pf.detq_expansion(af, ls[:, None])) > 1e-6)
        assert li.size > 0.9 * ls.size * 16
        assert_symmetric_with_real_spectrum(shape_operator(af[fi], ls[li]))

    def test_non_self_adjoint_is_refused(self):
        rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])   # spectrum ±i, 2
        for s in (rotation, np.stack([np.diag([1.0, 2.0, 3.0]), rotation])):
            with pytest.raises(ArithmeticError, match="not self-adjoint"):
                real_spectrum(s)

    @pytest.mark.parametrize("scale, d, refused", [
        (1.0, 1.40e-8, False), (1.0, 1.42e-8, True),         # bar 2e-8
        (5e3, 1.40e-8, False), (5e3, 1.42e-8, True),         # ||S||_F = 1.9e4: still 2e-8
        (1e9, 2.64e-3, False), (1e9, 2.66e-3, True),         # bar 1e-12 ||S||_F = 3.74e-3
    ])
    def test_asymmetry_bar(self, scale, d, refused):
        # ||S - S^T||_F = sqrt(2) d
        s = scale * np.diag([1.0, 2.0, 3.0])
        s[0, 1] = d
        if refused:
            with pytest.raises(ArithmeticError):
                real_spectrum(s)
        else:
            assert np.allclose(real_spectrum(s), [scale, 2 * scale, 3 * scale],
                               rtol=1e-15, atol=0.0)

    def test_next_to_a_focal_value(self, m_tau_m2):
        # 1e-8 past the focal radius, |S| ~ 5e7 and the roundoff asymmetry of
        # S exceeds 2e-8; the spectrum is still that of the general eigensolver
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, domain_samples(surface, 8)))
        s = shape_operator(af, mz.mtau_focal_radius(-2.0) + 1e-8)
        assert np.max(np.abs(s)) > 1e7
        assert_symmetric_with_real_spectrum(s)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=1e-7),
           st.floats(min_value=0.0, max_value=1e-7), st.floats(min_value=0.0, max_value=math.pi))
    def test_refuses_whatever_has_a_non_real_spectrum(self, a, gap, e, angle):
        # a block [[a, e], [-e, a + gap]] has Im lambda = sqrt(e² - gap²/4) when
        # e > gap/2; a rotation keeps the spectrum and ||S - S^T||_F
        c, s_ = math.cos(angle), math.sin(angle)
        u = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])
        s = u @ np.array([[a, e, 0.0], [-e, a + gap, 0.0], [0.0, 0.0, 1.0]]) @ u.T
        if np.max(np.abs(np.linalg.eigvals(s).imag)) > 1e-8:
            with pytest.raises(ArithmeticError):
                real_spectrum(s)


def rotation(quaternion):
    """The rotation matrix of a nonzero quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@st.composite
def rotated_spectra(draw):
    """Q^T diag(lambda) Q with an exact double or triple eigenvalue, a
    relative cluster of 1e-12 to 1e-3, or three free eigenvalues, at a scale
    of 1e-8 to 1e8; the pair of a double or cluster lies above or below the
    third eigenvalue."""
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    quaternion = draw(st.lists(unit, min_size=4, max_size=4))
    assume(np.linalg.norm(quaternion) > 0.1)
    scale = 10.0 ** draw(st.integers(min_value=-8, max_value=8))
    base, other = draw(unit), draw(unit)
    kind = draw(st.sampled_from(["double", "triple", "cluster", "triple cluster", "free"]))
    rel = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-3.0))
    lam = {"double": [base, base, other], "triple": [base] * 3,
           "cluster": [base, base * (1.0 + rel), other],
           "triple cluster": [base, base * (1.0 + rel), base * (1.0 - 0.5 * rel)],
           "free": [base, other, draw(unit)]}[kind]
    q = rotation(quaternion)
    return q.T @ np.diag(scale * np.array(lam)) @ q


def assert_spectrum_is_eigvalsh(s):
    want = np.linalg.eigvalsh(s)
    bar = 1e-14 * np.maximum(1.0, np.max(np.abs(s), axis=(-2, -1)))
    assert np.all(np.max(np.abs(real_spectrum(s) - want), axis=-1) <= bar)


class TestClosedFormSpectrum:
    """The closed-form spectrum of ``_symmetric_spectrum`` against LAPACK's
    eigvalsh, to 1e-14 max(1, |S|), on the matrices where a closed form is
    weakest: exact and near multiple eigenvalues."""

    @settings(max_examples=400, deadline=None)
    @given(rotated_spectra())
    def test_multiple_and_clustered_eigenvalues(self, s):
        assert_spectrum_is_eigvalsh(s)

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5, 3e-300, -7e100])
    def test_multiples_of_the_identity(self, c):
        # p = 0: no 0/0, and the eigenvalue c exactly
        assert np.array_equal(real_spectrum(c * np.eye(3)), [c, c, c])

    @pytest.mark.parametrize("d", [[1.0, 2.0, 3.0], [3.0, -1.0, 3.0], [-1.0, -1.0, 2.0],
                                   [0.0, 0.0, 5.0], [1e-9, -1e-9, 0.0], [4e8, -3.0, 0.5]])
    def test_diagonal_matrices(self, d):
        assert_spectrum_is_eigvalsh(np.diag(d))
        scale = max(1.0, max(abs(x) for x in d))
        assert np.max(np.abs(real_spectrum(np.diag(d)) - sorted(d))) <= 1e-14 * scale

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (2, 1)])
    def test_non_finite_entry_is_refused(self, bad, i, j):
        s = np.stack([np.diag([1.0, 2.0, 3.0])] * 3)
        s[1, i, j] = bad
        for matrices in (s[1], s):
            with pytest.raises(ArithmeticError, match="not finite"):
                real_spectrum(matrices)

    @pytest.mark.parametrize("scale", [7e200, 1e154, 1e20])
    def test_guard_at_large_scales(self, scale):
        # the guard judges S scaled by its largest |entry|, so no square of an
        # entry overflows, and the relative bar 1e-12 ||S||_F (2.65e-12 scale
        # on s[0, 1] here) holds at every scale
        assert np.array_equal(real_spectrum(-scale * np.eye(3)), [-scale] * 3)
        s = scale * np.diag([1.0, 2.0, 3.0])
        assert np.allclose(real_spectrum(s), [scale, 2 * scale, 3 * scale], rtol=1e-15, atol=0)
        s[0, 1] = 2.6e-12 * scale
        assert np.allclose(real_spectrum(s), [scale, 2 * scale, 3 * scale], rtol=1e-15, atol=0)
        s[0, 1] = 2.7e-12 * scale
        with pytest.raises(ArithmeticError, match="not self-adjoint"):
            real_spectrum(s)
        rotation = scale * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ArithmeticError, match="not self-adjoint"):
            real_spectrum(rotation)

    @pytest.mark.parametrize("scale", [1e-150, 1e-300, 5e-324])
    def test_guard_at_small_scales(self, scale):
        # below the absolute bar 2e-8 every asymmetry passes, as it does
        # unscaled, and (2e-8 / |S|)² overflowing to inf raises nothing
        assert np.array_equal(real_spectrum(-scale * np.eye(3)), [-scale] * 3)
        rotation = scale * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        assert np.array_equal(real_spectrum(rotation), [0.0, 0.0, 2.0 * scale])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rotated_spectra(), min_size=1, max_size=6))
    def test_batch_rows_are_their_batches_of_one(self, matrices):
        batch = np.stack(matrices)
        assert_rows_are_their_sub_batches(real_spectrum, batch)
        # the same matrices as a (3, 3, n) transpose: strided entries
        assert np.array_equal(real_spectrum(np.moveaxis(batch.T, -1, 0).swapaxes(-1, -2)),
                              real_spectrum(batch))

    def test_double_eigenvalue_scan(self):
        # M_1m1 c = 1/2 has the principal curvatures {0, 1/sqrt 2, 1/sqrt 2}:
        # a double eigenvalue of S(l) at every l
        surface, _ = mz.build_model(mz.ModelSpec("M_1m1", {"c": 0.5}))
        grid = np.arange(-2.0, 2.0 + 1e-9, 0.002)
        scan = scan_of(surface, rp.sobol_points(surface.domain, 8, 0), grid)
        assert not scan.focal.any()
        assert np.max(scan.lambda_spread / np.maximum(1.0, np.abs(scan.h_mean))) <= 1e-13


# functions of a frame and l; the flow functions raise at a focal (frame, l) pair
L_FUNCTIONS = (q_matrix, q_prime, pf.detq_expansion, pf.detq_expansion_prime)
FLOW_FUNCTIONS = (shape_operator, pf.mean_curvature_of_parallel, pf.parallel_lambdas)


def frame_batch(frames):
    """Batches of frames laid end to end as one batch."""
    return pf.AdaptedFrame(np.concatenate([af.C for af in frames]),
                           np.concatenate([af.A for af in frames]))


def stacked_bundles(pgs):
    """Rows of bundles stacked into a batch bundle, field by field."""
    return sc.PointGeometry(**{f.name: np.stack([getattr(pg, f.name) for pg in pgs])
                               for f in dataclasses.fields(sc.PointGeometry)})


def minor_rho(af):
    """The scalar curvature of a frame by 2 (H12 + H13 + H23) = rho + 2."""
    return 2.0 * sum(af.principal_minors()) - 2.0


def hyperbolic(af, l):
    """The six factors of ``pf._hyperbolic``, stacked on a last axis."""
    return np.stack([x for factors in pf._hyperbolic(af, l) for x in factors], axis=-1)


def frame_values(af):
    """Everything the frames ``af`` give without a distance."""
    terms = [np.broadcast_to(x, af.C.shape) for term in pf._detq_terms(af) for x in term[:2]]
    return [af.cplus, af.cminus, af.H, *af.principal_minors(), *terms,
            pf.detq_derivatives_at_0(af, minor_rho(af)), pf.detq_derivatives_numeric(af)]


def assert_batch_rows_equal(batch, ls, functions):
    """Every row of the batch of frames, and every row of the batch at the
    column ls (m, 1), is bit for bit its batch of one, and each run of
    frames, at each distance alone."""
    frames = np.arange(len(batch.C))
    assert_rows_are_their_sub_batches(lambda i: frame_values(batch[i]), frames)
    for f in (hyperbolic, *functions):
        whole = f(batch, ls)
        for j in range(len(ls)):
            assert np.array_equal(whole[j], f(batch, ls[j])), f.__name__
            assert_rows_are_their_sub_batches(lambda i: f(batch[i], ls[j]), frames)


class TestFrameBatch:
    """A batch of frames at a column of distances gives each frame's batch of
    one bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(synthetic_frames(), min_size=1, max_size=5),
           st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=1, max_size=6))
    def test_synthetic_frames(self, frames, ls):
        assert_batch_rows_equal(frame_batch(frames), np.array(ls)[:, None], L_FUNCTIONS)

    @pytest.mark.parametrize("model", ["m_kk_tanh", "m_tau_m2"])
    def test_model_frames(self, model, request):
        surface, _ = request.getfixturevalue(model)
        pgs = sc.point_geometry(surface, domain_samples(surface, 5))
        batch = pf.adapted_frame(pgs)
        assert_rows_are_their_sub_batches(
            lambda i: (pf.frame_vectors(pgs[i]), pf.adapted_frame(pgs[i])), np.arange(5))
        row = batch[2:3]
        assert row.C == batch.C[2] and np.array_equal(row.A, batch.A[2:3])
        ls = np.linspace(-0.9, 0.9, 7)[:, None]   # M_tau(-2) is focal only at 0.931
        assert_batch_rows_equal(batch, ls, L_FUNCTIONS + FLOW_FUNCTIONS)

    def test_degenerate_row_raises_the_first_rows_error(self, m_tau_m2):
        surface, _ = m_tau_m2
        good = geometry_at(surface, [0.7, 1.1, 2.0])
        rows = [good, dataclasses.replace(good, C=-0.9999999999), dataclasses.replace(good, C=1.0)]
        with pytest.raises(sc.DegenerateProductAngleError) as one:
            pf.adapted_frame(stacked_bundles(rows[1:2]))
        with pytest.raises(sc.DegenerateProductAngleError) as batch:
            pf.adapted_frame(stacked_bundles(rows))
        assert str(batch.value) == str(one.value) == "|C|=0.999999999900 too close to 1"
        with pytest.raises(sc.DegenerateProductAngleError):
            pf.AdaptedFrame(np.array([0.2, 1.0]), np.zeros((2, 3, 3)))

    def test_focal_pair_in_batch_raises(self, m_tau_m2):
        surface, _ = m_tau_m2
        batch = pf.adapted_frame(sc.point_geometry(surface, domain_samples(surface, 3)))
        ls = np.array([[0.3], [mz.mtau_focal_radius(-2.0)]])
        for f in FLOW_FUNCTIONS:
            with pytest.raises(pf.FocalPointError, match="at l = 0.93"):
                f(batch, ls)
        # one focal frame among regular ones: only the pair (frame 1, l) is focal
        focal_frame = pf.AdaptedFrame([0.0], np.diag([0.0, 2.0, 0.5])[None])
        regular = pf.adapted_frame(sc.point_geometry(surface, domain_samples(surface, 1)))
        mixed = frame_batch([regular, focal_frame])
        c = math.sqrt(0.5)
        l_star = math.atanh(c / 2.0) / c     # cosh(c l) = (2 / c) sinh(c l)
        with pytest.raises(pf.FocalPointError):
            pf.parallel_lambdas(mixed, l_star)


def reference_minors(a):
    """Principal minors of one frame's nested A in Python floats."""
    return [a[0][0] * a[1][1] - a[0][1] * a[0][1], a[0][0] * a[2][2] - a[0][2] * a[0][2],
            a[1][1] * a[2][2] - a[1][2] * a[1][2]]


def reference_detq_derivatives(c, a):
    """Closed-form and Taylor-series det Q derivatives at l = 0 of one frame,
    float by float: each power one np.power call on one float, and each
    series product sum_a p_a m_(k-a) added in increasing a."""
    h12, h13, h23 = reference_minors(a)
    rho = 2.0 * (h12 + h13 + h23) - 2.0
    c2, c3, c4 = (float(np.power(c, m)) for m in (2, 3, 4))
    closed = [-float(np.trace(np.array(a))), rho + 3.0,
              6.0 - c2 + (4.0 - 4.0 * c) * h12 + (4.0 + 4.0 * c) * h13 + 2.0 * rho,
              (12.0 - 5.0 * c2 + (16.0 - 12.0 * c - 4.0 * c2) * h12
               + (16.0 + 12.0 * c - 4.0 * c2) * h13 + (4.0 - c2) * rho),
              (24.0 - 16.0 * c2 + c4 + (8.0 - 4.0 * c2) * rho
               + (48.0 - 32.0 * c - 24.0 * c2 + 8.0 * c3) * h12
               + (48.0 + 32.0 * c - 24.0 * c2 - 8.0 * c3) * h13)]
    k = (a[0][0] * h23 - a[0][1] * (a[0][1] * a[2][2] - a[0][2] * a[1][2])
         + a[0][2] * (a[0][1] * a[1][2] - a[0][2] * a[1][1]))
    factors = [[[float(np.power(x, m - i)) / math.factorial(m) if m % 2 == i else 0.0
                 for m in range(9)] for i in (0, 1)]
               for x in (math.sqrt((1.0 + c) / 2.0), math.sqrt((1.0 - c) / 2.0))]
    series = [0.0] * 9
    for alpha, beta, i, j in ((1.0, -a[0][0], 0, 0), (-a[1][1], h12, 1, 0),
                              (-a[2][2], h13, 0, 1), (h23, -k, 1, 1)):
        p, m = factors[0][i], factors[1][j]
        pm = [0.0] * 9
        for first in range(9):
            for order in range(first, 9):
                pm[order] += p[first] * m[order - first]
        series = [x + alpha * y for x, y in zip(series, pm)]
        series = series[:1] + [x + beta * y for x, y in zip(series[1:], pm)]
    return closed, [math.factorial(k) * series[k] for k in pf.DETQ_ORDERS]


class TestPerFrameReference:
    """Batched frame values against references written frame by frame in
    Python floats, on enough rows that a product or sum taken in another
    order would show in the last bit."""

    def test_minors_and_detq_derivatives(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2.0, 2.0, (3000, 3, 3))
        af = pf.AdaptedFrame(rng.uniform(-0.95, 0.95, 3000), a + a.swapaxes(-1, -2))
        minors = np.array(af.principal_minors()).T.tolist()
        closed = pf.detq_derivatives_at_0(af, minor_rho(af))
        numeric = pf.detq_derivatives_numeric(af)
        closed, numeric = ([d[k].tolist() for k in pf.DETQ_ORDERS] for d in (closed, numeric))
        for b, (c, a) in enumerate(zip(af.C.tolist(), af.A.tolist())):
            assert minors[b] == reference_minors(a)
            want_closed, want_numeric = reference_detq_derivatives(c, a)
            assert [x[b] for x in closed] == want_closed
            assert [x[b] for x in numeric] == want_numeric
        assert_rows_are_their_sub_batches(lambda i: frame_values(af[i]), np.arange(200))

    def test_frame_vectors(self):
        # frame_vectors reads C, V, the point and N of a bundle; random rows
        # take 1 - C² at 20000 values of C
        rng = np.random.default_rng(8)
        rows = types.SimpleNamespace(C=rng.uniform(-0.95, 0.95, 20000),
                                     **{f: rng.normal(size=(20000, 6)) for f in ("V", "val", "N")})
        E = pf.frame_vectors(rows)
        for b, (c, v, x, n) in enumerate(zip(rows.C.tolist(), rows.V, rows.val, rows.N)):
            j1n, j2n = ps.complex_structures(x, n)
            want = [v / math.sqrt(1.0 - c * c), (j1n + j2n) / math.sqrt(2.0 * (1.0 + c)),
                    (j1n - j2n) / math.sqrt(2.0 * (1.0 - c))]
            assert np.array_equal(E[b], want)


def scalar_bisection(af, lo, hi):
    """The one-bracket bisection of det Q of a batch of one frame, float by
    float."""
    flo = float(pf.detq_expansion(af, lo)[0])
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fm = float(pf.detq_expansion(af, mid)[0])
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestVectorBisection:
    def test_all_brackets_at_once_equal_single_brackets(self):
        # each base point of M_kk(c=0.5, kappa=2, kappa~=1) has its own focal value
        spec = mz.ModelSpec("M_kk", {"c": 0.5, "kappa": 2.0, "kappa_tilde": "one"})
        surface, _ = mz.build_model(spec)
        batch = pf.adapted_frame(sc.point_geometry(surface, rp.sobol_points(surface.domain, 8, 0)))
        grid = np.linspace(-2.0, 2.0, 201)
        det = pf.detq_expansion(batch, grid[:, None]).T
        rows, j = np.nonzero(det[:, :-1] * det[:, 1:] < 0)
        assert len(rows) == 8
        roots = pf.find_focal_radius(batch[rows], grid[j], grid[j + 1])
        assert_rows_are_their_sub_batches(
            lambda k: pf.find_focal_radius(batch[rows[k]], grid[j[k]], grid[j[k] + 1]),
            np.arange(len(rows)))
        assert roots.tolist() == [
            scalar_bisection(batch[r:r + 1], float(grid[i]), float(grid[i + 1]))
            for r, i in zip(rows.tolist(), j.tolist())]
        assert np.max(np.abs(pf.detq_expansion(batch[rows], roots))) < 1e-9

    def test_bracket_without_sign_change_raises(self, m_tau_m2):
        surface, _ = m_tau_m2
        batch = pf.adapted_frame(sc.point_geometry(surface, domain_samples(surface, 2)))
        with pytest.raises(ValueError, match="does not change sign"):
            pf.find_focal_radius(batch, np.array([0.5, 0.0]), np.array([1.2, 0.3]))


class TestMeanCurvature:
    def test_h_at_zero_is_trace(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        pgs = sc.point_geometry(surface, domain_samples(surface, 5))
        af = pf.adapted_frame(pgs)
        assert np.max(np.abs(pf.mean_curvature_of_parallel(af, 0.0) - pgs.H)) < 1e-11

    def test_constant_along_flow_for_horocycle_products(self, m_1m1_04):
        surface, _ = m_1m1_04
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.2, -0.3, 0.5])))
        h0 = pf.mean_curvature_of_parallel(af, 0.0)
        assert np.max(np.abs(pf.mean_curvature_of_parallel(af, np.linspace(-1, 1, 21)) - h0)) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(synthetic_frames(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_two_expressions_agree(self, af, l):
        det = pf.detq_expansion(af, l)[0]
        if abs(det) < 1e-6:
            return
        q = q_matrix(af, l)[0]
        h_tr = -float(np.trace(np.linalg.solve(q, q_prime(af, l)[0])))
        h_det = -pf.detq_expansion_prime(af, l)[0] / det
        assert abs(h_tr - h_det) < 1e-9 * max(1.0, abs(h_tr))

    def test_direct_recomputation_on_parallel_chart(self, m_tau_m2):
        surface, _ = m_tau_m2
        u = one([0.7, 1.1, 2.0])
        af = pf.adapted_frame(sc.point_geometry(surface, u))
        for l in (0.3, -0.5):
            pgl = sc.point_geometry(pf.parallel_surface(surface, [l]), u)
            assert pgl.H[0] == pytest.approx(pf.mean_curvature_of_parallel(af, l)[0], abs=1e-6)
            assert np.max(np.abs(pgl.lambdas - pf.parallel_lambdas(af, l))) < 1e-6

    def test_focal_point_raises(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.7, 1.1, 2.0])))
        l_star = mz.mtau_focal_radius(-2.0)
        with pytest.raises(pf.FocalPointError):
            pf.mean_curvature_of_parallel(af, l_star)


def flowed(surface, u, l):
    """Point and unit normal of the parallel chart at distance l, as ambient
    6-vectors, read from the batch of one of the chart point u."""
    p, q, n = pf.parallel_surface(surface, [l]).chart(list(one(u).T))
    return (np.stack(np.broadcast_arrays(*p, *q), axis=-1)[0],
            np.stack(np.broadcast_arrays(*n), axis=-1)[0])


class TestParallelPoints:
    def test_zero_distance(self, m_1m1_04):
        surface, _ = m_1m1_04
        u = np.array([0.2, -0.3, 0.5])
        pg = geometry_at(surface, u)
        point, normal = flowed(surface, u, 0.0)
        assert np.allclose(point, pg.val)
        assert np.allclose(normal, pg.N)

    def test_angle_preserved_along_flow(self):
        surface, _ = mz.build_model(mz.ModelSpec("M_1m1", {"c": 0.4}))
        u = np.array([0.2, -0.3, 0.5])
        pg = geometry_at(surface, u)
        point, nl = flowed(surface, u, 0.37)
        assert inner(ps.P6 @ nl, nl) == pytest.approx(pg.C, abs=1e-10)
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
        g1, n1 = (np.array(x)[:, 0] for x in PlaneCurve(1.0).jet(np.array([r])))
        g2, n2 = (np.array(x)[:, 0] for x in PlaneCurve(-1.0, normal_sign=-1).jet(np.array([s])))
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
        pg = geometry_at(surface, u)
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
        pgl = geometry_at(pf.parallel_surface(surface, [l]), u)
        assert abs(inner(nl, nl) - 1.0) < 1e-10
        assert np.max(np.abs(pgl.N - nl)) < 1e-10
        assert np.max(np.abs(pgl.jac.T @ sc.ETA6 @ nl)) < 1e-9

    def test_parallel_chart_calls_the_base_chart_once(self, m_kk_tanh):
        base, calls = counted_chart(m_kk_tanh[0])
        u = one([0.1, 0.4, -0.2])
        parallel = pf.parallel_surface(base, [0.45])
        parallel.chart(ad.jet_variables(u))
        assert len(calls) == 1
        sc.point_geometry(parallel, u)
        assert len(calls) == 2


PER_ROW_MODELS = [mz.ModelSpec("M_tau", {"tau": -2.0}), mz.ModelSpec("M_tau", {"tau": -1.0001}),
                  mz.ModelSpec("M_1m1", {"c": 0.5}), mz.ModelSpec("M_11", {"c": 0.25}),
                  mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"})]


class TestPerRowDistances:
    """One parallel-chart pass with one distance per row, as verify's
    parallel_shape_consistency makes it, against each row's batch of one."""

    @pytest.mark.parametrize("spec", PER_ROW_MODELS, ids=str)
    def test_rows_equal_their_batches_of_one(self, spec):
        surface, _ = mz.build_model(spec)
        U = domain_samples(surface, 3, seed=1)
        rows, ls = np.tile(np.arange(3), 2), np.repeat([0.25, -0.4], 3)
        af = pf.adapted_frame(sc.point_geometry(surface, U, order=2))

        def parallel(i):
            # the rows i of the pass: chart jets, bundle and flow values
            merged = pf.parallel_surface(surface, ls[i])
            return (sc.chart_jet(merged, U[rows[i]]),
                    sc.point_geometry(merged, U[rows[i]], order=2),
                    pf.parallel_lambdas(af[rows[i]], ls[i]),
                    pf.mean_curvature_of_parallel(af[rows[i]], ls[i]))

        assert_rows_are_their_sub_batches(parallel, np.arange(6))
        # each distance's rows are a pass at that one distance over U
        for part in (slice(0, 3), slice(3, 6)):
            assert_rows_equal(parallel(part), parallel(np.arange(6)), part)

    def test_a_failing_row_raises_its_batch_of_one_error(self, m_tau_m2):
        # the parallel chart of M_tau(-2) degenerates at the focal radius:
        # the batch raises the error of that row's batch of one, not an
        # error of a chart evaluated at one point against all the distances
        surface, _ = m_tau_m2
        U = domain_samples(surface, 2)
        l_star = mz.mtau_focal_radius(-2.0)
        with pytest.raises(sc.ChartRankError) as one:
            sc.point_geometry(pf.parallel_surface(surface, [l_star]), U[1:2], order=2)
        ls = np.array([0.25, 0.25, -0.4, l_star])
        merged = pf.parallel_surface(surface, ls)
        with pytest.raises(sc.ChartRankError) as row:
            sc.point_geometry(merged.row_surface(3), U[1:2], order=2)
        with pytest.raises(sc.ChartRankError) as batch:
            sc.point_geometry(merged, U[[0, 1, 0, 1]], order=2)
        assert str(batch.value) == str(row.value) == str(one.value)

    def test_distances_must_match_the_batch(self, m_tau_m2):
        surface, _ = m_tau_m2
        U = domain_samples(surface, 3)
        merged = pf.parallel_surface(surface, np.array([0.25, -0.4]))
        for call in (lambda: merged.point(U[:1]), lambda: merged.point(U),
                     lambda: sc.chart_jet(merged, U[:1]), lambda: sc.chart_jet(merged, U)):
            with pytest.raises(ValueError, match="2 distances, one per row"):
                call()


class TestEq35:
    def test_closed_form_parallel_curvatures(self):
        c = 0.4
        surface, _ = mz.make_M_kk(c, 1.0, -1.0)
        U = domain_samples(surface, 5)
        frames = pf.adapted_frame(sc.point_geometry(surface, U))
        for i, u in enumerate(U):
            af = frames[i:i + 1]
            t = float(u[0])
            for l in (0.3, -0.45, 0.8):
                a1 = math.sqrt(c) * t + math.sqrt(1 - c) * l
                a2 = math.sqrt(1 - c) * t - math.sqrt(c) * l
                lam2 = -math.sqrt(1 - c) * (math.sinh(a1) - math.cosh(a1)) / (
                    math.cosh(a1) - math.sinh(a1))
                lam3 = math.sqrt(c) * (math.sinh(a2) + math.cosh(a2)) / (
                    math.cosh(a2) + math.sinh(a2))
                want = np.sort([0.0, lam2, lam3])
                assert np.max(np.abs(pf.parallel_lambdas(af, l)[0] - want)) < 1e-8


class TestDetQDerivatives:
    def test_order_one_is_minus_h(self, m_11_03):
        surface, _ = m_11_03
        pg = sc.point_geometry(surface, one([0.2, 0.1, 0.3]))
        af = pf.adapted_frame(pg)
        der = pf.detq_derivatives_at_0(af, pg.rho)
        assert der[1] == pytest.approx(-pg.H, abs=1e-12)

    def test_order_two_is_rho_plus_three(self, m_1m1_04):
        surface, _ = m_1m1_04
        pg = sc.point_geometry(surface, one([0.2, 0.1, 0.3]))
        af = pf.adapted_frame(pg)
        der = pf.detq_derivatives_at_0(af, pg.rho)
        assert der[2] == pytest.approx(pg.rho + 3.0, abs=1e-12)
        num = pf.detq_derivatives_numeric(af)
        assert num[2] == pytest.approx(pg.rho + 3.0, abs=1e-12)

    def test_m_tau_order_four_value(self, m_tau_m2):
        # C = 0, H12 = H13 = 0, rho = -1 gives 6 - 0 + 0 + 0 - 2 = 4
        surface, _ = m_tau_m2
        pg = sc.point_geometry(surface, one([0.7, 1.1, 2.0]))
        af = pf.adapted_frame(pg)
        der = pf.detq_derivatives_at_0(af, pg.rho)
        assert der[4] == pytest.approx(4.0, abs=1e-9)
        num = pf.detq_derivatives_numeric(af)
        assert num[4] == pytest.approx(4.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(synthetic_frames())
    def test_closed_forms_match_stencils(self, af):
        closed = pf.detq_derivatives_at_0(af, minor_rho(af))
        numeric = pf.detq_derivatives_numeric(af)
        scale = max(1.0, float(np.max(np.abs(af.A))) ** 3)
        assert abs(closed[1] - numeric[1]) < 1e-12 * scale
        assert abs(closed[2] - numeric[2]) < 1e-12 * scale
        assert abs(closed[4] - numeric[4]) < 1e-11 * scale
        assert abs(closed[6] - numeric[6]) < 1e-11 * scale
        assert abs(closed[8] - numeric[8]) < 1e-11 * scale

    # the frame on which LAPACK's eigvalsh (OpenBLAS 0.3.31) returns
    # +-0.75031 for eigenvalues +-0.75: the reference must not go through it
    T_BAND = 9.686e-162

    @settings(max_examples=40, deadline=None)
    @given(synthetic_frames())
    @example(pf.AdaptedFrame([0.0], [[[T_BAND, 0.75, T_BAND], [0.75, 0.0, T_BAND],
                                     [T_BAND, T_BAND, 0.0]]]))
    def test_minor_sum_identity_synthetic(self, af):
        # sigma_2 of the eigenvalues is ((tr A)² - tr A²)/2, taken exactly
        a = [[Fraction(x) for x in row] for row in af.A[0].tolist()]
        trace = sum(a[i][i] for i in range(3))
        e2 = float((trace * trace - sum(x * x for row in a for x in row)) / 2)
        h12, h13, h23 = af.principal_minors()
        assert 2 * (h12 + h13 + h23)[0] == pytest.approx(2 * e2, abs=1e-10)


class TestFocalStructure:
    def test_root_location(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.7, 1.1, 2.0])))
        root = pf.find_focal_radius(af, 0.5, 1.2)[0]
        assert abs(root - mz.mtau_focal_radius(-2.0)) < 1e-6

    def test_pushforward_norm(self, m_tau_m2):
        surface, _ = m_tau_m2
        u = np.array([0.7, 1.1, 2.0])
        assert pushforward_norm(surface, u, 0.0) == pytest.approx(1.0, abs=1e-12)
        l_star = mz.mtau_focal_radius(-2.0)
        assert pushforward_norm(surface, u, l_star) < 1e-8

    def test_bracket_sign_change(self, m_tau_m2):
        # cosh(l/sqrt2) - sqrt((tau-1)/(tau+1)) sinh(l/sqrt2) flips sign at
        # the focal radius, and the pushforward norm is its absolute value
        surface, _ = m_tau_m2
        u = np.array([0.7, 1.1, 2.0])
        ratio = math.sqrt(3.0)
        l_star = mz.mtau_focal_radius(-2.0)
        for l in (l_star - 0.2, l_star + 0.2):
            bracket = math.cosh(l / math.sqrt(2)) - ratio * math.sinh(l / math.sqrt(2))
            assert pushforward_norm(surface, u, l) == pytest.approx(
                abs(bracket), abs=1e-10)
        before = math.cosh((l_star - 0.2) / math.sqrt(2)) - ratio * math.sinh(
            (l_star - 0.2) / math.sqrt(2))
        after = math.cosh((l_star + 0.2) / math.sqrt(2)) - ratio * math.sinh(
            (l_star + 0.2) / math.sqrt(2))
        assert before > 0 > after


class TestFlowInvariants:
    def test_q_and_det_along_the_flow(self, m_tau_m2):
        surface, _ = m_tau_m2
        af = pf.adapted_frame(sc.point_geometry(surface, one([0.7, 1.1, 2.0])))
        q0 = q_matrix(af, 0.0)[0]
        assert np.allclose(q0, np.eye(3))
        assert float(np.linalg.det(q0)) == pytest.approx(1.0)
        # det Q stays positive on the component of l = 0 before the focal value
        l_star = mz.mtau_focal_radius(-2.0)
        for l in np.linspace(-0.5, l_star - 0.05, 15):
            assert float(np.linalg.det(q_matrix(af, l)[0])) > 0


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
        rep = scan_of(surface, domain_samples(surface, 6), self.grid())
        assert rep.mode == "adapted"
        assert isoparametric_within(rep, 1e-8)

    def test_tube_isoparametric(self):
        surface, _ = mz.make_M_tau(-3.0)
        rep = scan_of(surface, domain_samples(surface, 6), self.grid())
        assert isoparametric_within(rep, 1e-8)
        assert not rep.excluded   # focal radius 1.2465 lies outside the grid

    def test_generic_curve_not_isoparametric(self):
        surface, _ = mz.make_M_kk(0.5, ad.tanh, 1.0)
        rep = scan_of(surface, domain_samples(surface, 6), self.grid())
        assert max(rep.max_h_spread, rep.max_lambda_spread) > 1e-3

    def test_curve_factor_mode(self, m_gamma_2):
        surface, _ = m_gamma_2
        rep = scan_of(surface, domain_samples(surface, 6), self.grid())
        assert rep.mode == "curve_factor"
        assert isoparametric_within(rep, 1e-8)
        # kappa = 2 has a focal value at arctanh(1/2) ~ 0.549; the grid point
        # nearest it survives because the pole sits between grid nodes
        assert np.all(~np.isnan(rep.h_spread) | rep.focal)

    def test_focal_exclusion_in_curve_mode(self, m_gamma_2):
        surface, _ = m_gamma_2
        l_pole = math.atanh(0.5)
        rep = scan_of(surface, domain_samples(surface, 4),
                      np.array([0.0, l_pole, 1.0]))
        assert rep.excluded == [pytest.approx(l_pole)]


def frame_report(surface, u):
    """The frame identities at the chart point u, and the skip reason of
    each item by name, "" where it is judged."""
    checks = pf.frame_identity_checks(sc.point_geometry(surface, np.array([u])))
    return checks, {name: pf.FRAME_SKIPS[code]
                    for name, code in zip(pf.FRAME_ITEMS, checks.skip[0].tolist())}


def judged_max(checks) -> float:
    """The largest residual over the judged items, 0 if none is judged."""
    return float(np.max(checks.residual, initial=0.0, where=checks.skip == 0))


class TestFrameIdentities:
    def test_all_pass_on_m11(self, m_11_03):
        surface, _ = m_11_03
        checks, _ = frame_report(surface, [0.25, 0.5, -0.4])
        assert not checks.skip.any()
        assert judged_max(checks) < 1e-7

    def test_m_tau_skips_product_frame_identity(self, m_tau_m2):
        surface, _ = m_tau_m2
        checks, reasons = frame_report(surface, [0.7, 1.1, 2.0])
        assert "principal" in reasons.pop("product_frame_connections")
        assert not any(reasons.values())
        assert judged_max(checks) < 1e-7

    def test_equal_curvature_pair_skips(self, m_1m1_half):
        surface, _ = m_1m1_half
        _, reasons = frame_report(surface, [0.2, 0.3, -0.1])
        assert "lambda_1 != lambda_2" in reasons["eigenframe_connections"]

    def test_nonconstant_curvature_guards(self, m_kk_tanh):
        surface, _ = m_kk_tanh
        checks, reasons = frame_report(surface, [0.2, 0.4, -0.3])
        assert not reasons["v_direction_identity"]
        assert not reasons["product_frame_connections"]
        assert "constant" in reasons["codazzi_frame_relation"]
        assert judged_max(checks) < 1e-7

    def test_degenerate_angle_skips_everything(self, m_gamma_2):
        surface, _ = m_gamma_2
        checks, reasons = frame_report(surface, [0.3, 0.8, 1.0])
        assert all(reasons.values())
        assert np.isnan(checks.min_gap).all()


class TestFocalRoots:
    def test_every_base_point_is_bisected(self):
        # each base point of M_kk(c=0.5, kappa=2, kappa~=1) has its own focal
        # value, so every excluded node comes with its own root
        spec = mz.ModelSpec("M_kk", {"c": 0.5, "kappa": 2.0, "kappa_tilde": "one"})
        surface, _ = mz.build_model(spec)
        step = 0.01
        grid = rp.SuiteConfig(model=spec, l_grid=(-2.0, 2.0, step)).grid()
        rep = scan_of(surface, rp.sobol_points(surface.domain, 8, 0), grid)
        assert len(rep.excluded) == 8
        assert len(rep.focal_roots) == len(rep.excluded)
        for node, root in zip(rep.excluded, rep.focal_roots):
            assert abs(node - root) < step

    def test_roots_are_bisected_on_first_read(self, m_tau_m2, monkeypatch):
        # the scan records the sign changes; only reading focal_roots bisects
        # them, once, under the flow's error state
        surface, _ = m_tau_m2
        calls = []
        bisect = pf.find_focal_radius
        monkeypatch.setattr(pf, "find_focal_radius",
                            lambda *args: calls.append(np.geterr()["over"]) or bisect(*args))
        rep = scan_of(surface, domain_samples(surface, 8),
                      np.linspace(-2.0, 2.0, 401))
        assert rep.excluded and calls == []
        roots = rep.focal_roots
        assert rep.focal_roots is roots and calls == ["raise"]
        assert roots == [pytest.approx(mz.mtau_focal_radius(-2.0), abs=1e-9)]

    def test_shared_focal_value_is_reported_once(self, m_tau_m2):
        surface, _ = m_tau_m2
        rep = scan_of(surface, domain_samples(surface, 8),
                      np.linspace(-2.0, 2.0, 401))
        assert rep.focal_roots == [pytest.approx(mz.mtau_focal_radius(-2.0), abs=1e-9)]


class TestScanFromBundle:
    @pytest.mark.parametrize(
        "spec", PER_ROW_MODELS + [mz.ModelSpec("M_Gamma", {"kappa_gamma": 2.0})], ids=str)
    def test_sample_bundle_rows_scan_as_a_fresh_bundle(self, spec):
        # verify scans the first 8 rows of its sample bundle (third order on
        # those rows at 200 samples); a fresh order-2 bundle of the same
        # points gives the same report bit for bit
        surface, _ = mz.build_model(spec)
        pts = rp.sobol_points(surface.domain, 200, 0)
        grid = np.arange(-1.0, 1.0 + 1e-9, 0.01)
        _, pgs = rp._sample_bundle(surface, pts, 50)
        got, want = pf.isoparametric_scan(pgs[:8], grid), scan_of(surface, pts[:8], grid)
        for name in ("l", "h_mean", "h_spread", "lambda_spread", "min_abs_detq", "focal"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        assert (got.excluded, got.mode, got.focal_roots) == (want.excluded, want.mode,
                                                              want.focal_roots)


def scan_by_node(pgs, grid):
    """The scan's columns by the formula laid out (l, base point): the frames
    broadcast as a row against l as a column, the spectra stacked, and the
    columns reduced along the base points, as the scan computed them before
    it kept its arrays (base point, l)."""
    if np.all(np.abs(pgs.C) > pf.DEGENERATE_C):
        dets = np.cosh(grid) - pgs.H[:, None] * np.sinh(grid)
        flags = pf._focal_flags(dets)
        hs = lz.parallel_curve_curvature(pgs.H, grid[~flags, None])
        lams = hs[..., None]
    else:
        af = pf.adapted_frame(pgs)
        dets = pf.detq_expansion(af, grid[:, None]).T
        flags = pf._focal_flags(dets)
        parts = []
        for block in np.array_split(grid[~flags, None], len(grid) // 256 + 1):
            s = pf._flow(af, block)
            parts.append((pf._trace(s), np.stack(pf._spectrum(s), axis=-1)))
        hs, lams = (np.concatenate(x) for x in zip(*parts))
    columns = [np.full(len(grid), math.nan) for _ in range(3)]
    columns[0][~flags] = np.mean(hs, axis=1)
    columns[1][~flags] = np.max(hs, axis=1) - np.min(hs, axis=1)
    columns[2][~flags] = np.max(np.max(lams, axis=1) - np.min(lams, axis=1), axis=-1)
    return (*columns, np.min(np.abs(dets), axis=0), flags)


class TestScanColumns:
    """The columnar report against the per-row code it replaced."""

    @pytest.mark.parametrize("spec", mz.CATALOG + (PER_ROW_MODELS[-1],), ids=str)
    def test_columns_equal_the_by_node_formula(self, spec):
        surface, _ = mz.build_model(spec)
        pgs = sc.point_geometry(surface, rp.sobol_points(surface.domain, 8, 0), order=2)
        grid = np.arange(-2.0, 2.0 + 1e-9, 0.01)
        rep = pf.isoparametric_scan(pgs, grid)
        got = (rep.h_mean, rep.h_spread, rep.lambda_spread, rep.min_abs_detq, rep.focal)
        for name, x, y in zip(("h_mean", "h_spread", "lambda_spread", "min_abs_detq", "focal"),
                              got, scan_by_node(pgs, grid)):
            assert np.array_equal(x, y, equal_nan=True), name

    def scan(self):
        surface, _ = mz.make_M_tau(-1.5)
        pts = rp.sobol_points(surface.domain, 8, 0)
        grid = rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -1.5}),
                              l_grid=(-2.0, 2.0, 0.002)).grid()
        return surface, pts, grid, scan_of(surface, pts, grid)

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
        batch = pf.adapted_frame(sc.point_geometry(surface, pts))
        frames = [batch[i:i + 1] for i in range(len(pts))]
        for j in range(0, len(grid), 97):
            l = float(grid[j])
            dets = [float(pf.detq_expansion(af, l)[0]) for af in frames]
            assert rep.min_abs_detq[j] == min(map(abs, dets))
            if rep.focal[j]:
                continue
            hs = [float(pf.mean_curvature_of_parallel(af, l)[0]) for af in frames]
            lams = np.array([pf.parallel_lambdas(af, l)[0] for af in frames])
            spread = float(np.max(lams.max(axis=0) - lams.min(axis=0)))
            assert rep.h_mean[j] == pytest.approx(np.mean(hs), rel=1e-13, abs=1e-13)
            assert rep.h_spread[j] == pytest.approx(max(hs) - min(hs), abs=1e-13)
            assert rep.lambda_spread[j] == pytest.approx(spread, abs=1e-13)

    def test_every_node_focal_has_no_spread(self, m_tau_m2):
        surface, _ = m_tau_m2
        rep = scan_of(surface, domain_samples(surface, 8),
                      np.array([mz.mtau_focal_radius(-2.0)]))
        assert rep.focal.all()
        assert math.isnan(rep.max_h_spread) and math.isnan(rep.max_lambda_spread)
        assert not isoparametric_within(rep, 1.0)


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
            pg = sc.point_geometry(surface, one(u))
            d = sc.point_derivatives(pg)
            dE = pf._adapted_frame_jacobians(pg, d)
            self.check(np.moveaxis(dE[0], 0, 1),
                       lambda x: pf.frame_vectors(sc.point_geometry(surface, one(x)))[0].T, u)
            for i in (1, 2):
                self.check(pf._shape_apply_jacobian(pg, d, pf.frame_vectors(pg)[:, i], dE[:, i])[0],
                           lambda x, i=i: (lambda q: q.shape_apply(pf.frame_vectors(q)[:, i]))(
                               sc.point_geometry(surface, one(x)))[0], u)

    @pytest.mark.parametrize("model", ["m_kk_tanh", "m_tau_m2"])
    def test_principal_fields(self, model, request):
        # both models have three distinct principal curvatures
        surface, _ = request.getfixturevalue(model)
        for u in domain_samples(surface, 3):
            pg = sc.point_geometry(surface, one(u))
            dlam, dP = pf._principal_jacobians(pg, sc.point_derivatives(pg))
            self.check(dlam[0], lambda x: geometry_at(surface, x).lambdas, u)

            def principal(x):
                # eigenvector signs follow the centre point's
                cols = geometry_at(surface, x).principal_ambient
                signs = np.sign(np.einsum("ai,ab,bi->i", cols, sc.ETA6, pg.principal_ambient[0]))
                return cols * signs

            self.check(np.moveaxis(dP[0], 0, 1), principal, u)
