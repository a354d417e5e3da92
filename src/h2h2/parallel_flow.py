"""Parallel-hypersurface machinery for H² × H².

For a hypersurface point with |C| < 1, the adapted orthonormal frame is

    E1 = V / sqrt(1 - C²),
    E2 = (J1 N + J2 N) / sqrt(2 (1 + C)),
    E3 = (J1 N - J2 N) / sqrt(2 (1 - C)),

and flowing distance l along the normal sends the pushed-forward frame
through the matrix Q(l) whose rows mix E_i into the parallel frame.  The
shape operator of the parallel hypersurface in the parallel frame is
S(l) = -Q^{-1} Q'; its trace is the mean curvature H(l) and its spectrum the
parallel principal curvatures.  det Q has a closed-form expansion in the
frame components A_ij, so H(l) also equals -(det Q)'/det Q; ``report``
compares the two routes.  The derivatives of det Q at l = 0 reduce to
scalar invariants (H, rho, C, and two principal minors) and are checked
against the Taylor coefficients of the expansion.  Focal values of l are the
roots of det Q.

S(l) is symmetric in the parallel frame, for every frame and every l.
Q = K - A diag(s) with K = diag(1, cosh C+ l, cosh C- l) and s = (l,
sinh(C+ l)/C+, sinh(C- l)/C-), so Q'' = Q diag(0, C+², C-²), and the
Wronskian W = Q Q'^T - Q' Q^T has W' = Q Q''^T - Q'' Q^T = 0: W is constant
in l, and W(0) = -A^T + A = 0 because A is symmetric.  W = 0 is
Q^{-1} Q' = (Q^{-1} Q')^T wherever det Q != 0.  So S is formed from the
adjugate of Q, its spectrum is that of a symmetric matrix, taken in closed
form (``_symmetric_spectrum``), and an S that is not finite or not symmetric
to roundoff is refused.  From Q to the spectrum every matrix is kept as its
entry arrays over the frames and l: ``_q_rows`` gives Q and Q', ``_flow``
gives S and ``_spectrum`` its eigenvalues, and no 3x3 matrix is stacked.  An
overflow, a division by zero or an invalid operation in the flow raises
FloatingPointError.

An ``AdaptedFrame`` is a batch of frames with the batch axes of its
``PointGeometry``, and every function of a frame and l broadcasts over the
frames and l by numpy's rules, each row bit for bit its batch of one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .lorentz import parallel_curve_curvature
from .product_space import ETA6, P6, complex_structures
from .surface_calculus import (
    DegenerateProductAngleError,
    Hypersurface,
    PointDerivatives,
    PointGeometry,
    _matvec,
    _norm,
    _pairing,
    point_derivatives,
)

DEGENERATE_C = 1.0 - 1e-9
FOCAL_DET_TOL = 1e-10


class FocalPointError(ArithmeticError):
    """The parallel map degenerates (det Q vanishes) at the requested l."""


# ---------------------------------------------------------------------------
# adapted frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedFrame:
    """Shape-operator components in the adapted frame (E1 along V).

    ``A`` (*B,3,3) is symmetric and ``C`` is (*B,).  ``af[index]`` selects
    frames of the batch.
    """

    C: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        if np.any(np.abs(self.C) >= 1.0):
            raise DegenerateProductAngleError("adapted frame requires |C| < 1")

    def __getitem__(self, index) -> "AdaptedFrame":
        return AdaptedFrame(self.C[index], self.A[index])

    @property
    def cplus(self):
        return np.sqrt((1.0 + self.C) / 2.0)

    @property
    def cminus(self):
        return np.sqrt((1.0 - self.C) / 2.0)

    @property
    def H(self):
        return np.trace(self.A, axis1=-2, axis2=-1)

    @property
    def entries(self) -> np.ndarray:
        """A with its matrix axes first: ``entries[i, j]`` is A_ij over the batch."""
        return np.moveaxis(self.A, (-2, -1), (0, 1))

    def principal_minors(self) -> tuple:
        """(H12, H13, H23) with H_ij = A_ii A_jj - A_ij²."""
        a = self.entries
        return tuple(a[i, i] * a[j, j] - a[i, j] * a[i, j] for i, j in ((0, 1), (0, 2), (1, 2)))


def frame_vectors(pg: PointGeometry) -> np.ndarray:
    """Ambient adapted-frame vectors, rows E1, E2, E3: (*B,3,6).  The first
    point with |C| too close to 1 raises."""
    C = pg.C
    bad = np.flatnonzero(np.abs(C) > DEGENERATE_C)
    if bad.size:
        raise DegenerateProductAngleError(f"|C|={abs(C.flat[bad[0]]):.12f} too close to 1")
    j1n, j2n = (w.T for w in complex_structures(pg.val.T, pg.N.T))
    e1 = pg.V / np.sqrt(1.0 - C * C)[..., None]
    e2 = (j1n + j2n) / np.sqrt(2.0 * (1.0 + C))[..., None]
    e3 = (j1n - j2n) / np.sqrt(2.0 * (1.0 - C))[..., None]
    return np.stack([e1, e2, e3], axis=-2)


def adapted_frame(pg: PointGeometry) -> AdaptedFrame:
    """Adapted frame and shape-operator components A_ij = <A E_i, E_j>, with
    the batch shape of the point bundle ``pg``."""
    E = frame_vectors(pg)
    shaped = np.stack([pg.shape_apply(E[..., i, :]) for i in range(3)], axis=-2)
    a = _pairing(shaped[..., :, None, :], E[..., None, :, :])
    return AdaptedFrame(C=pg.C, A=0.5 * (a + a.swapaxes(-1, -2)))


# ---------------------------------------------------------------------------
# the parallel hypersurface
# ---------------------------------------------------------------------------

def parallel_surface(M: Hypersurface, l) -> Hypersurface:
    """The parallel hypersurface at distance l as a chart of its own.

    Each evaluation calls ``M.chart`` once and flows its point along its
    closed-form normal, so the flowed chart and its normal stay evaluable at
    jet arguments.  ``l`` is an array of one distance per row of the batch
    the chart is evaluated on, and a batch of another shape is refused.  Each
    row is bit for bit the chart at its row's distance alone, as a batch of
    one, and fails as that does.  Its name does not list the distances:
    ``...|parallel(l per row)``.
    """
    l = np.asarray(l, dtype=float)

    def chart(u):
        if np.shape(ad.value(u[0])) != l.shape:
            raise ValueError(f"{l.size} distances, one per row, for a batch of shape "
                             f"{np.shape(ad.value(u[0]))}")
        p, q, raw = M.chart(u)
        n1 = list(raw[:3])
        n2 = list(raw[3:])
        nn = (-(n1[0] * n1[0]) + n1[1] * n1[1] + n1[2] * n1[2]
              - (n2[0] * n2[0]) + n2[1] * n2[1] + n2[2] * n2[2])
        inv = 1.0 / ad.sqrt(nn)
        n1 = [x * inv for x in n1]
        n2 = [x * inv for x in n2]
        c = ((-(n1[0] * n1[0]) + n1[1] * n1[1] + n1[2] * n1[2])
             - (-(n2[0] * n2[0]) + n2[1] * n2[1] + n2[2] * n2[2]))
        cp = ad.sqrt((1.0 + c) / 2.0)
        cm = ad.sqrt((1.0 - c) / 2.0)
        chp, shp = ad.cosh(cp * l), ad.sinh(cp * l)
        chm, shm = ad.cosh(cm * l), ad.sinh(cm * l)
        shp_c, shm_c = shp / cp, shm / cm
        pl = [chp * p[i] + shp_c * n1[i] for i in range(3)]
        ql = [chm * q[i] + shm_c * n2[i] for i in range(3)]
        nl = ([chp * n1[i] + cp * shp * p[i] for i in range(3)]
              + [chm * n2[i] + cm * shm * q[i] for i in range(3)])
        return pl, ql, nl

    return Hypersurface(chart=chart, domain=M.domain, name=f"{M.name}|parallel(l per row)")


# ---------------------------------------------------------------------------
# the matrix Q and its consequences
# ---------------------------------------------------------------------------

def _hyperbolic(af: AdaptedFrame, l):
    """(cosh(c l), sinh(c l)/c, c sinh(c l)) for c = C+ and for c = C-."""
    out = []
    for c in (af.cplus, af.cminus):
        ch, sh = np.cosh(c * l), np.sinh(c * l)
        out.append((ch, sh / c, c * sh))
    return out


def _q_rows(af: AdaptedFrame, l, hyperbolic=None) -> tuple:
    """Entries of the pushforward matrix Q of the parallel map in the adapted
    frame and of its l-derivative Q', as nested rows.  ``hyperbolic`` is
    ``_hyperbolic(af, l)`` when the caller has it."""
    a = af.entries
    (chp, sp, dchp), (chm, sm, dchm) = hyperbolic or _hyperbolic(af, l)
    return ([[1.0 - l * a[0, 0], -a[0, 1] * sp, -a[0, 2] * sm],
             [-l * a[0, 1], chp - a[1, 1] * sp, -a[1, 2] * sm],
             [-l * a[0, 2], -a[1, 2] * sp, chm - a[2, 2] * sm]],
            [[-a[0, 0], -a[0, 1] * chp, -a[0, 2] * chm],
             [-a[0, 1], dchp - a[1, 1] * chp, -a[1, 2] * chm],
             [-a[0, 2], -a[1, 2] * chp, dchm - a[2, 2] * chm]])


# index of the l-derivative of each factor of _hyperbolic: cosh -> c sinh, sinh/c -> cosh
_DERIVATIVE_FACTOR = (2, 0)


def _detq_terms(af: AdaptedFrame):
    """det Q as a sum of (alpha + beta l) P_i(C+ l) M_j(C- l), as (alpha, beta, i, j).

    Factor 0 is cosh(c l) and factor 1 is sinh(c l)/c, as in ``_hyperbolic``.
    """
    a = af.entries
    h12, h13, h23 = af.principal_minors()
    # det A by cofactors: an LU factorization divides by pivots, which
    # overflows on nearly singular A with subnormal entries
    k = (a[0, 0] * h23 - a[0, 1] * (a[0, 1] * a[2, 2] - a[0, 2] * a[1, 2])
         + a[0, 2] * (a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]))
    return ((1.0, -a[0, 0], 0, 0),
            (-a[1, 1], h12, 1, 0),
            (-a[2, 2], h13, 0, 1),
            (h23, -k, 1, 1))


def detq_expansion(af: AdaptedFrame, l, hyperbolic=None):
    """Closed-form det Q in terms of the principal 2x2 minors and det A.
    ``hyperbolic`` is ``_hyperbolic(af, l)`` when the caller has it."""
    l = np.asarray(l, dtype=float)
    fp, fm = hyperbolic or _hyperbolic(af, l)
    return sum((alpha + beta * l) * fp[i] * fm[j] for alpha, beta, i, j in _detq_terms(af))


def detq_expansion_prime(af: AdaptedFrame, l):
    """Analytic d/dl of the det Q expansion (independent of the trace route)."""
    l = np.asarray(l, dtype=float)
    fp, fm = _hyperbolic(af, l)
    d = _DERIVATIVE_FACTOR
    return sum(beta * fp[i] * fm[j] + (alpha + beta * l) * (fp[d[i]] * fm[j] + fp[i] * fm[d[j]])
               for alpha, beta, i, j in _detq_terms(af))


def _adjugate(r):
    """Cofactors cof[i][j] and det of the matrices with entries r[i][j], each
    over the batch.

    The cofactor rows are cross products of the rows, cof[i] = r[i+1] x
    r[i+2], and det = r[0] . cof[0].  Every product is written out entry by
    entry, so a matrix's bits do not depend on its batch.
    """
    cof = [[r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
            - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    return cof, r[0][0] * cof[0][0] + r[0][1] * cof[0][1] + r[0][2] * cof[0][2]


def _shape_operator(q, qp, l) -> list:
    """Entries of -Q^{-1} Q' = -adj(Q) Q' / det Q from the entries of Q and Q',
    refused with FocalPointError wherever det Q vanishes."""
    cof, det = _adjugate(q)
    focal = np.abs(det) <= FOCAL_DET_TOL
    if np.any(focal):
        i = int(np.argmax(focal))
        l = np.ravel(np.broadcast_to(l, det.shape))[i]
        raise FocalPointError(f"det Q = {np.ravel(det)[i]:.3e} at l = {l}")
    return [[-(cof[0][i] * qp[0][j] + cof[1][i] * qp[1][j] + cof[2][i] * qp[2][j]) / det
             for j in range(3)] for i in range(3)]


# the flow raises FloatingPointError instead of leaving inf or NaN in S(l)
_RAISE = np.errstate(over="raise", invalid="raise", divide="raise")


@_RAISE
def _flow(af: AdaptedFrame, l, hyperbolic=None) -> list:
    """Entries s[i][j] of the parallel shape operator S(l), each over the
    frames and l; ``hyperbolic`` as in ``_q_rows``."""
    l = np.asarray(l, dtype=float)
    return _shape_operator(*_q_rows(af, l, hyperbolic), l)


def _trace(s):
    return s[0][0] + s[1][1] + s[2][2]


# Bar on ||S - S^T||_F: max(ASYMMETRY_TOL, ASYMMETRY_REL ||S||_F).  By
# Bendixson's bound |Im lambda| <= ||S - S^T||_F / 2, so while ||S||_F <= 2e4
# every S with |Im lambda| > 1e-8 is refused.  Next to a focal value S grows
# like 1/det Q and so does the adjugate's roundoff asymmetry (at most
# 3.2e-14 ||S||_F measured), which an absolute bar alone would refuse.
ASYMMETRY_TOL = 2e-8
ASYMMETRY_REL = 1e-12


def _cross(x, y) -> list:
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _symmetric_spectrum(s) -> tuple:
    """Ascending eigenvalues (lowest, middle, highest), each over the batch,
    of the symmetric part of the matrices with entries s[i][j], in closed form.

    Eberly's robust eigensolver (D. Eberly, A Robust Eigensolver for 3x3
    Symmetric Matrices, Geometric Tools, 2014).  With m the largest |entry|
    and q the mean of the diagonal of A/m, B = (A/m - q I)/p has ||B||_F² = 6
    and det B/2 in [-1, 1], and its roots are 2 cos(phi + 2 pi k/3) with
    phi = arccos(det B/2)/3 (O. K. Smith, CACM 4:168, 1961).  The root beta
    farthest from the other two, the largest where det B >= 0 and else the
    smallest, is at least sqrt 3 from both, so Smith's formula is well
    conditioned for it.  Its eigenvector is the longest cross product of two
    rows of B - beta I, and the other two roots are those of the 2x2 block
    of B on the orthogonal complement, by ``hypot``.  The zero matrix and
    c I have p = 0 and divide by 1 instead, where B = 0.
    """
    a = [s[0][0], s[1][1], s[2][2],
         0.5 * (s[0][1] + s[1][0]), 0.5 * (s[0][2] + s[2][0]), 0.5 * (s[1][2] + s[2][1])]
    m = np.abs(a[0])
    for x in a[1:]:
        m = np.maximum(m, np.abs(x))
    a00, a11, a22, a01, a02, a12 = (x / np.where(m > 0.0, m, 1.0) for x in a)
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    b00, b11, b22, b01, b02, b12 = (x / np.where(p > 0.0, p, 1.0)
                                    for x in (b00, b11, b22, a01, a02, a12))
    half_det = np.clip(0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                              + b02 * (b01 * b12 - b11 * b02)), -1.0, 1.0)
    phi = np.arccos(half_det) / 3.0
    beta = 2.0 * np.cos(np.where(half_det >= 0.0, phi, phi + 2.0 * math.pi / 3.0))
    b = [[b00, b01, b02], [b01, b11, b12], [b02, b12, b22]]
    rows = [[b00 - beta, b01, b02], [b01, b11 - beta, b12], [b02, b12, b22 - beta]]
    v = _cross(rows[0], rows[1])
    vv = _dot(v, v)
    for x, y in ((0, 2), (1, 2)):
        c = _cross(rows[x], rows[y])
        cc = _dot(c, c)
        longer = cc > vv
        v, vv = [np.where(longer, ci, vi) for ci, vi in zip(c, v)], np.where(longer, cc, vv)
    v = [x / np.sqrt(vv) for x in v]
    # a unit vector u orthogonal to v (Eberly's choice)
    first = np.abs(v[0]) > np.abs(v[1])
    norm = np.sqrt(np.where(first, v[0] * v[0], v[1] * v[1]) + v[2] * v[2])
    u = [np.where(first, -v[2], 0.0) / norm, np.where(first, 0.0, v[2]) / norm,
         np.where(first, v[0], -v[1]) / norm]
    # the block [[j00, j01], [j01, j11]] in the basis u, w = v x u, whose
    # trace j00 + j11 is tr B - beta
    bu = [_dot(row, u) for row in b]
    j00, j01 = _dot(u, bu), _dot(_cross(v, u), bu)
    mid = 0.5 * ((b00 + b11 + b22) - beta)
    half = np.hypot(j00 - mid, j01)
    iso, lo, hi = (m * (q + p * x) for x in (beta, mid - half, mid + half))
    return np.minimum(iso, lo), np.maximum(lo, np.minimum(iso, hi)), np.maximum(iso, hi)


@_RAISE
def _spectrum(s) -> tuple:
    """Ascending eigenvalues (lowest, middle, highest) of the self-adjoint
    shape operator with entries s[i][j] (see the module docstring), refused
    where an entry is not finite or S is not symmetric to roundoff.

    The bar is judged on S / m, m the largest |entry|, against
    max((ASYMMETRY_TOL / m)², ASYMMETRY_REL² ||S / m||_F²), so no square
    overflows whatever the size of S.  Each term is taken from the entries
    s[i][j] in place, and the sums add row by row.
    """
    entries = [s[i][j] for i in range(3) for j in range(3)]
    m = np.abs(entries[0])
    for x in entries[1:]:
        m = np.maximum(m, np.abs(x))
    if not np.all(np.isfinite(m)):
        raise ArithmeticError("parallel shape operator is not finite")
    m = np.where(m > 0.0, m, 1.0)
    norm = asymmetry = 0.0
    for x in entries:
        t = x / m
        norm = norm + t * t
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = s[i][j] / m - s[j][i] / m
        asymmetry = asymmetry + d * d
    with np.errstate(over="ignore"):
        # (ASYMMETRY_TOL / m)² is inf for a tiny S, and then every S passes
        # the bar, as it would unscaled
        bar = np.maximum((ASYMMETRY_TOL / m) ** 2, ASYMMETRY_REL ** 2 * norm)
    if np.any(2.0 * asymmetry > bar):
        raise ArithmeticError("parallel shape operator is not self-adjoint")
    return _symmetric_spectrum(s)


def mean_curvature_of_parallel(af: AdaptedFrame, l):
    """H(l) = -tr(Q^{-1} Q'), the trace of the parallel shape operator."""
    return _trace(_flow(af, l))


def parallel_lambdas(af: AdaptedFrame, l) -> np.ndarray:
    """Principal curvatures of the parallel hypersurface, ascending, (..., 3)."""
    return np.stack(_spectrum(_flow(af, l)), axis=-1)


def find_focal_radius(af: AdaptedFrame, lo, hi):
    """Bisection roots of det Q on brackets [lo, hi] that broadcast against the
    frame batch, all halved together until each is narrower than 1e-10."""
    shape = np.broadcast_shapes(np.shape(af.C), np.shape(lo), np.shape(hi))
    lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), shape) for x in (lo, hi))
    flo = detq_expansion(af, lo)
    if np.any(flo * detq_expansion(af, hi) > 0.0):
        raise ValueError("det Q does not change sign on the bracket")
    wide = hi - lo > 1e-10
    while np.any(wide):
        mid = 0.5 * (lo + hi)
        fm = detq_expansion(af, mid)
        left = flo * fm <= 0.0
        hi = np.where(wide & left, mid, hi)
        lo, flo = np.where(wide & ~left, mid, lo), np.where(wide & ~left, fm, flo)
        wide = hi - lo > 1e-10
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# derivatives of det Q at l = 0
# ---------------------------------------------------------------------------

DETQ_ORDERS = (1, 2, 4, 6, 8)


def detq_derivatives_at_0(af: AdaptedFrame, rho) -> dict:
    """Closed-form d^k(det Q)/dl^k at l = 0 for k = 1, 2, 4, 6, 8."""
    c = af.C
    c2, c3, c4 = (np.power(c, m) for m in (2, 3, 4))
    h12, h13, _ = af.principal_minors()
    return {
        1: -af.H,
        2: rho + 3.0,
        4: 6.0 - c2 + (4.0 - 4.0 * c) * h12 + (4.0 + 4.0 * c) * h13 + 2.0 * rho,
        6: (12.0 - 5.0 * c2 + (16.0 - 12.0 * c - 4.0 * c2) * h12
            + (16.0 + 12.0 * c - 4.0 * c2) * h13 + (4.0 - c2) * rho),
        8: (24.0 - 16.0 * c2 + c4 + (8.0 - 4.0 * c2) * rho
            + (48.0 - 32.0 * c - 24.0 * c2 + 8.0 * c3) * h12
            + (48.0 + 32.0 * c - 24.0 * c2 - 8.0 * c3) * h13),
    }


def _factor_series(c, i: int) -> np.ndarray:
    """Taylor coefficients to l^8 of cosh(c l) (i = 0) or sinh(c l)/c (i = 1)."""
    zero = np.zeros(np.shape(c))
    return np.stack([np.power(c, m - i) / math.factorial(m) if m % 2 == i else zero
                     for m in range(DETQ_ORDERS[-1] + 1)], axis=-1)


def detq_derivatives_numeric(af: AdaptedFrame) -> dict:
    """d^k(det Q)/dl^k at l = 0 from the Taylor series of the det Q expansion.

    Each term (alpha + beta l) P(C+ l) M(C- l) of ``_detq_terms`` is
    multiplied out as a power series truncated at l^8, which is exact up to
    that order; the k-th derivative is k! times the l^k coefficient.  Nothing
    is differenced, and nothing is shared with the closed forms of
    ``detq_derivatives_at_0`` but the expansion itself.  The series product
    adds p_a m_(k-a) to coefficient k in increasing a, elementwise over the
    frames, so each frame is bit for bit its batch of one.
    """
    n = DETQ_ORDERS[-1] + 1
    plus, minus = ([_factor_series(c, i) for i in (0, 1)] for c in (af.cplus, af.cminus))
    series = np.zeros(np.shape(af.C) + (n,))
    for alpha, beta, i, j in _detq_terms(af):
        pm = np.zeros(series.shape)
        for a in range(n):
            pm[..., a:] += plus[i][..., a, None] * minus[j][..., :n - a]
        series += np.asarray(alpha)[..., None] * pm
        series[..., 1:] += np.asarray(beta)[..., None] * pm[..., :-1]
    return {k: math.factorial(k) * series[..., k] for k in DETQ_ORDERS}


# ---------------------------------------------------------------------------
# isoparametric scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScanReport:
    """Columns of an isoparametric scan, one entry per l-grid node.

    ``h_mean``, ``h_spread`` and ``lambda_spread`` are NaN at focal nodes
    (``focal`` true), which the spreads exclude.  ``focal_roots`` is
    computed on first read, from the sign changes the scan recorded.
    """

    l: np.ndarray
    h_mean: np.ndarray
    h_spread: np.ndarray
    lambda_spread: np.ndarray
    min_abs_detq: np.ndarray
    focal: np.ndarray
    excluded: list
    mode: str
    find_roots: Callable[[], list] = dataclasses.field(repr=False)

    @functools.cached_property
    def focal_roots(self) -> list:
        """Sorted focal values of l inside the grid, each given once."""
        return self.find_roots()

    def _max_off_focal(self, column: np.ndarray) -> float:
        # NaN when every node is focal: no spread was measured
        values = column[~self.focal]
        return float(np.max(values)) if values.size else math.nan

    @property
    def max_h_spread(self) -> float:
        return self._max_off_focal(self.h_spread)

    @property
    def max_lambda_spread(self) -> float:
        return self._max_off_focal(self.lambda_spread)


def _focal_flags(values: np.ndarray) -> np.ndarray:
    """Grid nodes next to a root of det Q, given per base point (rows) over l.

    A node is flagged where some |det Q| < 1e-8, and at every sign change
    between neighbouring nodes the nearer endpoint (smaller |det Q|, the
    left one on a tie) is flagged.
    """
    flags = np.min(np.abs(values), axis=0) < 1e-8
    left, right = values[:, :-1], values[:, 1:]
    change = left * right < 0
    left_nearer = np.abs(left) <= np.abs(right)
    flags[:-1] |= np.any(change & left_nearer, axis=0)
    flags[1:] |= np.any(change & ~left_nearer, axis=0)
    return flags


def _merged(roots, tol: float = 1e-9) -> list:
    """Sorted roots, keeping the smallest of each run that agrees within tol."""
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > tol:
            out.append(r)
    return out


@_RAISE
def isoparametric_scan(pgs: PointGeometry, l_grid) -> ScanReport:
    """Spread of H(l) and of the parallel principal curvatures over base points.

    Constant spreads across base points for every l characterize the
    isoparametric condition.  For product-angle-degenerate surfaces (C² = 1,
    the curve x H² family) the scan runs on the curve factor: the parallel
    hypersurface is the parallel curve x H², so H(l) is the parallel-curve
    curvature of kappa = H(u).  Focal values of l, detected by sign changes
    of det Q between grid nodes, are excluded from the spreads and flagged.
    When ``focal_roots`` is read, every base point's sign changes are
    bisected to full precision, and roots that agree within 1e-9 are
    reported once.  ``pgs`` is the bundle of the base points, a batch (n,)
    of any jet order (the scan reads no third derivative), so the caller's
    chart pass serves it; its frames form one batch, a column evaluated once
    against the whole grid.  An overflow, a division by zero or an invalid
    operation raises FloatingPointError, as in the flow.
    """
    l_grid = np.asarray(l_grid, dtype=float)

    # every array is (base point, l)
    if np.all(np.abs(pgs.C) > DEGENERATE_C):
        mode = "curve_factor"
        kappas = pgs.H[:, None]
        dets = np.cosh(l_grid) - kappas * np.sinh(l_grid)
        flags = _focal_flags(dets)
        at = np.arctanh(1.0 / pgs.H[np.abs(pgs.H) > 1.0])
        roots = sorted({round(r, 12) for r in at[(l_grid[0] < at) & (at < l_grid[-1])].tolist()})
        find_roots = roots.copy
        hs = parallel_curve_curvature(kappas, l_grid[~flags])
        lams = (hs,)
    else:
        mode = "adapted"
        af = adapted_frame(pgs)
        column = af[:, None]
        # one cosh/sinh pass over the grid serves det Q and the flow
        hyperbolic = _hyperbolic(column, l_grid)
        dets = detq_expansion(column, l_grid, hyperbolic)
        flags = _focal_flags(dets)
        rows, j = np.nonzero(dets[:, :-1] * dets[:, 1:] < 0)
        find_roots = functools.partial(_bisected_roots, af[rows], l_grid[j], l_grid[j + 1])
        # about 256 nodes at a time, so that the entries of Q, Q' and S stay small
        parts = []
        for nodes in np.array_split(np.flatnonzero(~flags), len(l_grid) // 256 + 1):
            s = _flow(column, l_grid[nodes], [[x[:, nodes] for x in f] for f in hyperbolic])
            parts.append((_trace(s), *_spectrum(s)))
        hs, *lams = (np.concatenate(x, axis=1) for x in zip(*parts))

    h_mean, h_spread, lambda_spread = (np.full(len(l_grid), math.nan) for _ in range(3))
    # the mean sums each node's base points in numpy's pairwise order, as a row
    h_mean[~flags] = np.mean(np.ascontiguousarray(hs.T), axis=1)
    h_spread[~flags] = np.max(hs, axis=0) - np.min(hs, axis=0)
    lambda_spread[~flags] = np.max([np.max(x, axis=0) - np.min(x, axis=0) for x in lams], axis=0)
    return ScanReport(l=l_grid, h_mean=h_mean, h_spread=h_spread, lambda_spread=lambda_spread,
                      min_abs_detq=np.min(np.abs(dets), axis=0), focal=flags,
                      excluded=l_grid[flags].tolist(), mode=mode, find_roots=find_roots)


@_RAISE
def _bisected_roots(af: AdaptedFrame, lo, hi) -> list:
    """The roots of det Q on the sign-change brackets [lo, hi] of the frames
    ``af``, sorted, each run that agrees within 1e-9 given once."""
    return _merged(find_focal_radius(af, lo, hi).tolist())


# ---------------------------------------------------------------------------
# frame identity checks (connection formulas of adapted and eigen frames)
# ---------------------------------------------------------------------------

def _outer(e, w):
    return e[..., :, None] * w[..., None, :]


def _adapted_frame_jacobians(pg: PointGeometry, d: PointDerivatives) -> np.ndarray:
    """Ambient Jacobians of the adapted frame fields E1 = V-hat, E2, E3 at pg:
    (*B,3,6,3).

    E1 = V / sqrt(1 - C²) follows from dV and dC.  E2 and E3 are
    (J1 N ± J2 N) / sqrt(2 (1 ± C)), and J_i N, bilinear in the point and
    N, is differentiated by the product rule.
    """
    E, C = frame_vectors(pg), pg.C
    # complex_structures takes the 6 ambient components on the first axis
    dj1, dj2 = (np.moveaxis(a + b, 0, -2) for a, b in
                zip(complex_structures(np.moveaxis(pg.jac, -2, 0), pg.N.T[..., None]),
                    complex_structures(pg.val.T[..., None], np.moveaxis(d.dN, -2, 0))))
    dw2, dw3 = dj1 + dj2, dj1 - dj2
    c2 = C * C
    return np.stack([
        d.dV / np.sqrt(1.0 - c2)[..., None, None]
        + _outer(E[..., 0, :], C[..., None] * d.dC / (1.0 - c2)[..., None]),
        dw2 / np.sqrt(2.0 * (1.0 + C))[..., None, None]
        - _outer(E[..., 1, :], d.dC / (2.0 * (1.0 + C))[..., None]),
        dw3 / np.sqrt(2.0 * (1.0 - C))[..., None, None]
        + _outer(E[..., 2, :], d.dC / (2.0 * (1.0 - C))[..., None]),
    ], axis=-3)


def _shape_apply_jacobian(pg: PointGeometry, d: PointDerivatives, X, dX) -> np.ndarray:
    """Ambient Jacobian (..., 6, 3) of the field A X, for tangent fields X
    (..., 6) with Jacobians dX (..., 6, 3) over the batch of ``pg``.

    A X = Phi_* A xi with chart components xi = g^{-1} Phi_*^T eta X, so by the
    product rule d(A X) = d(Phi_*) A xi + Phi_* (dA xi + A dxi).
    """
    xi = pg.coords(X)
    dxi = np.linalg.solve(pg.g, np.einsum("...aki,...a->...ik", pg.hess, _matvec(ETA6, X))
                          + pg.jac.swapaxes(-1, -2) @ ETA6 @ dX
                          - _matvec(d.dg, xi[..., None, :]).swapaxes(-1, -2))
    return (np.einsum("...aki,...i->...ak", pg.hess, _matvec(pg.A, xi))
            + pg.jac @ (np.einsum("...kij,...j->...ik", d.dA, xi) + pg.A @ dxi))


def _principal_jacobians(pg: PointGeometry, d: PointDerivatives) -> np.ndarray:
    """Exact derivatives of the principal directions at pg.

    For b x = lambda g x with g-orthonormal eigenvectors x_i, a simple
    eigenpair has (Magnus & Neudecker, Matrix Differential Calculus, ch. 8)

        d x_i = sum_{j != i} x_j^T (db - lambda_i dg) x_i / (lambda_i - lambda_j) x_j
                - 1/2 (x_i^T dg x_i) x_i.

    Returns the ambient Jacobians dP[i] (6x3) of the principal direction
    fields Phi_* x_i, with the batch axes of pg in front.
    """
    X, lam = pg.principal_coords, pg.lambdas
    Xt, Xk = X.swapaxes(-1, -2)[..., None, :, :], X[..., None, :, :]
    Gx = Xt @ d.dg @ Xk                        # [k, j, i] = x_j^T d_k g x_i
    Mx = Xt @ d.db @ Xk - Gx * lam[..., None, None, :]   # column i uses lambda_i
    gap = lam[..., None, :] - lam[..., :, None]          # [j, i] = lambda_i - lambda_j
    off = ~np.eye(3, dtype=bool)
    coef = np.where(off, Mx / np.where(off, gap, 1.0)[..., None, :, :], -0.5 * Gx)
    dX = np.einsum("...cj,...kji->...cik", X, coef)     # [coordinate, eigenvector, direction]
    return (np.einsum("...akc,...ci->...iak", pg.hess, X)
            + np.einsum("...ac,...cik->...iak", pg.jac, dX))


FRAME_ITEMS = ("v_direction_identity", "eigenframe_connections", "product_frame_connections",
               "connection_antisymmetry", "codazzi_frame_relation", "diagonal_connection_formula",
               "connection_pairing")

# why a frame item is skipped at a row: skip code k > 0 is FRAME_SKIPS[k], and
# code 0, an item that is judged, has no reason
FRAME_SKIPS = ("", "degenerate product angle (C^2 = 1)", "hypothesis AV=0 violated",
               "hypothesis lambda_1 != lambda_2 violated",
               "hypothesis J1N+J2N principal violated",
               "hypothesis of three distinct principal curvatures violated",
               "hypothesis of constant principal curvatures violated")
_DEGENERATE, _AV, _EQUAL, _NOT_PRINCIPAL, _NOT_THREE, _VARYING = range(1, 7)

# (i, j) with i != j, and (i, j, k) all distinct
_PAIRS = np.nonzero(~np.eye(3, dtype=bool))
_TRIPLES = tuple(np.array(list(itertools.permutations(range(3)))).T)


class FrameChecks(NamedTuple):
    """The frame identities at each row of a bundle (n,): a residual and a
    skip code per ``FRAME_ITEMS`` entry, and the smallest eigenvalue gap an
    eigenvector derivative divided by."""

    residual: np.ndarray   # (n, 7), NaN where the item is skipped
    skip: np.ndarray       # (n, 7) int8: 0 where judged, else an index into FRAME_SKIPS
    min_gap: np.ndarray    # (n,), NaN where no eigenvector derivative divided by a gap


def _covariant(pg: PointGeometry, jacobians, X) -> np.ndarray:
    """nabla_X F = proj(dF xi(X)) for each field Jacobian dF (..., n, 6, 3)
    of the list ``jacobians`` along the tangent vectors X (..., n, 6), which
    broadcast against it: (..., len(jacobians), n, 6), from one ``coords``
    and one ``project`` call."""
    xi = pg.coords(X)
    return pg.project(np.stack([_matvec(dF, xi) for dF in jacobians], axis=1))


def frame_identity_checks(pg: PointGeometry, constant) -> FrameChecks:
    """Residuals of the constant-curvature frame identities at each point of
    a bundle, a batch (n,): three arrays with the sample axis first.
    ``constant``, the oracle's ``constant_curvatures`` (one flag, or one per
    row), is the hypothesis of the last three items.

    Checks the V-direction derivative identity on {V}-orthogonal pairs, the
    eigenframe connection table (distinct nonzero pair of curvatures), the
    product-frame connection table (needs J1 N + J2 N principal), and the
    antisymmetry/Codazzi relations of the three-curvature eigenframe.  Any
    item whose hypothesis fails numerically at a point is skipped there, its
    skip code naming the hypothesis in ``FRAME_SKIPS``, not failed.
    Covariant derivatives are the tangential projections of exact field
    Jacobians, nabla_X F = proj(dF xi(X)), built from ``point_derivatives``,
    so no chart is evaluated; it needs an order-3 bundle.

    Each hypothesis is decided row by row.  A table's covariant derivatives
    take one stacked ``coords`` and ``project`` call over the rows that need
    them, and the eigenvector derivatives, which divide by eigenvalue gaps,
    are formed only on the rows whose hypotheses admit them.  Every
    per-vector product keeps its one-point shape, so each row is bit for bit
    that of the row alone, as a batch of one.
    """
    n = len(pg)
    residual = np.full((n, len(FRAME_ITEMS)), np.nan)
    skip = np.full((n, len(FRAME_ITEMS)), _DEGENERATE, dtype=np.int8)
    min_gap = np.full(n, np.nan)
    live = np.flatnonzero(~(np.abs(pg.C) > DEGENERATE_C))
    if live.size:
        residual[live], skip[live], min_gap[live] = _frame_tables(
            pg if live.size == n else pg[live], np.broadcast_to(constant, n)[live])
    return FrameChecks(residual, skip, min_gap)


def _frame_tables(pg: PointGeometry, constant: np.ndarray) -> tuple:
    """(residual, skip, min_gap) of ``frame_identity_checks`` on a bundle
    whose product angle is not degenerate at any row, with its rows'
    constant-curvature flags."""
    d = point_derivatives(pg)
    E = frame_vectors(pg)
    dE = _adapted_frame_jacobians(pg, d)
    vhat, C = E[:, 0], pg.C
    c2 = C * C
    s = np.sqrt(1.0 - c2)

    # ---- V-direction derivative identity on {V}-orthogonal pairs --------
    X, dX = E[:, 1:].swapaxes(0, 1), dE[:, 1:].swapaxes(0, 1)    # e2, e3: (2, n, 6), (2, n, 6, 3)
    av_norm = _norm(pg.shape_apply(pg.V))
    sa = pg.shape_apply(X)
    nab = _covariant(pg, [_shape_apply_jacobian(pg, d, X, dX), dX], pg.V)   # nabla_V of A x, x
    nab_ax, nab_x = nab[:, 0], nab[:, 1]
    a2x, atax, a_nab = pg.shape_apply(np.stack([sa, pg.T_apply(sa), nab_x]))

    def pairs(v):
        # <v_x, y> for x, y in (e2, e3): [x, y, row]
        return _pairing(v[:, None], X[None])

    lhs = -C * pairs(a2x) + pairs(atax) - pairs(nab_ax) + pairs(a_nab)
    rhs = 0.5 * (1.0 - c2) * pairs(pg.T_apply(X))
    av_zero = ~(av_norm > 1e-6)
    v_res = np.max(np.abs(lhs - rhs), axis=(0, 1))

    # ---- eigenframe bookkeeping ----------------------------------------
    lam = pg.lambdas
    i_v = np.argmax(np.abs(_pairing(pg.principal_ambient.swapaxes(-1, -2), vhat[:, None])),
                    axis=-1)
    # the two other principal directions, then the one along V
    order = np.stack([(i_v == 0).astype(int), 2 - (i_v == 2), i_v], axis=-1)
    lam1, lam2, lam_v = np.take_along_axis(lam, order, axis=-1).T
    min_gap = np.min(np.abs(lam[:, [0, 1, 0]] - lam[:, [1, 2, 2]]), axis=-1)
    eigen = (av_norm <= 1e-6) & (np.abs(lam_v) <= 1e-6) & (np.abs(lam1 - lam2) > 1e-6)
    three = min_gap > 1e-6
    need = np.flatnonzero(eigen | three)

    # ---- connection table for the eigenframe ----------------------------
    eigen_res = np.zeros(len(pg))
    if need.size:
        sub = pg if need.size == len(pg) else pg[need]
        dP = _principal_jacobians(sub, PointDerivatives(*(x[need] for x in d)))
        eigen_res[need] = _eigen_table(sub, dP, vhat[need], dE[need, 0], order[need],
                                       lam1[need], lam2[need], s[need])

    # ---- connection table in the product-frame ordering -----------------
    lam_a, lam_b = _pairing(sa, X)
    e2, e3 = X
    defect = _norm(sa[0] - lam_a[:, None] * e2)
    nab = _covariant(pg, [dE[:, 1], dE[:, 2], dE[:, 0]], np.stack([e2, e3, vhat]))
    rm, rp = np.sqrt((1.0 - C) / (1.0 + C))[:, None], np.sqrt((1.0 + C) / (1.0 - C))[:, None]
    expected = np.zeros(nab.shape)
    expected[0, 0] = lam_a[:, None] * rm * vhat
    expected[0, 2] = -lam_a[:, None] * rm * e2
    expected[1, 1] = -lam_b[:, None] * rp * vhat
    expected[1, 2] = lam_b[:, None] * rp * e3
    product_res = np.max(np.abs(nab - expected), axis=(0, 1, 3))

    # ---- three-curvature eigenframe relations ---------------------------
    out = np.zeros((4, len(pg)))
    if three.any():
        # the rows of three distinct curvatures are rows of ``need``
        at = np.flatnonzero(three[need])
        sub3 = sub if at.size == need.size else sub[at]
        out[:, need[at]] = _three_curvature_table(sub3, dP[at])

    # the skip codes in FRAME_ITEMS order; the last three relations also
    # need constant curvatures
    curvatures = np.select([~three, ~constant], [_NOT_THREE, _VARYING], 0)
    skip = np.stack([
        np.where(av_zero, 0, _AV),
        np.select([eigen, ~av_zero | (np.abs(lam_v) > 1e-6)], [0, _AV], _EQUAL),
        np.select([~av_zero, defect > 1e-6], [_AV, _NOT_PRINCIPAL], 0),
        np.where(three, 0, _NOT_THREE),
        curvatures, curvatures, curvatures,
    ], axis=-1).astype(np.int8)
    residual = np.stack([v_res, eigen_res, product_res, *out], axis=-1)
    # every eigenvector derivative divides by the gaps to both other eigenvalues
    return np.where(skip == 0, residual, np.nan), skip, np.where(eigen | three, min_gap, np.nan)


def _eigen_table(pg: PointGeometry, dP, vhat, dE1, order, lam1, lam2, s) -> np.ndarray:
    """Residual of the eigenframe connection table at each row: the frame is
    the two principal directions other than V's, ``order[:, :2]``, and
    V-hat."""
    # the principal directions as columns of a C-ordered (6, 3) matrix each,
    # so that the pairings read them with the strides of the one-point code
    cols = np.take_along_axis(pg.principal_ambient, order[:, None, :], axis=-1)
    e1v, e2v = cols[..., 0], cols[..., 1]
    # every dP[:, j] keeps its layout, which decides how a product with it
    # sums, and the two fields of the frame are picked from the results
    nab = _covariant(pg, [dP[:, 0], dP[:, 1], dP[:, 2], dE1], np.stack([e1v, e2v, vhat]))
    rows = np.arange(len(pg))
    nab = np.stack([nab[:, order[:, 0], rows], nab[:, order[:, 1], rows], nab[:, 3]], axis=1)
    pe1, pe2 = _matvec(P6, e1v), _matvec(P6, e2v)
    p11, p22, p12 = _pairing(pe1, e1v), _pairing(pe2, e2v), _pairing(pe1, e2v)
    C = pg.C
    coef = (p12 / (lam1 - lam2)) * (lam1 * lam2 / s - s / 2.0)
    col = (lambda x: x[:, None])
    expected = np.stack([
        [col((p11 * lam1 - C * lam1) / s) * vhat, col(p12 * lam1 / s) * vhat,
         (col((C - p11) * lam1) * e1v - col(lam1 * p12) * e2v) / col(s)],
        [col(p12 * lam2 / s) * vhat, col((p22 * lam2 - C * lam2) / s) * vhat,
         (col((C - p22) * lam2) * e2v - col(lam2 * p12) * e1v) / col(s)],
        [col(coef) * e2v, col(-coef) * e1v, np.zeros(vhat.shape)],
    ])
    return np.max(np.abs(nab - expected), axis=(0, 1, 3))


def _three_curvature_table(pg: PointGeometry, dP) -> np.ndarray:
    """Residuals (4, n) of connection_antisymmetry, codazzi_frame_relation,
    diagonal_connection_formula and connection_pairing in the eigenframe of
    three distinct principal curvatures."""
    x0 = np.moveaxis(pg.principal_ambient, -1, 0)      # the columns: (3, n, 6)
    nab = _covariant(pg, [dP[:, j] for j in range(3)], x0)
    gam = _pairing(nab[:, :, None], x0[None, None])    # [i, j, k, row]
    antisymmetry = np.max(np.abs(gam + gam.swapaxes(1, 2)), axis=(0, 1, 2))
    px = _matvec(P6, x0)
    b = _pairing(px, pg.N)                             # [i, row]
    pmat = _pairing(px[:, None], x0[None])             # [i, j, row]
    lam = pg.lambdas.T
    li, lj, lk = lam[:, None, None], lam[None, :, None], lam[None, None, :]
    rhs = -0.5 * (b[None, :, None] * pmat[:, None, :] - b[:, None, None] * pmat[None, :, :])
    r3 = np.max(np.abs((lk - lj) * gam - (lk - li) * gam.swapaxes(0, 1) - rhs), axis=(0, 1, 2))
    i, j = _PAIRS
    r4 = np.max(np.abs(gam[i, i, j] - (b[i] * pmat[i, j] - b[j] * pmat[i, i])
                       / (-2.0 * (lam[i] - lam[j]))), axis=0)
    i, j, k = _TRIPLES
    r5 = np.max(np.abs((lam[i] - lam[j]) * gam[i, i, j] + (lam[k] - lam[j]) * gam[k, k, j]),
                axis=0)
    return np.stack([antisymmetry, r3, r4, r5])
