"""Parallel-hypersurface machinery for H² × H².

For a hypersurface point with |C| < 1, the adapted orthonormal frame is

    E1 = V / sqrt(1 - C²),
    E2 = (J1 N + J2 N) / sqrt(2 (1 + C)),
    E3 = (J1 N - J2 N) / sqrt(2 (1 - C)),

and flowing distance l along the normal sends the pushed-forward frame
through the matrix Q(l) whose rows mix E_i into the parallel frame.  The
mean curvature of the parallel hypersurface is H(l) = -tr(Q^{-1} Q') =
-(det Q)'/det Q, its shape operator in the parallel frame is -Q^{-1} Q', and
det Q has a closed-form expansion in the frame components A_ij whose
derivatives at l = 0 reduce to scalar invariants (H, rho, C, and two
principal minors).  Focal values of l are the roots of det Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .lorentz import lorentz_cross, parallel_curve_curvature
from .product_space import ETA6, P6, ProductPoint, ProductTangent, ambient_inner
from .surface_calculus import (
    DegenerateProductAngleError,
    Hypersurface,
    PointGeometry,
    covariant_derivative,
    point_geometry,
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

    ``A`` is symmetric; ``frame`` holds the ambient frame vectors as rows
    (None for synthetic frames used in algebraic tests).
    """

    C: float
    A: np.ndarray
    frame: Optional[np.ndarray] = None   # (3,6) rows E1,E2,E3
    base: Optional[np.ndarray] = None    # (6,)

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        if abs(self.C) >= 1.0:
            raise DegenerateProductAngleError("adapted frame requires |C| < 1")

    @property
    def cplus(self) -> float:
        return math.sqrt((1.0 + self.C) / 2.0)

    @property
    def cminus(self) -> float:
        return math.sqrt((1.0 - self.C) / 2.0)

    @property
    def H(self) -> float:
        return float(np.trace(self.A))

    def principal_minors(self) -> tuple[float, float, float]:
        """(H12, H13, H23) with H_ij = A_ii A_jj - A_ij²."""
        a = self.A
        return (
            float(a[0, 0] * a[1, 1] - a[0, 1] ** 2),
            float(a[0, 0] * a[2, 2] - a[0, 2] ** 2),
            float(a[1, 1] * a[2, 2] - a[1, 2] ** 2),
        )

    @property
    def rho(self) -> float:
        """Scalar curvature via 2 (H12 + H13 + H23) = rho + 2."""
        return 2.0 * sum(self.principal_minors()) - 2.0

    @staticmethod
    def synthetic(A, C: float) -> "AdaptedFrame":
        A = np.asarray(A, dtype=float)
        return AdaptedFrame(C=float(C), A=0.5 * (A + A.T))


def frame_vectors(pg: PointGeometry) -> np.ndarray:
    """Ambient adapted-frame vectors (rows E1, E2, E3) at a point with |C|<1."""
    if abs(pg.C) > DEGENERATE_C:
        raise DegenerateProductAngleError(f"|C|={abs(pg.C):.12f} too close to 1")
    n1, n2 = pg.N[:3], pg.N[3:]
    p, q = pg.val[:3], pg.val[3:]
    j1n = np.concatenate([lorentz_cross(p, n1), lorentz_cross(q, n2)])
    j2n = np.concatenate([lorentz_cross(p, n1), -lorentz_cross(q, n2)])
    e1 = pg.V / math.sqrt(1.0 - pg.C ** 2)
    e2 = (j1n + j2n) / math.sqrt(2.0 * (1.0 + pg.C))
    e3 = (j1n - j2n) / math.sqrt(2.0 * (1.0 - pg.C))
    return np.stack([e1, e2, e3])


def adapted_frame(pg: PointGeometry) -> AdaptedFrame:
    """Adapted frame and shape-operator components A_ij = <A E_i, E_j>."""
    E = frame_vectors(pg)
    a = np.empty((3, 3))
    shaped = [pg.shape_apply(E[i]) for i in range(3)]
    for i in range(3):
        for j in range(3):
            a[i, j] = ambient_inner(shaped[i], E[j])
    a = 0.5 * (a + a.T)
    return AdaptedFrame(C=pg.C, A=a, frame=E, base=pg.val)


def frame_orthonormality_residual(af: AdaptedFrame) -> float:
    gram = np.array([[ambient_inner(af.frame[i], af.frame[j]) for j in range(3)]
                     for i in range(3)])
    return float(np.max(np.abs(gram - np.eye(3))))


# ---------------------------------------------------------------------------
# parallel points and normals
# ---------------------------------------------------------------------------

def parallel_point(pg: PointGeometry, l: float) -> ProductPoint:
    """Point reached by flowing distance l along the unit normal geodesic."""
    if abs(pg.C) > DEGENERATE_C:
        raise DegenerateProductAngleError("parallel flow needs |C| < 1")
    cp = math.sqrt((1.0 + pg.C) / 2.0)
    cm = math.sqrt((1.0 - pg.C) / 2.0)
    p, q = pg.val[:3], pg.val[3:]
    n1, n2 = pg.N[:3], pg.N[3:]
    pl = math.cosh(cp * l) * p + math.sinh(cp * l) / cp * n1
    ql = math.cosh(cm * l) * q + math.sinh(cm * l) / cm * n2
    return ProductPoint.from_ambient(np.concatenate([pl, ql]))


def parallel_normal(pg: PointGeometry, l: float) -> ProductTangent:
    """Unit normal of the parallel hypersurface at the flowed point."""
    if abs(pg.C) > DEGENERATE_C:
        raise DegenerateProductAngleError("parallel flow needs |C| < 1")
    cp = math.sqrt((1.0 + pg.C) / 2.0)
    cm = math.sqrt((1.0 - pg.C) / 2.0)
    p, q = pg.val[:3], pg.val[3:]
    n1, n2 = pg.N[:3], pg.N[3:]
    n1l = math.cosh(cp * l) * n1 + cp * math.sinh(cp * l) * p
    n2l = math.cosh(cm * l) * n2 + cm * math.sinh(cm * l) * q
    return ProductTangent.from_ambient(parallel_point(pg, l),
                                       np.concatenate([n1l, n2l]))


def parallel_surface(M: Hypersurface, l: float) -> Hypersurface:
    """The parallel hypersurface at distance l as a chart of its own.

    Requires a closed-form normal hint on M (all model-zoo surfaces carry
    one) so that the flowed chart stays evaluable at hyper-dual arguments.
    """
    if M.normal_hint is None:
        raise ValueError("parallel_surface needs a surface with a normal hint")

    def _flow(u):
        p, q = M.chart(u)
        raw = M.normal_hint(u)
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
        return p, q, n1, n2, cp, cm

    def chart(u):
        p, q, n1, n2, cp, cm = _flow(u)
        shp = ad.sinh(cp * l) / cp
        shm = ad.sinh(cm * l) / cm
        chp = ad.cosh(cp * l)
        chm = ad.cosh(cm * l)
        pl = [chp * p[i] + shp * n1[i] for i in range(3)]
        ql = [chm * q[i] + shm * n2[i] for i in range(3)]
        return pl, ql

    def hint(u):
        p, q, n1, n2, cp, cm = _flow(u)
        chp = ad.cosh(cp * l)
        chm = ad.cosh(cm * l)
        shp = ad.sinh(cp * l)
        shm = ad.sinh(cm * l)
        n1l = [chp * n1[i] + cp * shp * p[i] for i in range(3)]
        n2l = [chm * n2[i] + cm * shm * q[i] for i in range(3)]
        return [*n1l, *n2l]

    return Hypersurface(chart=chart, domain=M.domain, normal_hint=hint,
                        name=f"{M.name}|parallel(l={l})")


# ---------------------------------------------------------------------------
# the matrix Q and its consequences
# ---------------------------------------------------------------------------

def q_matrix(af: AdaptedFrame, l: float) -> np.ndarray:
    """Pushforward matrix of the parallel map in the adapted frame."""
    a = af.A
    cp, cm = af.cplus, af.cminus
    sp = math.sinh(cp * l) / cp
    sm = math.sinh(cm * l) / cm
    chp = math.cosh(cp * l)
    chm = math.cosh(cm * l)
    return np.array([
        [1.0 - l * a[0, 0], -a[0, 1] * sp, -a[0, 2] * sm],
        [-l * a[0, 1], chp - a[1, 1] * sp, -a[1, 2] * sm],
        [-l * a[0, 2], -a[1, 2] * sp, chm - a[2, 2] * sm],
    ])


def q_prime(af: AdaptedFrame, l: float) -> np.ndarray:
    """d/dl of the pushforward matrix; -Q' gives the parallel shape operator."""
    a = af.A
    cp, cm = af.cplus, af.cminus
    chp = math.cosh(cp * l)
    chm = math.cosh(cm * l)
    shp = math.sinh(cp * l)
    shm = math.sinh(cm * l)
    return np.array([
        [-a[0, 0], -a[0, 1] * chp, -a[0, 2] * chm],
        [-a[0, 1], cp * shp - a[1, 1] * chp, -a[1, 2] * chm],
        [-a[0, 2], -a[1, 2] * chp, cm * shm - a[2, 2] * chm],
    ])


def detq_expansion(af: AdaptedFrame, l: float) -> float:
    """Closed-form det Q in terms of the principal 2x2 minors and det A."""
    a = af.A
    cp, cm = af.cplus, af.cminus
    h12, h13, h23 = af.principal_minors()
    k = float(np.linalg.det(a))
    sp = math.sinh(cp * l)
    sm = math.sinh(cm * l)
    chp = math.cosh(cp * l)
    chm = math.cosh(cm * l)
    return ((1.0 - l * a[0, 0]) * chm * chp
            + (-a[1, 1] + l * h12) * sp * chm / cp
            + (-a[2, 2] + l * h13) * sm * chp / cm
            + (h23 - l * k) * sp * sm / (cm * cp))


def detq_expansion_prime(af: AdaptedFrame, l: float) -> float:
    """Analytic d/dl of the det Q expansion (independent of the trace route)."""
    a = af.A
    cp, cm = af.cplus, af.cminus
    h12, h13, h23 = af.principal_minors()
    k = float(np.linalg.det(a))
    sp = math.sinh(cp * l)
    sm = math.sinh(cm * l)
    chp = math.cosh(cp * l)
    chm = math.cosh(cm * l)
    t1 = -a[0, 0] * chm * chp + (1.0 - l * a[0, 0]) * (cm * sm * chp + cp * chm * sp)
    t2 = (h12 * sp * chm + (-a[1, 1] + l * h12) * (cp * chp * chm + cm * sp * sm)) / cp
    t3 = (h13 * sm * chp + (-a[2, 2] + l * h13) * (cm * chm * chp + cp * sm * sp)) / cm
    t4 = (-k * sp * sm + (h23 - l * k) * (cp * chp * sm + cm * sp * chm)) / (cm * cp)
    return t1 + t2 + t3 + t4


def mean_curvature_of_parallel(af: AdaptedFrame, l: float) -> float:
    """H(l) = -tr(Q^{-1} Q'); checked against -(det Q)'/det Q."""
    q = q_matrix(af, l)
    det = float(np.linalg.det(q))
    if abs(det) <= FOCAL_DET_TOL:
        raise FocalPointError(f"det Q = {det:.3e} at l = {l}")
    h_tr = -float(np.trace(np.linalg.solve(q, q_prime(af, l))))
    h_det = -detq_expansion_prime(af, l) / detq_expansion(af, l)
    if abs(h_tr - h_det) > 1e-6 * max(1.0, abs(h_tr)):
        raise ArithmeticError("trace and determinant expressions for H(l) disagree")
    return h_tr


def parallel_shape_operator(af: AdaptedFrame, l: float) -> np.ndarray:
    """Shape operator of the parallel hypersurface in the parallel frame."""
    q = q_matrix(af, l)
    if abs(float(np.linalg.det(q))) <= FOCAL_DET_TOL:
        raise FocalPointError(f"focal point at l = {l}")
    return -np.linalg.solve(q, q_prime(af, l))


def parallel_lambdas(af: AdaptedFrame, l: float) -> np.ndarray:
    """Principal curvatures of the parallel hypersurface, ascending."""
    s = parallel_shape_operator(af, l)
    ev = np.linalg.eigvals(s)
    if np.max(np.abs(ev.imag)) > 1e-8:
        raise ArithmeticError("parallel shape operator has non-real spectrum")
    return np.sort(ev.real)


@dataclass(frozen=True)
class ParallelState:
    """Parallel-flow data of one adapted frame at one distance l."""

    l: float
    Q: np.ndarray
    Qprime: np.ndarray
    detQ: float
    H_of_l: float
    parallel_lambdas: np.ndarray


def parallel_state(af: AdaptedFrame, l: float) -> ParallelState:
    q = q_matrix(af, l)
    return ParallelState(
        l=l,
        Q=q,
        Qprime=q_prime(af, l),
        detQ=float(np.linalg.det(q)),
        H_of_l=mean_curvature_of_parallel(af, l),
        parallel_lambdas=parallel_lambdas(af, l),
    )


def focal_pushforward_norm(M: Hypersurface, u, l: float) -> float:
    """Norm of the pushed-forward J1 N along the parallel flow.

    J1 N = C+ E2 + C- E3 in the adapted frame, so the pushforward has frame
    components Q^T (0, C+, C-); its norm vanishes exactly at focal points of
    tube-type hypersurfaces.
    """
    af = adapted_frame(point_geometry(M, u))
    coords = np.array([0.0, af.cplus, af.cminus])
    return float(np.linalg.norm(q_matrix(af, l).T @ coords))


def find_focal_radius(af: AdaptedFrame, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisection root of det Q on a bracketing interval."""
    flo = detq_expansion(af, lo)
    fhi = detq_expansion(af, hi)
    if flo * fhi > 0.0:
        raise ValueError("det Q does not change sign on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = detq_expansion(af, mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# derivatives of det Q at l = 0
# ---------------------------------------------------------------------------

DETQ_ORDERS = (1, 2, 4, 6, 8)


def detq_derivatives_at_0(af: AdaptedFrame, rho: float) -> dict[int, float]:
    """Closed-form d^k(det Q)/dl^k at l = 0 for k = 1, 2, 4, 6, 8."""
    c = af.C
    h12, h13, _ = af.principal_minors()
    return {
        1: -af.H,
        2: rho + 3.0,
        4: 6.0 - c ** 2 + (4.0 - 4.0 * c) * h12 + (4.0 + 4.0 * c) * h13 + 2.0 * rho,
        6: (12.0 - 5.0 * c ** 2 + (16.0 - 12.0 * c - 4.0 * c ** 2) * h12
            + (16.0 + 12.0 * c - 4.0 * c ** 2) * h13 + (4.0 - c ** 2) * rho),
        8: (24.0 - 16.0 * c ** 2 + c ** 4 + (8.0 - 4.0 * c ** 2) * rho
            + (48.0 - 32.0 * c - 24.0 * c ** 2 + 8.0 * c ** 3) * h12
            + (48.0 + 32.0 * c - 24.0 * c ** 2 - 8.0 * c ** 3) * h13),
    }


@functools.lru_cache(maxsize=None)
def _fornberg_weights(order: int, npoints: int) -> np.ndarray:
    """Exact central-stencil weights for the order-th derivative at 0.

    Solves sum_i w_i x_i^m / m! = delta_{m,order} over the integer offsets in
    rational arithmetic, so the only float error left is in the samples.
    The weights are computed once per (order, npoints) and shared, so the
    returned array is read-only.
    """
    offsets = list(range(-(npoints // 2), npoints // 2 + 1))
    n = len(offsets)
    rows = [[Fraction(o ** m, math.factorial(m)) for o in offsets] for m in range(n)]
    rhs = [Fraction(int(m == order)) for m in range(n)]
    # Gaussian elimination over Q
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    w = np.array([float(x) for x in rhs])
    w.setflags(write=False)
    return w


def detq_derivatives_numeric(af: AdaptedFrame, orders: Sequence[int] = DETQ_ORDERS,
                             step: float = 0.1, npoints: int = 15) -> dict[int, float]:
    """High-order central-stencil derivatives of the det Q expansion at 0.

    The step is deliberately coarse: an 8th derivative divides by step**8, so
    steps near 1e-2 put the denominator at the machine-epsilon scale and the
    stencil output becomes pure roundoff.  With 15 points at step 0.1 the
    worst case (k = 8) lands near 1e-5 absolute error.
    """
    half = npoints // 2
    samples = np.array([detq_expansion(af, i * step) for i in range(-half, half + 1)])
    out = {}
    for k in orders:
        w = _fornberg_weights(k, npoints)
        out[k] = float(w @ samples / step ** k)
    return out


# ---------------------------------------------------------------------------
# isoparametric scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    l: float
    h_mean: float
    h_spread: float
    lambda_spread: float
    min_abs_detq: float
    focal: bool


@dataclass(frozen=True)
class ScanReport:
    rows: list
    excluded: list
    focal_roots: list
    tol: float
    mode: str

    @property
    def max_h_spread(self) -> float:
        return max((r.h_spread for r in self.rows if not r.focal), default=0.0)

    @property
    def max_lambda_spread(self) -> float:
        return max((r.lambda_spread for r in self.rows if not r.focal), default=0.0)

    def isoparametric_within(self, tol: Optional[float] = None) -> bool:
        tol = self.tol if tol is None else tol
        return self.max_h_spread < tol and self.max_lambda_spread < tol


def _focal_flags(values: np.ndarray) -> np.ndarray:
    """Rows bracketing a root of any sample column (the nearer endpoint)."""
    flags = np.min(np.abs(values), axis=0) < 1e-8
    for col in values:
        for j in range(len(col) - 1):
            if col[j] * col[j + 1] < 0:
                flags[j if abs(col[j]) <= abs(col[j + 1]) else j + 1] = True
    return flags


def isoparametric_scan(M: Hypersurface, sample_points, l_grid,
                       tol: float = 1e-8) -> ScanReport:
    """Spread of H(l) and of the parallel principal curvatures over base points.

    Constant spreads across base points for every l characterize the
    isoparametric condition.  For product-angle-degenerate surfaces (C² = 1,
    the curve x H² family) the scan runs on the curve factor: the parallel
    hypersurface is the parallel curve x H², so H(l) is the parallel-curve
    curvature of kappa = H(u).  Focal values of l, detected by sign changes
    of det Q between grid nodes (bisected to full precision for the report),
    are excluded from the spreads and flagged.
    """
    l_grid = np.asarray(l_grid, dtype=float)
    pgs = [point_geometry(M, u) for u in sample_points]
    degenerate = all(abs(pg.C) > DEGENERATE_C for pg in pgs)
    rows = []

    if degenerate:
        kappas = np.array([pg.H for pg in pgs])
        dets = np.stack([np.cosh(l_grid) - k * np.sinh(l_grid) for k in kappas])
        flags = _focal_flags(dets)
        roots = sorted({round(math.atanh(1.0 / k), 12) for k in kappas
                        if abs(k) > 1.0 and l_grid[0] < math.atanh(1.0 / k) < l_grid[-1]})
        for j, l in enumerate(l_grid):
            min_det = float(np.min(np.abs(dets[:, j])))
            if flags[j]:
                rows.append(ScanRow(float(l), math.nan, math.nan, math.nan,
                                    min_det, True))
                continue
            pk = np.array([parallel_curve_curvature(k, l) for k in kappas])
            spread = float(np.max(pk) - np.min(pk))
            rows.append(ScanRow(float(l), float(np.mean(pk)), spread, spread,
                                min_det, False))
        excluded = [r.l for r in rows if r.focal]
        return ScanReport(rows=rows, excluded=excluded, focal_roots=roots,
                          tol=tol, mode="curve_factor")

    frames = [adapted_frame(pg) for pg in pgs]
    dets = np.stack([[detq_expansion(af, l) for l in l_grid] for af in frames])
    flags = _focal_flags(dets)
    roots = []
    for i, af in enumerate(frames[:1]):
        for j in range(len(l_grid) - 1):
            if dets[i, j] * dets[i, j + 1] < 0:
                roots.append(find_focal_radius(af, float(l_grid[j]), float(l_grid[j + 1])))
    for j, l in enumerate(l_grid):
        min_det = float(np.min(np.abs(dets[:, j])))
        if flags[j]:
            rows.append(ScanRow(float(l), math.nan, math.nan, math.nan, min_det, True))
            continue
        hs = np.array([mean_curvature_of_parallel(af, l) for af in frames])
        lams = np.stack([parallel_lambdas(af, l) for af in frames])
        rows.append(ScanRow(
            l=float(l),
            h_mean=float(np.mean(hs)),
            h_spread=float(np.max(hs) - np.min(hs)),
            lambda_spread=float(np.max(lams.max(axis=0) - lams.min(axis=0))),
            min_abs_detq=min_det,
            focal=False,
        ))
    excluded = [r.l for r in rows if r.focal]
    return ScanReport(rows=rows, excluded=excluded, focal_roots=roots,
                      tol=tol, mode="adapted")


# ---------------------------------------------------------------------------
# frame identity checks (connection formulas of adapted and eigen frames)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    name: str
    residual: Optional[float]
    skipped: bool
    reason: str = ""


@dataclass(frozen=True)
class FrameCheckReport:
    items: list

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def max_residual(self) -> float:
        vals = [it.residual for it in self.items if not it.skipped]
        return max(vals) if vals else 0.0

    def all_within(self, tol: float) -> bool:
        return all(it.skipped or it.residual <= tol for it in self.items)


def _normal_field(M: Hypersurface, n0: np.ndarray) -> Callable:
    if M.normal_hint is not None:
        def f(u):
            raw = M.normal_hint([float(x) for x in u])
            n = np.array([ad.value(x) for x in raw], dtype=float)
            return n / math.sqrt(ambient_inner(n, n))
        return f

    def f(u):
        return point_geometry(M, u, align_normal_with=n0).N
    return f


def _v_hat_field(M: Hypersurface, nf: Callable) -> Callable:
    def f(u):
        n = nf(u)
        pn = P6 @ n
        c = ambient_inner(pn, n)
        v = pn - c * n
        return v / math.sqrt(ambient_inner(v, v))
    return f


def _adapted_pair_field(M: Hypersurface, nf: Callable) -> Callable:
    """u -> (E2, E3) of the adapted frame, built from the normal field."""
    def f(u):
        x = M.point(u)
        n = nf(u)
        j1n = np.concatenate([lorentz_cross(x[:3], n[:3]), lorentz_cross(x[3:], n[3:])])
        j2n = np.concatenate([lorentz_cross(x[:3], n[:3]), -lorentz_cross(x[3:], n[3:])])
        c = ambient_inner(P6 @ n, n)
        e2 = (j1n + j2n) / math.sqrt(2.0 * (1.0 + c))
        e3 = (j1n - j2n) / math.sqrt(2.0 * (1.0 - c))
        return e2, e3
    return f


def _principal_field(M: Hypersurface, pg0: PointGeometry) -> Callable:
    """u -> (6,3) principal directions, ordered and signed like the center."""
    ref = pg0.principal_ambient

    def f(u):
        pg = point_geometry(M, u, align_normal_with=pg0.N)
        cols = pg.principal_ambient.copy()
        for i in range(3):
            if ambient_inner(cols[:, i], ref[:, i]) < 0.0:
                cols[:, i] = -cols[:, i]
        return cols
    return f


def frame_identity_checks(M: Hypersurface, u, h: float = 5e-4) -> FrameCheckReport:
    """Residuals of the constant-curvature frame identities at one point.

    Checks the V-direction derivative identity on {V}-orthogonal pairs, the
    eigenframe connection table (distinct nonzero pair of curvatures), the
    product-frame connection table (needs J1 N + J2 N principal), and the
    antisymmetry/Codazzi relations of the three-curvature eigenframe.  Any
    item whose hypothesis fails numerically is reported as skipped with the
    reason, not as a failure.  The step keeps the Richardson-refined
    truncation small even where eigen fields steepen near chart poles.
    """
    u = np.asarray(u, dtype=float)
    pg = point_geometry(M, u)
    items: list[CheckItem] = []

    if abs(pg.C) > DEGENERATE_C:
        reason = "degenerate product angle (C^2 = 1)"
        names = ("v_direction_identity", "eigenframe_connections", "product_frame_connections", "connection_antisymmetry",
                 "codazzi_frame_relation", "diagonal_connection_formula", "connection_pairing")
        return FrameCheckReport([CheckItem(n, None, True, reason) for n in names])

    nf = _normal_field(M, pg.N)
    vhat_f = _v_hat_field(M, nf)
    pair_f = _adapted_pair_field(M, nf)
    av_norm = float(np.linalg.norm(pg.shape_apply(pg.V)))
    s = math.sqrt(1.0 - pg.C ** 2)
    v_coords = pg.coords(pg.V)

    # ---- V-direction derivative identity on {V}-orthogonal pairs --------
    if av_norm > 1e-6:
        items.append(CheckItem("v_direction_identity", None, True,
                               f"hypothesis AV=0 violated (|AV|={av_norm:.2e})"))
    else:
        e2, e3 = pair_f(u)
        fields = [lambda x, i=i: pair_f(x)[i] for i in range(2)]
        res = 0.0
        for xi, xf in zip((e2, e3), fields):
            def ax_field(x, xf=xf):
                pgx = point_geometry(M, x, align_normal_with=pg.N)
                return pgx.shape_apply(xf(x))

            nab_v_ax = covariant_derivative(pg, v_coords, ax_field, h=h)
            nab_v_x = covariant_derivative(pg, v_coords, xf, h=h)
            a2x = pg.shape_apply(pg.shape_apply(xi))
            atax = pg.shape_apply(pg.T_apply(pg.shape_apply(xi)))
            tx = pg.T_apply(xi)
            for y in (e2, e3):
                lhs = (-pg.C * ambient_inner(a2x, y) + ambient_inner(atax, y)
                       - ambient_inner(nab_v_ax, y)
                       + ambient_inner(pg.shape_apply(nab_v_x), y))
                rhs = 0.5 * (1.0 - pg.C ** 2) * ambient_inner(tx, y)
                res = max(res, abs(lhs - rhs))
        items.append(CheckItem("v_direction_identity", res, False))

    # ---- eigenframe bookkeeping ----------------------------------------
    vhat = pg.V / math.sqrt(ambient_inner(pg.V, pg.V))
    overlaps = [abs(ambient_inner(pg.principal_ambient[:, i], vhat)) for i in range(3)]
    i_v = int(np.argmax(overlaps))
    others = [i for i in range(3) if i != i_v]
    lam_v = pg.lambdas[i_v]
    lam1, lam2 = pg.lambdas[others[0]], pg.lambdas[others[1]]
    princ_f = _principal_field(M, pg)

    # ---- connection table for the eigenframe ----------------------------
    if av_norm > 1e-6 or abs(lam_v) > 1e-6:
        items.append(CheckItem("eigenframe_connections", None, True,
                               "hypothesis AV=0 violated"))
    elif abs(lam1 - lam2) <= 1e-6:
        items.append(CheckItem("eigenframe_connections", None, True,
                               f"hypothesis lambda_1 != lambda_2 violated "
                               f"({lam1:.6f} vs {lam2:.6f})"))
    else:
        def ev_field(x, col):
            return princ_f(x)[:, col]

        frame0 = [pg.principal_ambient[:, others[0]],
                  pg.principal_ambient[:, others[1]], vhat]
        ffields = [lambda x, c=others[0]: ev_field(x, c),
                   lambda x, c=others[1]: ev_field(x, c),
                   vhat_f]
        nab = {}
        for i in range(3):
            ci = pg.coords(frame0[i])
            for j in range(3):
                nab[(i, j)] = covariant_derivative(pg, ci, ffields[j], h=h)
        p11 = ambient_inner(P6 @ frame0[0], frame0[0])
        p22 = ambient_inner(P6 @ frame0[1], frame0[1])
        p12 = ambient_inner(P6 @ frame0[0], frame0[1])
        e1v, e2v, e3v = frame0
        coef = (p12 / (lam1 - lam2)) * (lam1 * lam2 / s - s / 2.0)
        expected = {
            (0, 0): (p11 * lam1 - pg.C * lam1) / s * e3v,
            (0, 1): p12 * lam1 / s * e3v,
            (0, 2): ((pg.C - p11) * lam1 * e1v - lam1 * p12 * e2v) / s,
            (1, 0): p12 * lam2 / s * e3v,
            (1, 1): (p22 * lam2 - pg.C * lam2) / s * e3v,
            (1, 2): ((pg.C - p22) * lam2 * e2v - lam2 * p12 * e1v) / s,
            (2, 0): coef * e2v,
            (2, 1): -coef * e1v,
            (2, 2): np.zeros(6),
        }
        res = max(float(np.max(np.abs(nab[k] - expected[k]))) for k in expected)
        items.append(CheckItem("eigenframe_connections", res, False))

    # ---- connection table in the product-frame ordering -----------------
    e2, e3 = pair_f(u)
    a_e2 = pg.shape_apply(e2)
    principal_defect = float(np.linalg.norm(a_e2 - ambient_inner(a_e2, e2) * e2))
    if av_norm > 1e-6:
        items.append(CheckItem("product_frame_connections", None, True, "hypothesis AV=0 violated"))
    elif principal_defect > 1e-6:
        items.append(CheckItem("product_frame_connections", None, True,
                               f"hypothesis J1N+J2N principal violated "
                               f"(defect {principal_defect:.2e})"))
    else:
        lam_a = ambient_inner(a_e2, e2)
        a_e3 = pg.shape_apply(e3)
        lam_b = ambient_inner(a_e3, e3)
        g1f = lambda x: pair_f(x)[0]
        g2f = lambda x: pair_f(x)[1]
        gfields = [g1f, g2f, vhat_f]
        gframe = [e2, e3, vhat]
        nab = {}
        for i in range(3):
            ci = pg.coords(gframe[i])
            for j in range(3):
                nab[(i, j)] = covariant_derivative(pg, ci, gfields[j], h=h)
        rm = math.sqrt((1.0 - pg.C) / (1.0 + pg.C))
        rp = math.sqrt((1.0 + pg.C) / (1.0 - pg.C))
        expected = {
            (0, 0): lam_a * rm * vhat,
            (0, 1): np.zeros(6),
            (0, 2): -lam_a * rm * e2,
            (1, 0): np.zeros(6),
            (1, 1): -lam_b * rp * vhat,
            (1, 2): lam_b * rp * e3,
            (2, 0): np.zeros(6),
            (2, 1): np.zeros(6),
            (2, 2): np.zeros(6),
        }
        res = max(float(np.max(np.abs(nab[k] - expected[k]))) for k in expected)
        items.append(CheckItem("product_frame_connections", res, False))

    # ---- three-curvature eigenframe relations ---------------------------
    gaps = [abs(pg.lambdas[0] - pg.lambdas[1]), abs(pg.lambdas[1] - pg.lambdas[2]),
            abs(pg.lambdas[0] - pg.lambdas[2])]
    lam_grad = 0.0
    if min(gaps) > 1e-6:
        for m in range(3):
            e = np.zeros(3)
            e[m] = h
            lp = point_geometry(M, u + e, align_normal_with=pg.N).lambdas
            lm = point_geometry(M, u - e, align_normal_with=pg.N).lambdas
            lam_grad = max(lam_grad, float(np.max(np.abs(lp - lm))) / (2.0 * h))
    if min(gaps) <= 1e-6:
        reason = "hypothesis of three distinct principal curvatures violated"
        for n in ("connection_antisymmetry", "codazzi_frame_relation",
                  "diagonal_connection_formula", "connection_pairing"):
            items.append(CheckItem(n, None, True, reason))
    elif lam_grad > 1e-6:
        # items (3)-(5) consume derivatives of the eigenvalues; only the
        # antisymmetry item survives without constancy
        reason = (f"hypothesis of constant principal curvatures violated "
                  f"(|grad lambda| ~ {lam_grad:.2e})")
        xf = [lambda x, c=c: princ_f(x)[:, c] for c in range(3)]
        x0 = [pg.principal_ambient[:, c] for c in range(3)]
        gam = np.zeros((3, 3, 3))
        for i in range(3):
            ci = pg.coords(x0[i])
            for j in range(3):
                d = covariant_derivative(pg, ci, xf[j], h=h)
                for k in range(3):
                    gam[i, j, k] = ambient_inner(d, x0[k])
        r1 = float(np.max(np.abs(gam + gam.transpose(0, 2, 1))))
        items.append(CheckItem("connection_antisymmetry", r1, False))
        for n in ("codazzi_frame_relation", "diagonal_connection_formula", "connection_pairing"):
            items.append(CheckItem(n, None, True, reason))
    else:
        xf = [lambda x, c=c: princ_f(x)[:, c] for c in range(3)]
        x0 = [pg.principal_ambient[:, c] for c in range(3)]
        lam = pg.lambdas
        gam = np.zeros((3, 3, 3))
        for i in range(3):
            ci = pg.coords(x0[i])
            for j in range(3):
                d = covariant_derivative(pg, ci, xf[j], h=h)
                for k in range(3):
                    gam[i, j, k] = ambient_inner(d, x0[k])
        b = np.array([ambient_inner(P6 @ x0[i], pg.N) for i in range(3)])
        pmat = np.array([[ambient_inner(P6 @ x0[i], x0[j]) for j in range(3)]
                         for i in range(3)])
        r1 = float(np.max(np.abs(gam + gam.transpose(0, 2, 1))))
        r3 = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lhs = (lam[k] - lam[j]) * gam[i, j, k] - (lam[k] - lam[i]) * gam[j, i, k]
                    rhs = -0.5 * (b[j] * pmat[i, k] - b[i] * pmat[j, k])
                    r3 = max(r3, abs(lhs - rhs))
        r4 = 0.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                rhs = (b[i] * pmat[i, j] - b[j] * pmat[i, i]) / (-2.0 * (lam[i] - lam[j]))
                r4 = max(r4, abs(gam[i, i, j] - rhs))
        r5 = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) != 3:
                        continue
                    r5 = max(r5, abs((lam[i] - lam[j]) * gam[i, i, j]
                                     + (lam[k] - lam[j]) * gam[k, k, j]))
        items.append(CheckItem("connection_antisymmetry", r1, False))
        items.append(CheckItem("codazzi_frame_relation", r3, False))
        items.append(CheckItem("diagonal_connection_formula", r4, False))
        items.append(CheckItem("connection_pairing", r5, False))

    return FrameCheckReport(items)
