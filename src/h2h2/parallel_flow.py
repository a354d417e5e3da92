"""Parallel-hypersurface machinery for H² × H².

For a hypersurface point with |C| < 1, the adapted orthonormal frame is

    E1 = V / sqrt(1 - C²),
    E2 = (J1 N + J2 N) / sqrt(2 (1 + C)),
    E3 = (J1 N - J2 N) / sqrt(2 (1 - C)),

and flowing distance l along the normal sends the pushed-forward frame
through the matrix Q(l) whose rows mix E_i into the parallel frame.  The
shape operator of the parallel hypersurface in the parallel frame is
S(l) = -Q^{-1} Q' (``parallel_shape_operator``); its trace is the mean
curvature H(l) and its spectrum the parallel principal curvatures.  det Q has
a closed-form expansion in the frame components A_ij, so H(l) also equals
-(det Q)'/det Q; ``report`` compares the two routes.  The derivatives of
det Q at l = 0 reduce to scalar invariants (H, rho, C, and two principal
minors) and are checked against the Taylor coefficients of the expansion.
Focal values of l are the roots of det Q.

Every function of l takes a float or an array of distances and broadcasts
over it (matrices gain two trailing axes), so ``isoparametric_scan``
evaluates each base point once over the whole l-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .lorentz import lorentz_cross, parallel_curve_curvature
from .product_space import ETA6, P6, ProductPoint, ProductTangent, ambient_inner
from .surface_calculus import (
    DegenerateProductAngleError,
    Hypersurface,
    PointDerivatives,
    PointGeometry,
    point_derivatives,
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

    Each evaluation calls ``M.chart`` once and flows its point along its
    closed-form normal, so the flowed chart and its normal stay evaluable at
    jet arguments.
    """

    def chart(u):
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

    return Hypersurface(chart=chart, domain=M.domain, name=f"{M.name}|parallel(l={l})")


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


def _matrix(rows, l) -> np.ndarray:
    """Nested 3x3 entries, each broadcast against l, as an array (*l.shape, 3, 3)."""
    entries = np.broadcast_arrays(*(x for row in rows for x in row), l)[:-1]
    return np.stack(entries, axis=-1).reshape(np.shape(l) + (3, 3))


def q_matrix(af: AdaptedFrame, l) -> np.ndarray:
    """Pushforward matrix of the parallel map in the adapted frame."""
    a = af.A
    l = np.asarray(l, dtype=float)
    (chp, sp, _), (chm, sm, _) = _hyperbolic(af, l)
    return _matrix([
        [1.0 - l * a[0, 0], -a[0, 1] * sp, -a[0, 2] * sm],
        [-l * a[0, 1], chp - a[1, 1] * sp, -a[1, 2] * sm],
        [-l * a[0, 2], -a[1, 2] * sp, chm - a[2, 2] * sm],
    ], l)


def q_prime(af: AdaptedFrame, l) -> np.ndarray:
    """d/dl of the pushforward matrix; -Q' gives the parallel shape operator."""
    a = af.A
    l = np.asarray(l, dtype=float)
    (chp, _, dchp), (chm, _, dchm) = _hyperbolic(af, l)
    return _matrix([
        [-a[0, 0], -a[0, 1] * chp, -a[0, 2] * chm],
        [-a[0, 1], dchp - a[1, 1] * chp, -a[1, 2] * chm],
        [-a[0, 2], -a[1, 2] * chp, dchm - a[2, 2] * chm],
    ], l)


# index of the l-derivative of each factor of _hyperbolic: cosh -> c sinh, sinh/c -> cosh
_DERIVATIVE_FACTOR = (2, 0)


def _detq_terms(af: AdaptedFrame):
    """det Q as a sum of (alpha + beta l) P_i(C+ l) M_j(C- l), as (alpha, beta, i, j).

    Factor 0 is cosh(c l) and factor 1 is sinh(c l)/c, as in ``_hyperbolic``.
    """
    a = af.A
    h12, h13, h23 = af.principal_minors()
    # det A by cofactors: an LU factorization divides by pivots, which
    # overflows on nearly singular A with subnormal entries
    k = float(a[0, 0] * h23 - a[0, 1] * (a[0, 1] * a[2, 2] - a[0, 2] * a[1, 2])
              + a[0, 2] * (a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]))
    return ((1.0, -a[0, 0], 0, 0),
            (-a[1, 1], h12, 1, 0),
            (-a[2, 2], h13, 0, 1),
            (h23, -k, 1, 1))


def detq_expansion(af: AdaptedFrame, l):
    """Closed-form det Q in terms of the principal 2x2 minors and det A."""
    l = np.asarray(l, dtype=float)
    fp, fm = _hyperbolic(af, l)
    return sum((alpha + beta * l) * fp[i] * fm[j] for alpha, beta, i, j in _detq_terms(af))


def detq_expansion_prime(af: AdaptedFrame, l):
    """Analytic d/dl of the det Q expansion (independent of the trace route)."""
    l = np.asarray(l, dtype=float)
    fp, fm = _hyperbolic(af, l)
    d = _DERIVATIVE_FACTOR
    return sum(beta * fp[i] * fm[j] + (alpha + beta * l) * (fp[d[i]] * fm[j] + fp[i] * fm[d[j]])
               for alpha, beta, i, j in _detq_terms(af))


def _shape_operator(q: np.ndarray, qp: np.ndarray, l) -> np.ndarray:
    """-Q^{-1} Q', refused with FocalPointError wherever det Q vanishes."""
    det = np.linalg.det(q)
    focal = np.abs(det) <= FOCAL_DET_TOL
    if np.any(focal):
        i = int(np.argmax(focal))
        raise FocalPointError(f"det Q = {np.ravel(det)[i]:.3e} at l = {np.ravel(l)[i]}")
    return -np.linalg.solve(q, qp)


def _real_spectrum(s: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(s)
    if np.any(np.abs(ev.imag) > 1e-8):
        raise ArithmeticError("parallel shape operator has non-real spectrum")
    return np.sort(ev.real, axis=-1)


def parallel_shape_operator(af: AdaptedFrame, l) -> np.ndarray:
    """Shape operator -Q^{-1} Q' of the parallel hypersurface in the parallel frame."""
    return _shape_operator(q_matrix(af, l), q_prime(af, l), l)


def mean_curvature_of_parallel(af: AdaptedFrame, l):
    """H(l) = -tr(Q^{-1} Q'), the trace of the parallel shape operator."""
    return np.trace(parallel_shape_operator(af, l), axis1=-2, axis2=-1)


def parallel_lambdas(af: AdaptedFrame, l) -> np.ndarray:
    """Principal curvatures of the parallel hypersurface, ascending."""
    return _real_spectrum(parallel_shape_operator(af, l))


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
    q, qp = q_matrix(af, l), q_prime(af, l)
    s = _shape_operator(q, qp, l)
    return ParallelState(l=l, Q=q, Qprime=qp, detQ=float(np.linalg.det(q)),
                         H_of_l=float(np.trace(s)), parallel_lambdas=_real_spectrum(s))


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


def _factor_series(c: float, i: int, deg: int) -> np.ndarray:
    """Taylor coefficients to l^deg of cosh(c l) (i = 0) or sinh(c l)/c (i = 1)."""
    return np.array([c ** (m - i) / math.factorial(m) if m % 2 == i else 0.0
                     for m in range(deg + 1)])


def detq_derivatives_numeric(af: AdaptedFrame,
                             orders: Sequence[int] = DETQ_ORDERS) -> dict[int, float]:
    """d^k(det Q)/dl^k at l = 0 from the Taylor series of the det Q expansion.

    Each term (alpha + beta l) P(C+ l) M(C- l) of ``_detq_terms`` is
    multiplied out as a power series truncated at the highest order asked
    for, which is exact up to that order; the k-th derivative is k! times the
    l^k coefficient.  Nothing is differenced, and nothing is shared with the
    closed forms of ``detq_derivatives_at_0`` but the expansion itself.
    """
    deg = max(orders)
    series = np.zeros(deg + 1)
    for alpha, beta, i, j in _detq_terms(af):
        pm = np.convolve(_factor_series(af.cplus, i, deg),
                         _factor_series(af.cminus, j, deg))[:deg + 1]
        series += alpha * pm
        series[1:] += beta * pm[:-1]
    return {k: math.factorial(k) * float(series[k]) for k in orders}


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


def isoparametric_scan(M: Hypersurface, sample_points, l_grid,
                       tol: float = 1e-8) -> ScanReport:
    """Spread of H(l) and of the parallel principal curvatures over base points.

    Constant spreads across base points for every l characterize the
    isoparametric condition.  For product-angle-degenerate surfaces (C² = 1,
    the curve x H² family) the scan runs on the curve factor: the parallel
    hypersurface is the parallel curve x H², so H(l) is the parallel-curve
    curvature of kappa = H(u).  Focal values of l, detected by sign changes
    of det Q between grid nodes, are excluded from the spreads and flagged;
    every base point's sign changes are bisected to full precision, and
    roots that agree within 1e-9 are reported once.  Each base point is
    evaluated once over the whole grid.
    """
    l_grid = np.asarray(l_grid, dtype=float)
    pgs = [point_geometry(M, u) for u in sample_points]

    if all(abs(pg.C) > DEGENERATE_C for pg in pgs):
        mode = "curve_factor"
        kappas = np.array([pg.H for pg in pgs])
        dets = np.cosh(l_grid) - kappas[:, None] * np.sinh(l_grid)
        flags = _focal_flags(dets)
        roots = sorted({round(math.atanh(1.0 / k), 12) for k in kappas
                        if abs(k) > 1.0 and l_grid[0] < math.atanh(1.0 / k) < l_grid[-1]})
        hs = parallel_curve_curvature(kappas, l_grid[~flags, None])   # (l, base point)
        lams = hs[..., None]
    else:
        mode = "adapted"
        frames = [adapted_frame(pg) for pg in pgs]
        dets = np.stack([detq_expansion(af, l_grid) for af in frames])
        flags = _focal_flags(dets)
        roots = _merged([find_focal_radius(af, float(l_grid[j]), float(l_grid[j + 1]))
                         for af, det in zip(frames, dets)
                         for j in np.flatnonzero(det[:-1] * det[1:] < 0)])
        hs, lams = [], []
        for af in frames:
            s = parallel_shape_operator(af, l_grid[~flags])
            hs.append(np.trace(s, axis1=-2, axis2=-1))
            lams.append(_real_spectrum(s))
        hs, lams = np.stack(hs, axis=1), np.stack(lams, axis=1)   # (l, base point, ...)

    h_mean, h_spread, lambda_spread = (np.full(len(l_grid), math.nan) for _ in range(3))
    h_mean[~flags] = np.mean(hs, axis=1)
    h_spread[~flags] = np.max(hs, axis=1) - np.min(hs, axis=1)
    lambda_spread[~flags] = np.max(np.max(lams, axis=1) - np.min(lams, axis=1), axis=-1)
    columns = (l_grid, h_mean, h_spread, lambda_spread, np.min(np.abs(dets), axis=0), flags)
    rows = [ScanRow(*row) for row in zip(*(c.tolist() for c in columns))]
    return ScanReport(rows=rows, excluded=l_grid[flags].tolist(), focal_roots=roots,
                      tol=tol, mode=mode)


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
    min_gap: Optional[float] = None   # smallest eigenvalue gap an eigenvector derivative divided by

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


def _adapted_frame_jacobians(pg: PointGeometry, d: PointDerivatives) -> np.ndarray:
    """Ambient 6x3 Jacobians of the adapted frame fields E1 = V-hat, E2, E3 at pg.

    E1 = V / sqrt(1 - C²) follows from dV and dC.  E2 and E3 are
    (J1 N ± J2 N) / sqrt(2 (1 ± C)) with J1 N + J2 N = 2 (p ⊠ n1, 0) and
    J1 N - J2 N = 2 (0, q ⊠ n2), differentiated by the product rule.
    """
    E, C = frame_vectors(pg), pg.C

    def d_cross(f):
        # Jacobian of x ⊠ n on the factor slice f
        return (np.array(lorentz_cross(pg.jac[f], pg.N[f]))
                + np.array(lorentz_cross(pg.val[f], d.dN[f])))

    z = np.zeros((3, 3))
    dw2 = np.vstack([2.0 * d_cross(slice(0, 3)), z])
    dw3 = np.vstack([z, 2.0 * d_cross(slice(3, 6))])
    return np.stack([
        d.dV / math.sqrt(1.0 - C ** 2) + np.outer(E[0], C * d.dC / (1.0 - C ** 2)),
        dw2 / math.sqrt(2.0 * (1.0 + C)) - np.outer(E[1], d.dC / (2.0 * (1.0 + C))),
        dw3 / math.sqrt(2.0 * (1.0 - C)) + np.outer(E[2], d.dC / (2.0 * (1.0 - C))),
    ])


def _shape_apply_jacobian(pg: PointGeometry, d: PointDerivatives, X, dX) -> np.ndarray:
    """6x3 Jacobian of the field A X, for a tangent field X with Jacobian dX.

    A X = Phi_* A xi with chart components xi = g^{-1} Phi_*^T eta X, so by the
    product rule d(A X) = d(Phi_*) A xi + Phi_* (dA xi + A dxi).
    """
    xi = pg.coords(X)
    dxi = np.linalg.solve(pg.g, np.einsum("aki,a->ik", pg.hess, ETA6 @ X)
                          + pg.jac.T @ ETA6 @ dX - (d.dg @ xi).T)
    return (np.einsum("aki,i->ak", pg.hess, pg.A @ xi)
            + pg.jac @ (np.einsum("kij,j->ik", d.dA, xi) + pg.A @ dxi))


def _principal_jacobians(pg: PointGeometry, d: PointDerivatives):
    """Exact derivatives of the principal curvatures and directions at pg.

    For b x = lambda g x with g-orthonormal eigenvectors x_i, a simple
    eigenpair has (Magnus & Neudecker, Matrix Differential Calculus, ch. 8)

        d lambda_i = x_i^T (db - lambda_i dg) x_i,
        d x_i = sum_{j != i} x_j^T (db - lambda_i dg) x_i / (lambda_i - lambda_j) x_j
                - 1/2 (x_i^T dg x_i) x_i.

    Returns dlam[i, k] = d_k lambda_i and the ambient Jacobians dP[i] (6x3)
    of the principal direction fields Phi_* x_i.
    """
    X, lam = pg.principal_coords, pg.lambdas
    Gx = X.T @ d.dg @ X                        # [k, j, i] = x_j^T d_k g x_i
    Mx = X.T @ d.db @ X - Gx * lam             # column i uses lambda_i
    gap = lam[None, :] - lam[:, None]          # [j, i] = lambda_i - lambda_j
    off = ~np.eye(3, dtype=bool)
    coef = np.where(off, Mx / np.where(off, gap, 1.0), -0.5 * Gx)
    dX = np.einsum("cj,kji->cik", X, coef)     # [coordinate, eigenvector, direction]
    dP = np.einsum("akc,ci->iak", pg.hess, X) + np.einsum("ac,cik->iak", pg.jac, dX)
    return np.diagonal(Mx, axis1=1, axis2=2).T, dP


FRAME_ITEMS = ("v_direction_identity", "eigenframe_connections", "product_frame_connections",
               "connection_antisymmetry", "codazzi_frame_relation", "diagonal_connection_formula",
               "connection_pairing")


def frame_identity_checks(M: Hypersurface, u) -> FrameCheckReport:
    """Residuals of the constant-curvature frame identities at one point.

    Checks the V-direction derivative identity on {V}-orthogonal pairs, the
    eigenframe connection table (distinct nonzero pair of curvatures), the
    product-frame connection table (needs J1 N + J2 N principal), and the
    antisymmetry/Codazzi relations of the three-curvature eigenframe.  Any
    item whose hypothesis fails numerically is reported as skipped with the
    reason, not as a failure.  Covariant derivatives are the tangential
    projections of exact field Jacobians, nabla_X F = proj(dF xi(X)), built
    from ``point_derivatives``, so only the point itself is evaluated.
    """
    u = np.asarray(u, dtype=float)
    pg = point_geometry(M, u)
    items: list[CheckItem] = []

    if abs(pg.C) > DEGENERATE_C:
        reason = "degenerate product angle (C^2 = 1)"
        return FrameCheckReport([CheckItem(n, None, True, reason) for n in FRAME_ITEMS])

    d = point_derivatives(pg)
    E = frame_vectors(pg)
    dE = _adapted_frame_jacobians(pg, d)
    vhat, e2, e3 = E
    av_norm = float(np.linalg.norm(pg.shape_apply(pg.V)))
    s = math.sqrt(1.0 - pg.C ** 2)

    def nabla(dF, X):
        # covariant derivative along the tangent X of the field with Jacobian dF
        return pg.project(dF @ pg.coords(X))

    # ---- V-direction derivative identity on {V}-orthogonal pairs --------
    if av_norm > 1e-6:
        items.append(CheckItem("v_direction_identity", None, True,
                               f"hypothesis AV=0 violated (|AV|={av_norm:.2e})"))
    else:
        res = 0.0
        for i in (1, 2):
            xi = E[i]
            nab_v_ax = nabla(_shape_apply_jacobian(pg, d, xi, dE[i]), pg.V)
            nab_v_x = nabla(dE[i], pg.V)
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
    overlaps = [abs(ambient_inner(pg.principal_ambient[:, i], vhat)) for i in range(3)]
    i_v = int(np.argmax(overlaps))
    others = [i for i in range(3) if i != i_v]
    lam_v = pg.lambdas[i_v]
    lam1, lam2 = pg.lambdas[others[0]], pg.lambdas[others[1]]
    gaps = [abs(pg.lambdas[0] - pg.lambdas[1]), abs(pg.lambdas[1] - pg.lambdas[2]),
            abs(pg.lambdas[0] - pg.lambdas[2])]
    eigen_table = av_norm <= 1e-6 and abs(lam_v) <= 1e-6 and abs(lam1 - lam2) > 1e-6
    three_distinct = min(gaps) > 1e-6
    min_gap = None
    if eigen_table or three_distinct:
        # every eigenvector derivative divides by the gaps to both other eigenvalues
        min_gap = float(min(gaps))
        dlam, dP = _principal_jacobians(pg, d)

    # ---- connection table for the eigenframe ----------------------------
    if av_norm > 1e-6 or abs(lam_v) > 1e-6:
        items.append(CheckItem("eigenframe_connections", None, True,
                               "hypothesis AV=0 violated"))
    elif not eigen_table:
        items.append(CheckItem("eigenframe_connections", None, True,
                               f"hypothesis lambda_1 != lambda_2 violated "
                               f"({lam1:.6f} vs {lam2:.6f})"))
    else:
        frame0 = [pg.principal_ambient[:, others[0]], pg.principal_ambient[:, others[1]], vhat]
        jacobians = [dP[others[0]], dP[others[1]], dE[0]]
        nab = {(i, j): nabla(jacobians[j], frame0[i]) for i in range(3) for j in range(3)}
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
        lam_b = ambient_inner(pg.shape_apply(e3), e3)
        gframe = [e2, e3, vhat]
        jacobians = [dE[1], dE[2], dE[0]]
        nab = {(i, j): nabla(jacobians[j], gframe[i]) for i in range(3) for j in range(3)}
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
    if not three_distinct:
        reason = "hypothesis of three distinct principal curvatures violated"
        for n in FRAME_ITEMS[3:]:
            items.append(CheckItem(n, None, True, reason))
        return FrameCheckReport(items, min_gap)

    x0 = [pg.principal_ambient[:, c] for c in range(3)]
    lam = pg.lambdas
    gam = np.array([[[ambient_inner(nabla(dP[j], x0[i]), x0[k]) for k in range(3)]
                     for j in range(3)] for i in range(3)])
    items.append(CheckItem("connection_antisymmetry",
                           float(np.max(np.abs(gam + gam.transpose(0, 2, 1)))), False))
    lam_grad = float(np.max(np.abs(dlam)))
    if lam_grad > 1e-6:
        # items (3)-(5) consume derivatives of the eigenvalues; only the
        # antisymmetry item survives without constancy
        reason = (f"hypothesis of constant principal curvatures violated "
                  f"(|grad lambda| ~ {lam_grad:.2e})")
        for n in FRAME_ITEMS[4:]:
            items.append(CheckItem(n, None, True, reason))
        return FrameCheckReport(items, min_gap)

    b = np.array([ambient_inner(P6 @ x0[i], pg.N) for i in range(3)])
    pmat = np.array([[ambient_inner(P6 @ x0[i], x0[j]) for j in range(3)]
                     for i in range(3)])
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
    items.append(CheckItem("codazzi_frame_relation", r3, False))
    items.append(CheckItem("diagonal_connection_formula", r4, False))
    items.append(CheckItem("connection_pairing", r5, False))
    return FrameCheckReport(items, min_gap)
