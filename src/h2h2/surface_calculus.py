"""Generic calculus for immersed hypersurfaces of H² × H².

A hypersurface is a chart map (u¹,u²,u³) -> (p, q, n): a point of the
product of hyperboloids together with the surface's closed-form normal n,
evaluable at scalar and jet arguments.  One third-order jet pass gives the
exact 6x3 Jacobian, 6x3x3 Hessian and 6x3x3x3 third derivatives of the chart
and the value and 6x3 Jacobian of n, from which the induced metric, unit
normal, second fundamental form, shape operator, and principal curvatures
follow.

Second derivatives of the chart are enough for Christoffel symbols; the
third-order quantities (intrinsic curvature, covariant derivatives of the
shape operator, derivatives of C and V) are exact too.  ``point_derivatives``
gives the chart derivatives of N, g, b, A, C and V at a point, with dN taken
from the Jacobian of the closed-form normal that the same jet pass carries,
and ``structural_residuals`` checks grad C = -2AV, nabla V = CA - TA, Gauss
and Codazzi from them.

The second fundamental form is computed from the ambient identity
b_ij = <d_i d_j Phi, N>: N is orthogonal to the position directions (p,0) and
(0,q), so the component of d_i d_j Phi normal to H² x H² (which lies along
those directions) drops out of the pairing and no tangential projection of
the Hessian is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .lorentz import ETA3
from .product_space import ETA6, P6, ProductPoint, ProductTangent, ambient_inner

RANK_SIGMA_MIN = 1e-6
NORMAL_TOL = 1e-10


class ChartRankError(ValueError):
    """The chart differential is rank-deficient at the requested point."""


class NormalSpaceError(ValueError):
    """The normal space at the requested point is not one-dimensional."""


class DegenerateProductAngleError(ValueError):
    """C² = 1: the tangential part V of PN vanishes."""


@dataclass(frozen=True)
class Hypersurface:
    """Chart map of an immersed hypersurface with its closed-form normal.

    ``chart`` takes a 3-sequence of scalars (float or ``Jet``) and returns
    ``(p, q, n)``: the two hyperboloid factors as 3-sequences and the 6
    ambient components of a normal field, all of the same scalar type.  n
    need not be unit length; it fixes the orientation used everywhere
    downstream.
    """

    chart: Callable
    domain: tuple
    name: str = ""

    def point(self, u) -> np.ndarray:
        p, q, _ = self.chart([float(x) for x in u])
        return np.array([ad.value(x) for x in (*p, *q)], dtype=float)

    def product_point(self, u) -> ProductPoint:
        return ProductPoint.from_ambient(self.point(u))

    def jet(self, u) -> "ChartJet":
        return chart_jet(self, u)

    def constraint_residual(self, u) -> float:
        """Deviation of both factors from their hyperboloid constraints."""
        x = self.point(u)
        return max(
            abs(x[:3] @ ETA3 @ x[:3] + 1.0),
            abs(x[3:] @ ETA3 @ x[3:] + 1.0),
        )


@dataclass(frozen=True)
class ChartJet:
    """Value and first three derivatives of a chart at one parameter point,
    with the value and Jacobian of its closed-form normal."""

    u: np.ndarray
    val: np.ndarray   # (6,)
    jac: np.ndarray   # (6,3)
    hess: np.ndarray  # (6,3,3)
    d3: np.ndarray    # (6,3,3,3)
    n: np.ndarray     # (6,) raw normal, not normalized
    dn: np.ndarray    # (6,3)


def chart_jet(M: Hypersurface, u) -> ChartJet:
    """One jet pass over the 12 components of the chart and its normal."""
    u = np.asarray(u, dtype=float)
    p, q, n = M.chart(ad.jet_variables(u))
    val, d, dd, ddd = np.zeros(12), np.zeros((12, 3)), np.zeros((12, 3, 3)), np.zeros((12, 3, 3, 3))
    for i, c in enumerate((*p, *q, *n)):
        if isinstance(c, ad.Jet):
            val[i], d[i], dd[i], ddd[i] = c.val, c.d, c.dd, c.ddd
        else:
            val[i] = float(c)
    return ChartJet(u, val[:6], d[:6], dd[:6], ddd[:6], val[6:], d[6:])


def _normal_from_constraints(jet) -> np.ndarray:
    """Unit spacelike normal from the nullspace of the constraint rows.

    ``jet`` is anything with the chart value ``val`` and Jacobian ``jac``: a
    ``ChartJet`` or a ``PointGeometry``.
    """
    rows = np.zeros((5, 6))
    rows[0, :3] = ETA3 @ jet.val[:3]
    rows[1, 3:] = ETA3 @ jet.val[3:]
    rows[2:] = (ETA6 @ jet.jac).T
    _, s, vt = np.linalg.svd(rows)
    if s[4] < 1e-6 * s[0]:
        raise NormalSpaceError("normal nullspace is not one-dimensional")
    v = vt[5]
    n2 = ambient_inner(v, v)
    if n2 <= 0.0:
        raise NormalSpaceError("normal direction is not spacelike")
    return v / math.sqrt(n2)


def _induced_metric(jet: ChartJet) -> tuple[np.ndarray, float]:
    """Symmetrized induced metric and the smallest tangent singular value.

    Raises ``ChartRankError`` when the chart differential is rank-deficient.
    """
    g = jet.jac.T @ ETA6 @ jet.jac
    g = 0.5 * (g + g.T)
    low = float(np.linalg.eigvalsh(g)[0])
    if low <= RANK_SIGMA_MIN ** 2:
        raise ChartRankError(
            f"chart differential is rank-deficient (sigma_min={math.sqrt(max(low, 0.0)):.3e})")
    return g, math.sqrt(low)


class PointGeometry:
    """Per-point bundle: tangent basis, metric, normal, shape operator.

    Attributes
    ----------
    u : chart coordinates (3,)
    val, jac : ambient position (6,) and chart Jacobian (6,3)
    g : induced metric (3,3); A : shape operator in the coordinate basis
    lambdas : principal curvatures, ascending
    n, dn : the chart's raw closed-form normal (6,) and its Jacobian (6,3)
    N, V : ambient unit normal and tangential part of PN (6,)
    C, H, rho, K : product angle, mean, scalar, and Gauss-Kronecker curvature
    """

    def __init__(self, jet: ChartJet, g: np.ndarray, sigma_min: float):
        # g and sigma_min come from _induced_metric(jet), which point_geometry
        # runs first, so a rank-deficient chart raises ChartRankError before
        # the normal is normalized
        self.u = jet.u
        self.val = jet.val
        self.jac = jet.jac
        self.hess = jet.hess
        self.d3 = jet.d3
        self.n = jet.n
        self.dn = jet.dn
        self.g = g
        self.sigma_min = sigma_min

        N = jet.n / math.sqrt(ambient_inner(jet.n, jet.n))
        self.N = N
        if abs(ambient_inner(N, N) - 1.0) > NORMAL_TOL:
            raise NormalSpaceError("normal is not unit")
        if np.max(np.abs(jet.jac.T @ ETA6 @ N)) > NORMAL_TOL:
            raise NormalSpaceError("normal is not orthogonal to the tangent basis")

        etaN = ETA6 @ N
        b = np.einsum("aij,a->ij", jet.hess, etaN)
        self.b = 0.5 * (b + b.T)
        self.A = np.linalg.solve(self.g, self.b)

        # principal curvatures: Cholesky-reduce b x = lambda g x and symmetrize
        L = np.linalg.cholesky(self.g)
        Y = np.linalg.solve(L, self.b)
        Z = np.linalg.solve(L, Y.T).T
        self.frame_asymmetry = float(np.max(np.abs(Z - Z.T)))
        Zs = 0.5 * (Z + Z.T)
        lambdas, W = np.linalg.eigh(Zs)
        self.lambdas = lambdas
        self.principal_coords = np.linalg.solve(L.T, W)   # columns, g-orthonormal
        self.principal_ambient = jet.jac @ self.principal_coords

        PN = P6 @ N
        self.C = float(PN @ ETA6 @ N)
        self.V = PN - self.C * N
        self.H = float(np.trace(Zs))
        self.K = float(np.linalg.det(Zs))
        self.norm_A_sq = float(np.trace(Zs @ Zs))
        self.rho = -2.0 + self.H ** 2 - self.norm_A_sq

        if abs(ambient_inner(self.V, self.V) - (1.0 - self.C ** 2)) > 1e-9:
            raise NormalSpaceError("|V|^2 != 1 - C^2 beyond tolerance")

    # -- typed views ------------------------------------------------------
    @property
    def point(self) -> ProductPoint:
        return ProductPoint.from_ambient(self.val)

    @property
    def basis(self) -> list[ProductTangent]:
        return [ProductTangent.from_ambient(self.point, self.jac[:, i]) for i in range(3)]

    @property
    def normal(self) -> ProductTangent:
        return ProductTangent.from_ambient(self.point, self.N)

    @property
    def v_tangent(self) -> ProductTangent:
        return ProductTangent.from_ambient(self.point, self.V)

    # -- linear algebra on ambient vectors --------------------------------
    def coords(self, w) -> np.ndarray:
        """Chart components of an ambient tangent vector."""
        return np.linalg.solve(self.g, self.jac.T @ (ETA6 @ np.asarray(w, float)))

    def from_coords(self, xi) -> np.ndarray:
        return self.jac @ np.asarray(xi, float)

    def project(self, w) -> np.ndarray:
        """Orthogonal projection of an ambient vector onto the tangent space."""
        return self.from_coords(self.coords(w))

    def shape_apply(self, w) -> np.ndarray:
        """A w for an ambient tangent vector w."""
        return self.from_coords(self.A @ self.coords(w))

    def T_apply(self, w) -> np.ndarray:
        """Tangential part of P: T w = P w - <w, V> N."""
        w = np.asarray(w, float)
        return P6 @ w - ambient_inner(w, self.V) * self.N

    def metric(self, w1, w2) -> float:
        return ambient_inner(w1, w2)


def point_geometry(M: Hypersurface, u) -> PointGeometry:
    """Full per-point geometry bundle of a hypersurface chart.

    One chart jet gives everything; the unit normal is the chart's normal
    normalized, so the chart fixes the orientation.
    """
    jet = chart_jet(M, u)
    g, sigma_min = _induced_metric(jet)
    return PointGeometry(jet, g, sigma_min)


class PointDerivatives(NamedTuple):
    """Exact first chart derivatives of a point bundle.

    Ambient vectors have their 6x3 Jacobian (chart direction last); the
    matrices and C carry the chart direction first, so ``dA[k]`` is d_k A.
    """

    dN: np.ndarray   # (6,3)
    dg: np.ndarray   # (3,3,3)
    db: np.ndarray   # (3,3,3)
    dA: np.ndarray   # (3,3,3)
    dC: np.ndarray   # (3,)
    dV: np.ndarray   # (6,3)


def point_derivatives(pg: PointGeometry) -> PointDerivatives:
    """dN, dg, db, dA, dC and dV at pg.u, exact to roundoff.

    dN normalizes the Jacobian of the chart's closed-form normal, which the
    chart jet already carries, so no chart is evaluated here.  It does not
    come from A, so grad C = -2AV and the Codazzi equation do not hold by
    construction.
    """
    length = math.sqrt(ambient_inner(pg.n, pg.n))
    dN = (pg.dn - np.outer(pg.N, pg.N @ ETA6 @ pg.dn)) / length
    half = np.einsum("aki,aj->kij", pg.hess, ETA6 @ pg.jac)
    dg = half + half.transpose(0, 2, 1)
    db = (np.einsum("akij,a->kij", pg.d3, ETA6 @ pg.N)
          + np.einsum("aij,ak->kij", pg.hess, ETA6 @ dN))
    dA = np.linalg.solve(pg.g, db - dg @ pg.A)
    dC = 2.0 * (P6 @ pg.N) @ ETA6 @ dN
    dV = P6 @ dN - np.outer(pg.N, dC) - pg.C * dN
    return PointDerivatives(dN, dg, db, dA, dC, dV)


# ---------------------------------------------------------------------------
# product angle, V, and the tangential operator T
# ---------------------------------------------------------------------------

def product_angle_C(N: ProductTangent) -> float:
    """Product angle C = <PN, N> of a unit normal; agrees with <J1 N, J2 N>."""
    from .product_space import apply_J1, apply_J2, apply_P, product_metric

    if abs(product_metric(N, N) - 1.0) > 1e-9:
        raise ValueError("product_angle_C requires a unit vector")
    c_p = product_metric(apply_P(N), N)
    c_j = product_metric(apply_J1(N), apply_J2(N))
    if abs(c_p - c_j) > 1e-12:
        raise ArithmeticError(f"<PN,N> and <J1N,J2N> disagree: {c_p} vs {c_j}")
    return c_p


def vector_V(N: ProductTangent) -> ProductTangent:
    """Tangential part V = PN - CN of the normal."""
    from .product_space import apply_P, product_metric

    PN = apply_P(N)
    c = product_metric(PN, N)
    return ProductTangent(N.base, PN.v1 - c * N.v1, PN.v2 - c * N.v2)


def tangential_T(pg: PointGeometry, X, tol: float = 1e-8) -> np.ndarray:
    """T X = P X - <PX, N> N = P X - <X, V> N for X tangent to the surface."""
    x = np.asarray(X, float)
    if np.max(np.abs(x - pg.project(x))) > tol or abs(ambient_inner(x, pg.N)) > tol:
        raise ValueError("tangential_T: input is not tangent to the hypersurface")
    px = P6 @ x
    first = px - ambient_inner(px, pg.N) * pg.N
    second = px - ambient_inner(x, pg.V) * pg.N
    if np.max(np.abs(first - second)) > 1e-10:
        raise ArithmeticError("the two expressions for T disagree")
    return first


# ---------------------------------------------------------------------------
# intrinsic quantities from the metric
# ---------------------------------------------------------------------------

def christoffels(pg: PointGeometry) -> np.ndarray:
    """Christoffel symbols Gamma[l, i, j] of the induced metric (AD-exact).

    Gamma^l_ij = g^{lm} <d_m Phi, d_i d_j Phi>, the ambient form of
    1/2 g^{lm} (d_i g_{jm} + d_j g_{im} - d_m g_{ij}).
    """
    first_kind = np.einsum("am,aij->mij", ETA6 @ pg.jac, pg.hess)
    return np.linalg.solve(pg.g, first_kind.reshape(3, 9)).reshape(3, 3, 3)


class StructuralResiduals(NamedTuple):
    """Max-norm residuals of the four structural equations at one point."""

    grad_C: float        # grad C = -2AV
    V_derivative: float  # nabla_X V = C A X - T A X
    gauss: float
    codazzi: float


def structural_residuals(pg: PointGeometry) -> StructuralResiduals:
    """Residuals of grad C = -2AV, nabla V = CA - TA, Gauss and Codazzi at pg.u.

    Every derivative is exact: dA, dC and dV come from ``point_derivatives``
    and the Christoffel derivatives d_k Gamma^l_ij from the chart's third
    derivatives, so no other point is evaluated.  The intrinsic curvature
    R(d_i, d_j) d_k and the covariant derivative of A are compared, as
    ambient vectors, against their algebraic right-hand sides built from the
    tangential operator T and the shape operator; grad C is the chart
    gradient of C lifted through the inverse metric, and nabla_X V the
    tangential projection of the ambient derivative of V.
    """
    d = point_derivatives(pg)
    dA, dC, dV = d.dA, d.dC, d.dV
    gam = christoffels(pg)
    # d_k Gamma^l_ij = g^{lm} (d_k <d_m Phi, d_i d_j Phi> - d_k g_mp Gamma^p_ij)
    etaH = np.einsum("ab,bij->aij", ETA6, pg.hess)
    d_first = (np.einsum("akm,aij->kmij", pg.hess, etaH)
               + np.einsum("am,akij->kmij", ETA6 @ pg.jac, pg.d3))
    dgam = np.linalg.solve(pg.g, (d_first - np.einsum("kmp,pij->kmij", d.dg, gam))
                           .reshape(3, 3, 9)).reshape(3, 3, 3, 3)

    Tb = np.stack([pg.T_apply(pg.jac[:, i]) for i in range(3)])   # (3,6)
    Ab = np.stack([pg.from_coords(pg.A[:, i]) for i in range(3)])  # (3,6)

    grad_C = pg.jac @ np.linalg.solve(pg.g, dC)
    res_grad_c = float(np.max(np.abs(grad_C + 2.0 * pg.shape_apply(pg.V))))

    res_v = 0.0
    for i in range(3):
        nabla_v = pg.project(dV[:, i])
        rhs = pg.C * Ab[i] - pg.T_apply(Ab[i])
        res_v = max(res_v, float(np.max(np.abs(nabla_v - rhs))))

    res_gauss = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                r_coeff = (dgam[i][:, j, k] - dgam[j][:, i, k]
                           + gam[:, i, :] @ gam[:, j, k] - gam[:, j, :] @ gam[:, i, k])
                lhs = pg.jac @ r_coeff
                rhs = (-0.5 * (pg.g[j, k] * pg.jac[:, i] - pg.g[i, k] * pg.jac[:, j]
                               + ambient_inner(Tb[j], pg.jac[:, k]) * Tb[i]
                               - ambient_inner(Tb[i], pg.jac[:, k]) * Tb[j])
                       + pg.b[j, k] * Ab[i] - pg.b[i, k] * Ab[j])
                res_gauss = max(res_gauss, float(np.max(np.abs(lhs - rhs))))

    covs = [dA[i] + gam[:, i, :] @ pg.A - pg.A @ gam[:, i, :] for i in range(3)]
    res_codazzi = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = pg.jac @ (covs[i][:, j] - covs[j][:, i])
            rhs = -0.5 * (ambient_inner(pg.jac[:, i], pg.V) * Tb[j]
                          - ambient_inner(pg.jac[:, j], pg.V) * Tb[i])
            res_codazzi = max(res_codazzi, float(np.max(np.abs(lhs - rhs))))

    return StructuralResiduals(res_grad_c, res_v, res_gauss, res_codazzi)


# ---------------------------------------------------------------------------
# algebraic curvature operators from the point bundle
# ---------------------------------------------------------------------------

def gauss_curvature_operator(pg: PointGeometry, X, Y, Z) -> np.ndarray:
    """R(X,Y)Z by the Gauss equation (algebraic in T, A, and the metric)."""
    X, Y, Z = (np.asarray(w, float) for w in (X, Y, Z))
    TX, TY = pg.T_apply(X), pg.T_apply(Y)
    AX, AY = pg.shape_apply(X), pg.shape_apply(Y)
    return (-0.5 * (ambient_inner(Y, Z) * X - ambient_inner(X, Z) * Y
                    + ambient_inner(TY, Z) * TX - ambient_inner(TX, Z) * TY)
            + ambient_inner(AY, Z) * AX - ambient_inner(AX, Z) * AY)


def ricci(pg: PointGeometry, X, Y) -> float:
    """Ricci curvature of the hypersurface along a pair of tangents."""
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    TX = pg.T_apply(X)
    AX = pg.shape_apply(X)
    A2X = pg.shape_apply(AX)
    return float(-0.5 * (ambient_inner(X, Y) - pg.C * ambient_inner(TX, Y)
                         + ambient_inner(X, pg.V) * ambient_inner(Y, pg.V))
                 + pg.H * ambient_inner(AX, Y) - ambient_inner(A2X, Y))


def sectional(pg: PointGeometry, X, Y) -> float:
    """Sectional curvature of the tangent plane spanned by X and Y."""
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    num = ambient_inner(gauss_curvature_operator(pg, X, Y, Y), X)
    den = (ambient_inner(X, X) * ambient_inner(Y, Y) - ambient_inner(X, Y) ** 2)
    if abs(den) < 1e-12:
        raise ValueError("sectional: degenerate plane")
    return float(num / den)
