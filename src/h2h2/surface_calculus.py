"""Generic calculus for immersed hypersurfaces of H² × H².

A hypersurface is a chart map (u¹,u²,u³) -> (p, q, n): a point of the
product of hyperboloids together with the surface's closed-form normal n,
evaluable at coordinate arrays and at jets.  One third-order jet pass gives the
exact 6x3 Jacobian, 6x3x3 Hessian and 6x3x3x3 third derivatives of the chart
and the value and 6x3 Jacobian of n, from which the induced metric, unit
normal, second fundamental form, shape operator, and principal curvatures
follow.

The pass runs on batches: ``chart_jet`` and ``point_geometry`` take n
points (n, 3), evaluate the chart once on jets of batch shape (n,) and do
the linear algebra on stacked (n,3,3) arrays; one point is the batch of one.
The batch runs on through the checks: a ``PointGeometry`` carries the batch
axis on every field, and ``point_derivatives``, ``christoffels``,
``structural_residuals``, the nullspace normal and the bundle's vector
methods broadcast over it.  Each row equals its batch of one bit for bit,
because every per-vector operation keeps its one-point shape: matrix-vector
products as (..., m, k) @ (..., k, 1), pairings through ``_pairing`` and
``solve`` with (..., 3, 1) right-hand sides.  ``join`` lays batches end to
end, so rows evaluated by separate passes (at separate jet orders) form one
bundle.

Second derivatives of the chart are enough for Christoffel symbols; the
third-order quantities (intrinsic curvature, covariant derivatives of the
shape operator, derivatives of C and V) are exact too.  ``point_derivatives``
gives the chart derivatives of N, g, b, A, C and V at a point, with dN taken
from the Jacobian of the closed-form normal that the same jet pass carries,
and ``structural_residuals`` checks grad C = -2AV, nabla V = CA - TA, Gauss
and Codazzi from them.  Only these derivatives read the chart's third
derivatives, so ``chart_jet`` and ``point_geometry`` take a jet order: order
2 leaves out ``d3`` and gives every other field bit for bit.

The second fundamental form is computed from the ambient identity
b_ij = <d_i d_j Phi, N>: N is orthogonal to the position directions (p,0) and
(0,q), so the component of d_i d_j Phi normal to H² x H² (which lies along
those directions) drops out of the pairing and no tangential projection of
the Hessian is needed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .lorentz import ETA3
from .product_space import ETA6, P6

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

    ``chart`` takes a 3-sequence of coordinates (arrays or ``Jet``s of one
    batch shape) and returns
    ``(p, q, n)``: the two hyperboloid factors as 3-sequences and the 6
    ambient components of a normal field, all of the same type.  n
    need not be unit length; it fixes the orientation used everywhere
    downstream.  A chart whose constants differ by batch row (a parallel
    chart at one distance per row) gives ``row_surface(i)``, the
    hypersurface that row i evaluates; it is None when every row evaluates
    this one.
    """

    chart: Callable
    domain: tuple
    name: str = ""
    row_surface: Optional[Callable[[int], "Hypersurface"]] = None

    def point(self, u) -> np.ndarray:
        """The chart points (n, 6) of a batch u (n, 3) from one chart call on
        coordinate arrays.  No derivative is carried, and each row equals
        ``chart_jet(M, u).val`` bit for bit."""
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            p, q, _ = self.chart(list(u.T))
        return np.stack(np.broadcast_arrays(*(ad.value(x) for x in (*p, *q))), axis=-1)


@dataclass(frozen=True)
class ChartJet:
    """Value and first three derivatives of a chart, with the value and
    Jacobian of its closed-form normal, at a batch of n points: the shapes
    below are those of one row, behind a leading axis of length n.  An
    order-2 jet has ``d3`` None."""

    u: np.ndarray     # (3,)
    val: np.ndarray   # (6,)
    jac: np.ndarray   # (6,3)
    hess: np.ndarray  # (6,3,3)
    d3: Optional[np.ndarray]    # (6,3,3,3)
    n: np.ndarray     # (6,) raw normal, not normalized
    dn: np.ndarray    # (6,3)


def chart_jet(M: Hypersurface, u, order: int = 3) -> ChartJet:
    """One jet pass over the 12 components of the chart and its normal.

    u of shape (n, 3) is n points, evaluated by one chart call on jets of
    batch shape (n,); one point is the batch of one, u (1, 3).  ``order`` 2
    carries no third derivatives (``d3`` is None) and leaves the other fields
    bit for bit as order 3 gives them.  A division by zero, an invalid
    operation or an overflow in the arithmetic raises FloatingPointError
    rather than leaving inf or NaN in a row.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        p, q, n = M.chart(ad.jet_variables(u, order))
    batch = u.shape[:-1]
    val, d, dd = (np.zeros(batch + (12,) + (3,) * k) for k in range(3))
    ddd = np.zeros(batch + (12, 3, 3, 3)) if order == 3 else None
    for i, c in enumerate((*p, *q, *n)):
        if isinstance(c, ad.Jet):
            val[..., i], d[..., i, :], dd[..., i, :, :] = c.val, c.d, c.dd
            if ddd is not None:
                ddd[..., i, :, :, :] = c.ddd
        else:
            val[..., i] = c
    return ChartJet(u, val[..., :6], d[..., :6, :], dd[..., :6, :, :],
                    None if ddd is None else ddd[..., :6, :, :, :], val[..., 6:], d[..., 6:, :])


def _normal_from_constraints(jet) -> np.ndarray:
    """Unit spacelike normal from the nullspace of the constraint rows.

    ``jet`` is anything with the chart value ``val`` and Jacobian ``jac`` of
    a batch: a ``ChartJet`` or a ``PointGeometry``.  The batch takes one
    stacked SVD; a failing row raises the error of the first
    failing row in batch order.
    """
    val, jac = jet.val, jet.jac
    rows = np.zeros(val.shape[:-1] + (5, 6))
    rows[..., 0, :3] = val[..., :3] @ ETA3
    rows[..., 1, 3:] = val[..., 3:] @ ETA3
    rows[..., 2:, :] = (ETA6 @ jac).swapaxes(-1, -2)
    _, s, vt = np.linalg.svd(rows)
    v = vt[..., 5, :]
    n2 = _pairing(v, v)
    rank_bad = np.ravel(s[..., 4] < 1e-6 * s[..., 0])
    bad = np.flatnonzero(rank_bad | np.ravel(n2 <= 0.0))
    if bad.size and rank_bad[bad[0]]:
        raise NormalSpaceError("normal nullspace is not one-dimensional")
    if bad.size:
        raise NormalSpaceError("normal direction is not spacelike")
    return v / np.sqrt(n2)[..., None]


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x row by row: (..., m, k) times (..., k), as (..., m, k) @ (..., k, 1),
    so every row is the product of its batch of one bit for bit."""
    return (m @ x[..., None])[..., 0]


def _pairing(v: np.ndarray, w: np.ndarray, eta: np.ndarray = ETA6) -> np.ndarray:
    """<v, w> under the diagonal form ``eta``, row by row for vectors with
    leading batch axes; one row is a dot product of the two vectors."""
    return ((v @ eta)[..., None, :] @ w[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length row by row: the square root of the row's dot product,
    which is what ``np.linalg.norm`` takes for one vector."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


@dataclass(eq=False)
class PointGeometry:
    """Per-point bundle: tangent basis, metric, normal, shape operator.

    The shapes below are those of one point, behind the leading batch axis
    of length n that every field carries; the scalar fields are arrays (n,).
    One point is the batch of one.  ``pgs[a:b]`` is a batch, and ``pgs[i]``
    reads row i's fields (numpy scalars for the scalar fields); iterating a
    batch yields its rows.  The methods broadcast over the batch.  A bundle
    exists only where the chart has full rank (``ChartRankError`` otherwise),
    and g and b are symmetric by construction, so it carries no rank or
    self-adjointness residual.

    Attributes
    ----------
    u : chart coordinates (3,)
    val, jac, hess, d3 : ambient position (6,) and the chart's first three
        derivatives (6,3), (6,3,3), (6,3,3,3); d3 is None in an order-2 bundle
    n, dn : the chart's raw closed-form normal (6,) and its Jacobian (6,3)
    g : induced metric (3,3)
    N, V : ambient unit normal and tangential part of PN (6,)
    b : second fundamental form; A : shape operator in the coordinate basis
    lambdas : principal curvatures, ascending, with their g-orthonormal chart
        directions ``principal_coords`` (columns) and ambient ones
        ``principal_ambient``
    C, H, rho, K : product angle, mean, scalar, and Gauss-Kronecker curvature;
        norm_A_sq : |A|²
    """

    u: np.ndarray
    val: np.ndarray
    jac: np.ndarray
    hess: np.ndarray
    d3: Optional[np.ndarray]
    n: np.ndarray
    dn: np.ndarray
    g: np.ndarray
    N: np.ndarray
    b: np.ndarray
    A: np.ndarray
    lambdas: np.ndarray
    principal_coords: np.ndarray
    principal_ambient: np.ndarray
    C: np.ndarray
    V: np.ndarray
    H: np.ndarray
    K: np.ndarray
    norm_A_sq: np.ndarray
    rho: np.ndarray

    # -- the batch axis ---------------------------------------------------
    def __len__(self) -> int:
        # a bare point's C is a scalar, which has no length
        return len(self.C)

    def __getitem__(self, index) -> "PointGeometry":
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return PointGeometry(**{name: x if x is None else x[index] for name, x in fields.items()})

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    # -- linear algebra on ambient vectors (..., 6) -----------------------
    def coords(self, w) -> np.ndarray:
        """Chart components of an ambient tangent vector."""
        w = np.asarray(w, float)
        rhs = self.jac.swapaxes(-1, -2) @ (ETA6 @ w[..., None])
        return np.linalg.solve(self.g, rhs)[..., 0]

    def from_coords(self, xi) -> np.ndarray:
        return _matvec(self.jac, np.asarray(xi, float))

    def project(self, w) -> np.ndarray:
        """Orthogonal projection of an ambient vector onto the tangent space."""
        return self.from_coords(self.coords(w))

    def shape_apply(self, w) -> np.ndarray:
        """A w for an ambient tangent vector w."""
        return self.from_coords(_matvec(self.A, self.coords(w)))

    def T_apply(self, w) -> np.ndarray:
        """Tangential part of P: T w = P w - <w, V> N."""
        w = np.asarray(w, float)
        return _matvec(P6, w) - _pairing(w, self.V)[..., None] * self.N


def _geometry(jet: ChartJet) -> PointGeometry:
    """``PointGeometry`` of a chart jet, with the jet's batch shape.

    The linear algebra runs on the stacked (n,3,3) arrays in one call each;
    every row equals its batch of one bit for bit.  A check that fails at
    some row raises; ``point_geometry`` then redoes the batch point by point,
    so the error is that of the first failing point.
    """
    jac = jet.jac
    g = jac.swapaxes(-1, -2) @ ETA6 @ jac
    g = 0.5 * (g + g.swapaxes(-1, -2))
    low = np.linalg.eigvalsh(g)[..., 0]
    if (low <= RANK_SIGMA_MIN ** 2).any():
        raise ChartRankError("chart differential is rank-deficient "
                             f"(sigma_min={math.sqrt(max(float(np.min(low)), 0.0)):.3e})")

    N = jet.n / np.sqrt(_pairing(jet.n, jet.n))[..., None]
    if (np.abs(_pairing(N, N) - 1.0) > NORMAL_TOL).any():
        raise NormalSpaceError("normal is not unit")
    if np.max(np.abs(jac.swapaxes(-1, -2) @ ETA6 @ N[..., None])) > NORMAL_TOL:
        raise NormalSpaceError("normal is not orthogonal to the tangent basis")

    b = np.einsum("...aij,...a->...ij", jet.hess, N @ ETA6)
    b = 0.5 * (b + b.swapaxes(-1, -2))
    A = np.linalg.solve(g, b)

    # principal curvatures: Cholesky-reduce b x = lambda g x and symmetrize
    L = np.linalg.cholesky(g)
    Y = np.linalg.solve(L, b)
    Z = np.linalg.solve(L, Y.swapaxes(-1, -2)).swapaxes(-1, -2)
    Zs = 0.5 * (Z + Z.swapaxes(-1, -2))
    lambdas, W = np.linalg.eigh(Zs)
    principal = np.linalg.solve(L.swapaxes(-1, -2), W)   # columns, g-orthonormal

    PN = N @ P6
    # [()]: a bare point u (3,), batch shape (), gets a numpy scalar C, as
    # it gets H and K; bench/child.py reads such a point's C into JSON
    C = _pairing(PN, N)[()]
    V = PN - C[..., None] * N
    H = np.trace(Zs, axis1=-2, axis2=-1)
    K = np.linalg.det(Zs)
    norm_A_sq = np.trace(Zs @ Zs, axis1=-2, axis2=-1)
    if (np.abs(_pairing(V, V) - (1.0 - C * C)) > 1e-9).any():
        raise NormalSpaceError("|V|^2 != 1 - C^2 beyond tolerance")

    return PointGeometry(u=jet.u, val=jet.val, jac=jac, hess=jet.hess, d3=jet.d3, n=jet.n,
                         dn=jet.dn, g=g, N=N, b=b, A=A, lambdas=lambdas,
                         principal_coords=principal, principal_ambient=jac @ principal, V=V,
                         C=C, H=H, K=K, norm_A_sq=norm_A_sq,
                         rho=-2.0 + np.power(H, 2) - norm_A_sq)


def point_geometry(M: Hypersurface, u, order: int = 3) -> PointGeometry:
    """Full per-point geometry bundle of a hypersurface chart.

    One chart jet gives everything; the unit normal is the chart's normal
    normalized, so the chart fixes the orientation.  u of shape (n, 3) gives
    the bundle of the n points with a leading batch axis, from one batched
    chart pass and stacked linear algebra, each row equal bit for bit to its
    batch of one, u[i:i+1].  If any point fails, the batch raises what the
    batches of one (on ``M.row_surface(i)`` where M has one) raise for the
    first failing point in sample order.  An ``order`` 2 bundle has no
    ``d3``, so it cannot give ``point_derivatives``; every other field is
    bit for bit that of order 3.
    """
    u = np.asarray(u, dtype=float)
    try:
        return _geometry(chart_jet(M, u, order))
    except (ArithmeticError, ValueError):
        if u.shape[:-1] in ((), (1,)):
            raise
        # some point fails: the batches of one, in order, raise its error
        for i in range(len(u)):
            point_geometry(M if M.row_surface is None else M.row_surface(i), u[i:i + 1], order)
        raise


def join(*bundles: PointGeometry) -> PointGeometry:
    """The batches ``bundles`` as one batch, their rows in order along the
    batch axis: each row is bit for bit the row it was.  ``d3`` is kept only
    when every bundle carries it, so joining an order-3 and an order-2
    bundle gives an order-2 one."""
    fields = {}
    for f in dataclasses.fields(PointGeometry):
        parts = [getattr(pg, f.name) for pg in bundles]
        fields[f.name] = None if any(x is None for x in parts) else np.concatenate(parts)
    return PointGeometry(**fields)


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
    construction.  A batch ``pg`` gives every field a leading batch axis.
    It needs the third chart derivatives of an order-3 bundle.
    """
    if pg.d3 is None:
        raise ValueError("point_derivatives needs third chart derivatives, and this "
                         "bundle was built at order 2; build it with order=3")
    length = np.sqrt(_pairing(pg.n, pg.n))[..., None, None]
    dN = (pg.dn - pg.N[..., :, None] * (pg.N[..., None, :] @ ETA6 @ pg.dn)) / length
    half = np.einsum("...aki,...aj->...kij", pg.hess, ETA6 @ pg.jac)
    dg = half + half.swapaxes(-1, -2)
    db = (np.einsum("...akij,...a->...kij", pg.d3, pg.N @ ETA6)
          + np.einsum("...aij,...ak->...kij", pg.hess, ETA6 @ dN))
    dA = np.linalg.solve(pg.g[..., None, :, :], db - dg @ pg.A[..., None, :, :])
    dC = ((2.0 * (pg.N @ P6) @ ETA6)[..., None, :] @ dN)[..., 0, :]
    dV = (P6 @ dN - pg.N[..., :, None] * dC[..., None, :]
          - np.asarray(pg.C)[..., None, None] * dN)
    return PointDerivatives(dN, dg, db, dA, dC, dV)


# ---------------------------------------------------------------------------
# intrinsic quantities from the metric
# ---------------------------------------------------------------------------

def christoffels(pg: PointGeometry) -> np.ndarray:
    """Christoffel symbols Gamma[l, i, j] of the induced metric (AD-exact).

    Gamma^l_ij = g^{lm} <d_m Phi, d_i d_j Phi>, the ambient form of
    1/2 g^{lm} (d_i g_{jm} + d_j g_{im} - d_m g_{ij}).
    """
    first_kind = np.einsum("...am,...aij->...mij", ETA6 @ pg.jac, pg.hess)
    batch = first_kind.shape[:-3]
    return np.linalg.solve(pg.g, first_kind.reshape(batch + (3, 9))).reshape(batch + (3, 3, 3))


class StructuralResiduals(NamedTuple):
    """Max-norm residuals of the four structural equations at each row of a
    batch, (n,) each."""

    grad_C: np.ndarray        # grad C = -2AV
    V_derivative: np.ndarray  # nabla_X V = C A X - T A X
    gauss: np.ndarray
    codazzi: np.ndarray


def structural_residuals(pg: PointGeometry) -> StructuralResiduals:
    """Residuals of grad C = -2AV, nabla V = CA - TA, Gauss and Codazzi at pg.u.

    Every derivative is exact: dA, dC and dV come from ``point_derivatives``
    and the Christoffel derivatives d_k Gamma^l_ij from the chart's third
    derivatives, so no other point is evaluated.  The intrinsic curvature
    R(d_i, d_j) d_k and the covariant derivative of A are compared, as
    ambient vectors, against their algebraic right-hand sides built from the
    tangential operator T and the shape operator; grad C is the chart
    gradient of C lifted through the inverse metric, and nabla_X V the
    tangential projection of the ambient derivative of V.  The batch ``pg``
    is judged in one pass, each row equal bit for bit to its batch of one.
    """
    d = point_derivatives(pg)
    gam = christoffels(pg)
    jac, g, b, A = pg.jac, pg.g, pg.b, pg.A
    C = np.asarray(pg.C)[..., None]
    # d_k Gamma^l_ij = g^{lm} (d_k <d_m Phi, d_i d_j Phi> - d_k g_mp Gamma^p_ij)
    etaH = np.einsum("ab,...bij->...aij", ETA6, pg.hess)
    d_first = (np.einsum("...akm,...aij->...kmij", pg.hess, etaH)
               + np.einsum("...am,...akij->...kmij", ETA6 @ jac, pg.d3))
    batch = d_first.shape[:-4]
    dgam = np.linalg.solve(g[..., None, :, :],
                           (d_first - np.einsum("...kmp,...pij->...kmij", d.dg, gam))
                           .reshape(batch + (3, 3, 9))).reshape(batch + (3, 3, 3, 3))

    Tb = np.stack([pg.T_apply(jac[..., :, i]) for i in range(3)], axis=-2)   # (...,3,6)
    Ab = np.stack([pg.from_coords(A[..., :, i]) for i in range(3)], axis=-2)  # (...,3,6)

    def max_abs(x):
        return np.max(np.abs(x), axis=-1)

    grad_C = (jac @ np.linalg.solve(g, d.dC[..., None]))[..., 0]
    res_grad_c = max_abs(grad_C + 2.0 * pg.shape_apply(pg.V))

    res_v = []
    for i in range(3):
        nabla_v = pg.project(d.dV[..., :, i])
        rhs = C * Ab[..., i, :] - pg.T_apply(Ab[..., i, :])
        res_v.append(max_abs(nabla_v - rhs))

    res_gauss = []
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                r_coeff = (dgam[..., i, :, j, k] - dgam[..., j, :, i, k]
                           + _matvec(gam[..., :, i, :], gam[..., :, j, k])
                           - _matvec(gam[..., :, j, :], gam[..., :, i, k]))
                lhs = _matvec(jac, r_coeff)
                rhs = (-0.5 * (g[..., j, k, None] * jac[..., :, i]
                               - g[..., i, k, None] * jac[..., :, j]
                               + _pairing(Tb[..., j, :], jac[..., :, k])[..., None] * Tb[..., i, :]
                               - _pairing(Tb[..., i, :], jac[..., :, k])[..., None] * Tb[..., j, :])
                       + b[..., j, k, None] * Ab[..., i, :] - b[..., i, k, None] * Ab[..., j, :])
                res_gauss.append(max_abs(lhs - rhs))

    covs = [d.dA[..., i, :, :] + gam[..., :, i, :] @ A - A @ gam[..., :, i, :] for i in range(3)]
    res_codazzi = []
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = _matvec(jac, covs[i][..., :, j] - covs[j][..., :, i])
            rhs = -0.5 * (_pairing(jac[..., :, i], pg.V)[..., None] * Tb[..., j, :]
                          - _pairing(jac[..., :, j], pg.V)[..., None] * Tb[..., i, :])
            res_codazzi.append(max_abs(lhs - rhs))

    return StructuralResiduals(res_grad_c,
                               *(np.max(r, axis=0) for r in (res_v, res_gauss, res_codazzi)))
