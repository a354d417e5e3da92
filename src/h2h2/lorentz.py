"""Minkowski 3-space primitives and the hyperboloid model of H².

The ambient form has signature (-,+,+); the hyperbolic plane is the upper
sheet {<x,x> = -1, x1 > 0} and carries curvature -1 throughout.  Plane curves
are unit-speed with the Frenet system

    gamma'' = gamma + kappa * N,      N' = -kappa * gamma',

that is F' = F C(kappa) for the frame F = [gamma | T | N].  One class,
PlaneCurve(kappa, normal_sign), builds every curve from the frame
diag(1, 1, normal_sign) at (1,0,0): with normal_sign = +1 the normal is
N = J(gamma'), where J is the rotation u -> x ⊠ u of the tangent plane, and
the signed curvature is kappa = <gamma'', J(gamma')>; normal_sign = -1 flips
the normal, since both orientations occur as generating curves of product
hypersurfaces.  Constant kappa has the closed form F0 exp(r C) through the
so(1,2) exponential so12_exp; a curvature function is stepped by Magnus steps
built on the same exponential, taken over arrays of steps at once.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import autodiff as ad

ETA3 = np.diag([-1.0, 1.0, 1.0])

FRAME_TOL = 1e-10


def lorentz_inner(a, b):
    """Lorentzian inner product -a1*b1 + a2*b2 + a3*b3 (any scalar type)."""
    return -(a[0] * b[0]) + a[1] * b[1] + a[2] * b[2]


def lorentz_cross(a, b):
    """Lorentzian cross product, orthogonal (in the Lorentz form) to both args."""
    x = a[2] * b[1] - a[1] * b[2]
    y = a[2] * b[0] - a[0] * b[2]
    z = a[0] * b[1] - a[1] * b[0]
    return [x, y, z]


def frame_residual(g, t, n):
    """Deviation of the columns gamma, T, N of a frame from Lorentz
    orthonormality; each argument holds its 3 components first, (3, *B)."""
    return np.abs(np.array([lorentz_inner(g, g) + 1.0, lorentz_inner(t, t) - 1.0,
                            lorentz_inner(n, n) - 1.0, lorentz_inner(g, t),
                            lorentz_inner(g, n), lorentz_inner(t, n)])).max(0)


def _frame_columns(F: np.ndarray):
    """The columns gamma, T, N of stacked frames (*B,3,3), component first:
    (3, *B) each.  A frame that is not Lorentz-orthonormal, judged relative
    to the squared size of gamma, raises ValueError."""
    g, t, n = np.moveaxis(F, (-1, -2), (0, 1))
    scale = np.maximum(1.0, g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
    if (frame_residual(g, t, n) > FRAME_TOL * scale).any():
        raise ValueError("curve frame is not Lorentz-orthonormal")
    return g, t, n


def so12_exp(X: np.ndarray) -> np.ndarray:
    """Matrix exponential of X in so(1,2), or of each of stacked X (*B,3,3),
    from the cubic identity X³ = w² X.

    exp(X) = I + s X + c X² with w² = tr(X²)/2, by ``_exp_coefficients``.
    """
    X2 = X @ X
    s, c = _exp_coefficients(0.5 * np.trace(X2, axis1=-2, axis2=-1))
    return np.eye(3) + s[..., None, None] * X + c[..., None, None] * X2


def _exp_coefficients(w2: np.ndarray):
    """The coefficients s, c of exp(X) over an array of w², each of its shape.

    With w = sqrt(|w²|), s = sinh(w)/w and c = 2 (sinh(w/2)/w)² where w² > 0,
    sin in place of sinh where w² < 0, and the limits s = 1, c = 1/2 where
    w² = 0.  c is written with the half angle so nothing cancels for w² near
    0.  Each branch evaluates numpy's ufuncs on its own elements only, so no
    other branch's value can overflow.
    """
    w2 = np.asarray(w2, dtype=float)
    s, c = np.ones(w2.shape), np.full(w2.shape, 0.5)
    for fn, rows in ((np.sinh, w2 > 0.0), (np.sin, w2 < 0.0)):
        w = np.sqrt(np.abs(w2[rows]))
        half = fn(0.5 * w) / w
        s[rows], c[rows] = fn(w) / w, 2.0 * (half * half)
    return s, c


def _so12(x) -> np.ndarray:
    """Matrices [[0, a, b], [a, 0, -c], [b, c, 0]] of so(1,2), (*B,3,3), with
    coordinates x = (a, b, c), each a float or a (*B,) array.

    The Frenet generator C(kappa) of F' = F C, for the frame
    F = [gamma | T | N], has coordinates (1, 0, kappa).
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in x))
    X = np.zeros(a.shape + (3, 3))
    X[..., 0, 1] = X[..., 1, 0] = a
    X[..., 0, 2] = X[..., 2, 0] = b
    X[..., 1, 2], X[..., 2, 1] = -c, c
    return X


def _bracket(x, y) -> np.ndarray:
    """Coordinates of the commutator [X, Y] of the so(1,2) elements with
    coordinates x, y, coordinate first: (3, *B)."""
    return np.array([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                     x[1] * y[0] - x[0] * y[1]])


def _chained(F: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """F @ E_0, F @ E_0 @ E_1, ... for the stacked steps E_i, (len(steps), 3, 3)."""
    out = np.empty_like(steps)
    for i, E in enumerate(steps):
        F = out[i] = F @ E
    return out


# Gauss-Legendre nodes of the sixth-order Magnus step
_GL_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


class PlaneCurve:
    """Unit-speed curve in H² of curvature kappa, a number or a function of r.

    The frame F = [gamma | T | N] starts at diag(1, 1, normal_sign) and obeys
    F' = F C(kappa).  For constant kappa, F(r) = F0 exp(r C) in closed form.
    For a function, frames at the knots k * STRIDE are grown outward from r = 0
    by sixth-order Magnus steps (three Gauss-Legendre nodes), and a query takes
    one more step from the nearest knot toward 0, so results do not depend on
    the query history.  Each step is an exact group element, so the frame
    stays Lorentz-orthonormal without renormalization.

    A batch of queries grows every knot it lacks in one pass: one ``kappa``
    call at all the Gauss-Legendre nodes, and the brackets and exponentials
    over the stack, before the knots are chained in order; then one Magnus
    step over the array answers every query.  Each operation is elementwise,
    or a 3x3 product per slice, so every frame is bit for bit its batch of
    one.
    """

    # knot spacing: one sixth-order step of this length stays within about
    # 2e-13 of a fine RK4 run for kappa = tanh
    STRIDE = 0.032

    def __init__(self, kappa, normal_sign: int = 1):
        if normal_sign not in (1, -1):
            raise ValueError("normal_sign must be +1 or -1")
        self.kappa = kappa
        F0 = np.diag([1.0, 1.0, float(normal_sign)])
        if callable(kappa):
            # knots kmin..kmax, stacked (kmax - kmin + 1, 3, 3)
            self._knots = F0[None]
            self._kmin = 0
            self._lock = threading.Lock()
        else:
            k = float(kappa)
            C = _so12((1.0, 0.0, k))
            self._w2 = (1.0 - k) * (1.0 + k)     # w² of C, accurate near |kappa| = 1
            self._terms = (F0, F0 @ C, F0 @ C @ C)

    def kappa_at(self, r):
        """The curvature at arc lengths r, an array of r's shape."""
        k = ad.value(self.kappa(r)) if callable(self.kappa) else self.kappa
        return np.broadcast_to(np.asarray(k, dtype=float), np.shape(r))

    def _magnus_exp(self, r, h):
        """exp(Omega) of the sixth-order Magnus steps of length h from r, over
        arrays r, h of one shape B: (*B,3,3)."""
        # Blanes-Casas-Ros for Y' = A Y with every bracket reversed, since
        # the frame multiplies from the right; terms are so(1,2) coordinates
        # (3, *B), and the curvature at the three nodes comes from one call
        nodes = r + _GL_NODES.reshape((3,) + (1,) * r.ndim) * h
        one, zero = np.ones(r.shape), np.zeros(r.shape)
        A1, A2, A3 = (np.array([one, zero, k]) for k in self.kappa_at(nodes))
        a1 = h * A2
        a2 = (math.sqrt(15.0) * h / 3.0) * (A3 - A1)
        a3 = (10.0 * h / 3.0) * (A3 - 2.0 * A2 + A1)
        c1 = _bracket(a2, a1)
        c2 = _bracket(2.0 * a3 + c1, a1) / -60.0
        omega = a1 + a3 / 12.0 + _bracket(a2 + c2, -20.0 * a1 - a3 + c1) / 240.0
        return so12_exp(_so12(omega))

    def _grow(self, lo: int, hi: int):
        """The knots, stacked, and the index of the first, once they reach
        from lo to hi."""
        with self._lock:
            knots, kmin = self._knots, self._kmin
            up, down = np.arange(kmin + len(knots) - 1, hi), np.arange(kmin, lo, -1)
            if up.size or down.size:
                h = np.repeat([self.STRIDE, -self.STRIDE], [up.size, down.size])
                steps = self._magnus_exp(np.concatenate([up, down]) * self.STRIDE, h)
                above = _chained(knots[-1], steps[:up.size])
                below = _chained(knots[0], steps[up.size:])[::-1]
                self._knots = knots = np.concatenate([below, knots, above])
                self._kmin = kmin = min(kmin, lo)
            return knots, kmin

    def _frame(self, r) -> np.ndarray:
        """The frames [gamma | T | N] at arc lengths r of shape B: (*B,3,3)."""
        r = np.asarray(r, dtype=float)
        if not callable(self.kappa):
            s, c = _exp_coefficients(r * r * self._w2)
            F0, F1, F2 = self._terms
            return F0 + (s * r)[..., None, None] * F1 + (c * r * r)[..., None, None] * F2
        flat = r.ravel()
        k = np.trunc(flat / self.STRIDE)     # nearest knot toward 0
        knots, kmin = self._grow(int(k.min(initial=0)), int(k.max(initial=0)))
        F = knots[k.astype(int) - kmin]
        h = flat - k * self.STRIDE
        off = h != 0.0
        if off.any():
            F[off] = F[off] @ self._magnus_exp(k[off] * self.STRIDE, h[off])
        return F.reshape(r.shape + (3, 3))

    def jet(self, r):
        """Curve point and normal at an array or jet parameter.

        Derivatives come from the Frenet relations, so no differentiation of
        the underlying integrator is needed:

            gamma'' = gamma + kappa N,     gamma''' = (1 - kappa²) T + kappa' N,
            N'' = -kappa' T - kappa gamma'',
            N''' = (kappa³ - kappa - kappa'') T - 2 kappa' gamma - 3 kappa kappa' N,

        with kappa' and kappa'' from one jet evaluation of a curvature function.
        A batched r gets closed-form frames over the array for constant kappa;
        for a curvature function, the knots the batch needs are grown in one
        pass and one Magnus step over the array reaches every point.
        """
        r0 = ad.value(r)
        g, t, n = _frame_columns(self._frame(r0))
        if callable(self.kappa):
            kj = self.kappa(ad.jet_variables(np.asarray(r0)[..., None], order=2)[0])
            k, kp, kpp = ad.value(kj), 0.0, 0.0
            if isinstance(kj, ad.Jet):
                kp, kpp = kj.d[..., 0], kj.dd[..., 0, 0]
        else:
            k, kp, kpp = float(self.kappa), 0.0, 0.0
        gdd = g + k * n
        gddd = (1.0 - k * k) * t + kp * n
        nd = -k * t
        ndd = -kp * t - k * gdd
        nddd = (np.power(k, 3) - k - kpp) * t - 2.0 * kp * g - 3.0 * k * kp * n
        return ([ad.compose_jet(g[i], t[i], gdd[i], gddd[i], r) for i in range(3)],
                [ad.compose_jet(n[i], nd[i], ndd[i], nddd[i], r) for i in range(3)])


def parallel_curve_curvature(kappa, l):
    """Curvature of the parallel curve at normal distance l.

    Flowing gamma -> cosh(l) gamma + sinh(l) N turns curvature kappa into
    (kappa cosh l - sinh l) / (cosh l - kappa sinh l); poles are focal values.
    kappa and l broadcast against each other.
    """
    ch, sh = np.cosh(l), np.sinh(l)
    return (kappa * ch - sh) / (ch - kappa * sh)
