"""The ambient structures of H² × H² inside R³₁ × R³₁, on (..., 6) arrays.

A point (p, q) of H² × H² and a tangent vector (w1, w2) at it are both
ambient 6-vectors.  The ambient bilinear form ETA6 is the block sum of two
copies of the Lorentz form (signature -,+,+,-,+,+); restricted to tangent
planes of H² × H² it is the Riemannian product metric.  The product
structure P6 fixes first-factor tangents and negates second-factor ones;
J1 = (J, J) and J2 = (J, -J) are the two compatible complex structures and
satisfy P = -J1 J2 = -J2 J1.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .lorentz import ETA3, lorentz_cross

ETA6 = np.diag([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
P6 = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def complex_structures(x, w):
    """(J1 w, J2 w) = ((p ⊠ w1, q ⊠ w2), (p ⊠ w1, -q ⊠ w2)) at x = (p, q).

    J rotates each factor's tangent plane by the Lorentz cross product with
    the point.  x and w are ambient 6-vectors, or either of them a 6 x k
    array whose columns are taken one by one, as for a chart Jacobian.
    """
    first = np.array(lorentz_cross(x[:3], w[:3]))
    second = np.array(lorentz_cross(x[3:], w[3:]))
    return np.concatenate([first, second]), np.concatenate([first, -second])


def _horocycle_block(t_exp, r) -> np.ndarray:
    # shared shape of the one-parameter blocks in the horocycle subgroups:
    # (3, 3), or (..., 3, 3) stacked over arrays t_exp and r
    tt = t_exp
    r2t2 = r * r * tt * tt
    entries = np.broadcast_arrays(
        (1.0 + tt * tt + r2t2) / (2.0 * tt), r, (1.0 - tt * tt - r2t2) / (2.0 * tt),
        r * tt, 1.0, -r * tt,
        (1.0 + r2t2 - tt * tt) / (2.0 * tt), r, (1.0 - r2t2 + tt * tt) / (2.0 * tt))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def lorentz_defect(blocks) -> float:
    """max |Bᵀ η B - η| over 3x3 blocks B, a sequence of them or a stacked
    array (..., 3, 3): how far they are from O(1,2)."""
    b = np.asarray(blocks, dtype=float)
    return float(np.max(np.abs(b.swapaxes(-1, -2) @ ETA3 @ b - ETA3)))


def group_element_G(c: float, t, r, s) -> tuple:
    """Blocks (A1, A2) of the diagonal-block isometry of the subgroup whose
    orbits through the diagonal point are the curvature-(1,-1) product
    hypersurfaces; blocks use exp(-sqrt(c) t) and exp(+sqrt(1-c) t).

    t, r and s are floats for one element, or arrays that broadcast against
    each other for the blocks (..., 3, 3) of many, each bit for bit its
    one-element block: the exponentials are ``math.exp``'s."""
    if not 0.0 < c < 1.0:
        raise ValueError("c out of range (0,1)")
    g1 = _horocycle_block(ad.elementwise(math.exp, -math.sqrt(c) * t), r)
    g2 = _horocycle_block(ad.elementwise(math.exp, math.sqrt(1.0 - c) * t), s)
    return g1, g2


def group_element_B(c: float, t, r, s) -> tuple:
    """Blocks (A1, A2) of the subgroup element for the curvature-(1,1)
    hypersurfaces; blocks use exp(-sqrt(c) t) and exp(-sqrt(1-c) t).  t, r
    and s broadcast as in ``group_element_G``."""
    if not 0.0 < c < 1.0:
        raise ValueError("c out of range (0,1)")
    b1 = _horocycle_block(ad.elementwise(math.exp, -math.sqrt(c) * t), r)
    b2 = _horocycle_block(ad.elementwise(math.exp, -math.sqrt(1.0 - c) * t), s)
    return b1, b2
