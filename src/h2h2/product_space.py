"""The ambient structures of H² × H² inside R³₁ × R³₁, on (..., 6) arrays.

A point (p, q) of H² × H² and a tangent vector (w1, w2) at it are both
ambient 6-vectors.  The ambient bilinear form ETA6 is the block sum of two
copies of the Lorentz form (signature -,+,+,-,+,+); restricted to tangent
planes of H² × H² it is the Riemannian product metric.  The product
structure P6 fixes first-factor tangents and negates second-factor ones;
J1 = (J, J) and J2 = (J, -J) are the two compatible complex structures and
satisfy P = -J1 J2 = -J2 J1.

The Lie algebra so(1,2) ⊕ so(1,2) of the isometries is R³ ⊕ R³ with the
Lorentz cross product: w = (w1, w2) generates the Killing field
K_w(p, q) = (w1 ⊠ p, w2 ⊠ q).  Since <a ⊠ b, c> = det[a, b, c], the
Killing field pairs with a normal N = (n1, n2) as

    <K_w, N> = <w, J1 N>,   J1 N = (p ⊠ n1, q ⊠ n2),

both pairings ETA6's.  So the matrix whose rows are J1 N at the sample
points of a hypersurface takes ETA6 w to the values of <K_w, N> there.
"""

from __future__ import annotations

import numpy as np

from .lorentz import lorentz_cross

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
