"""Numerical hypersurface geometry of H² × H².

Minkowski/hyperboloid primitives, the product-space structures (the ambient
form ETA6, P6, J1 and J2 on (..., 6) arrays, the horocycle-subgroup blocks),
third-order jet chart calculus (normals, shape operators, principal
curvatures, structural-equation residuals), the canonical hypersurface
families with closed-form oracles, the parallel-flow machinery, and a
verification CLI.  Points and tangent vectors of H² × H² are ambient
6-vectors throughout.
"""

__version__ = "0.1.0"
