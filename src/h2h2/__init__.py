"""Numerical hypersurface geometry of H² × H².

Minkowski/hyperboloid primitives, the product-space structures (the ambient
form ETA6, P6, J1 and J2 on (..., 6) arrays, the horocycle-subgroup blocks),
third-order jet chart calculus (normals, shape operators, principal
curvatures, structural-equation residuals), the canonical hypersurface
families with closed-form oracles, the parallel-flow machinery, and a
verification CLI.  Points and tangent vectors of H² × H² are ambient
6-vectors throughout.
"""

from . import autodiff, lorentz, model_zoo, parallel_flow, product_space, surface_calculus
from .lorentz import PlaneCurve, lorentz_cross, lorentz_inner
from .model_zoo import (
    ModelSpec,
    Oracle,
    build_model,
    make_M_11,
    make_M_1m1,
    make_M_Gamma,
    make_M_kk,
    make_M_tau,
    tanh_profile_check,
)
from .parallel_flow import (
    AdaptedFrame,
    FocalPointError,
    adapted_frame,
    detq_derivatives_at_0,
    detq_derivatives_numeric,
    detq_expansion,
    focal_pushforward_norm,
    frame_identity_checks,
    isoparametric_scan,
    mean_curvature_of_parallel,
    parallel_lambdas,
    parallel_surface,
    q_matrix,
    q_prime,
)
from .product_space import group_element_B, group_element_G
from .surface_calculus import (
    ChartRankError,
    DegenerateProductAngleError,
    Hypersurface,
    NormalSpaceError,
    PointDerivatives,
    PointGeometry,
    StructuralResiduals,
    point_derivatives,
    point_geometry,
    structural_residuals,
)

__version__ = "0.1.0"
