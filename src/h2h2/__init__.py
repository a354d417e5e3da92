"""Numerical hypersurface geometry of H² × H².

Minkowski/hyperboloid primitives, the product-space structures (P, J1, J2,
curvature tensor, block isometries), third-order jet chart calculus (normals,
shape operators, principal curvatures, structural-equation residuals), the
canonical hypersurface families with closed-form oracles, the parallel-flow
machinery, and a verification CLI.
"""

from . import autodiff, lorentz, model_zoo, parallel_flow, product_space, surface_calculus
from .lorentz import (
    CurveState,
    H2Point,
    H2Tangent,
    PlaneCurve,
    complex_structure,
    h2_exp,
    lorentz_cross,
    lorentz_inner,
)
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
    ParallelState,
    adapted_frame,
    detq_derivatives_at_0,
    detq_derivatives_numeric,
    detq_expansion,
    focal_pushforward_norm,
    frame_identity_checks,
    isoparametric_scan,
    mean_curvature_of_parallel,
    parallel_lambdas,
    parallel_normal,
    parallel_point,
    parallel_state,
    parallel_surface,
    q_matrix,
    q_prime,
)
from .product_space import (
    BlockIsometry,
    ProductPoint,
    ProductTangent,
    apply_J1,
    apply_J2,
    apply_P,
    apply_isometry,
    curvature_tensor,
    group_element_B,
    group_element_G,
    product_metric,
    pushforward,
)
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
    product_angle_C,
    ricci,
    sectional,
    structural_residuals,
    tangential_T,
    vector_V,
)

__version__ = "0.1.0"
