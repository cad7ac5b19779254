"""Pointwise curvature algebra for Bochner-type vanishing criteria.

The package implements, over a fixed Euclidean vector space, the
algebraic machinery behind eigenvalue vanishing criteria on Kahler and
quaternion-Kahler spaces: holonomy algebra actions on tensors, curvature
operators and their decompositions, (p, q)-form strata, the Weitzenbock
curvature term, and the closed-form constants of the criteria
themselves.  Nothing here touches a manifold: derivatives, integrals and
global hypotheses stay on the user's side of the interface.
"""

from .criteria import (
    VacuousStratumError,
    VanishingVerdict,
    bochner_parity_coefficient,
    check_bochner,
    check_einstein_flat,
    check_lq_nonneg,
    check_pq,
    check_quaternion,
    form_constant,
    kappa_bound,
    kappa_bound_harmonic_field,
    kato_constant,
    quaternion_parity_coefficient,
    stratum_constant,
)
from .curvature import (
    AlgebraicCurvatureTensor,
    KahlerDecomposition,
    QuaternionDecomposition,
    chsc_model,
    constant_sectional_model,
    curvature_from_json,
    curvature_to_json,
    flat_model,
    from_operator,
    kahler_decompose,
    kahler_sharp_identity,
    kulkarni_nomizu,
    load_curvature,
    model,
    quaternion_decompose,
    quaternion_sharp_identity,
    quaternionic_projective_model,
    random_curvature,
    random_hyperkahler_curvature,
    random_kahler_curvature,
    random_quaternion_kahler_curvature,
    restricted_spectrum,
    ricci,
    ricci_form,
    primitive_ricci_form,
    save_curvature,
    scalar_curvature,
    sharp_norm_identities,
    tf_ricci,
)
from .forms import (
    Form,
    PQForm,
    action_bound_check,
    build_pq_basis,
    circ,
    construct_Vpqk,
    omega_power,
    pqform_from_json,
    pqform_to_json,
    sharp_coefficient,
    sharp_norm_coefficient_check,
    wedge,
)
from .holonomy import (
    AlgebraKind,
    HolonomySubalgebra,
    SharpDecomposition,
    build_algebra,
    sharp,
)
from .tensors import (
    ComplexTensor,
    EuclideanSpace,
    hermitian_inner,
    load_tensor,
    save_tensor,
    tensor_from_json,
    tensor_to_json,
)
from .weitzenbock import (
    CurvatureTerm,
    curvature_term,
    lichnerowicz_zero_order,
    verify_eigenvalue_sum_bound,
    verify_weitzenbock_restriction,
    weitzenbock_ric,
)

__version__ = "0.1.0"
