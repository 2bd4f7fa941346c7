"""conjlim: boundedness of matrix conjugation orbits ``U A U^{-1}`` along
paths of invertible matrices converging to a singular base point Z.

The package decides the algebraic criteria that govern this behavior
(kernel/image invariance, pole-term annihilators, modifier variants),
constructs paths with simple-pole inverses, and verifies the classification
numerically through growth fitting, divergence search, and Gershgorin-based
certificates.
"""

from .numkit import (
    ConjlimError,
    InvalidInputError,
    Subspace,
    ginibre,
    image_basis,
    kernel_basis,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    orthonormal_complement,
    random_singular,
    random_unitary,
    save_matrix,
    subspace_equal,
    subspace_intersection,
)
from .criteria import (
    MembershipVerdict,
    PoleConditionError,
    divergence_certified,
    keeps_image_invariant,
    keeps_kernel_invariant,
    kernel_algebra_basis,
    kernel_algebra_dim,
    pole_term_vanishes,
    pole_term_vanishes_dual,
)
from .goodpath import (
    GoodPath,
    InvalidPathError,
    NotAGoodPathError,
    PolarFactors,
    RigidityViolationError,
    construct_good_path,
    dual_path,
    is_pole_coefficient,
    laurent_inverse,
    polar_factors,
    rigidity_index,
)
from .modifier import (
    CertificateError,
    ConjugationFamilyError,
    DiagonalBoundCertificate,
    FaithfulnessReport,
    GershgorinRegion,
    Modifier,
    apply,
    conjugation_family_bound,
    diagonal_bound_certificate,
    gershgorin_region,
    nilpotent_faithful,
    nilpotent_faithful_randomized,
    some_path_bounded,
    some_path_bounded_dual,
)
from .pathsim import (
    Filtration,
    GrowthReport,
    MatrixPath,
    PathSingularError,
    SearchOutcome,
    divergence_search,
    kernel_filtration,
    locality_probe,
    log_grid,
    polynomial_growth_degrees,
    polynomial_path_bounded,
    preserves_filtration,
    simulate,
)
from .suites import SUITE_IDS, SuiteCase, SuiteReport, UnknownSuiteError, run_suite

__version__ = "0.1.0"
