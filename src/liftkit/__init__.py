"""liftkit: constrained interpolation, commutant lifting, model spaces."""

from .errors import (ConfigError, ConstraintViolated, DegreeTooSmall,
                     DimensionMismatch, DomainError, InconsistentGenerators,
                     LiftkitError, NotAContraction, NotASolution,
                     SingularResolvent, WNotNormalizedAtZero)
from .hardy import (AnalyticFn, PolyOpFn, TruncationGrid, column_operator,
                    default_grid, multiplication_operator)
from .lifting import (InterpolationProblem, SolutionReport, central_C,
                      fiber_roundtrip_residuals, omega_hat,
                      parameter_membership, random_constrained_z,
                      random_problem, solve_from_Z, uniqueness_certificate,
                      verify_solution, z_from_C)
from .linalg import (Subspace, as_operator, defect, haar_unitary,
                     hermitian_sqrt_psd, operator_norm, orthonormal_range)
from .modelspace import (BlaschkeFactor, InnerFn, ModelSpace,
                         check_decompositions, h_from_Z_theta, model_space,
                         mult_contraction_test, multiplier_roundtrip_residual,
                         pointwise_mult_check, random_inner, random_multiplier,
                         z_from_H_theta)
from .rcl import (LiftingCandidate, RclDataSet, RclReport, b_to_gamma,
                  data_set_from_omega, gamma_to_B, omega_roundtrip_residual,
                  random_data_set, underlying_contraction, validate_data_set, verify_rcl)
from .schur import Realization, SchurRealization, constrained_completion, random_schur

__version__ = "0.1.0"

__all__ = [
    "AnalyticFn", "BlaschkeFactor", "ConfigError", "ConstraintViolated",
    "DegreeTooSmall", "DimensionMismatch", "DomainError",
    "InconsistentGenerators", "InnerFn", "InterpolationProblem",
    "LiftingCandidate", "LiftkitError", "ModelSpace", "NotAContraction", "NotASolution",
    "PolyOpFn", "RclDataSet", "RclReport", "Realization", "SchurRealization",
    "SingularResolvent", "SolutionReport", "Subspace", "TruncationGrid",
    "WNotNormalizedAtZero", "as_operator", "b_to_gamma",
    "central_C", "check_decompositions", "column_operator",
    "constrained_completion", "data_set_from_omega", "defect", "default_grid",
    "fiber_roundtrip_residuals", "gamma_to_B", "h_from_Z_theta",
    "haar_unitary", "hermitian_sqrt_psd", "model_space",
    "mult_contraction_test", "multiplication_operator",
    "multiplier_roundtrip_residual", "omega_hat", "omega_roundtrip_residual",
    "operator_norm", "orthonormal_range", "parameter_membership",
    "pointwise_mult_check", "random_constrained_z", "random_data_set",
    "random_inner", "random_multiplier", "random_problem", "random_schur",
    "solve_from_Z", "underlying_contraction", "uniqueness_certificate",
    "validate_data_set", "verify_rcl", "verify_solution", "z_from_C", "z_from_H_theta",
]
