"""Certified feature elimination for L1-regularized linear models under
bounded covariate shift.

The library fits a weighted L1-regularized linear model, bounds each
feature's optimality condition uniformly over a polytope of admissible
instance weights, and eliminates features that can never become active for
any admissible shift.  A brute-force verifier backs the no-false-elimination
guarantee at small scale.
"""

from .data import Dataset, ParseError, SingleClassError, StandardizationReport, Task, parse_csv, parse_libsvm, serialize_libsvm, standardize, synth
from .losses import DomainError, LossKind, conjugate_neg, dual_from_margin, feasibility_q, loss_derivative, loss_value, nu_constant
from .oracle import VerificationOutcome, brute_force_max, brute_force_v, verify_no_false_elimination
from .screening import ReferencePair, ScreeningReport, build_reference, dg_radius, rho_vector, screen, ub_for_weight
from .solver import ConvergenceError, FitConfig, FittedModel, dual_objective, duality_gap, fit_weighted_erm, lambda_max, objective_scale, primal_objective, recover_dual
from .uncertainty import WeightBox, contains, corner_count, delta_from_v, enumerate_corners, max_linear, max_linear_squared, sample_feasible, v_from_delta, worst_case_weights

__all__ = [
    "Dataset", "ParseError", "SingleClassError", "StandardizationReport", "Task",
    "parse_csv", "parse_libsvm", "serialize_libsvm", "standardize", "synth",
    "DomainError", "LossKind", "conjugate_neg", "dual_from_margin",
    "feasibility_q", "loss_derivative", "loss_value", "nu_constant",
    "VerificationOutcome", "brute_force_max", "brute_force_v", "verify_no_false_elimination",
    "ReferencePair", "ScreeningReport", "build_reference", "dg_radius",
    "rho_vector", "screen", "ub_for_weight",
    "ConvergenceError", "FitConfig", "FittedModel", "dual_objective", "duality_gap",
    "fit_weighted_erm", "lambda_max", "objective_scale", "primal_objective", "recover_dual",
    "WeightBox", "contains", "corner_count", "delta_from_v", "enumerate_corners",
    "max_linear", "max_linear_squared", "sample_feasible", "v_from_delta", "worst_case_weights",
]

__version__ = "0.1.0"
