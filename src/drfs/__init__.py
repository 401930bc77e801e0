"""Certified feature elimination for L1-regularized linear models under
bounded covariate shift.

The library fits a weighted L1-regularized linear model, bounds each
feature's optimality condition uniformly over a polytope of admissible
instance weights, and eliminates features that can never become active for
any admissible shift.  A brute-force verifier backs the no-false-elimination
guarantee at small scale.
"""

from .data import Dataset, ParseError, Task, parse_csv, parse_libsvm, standardize, synth
from .duality import dg_radius, dual_objective, duality_gap, primal_objective, recover_dual
from .losses import DomainError, LossKind, conjugate_neg, dual_from_margin, loss_derivative, loss_value, nu_constant
from .oracle import brute_force_max, brute_force_v, verify_no_false_elimination
from .screening import build_reference, screen, ub_for_weight
from .solver import ConvergenceError, FitConfig, fit_weighted_erm, lambda_max
from .uncertainty import WeightBox, delta_from_v, max_linear, max_linear_squared, sample_feasible, v_from_delta

__all__ = [
    "Dataset", "ParseError", "Task", "parse_csv", "parse_libsvm", "standardize", "synth",
    "DomainError", "LossKind", "conjugate_neg", "dual_from_margin",
    "loss_derivative", "loss_value", "nu_constant",
    "brute_force_max", "brute_force_v", "verify_no_false_elimination",
    "build_reference", "dg_radius", "screen", "ub_for_weight",
    "ConvergenceError", "FitConfig", "dual_objective", "duality_gap",
    "fit_weighted_erm", "lambda_max", "primal_objective", "recover_dual",
    "WeightBox", "delta_from_v", "max_linear", "max_linear_squared",
    "sample_feasible", "v_from_delta",
]

__version__ = "0.1.0"
