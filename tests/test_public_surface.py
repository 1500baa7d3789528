"""The package's public surface, pinned name by name.

A name added to or dropped from ``fockcalc`` must show up here, so the
surface cannot grow back silently.
"""

import types

import fockcalc

PUBLIC_NAMES = {
    # errors
    "BadTagError", "CapExceededError", "ConfigError", "DivergentSeriesError",
    "DuplicateKeyError", "EmptySupportError", "ExponentTooSmallError", "FockCalcError",
    "HorizonTooLargeError", "NegativeIndexError", "NonFiniteCoefficientError",
    "NonFiniteResultError", "PredictabilityViolatedError", "RequiresExhaustiveError",
    "SchemaError", "SupportExceedsHorizonError", "WeightOverflowError",
    # subsets and weights
    "GammaCursor", "SubsetIndex", "enumerate_gamma", "gamma_weight_sum",
    "gamma_weight_sum_limit", "lambda_weight", "weight_sum_bound",
    # functionals and norms
    "FockFunctional", "GrowthEnvelope", "ZERO", "basis_element", "check_strong_convergence",
    "dual_norm_bound", "dual_pair", "fit_envelope", "inner_dual", "inner_p",
    "linear_combine", "make_functional", "norm_dual", "norm_p", "sum_functionals",
    # operators
    "NormBoundReport", "annihilate", "apply_pipeline", "cond_expect", "create", "expect",
    "parse_pipeline", "verify_car", "verify_commutation", "verify_norm_bounds",
    # Clark-Ocone and covariance
    "DecompositionReport", "PredictableSequence", "co_term", "decompose", "integrate",
    "partial_sum", "predictable_sequence", "reconstruct_check", "verify_convergence_window",
    "CovarianceReport", "cov_identity", "cov_p", "var_bound", "var_p",
    # path oracle
    "PathSpace", "build_space", "check_intertwining", "check_orthonormality",
    "classical_clark_ocone_check", "evaluate", "mc_estimate", "path_cond_expect",
    "path_expectation", "plancherel_check", "write_observable_csv",
    # JSON, corpus and suites
    "covariance_to_obj", "decomposition_to_obj", "functional_to_obj", "parse_document",
    "random_functionals",
    "SUITE_NAMES", "SuiteConfig", "run_suite",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(fockcalc)
        if not name.startswith("_") and not isinstance(getattr(fockcalc, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 82
