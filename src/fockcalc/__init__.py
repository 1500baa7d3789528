"""Discrete-time chaotic calculus on sparse Fock coefficients.

The package represents (generalized) functionals of a discrete-time normal
noise by their chaos-expansion coefficients, indexed by finite subsets of
the nonnegative integers.  On top of that representation it provides the
weighted norm chain, the annihilation/creation/conditional-expectation
operator algebra, the Clark-Ocone decomposition with its covariance
identities, and an exhaustive Rademacher path space that independently
re-derives every identity pathwise at desk scale.
"""

from .bridge import (
    PathSpace,
    build_space,
    check_intertwining,
    check_orthonormality,
    classical_clark_ocone_check,
    evaluate,
    mc_estimate,
    path_cond_expect,
    path_expectation,
    plancherel_check,
    write_observable_csv,
)
from .clark_ocone import (
    DecompositionReport,
    PredictableSequence,
    co_term,
    decompose,
    integrate,
    partial_sum,
    predictable_sequence,
    reconstruct_check,
    verify_convergence_window,
)
from .corpus import random_functionals
from .covariance import CovarianceReport, cov_identity, cov_p, var_bound, var_p
from .errors import (
    BadTagError,
    CapExceededError,
    ConfigError,
    DivergentSeriesError,
    DuplicateKeyError,
    EmptySupportError,
    ExponentTooSmallError,
    FockCalcError,
    HorizonTooLargeError,
    NegativeIndexError,
    NonFiniteCoefficientError,
    NonFiniteResultError,
    PredictabilityViolatedError,
    RequiresExhaustiveError,
    SchemaError,
    SupportExceedsHorizonError,
    WeightOverflowError,
)
from .functional import (
    FockFunctional,
    GrowthEnvelope,
    ZERO,
    basis_element,
    check_strong_convergence,
    dual_norm_bound,
    dual_pair,
    fit_envelope,
    inner_dual,
    inner_p,
    linear_combine,
    make_functional,
    norm_dual,
    norm_p,
    sum_functionals,
)
from .gamma import (
    GammaCursor,
    SubsetIndex,
    enumerate_gamma,
    gamma_weight_sum,
    gamma_weight_sum_limit,
    lambda_weight,
    weight_sum_bound,
)
from .operators import (
    NormBoundReport,
    annihilate,
    apply_pipeline,
    cond_expect,
    create,
    expect,
    parse_pipeline,
    verify_car,
    verify_commutation,
    verify_norm_bounds,
)
from .serialization import (
    covariance_to_obj,
    decomposition_to_obj,
    functional_to_obj,
    parse_document,
    parse_functional,
    serialize_functional,
)
from .suite import SUITE_NAMES, SuiteConfig, run_suite

__version__ = "0.1.0"
