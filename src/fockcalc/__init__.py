"""Discrete-time chaotic calculus on sparse Fock coefficients.

The package represents (generalized) functionals of a discrete-time normal
noise by their chaos-expansion coefficients, indexed by finite subsets of
the nonnegative integers.  On top of that representation it provides the
weighted norm chain, the annihilation/creation/conditional-expectation
operator algebra, the Clark-Ocone decomposition with its covariance
identities, and an exhaustive Rademacher path space that independently
re-derives every identity pathwise at desk scale.

The coefficient layers load with the package, without numpy and without
``dataclasses``: their records are named tuples.  The path oracle, the random
corpus and the verification suites need numpy, so their names load on first
use: ``fockcalc.evaluate`` imports ``fockcalc.bridge`` when it is first read.
"""

from importlib import import_module as _import_module

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
)
from .suite_names import SUITE_NAMES

__version__ = "0.1.0"

#: Names re-exported from the numpy-backed modules, each read on first use.
_LAZY = {
    "PathSpace": "bridge",
    "build_space": "bridge",
    "check_intertwining": "bridge",
    "check_orthonormality": "bridge",
    "classical_clark_ocone_check": "bridge",
    "evaluate": "bridge",
    "mc_estimate": "bridge",
    "path_cond_expect": "bridge",
    "path_expectation": "bridge",
    "plancherel_check": "bridge",
    "write_observable_csv": "bridge",
    "random_functionals": "corpus",
    "SuiteConfig": "suite",
    "run_suite": "suite",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached here, so the name always reads the module's current attribute.
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
