"""Exception types shared across the package."""


class FockCalcError(Exception):
    """Base class for all errors raised by this package."""


class NegativeIndexError(FockCalcError):
    """A subset element was negative; indices live in the nonnegative integers."""


class CapExceededError(FockCalcError):
    """An enumeration bound exceeded the configured hard cap."""


class WeightOverflowError(FockCalcError):
    """The subset weight product left the representable floating-point range."""


class NonFiniteResultError(FockCalcError, ValueError):
    """A result the inputs determine lies beyond the floating-point range."""


class NonFiniteCoefficientError(FockCalcError, ValueError):
    """A coefficient handed to a builder is infinite or NaN."""


class DivergentSeriesError(FockCalcError):
    """The requested exponent makes the underlying series diverge."""


class DuplicateKeyError(FockCalcError):
    """The same subset appeared twice when building a coefficient map."""


class EmptySupportError(FockCalcError):
    """The operation needs at least one nonzero coefficient."""


class ExponentTooSmallError(FockCalcError):
    """The dual exponent is too small for the bound series to converge."""


class HorizonTooLargeError(FockCalcError):
    """Exhaustive path enumeration was requested beyond the feasible horizon."""


class SupportExceedsHorizonError(FockCalcError):
    """The functional references noise coordinates outside the path horizon."""


class RequiresExhaustiveError(FockCalcError):
    """The operation is exact only on an exhaustively enumerated path space."""


class PredictabilityViolatedError(FockCalcError):
    """A sequence entry is not measurable with respect to its required past."""


class SchemaError(FockCalcError):
    """JSON input does not conform to the documented schema."""


class ConfigError(FockCalcError, ValueError):
    """A run option lies outside the range the suites support."""


class BadTagError(FockCalcError):
    """An operator pipeline tag could not be parsed."""
