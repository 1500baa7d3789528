"""Canonical finite subsets of the nonnegative integers and their weights.

The chaos expansion machinery in this package indexes everything by finite
subsets of {0, 1, 2, ...}.  A subset sigma carries the weight

    weight(sigma) = product of (k + 1) over k in sigma,   weight(empty) = 1,

which generates the whole chain of weighted norms used elsewhere.  This module
owns the subset encoding, deterministic enumeration of all subsets below a
bound, and the weight-sum evaluations (truncated, and certified upper bounds
for the untruncated series).

The coefficient core stores a subset as its bit-mask, a plain int with bit k
set iff k is a member, and ``mask_weight`` weighs it directly.
``SubsetIndex`` is the boundary type: it wraps a mask with its element tuple
for the callers that see subsets (term listings, lookups and JSON I/O).

The truncated weight sum is the n-factor product it equals.  Only the two
series bounds use numpy, and import it when called, so the coefficient
layers built on this module never load it.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, List, NamedTuple

from .errors import (
    CapExceededError,
    DivergentSeriesError,
    NegativeIndexError,
    NonFiniteResultError,
    WeightOverflowError,
)

#: Largest window of ``GammaCursor`` (whose enumeration yields 2**cap subsets)
#: and of ``gamma_weight_sum``; the CLI's ``lambda --sum --n`` stops at it.
GAMMA_HARD_CAP = 24

#: Number of leading terms summed before switching to the integral tail bound.
SERIES_CUTOFF = 10**6

#: Distinct masks whose weights ``mask_weight`` keeps memoised.
WEIGHT_CACHE_SIZE = 1 << 14

#: Largest site a parsed subset or operator tag may name: a subset is a mask
#: with one bit per site, so a site costs its index over 8 in bytes.
_MAX_SITE = 1 << 27


def _bits(mask: int) -> List[int]:
    # The set bits of a nonnegative mask, ascending: isolate the lowest, record it, clear it.
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class SubsetIndex:
    """An immutable finite subset of the nonnegative integers.

    Elements are stored as a strictly increasing tuple; a bit-mask (bit k set
    iff k is a member) backs the set operations.  Two values are equal iff
    their element tuples are identical.
    """

    __slots__ = ("elements", "_mask", "_hash")

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        elems = tuple(sorted(set(elements)))
        if elems and elems[0] < 0:
            raise NegativeIndexError(f"subset elements must be >= 0, got {elems[0]}")
        object.__setattr__(self, "elements", elems)
        mask = 0
        for k in elems:
            mask |= 1 << k
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_hash", hash(elems))

    @classmethod
    def from_mask(cls, mask: int) -> "SubsetIndex":
        """Build the subset whose members are the set bits of ``mask``."""
        if mask < 0:
            raise NegativeIndexError("bit-mask must be nonnegative")
        elems = tuple(_bits(mask))
        self = object.__new__(cls)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_hash", hash(elems))
        return self

    @property
    def mask(self) -> int:
        return self._mask

    def __setattr__(self, name, value):
        raise AttributeError("SubsetIndex is immutable")

    def __contains__(self, k: int) -> bool:
        return k >= 0 and (self._mask >> k) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsetIndex):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SubsetIndex({list(self.elements)})"

    @property
    def max_element(self) -> int:
        """Largest member, or -1 for the empty set.

        The -1 convention stands in for "minus infinity": every conditioning
        level k >= -1 keeps the empty set, which is exactly what the
        conditional-expectation truncation requires.
        """
        return self.elements[-1] if self.elements else -1


#: The empty subset (weight 1; the index of the constant chaos term).
EMPTY_SET = SubsetIndex(())


class GammaCursor(NamedTuple("GammaCursor", [("max_index", int)])):
    """The window of exhaustive subset enumeration.

    ``max_index`` is an exclusive upper bound on the elements: the window
    holds every subset of {0, ..., max_index - 1}, at most ``GAMMA_HARD_CAP``
    elements wide.  Enumeration order is ascending by bit-mask value, so the
    empty set comes first, then {0}, {1}, {0,1}, {2}, ...
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too

    def __new__(cls, max_index: int):
        if max_index < 0:
            raise ValueError(f"max_index must be >= 0, got {max_index}")
        if max_index > GAMMA_HARD_CAP:
            raise CapExceededError(f"max_index {max_index} exceeds the hard cap {GAMMA_HARD_CAP}")
        return super().__new__(cls, max_index)


def enumerate_gamma(cursor: GammaCursor) -> Iterator[SubsetIndex]:
    """Yield each of the 2**max_index subsets of the cursor's window once.

    Order is ascending bit-mask value.
    """
    for mask in range(1 << cursor.max_index):
        yield SubsetIndex.from_mask(mask)


@functools.lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def mask_weight(mask: int) -> float:
    """Weight of the subset encoded by ``mask``: the product of (k + 1) over its bits.

    The factors are multiplied in ascending bit order.  The empty mask weighs
    1; every weight is >= 1.  Raises WeightOverflowError instead of returning
    infinity.
    """
    if mask < 0:
        raise NegativeIndexError("bit-mask must be nonnegative")
    w = 1.0
    for k in _bits(mask):
        w *= float(k + 1)
    if math.isinf(w):
        raise WeightOverflowError(
            f"weight of {SubsetIndex.from_mask(mask)!r} overflows a double"
        )
    return w


def lambda_weight(sigma: SubsetIndex) -> float:
    """Weight of a subset: the product of (k + 1) over its members.

    The empty set weighs 1; every weight is >= 1.  Computed in floating point;
    raises WeightOverflowError instead of returning infinity.
    """
    return mask_weight(sigma.mask)


def gamma_weight_sum(p: float, max_index: int) -> float:
    """Sum of weight(sigma)**(-p) over all subsets of {0, ..., max_index - 1}.

    Each k below max_index is in sigma or not, so the sum factorizes into
    prod_{k=1..max_index} (1 + k**-p), evaluated in max_index steps; the
    tests enumerate the 2**max_index subsets as the independent check.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    GammaCursor(max_index)  # the window's bounds, checked as enumeration checks them
    return math.prod((1.0 + float(k) ** -p for k in range(1, max_index + 1)), start=1.0)


def _series_exp(p: float, diverges: str, overflows: str, logs: bool) -> float:
    """exp of sum_{m>=1} of m**-p, or of log1p(m**-p) where ``logs``, bounded above.

    The first ``SERIES_CUTOFF`` terms are summed and the rest covered by the
    integral tail SERIES_CUTOFF**(1-p)/(p-1), which bounds both kinds of term
    (log1p(x) <= x).  Raises ValueError on a NaN p.  Requires p > 1, else
    raises DivergentSeriesError saying ``diverges``; raises NonFiniteResultError
    saying ``overflows`` where the result overflows a double, which happens for
    p just above 1.
    """
    if math.isnan(p):
        raise ValueError(f"p must be a number, got {p}")
    import numpy as np

    if p <= 1:
        raise DivergentSeriesError(f"{diverges} for p = {p}")
    terms = np.arange(SERIES_CUTOFF, 0, -1, dtype=np.float64) ** (-p)
    partial = float(np.sum(np.log1p(terms) if logs else terms))
    tail = SERIES_CUTOFF ** (1.0 - p) / (p - 1.0)
    try:
        return math.exp(partial + tail)
    except OverflowError:
        raise NonFiniteResultError(f"{overflows} overflows a double") from None


def weight_sum_bound(p: float) -> float:
    """Upper bound exp(sum_{k>=1} k**-p) for the untruncated weight sum.

    The exponent is the ``_series_exp`` partial sum plus its integral tail,
    so the result is a certified upper bound.  Requires p > 1; below that
    the series diverges.  Raises NonFiniteResultError where the bound
    overflows a double.
    """
    return _series_exp(p, "sum of k**-p diverges", "the weight-sum bound", logs=False)


def gamma_weight_sum_limit(p: float) -> float:
    """Certified upper evaluation of the full-lattice sum of weight**(-p).

    Over all finite subsets the sum factorizes into prod_{m>=1} (1 + m**-p);
    ``_series_exp`` sums the log of its first factors and covers the rest
    with the integral tail bound, so the result dominates the true series
    while staying far sharper than ``weight_sum_bound``.  Raises
    NonFiniteResultError where the sum overflows a double.
    """
    return _series_exp(p, "the full weight sum diverges", "the full weight sum", logs=True)
