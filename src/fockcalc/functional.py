"""Sparse coefficient functionals and the weighted norm chain.

A ``FockFunctional`` is a finite map from subsets to complex coefficients.
The same structure plays two roles, distinguished only by how the caller
reads it: as a square-integrable functional it holds the expansion
coefficients against the canonical orthonormal product basis, and as a
generalized (dual-space) element it holds the coefficient function that
uniquely determines the functional.  The coefficient arrays coincide under
the Riesz identification, so one type suffices.

The map is stored keyed by subset bit-masks (plain ints), so the operators,
norms and pairings run on integers; ``SubsetIndex`` values appear only at
the boundary, in ``items``, ``support``, ``coefficient`` and the builders.

Pairing conventions, fixed here once for the whole package:

* ``inner_p``      conjugates its FIRST argument (Hermitian inner product of
                   the weighted test-function chain).
* ``inner_dual``   conjugates its SECOND argument (dual-chain pairing).
* ``dual_pair``    conjugates NOTHING (the canonical bilinear form between a
                   dual element and a test functional).

Range rule, fixed here once for the norms, the pairings and the per-site
covariance sum: the plain double formula wherever every bit survives (a
norm's sum of squares is a normal finite double; every pairing term's
magnitude is, and so is their sum), else one exact sum of the terms kept
as mantissa times power of two, rounded once at the end.  A norm reads its
terms' weights and squares from a table built once (``_norm_table``); each
level's ``_norm_step`` takes their fsum, or where it overflows the exact sum.

Gap rule, fixed here once for the exact identities (operator relations and
the Clark-Ocone decomposition, whose sides select the same coefficients):
``_residual`` is 0.0 where both sides hold the same terms, else the level-0
dual norm of their difference.  Zeros are dropped on construction and no
coefficient is infinite or NaN, so equal terms are an empty difference.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DuplicateKeyError,
    EmptySupportError,
    ExponentTooSmallError,
    NonFiniteCoefficientError,
    NonFiniteResultError,
    WeightOverflowError,
)
from .gamma import (
    GammaCursor,
    SubsetIndex,
    _bits,
    enumerate_gamma,
    gamma_weight_sum_limit,
    lambda_weight,
    mask_weight,
)

_MIN_NORMAL = sys.float_info.min
_SUM_SPAN = 4096


class FockFunctional:
    """Immutable finite map from subsets to complex coefficients.

    The terms are stored as a dict from subset bit-mask to coefficient;
    ``SubsetIndex`` is the boundary type of the accessors.  Exact zeros are
    dropped on construction, so the stored support is the true support, and
    an infinite or NaN coefficient raises ``NonFiniteCoefficientError``.  Use
    ``make_functional`` / ``basis_element`` to build one.
    """

    __slots__ = ("_terms",)

    _terms: Dict[int, complex]

    def __init__(self, *args, **kwargs):  # the builders below skip it
        raise TypeError("build a FockFunctional with make_functional or basis_element")

    @classmethod
    def _of_masks(cls, terms: Dict[int, complex]) -> "FockFunctional":
        # Takes ownership of a mask-keyed map of nonzero complex coefficients,
        # as the operators produce by selecting and re-keying existing terms.
        self = object.__new__(cls)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FockFunctional is immutable")

    def coefficient(self, sigma: SubsetIndex) -> complex:
        """Stored coefficient at ``sigma``, or 0 when absent."""
        return self._terms.get(sigma.mask, 0j)

    def items(self) -> List[Tuple[SubsetIndex, complex]]:
        """Term list in ascending bit-mask order (deterministic)."""
        return [(SubsetIndex.from_mask(m), c) for m, c in sorted(self._terms.items())]

    def support(self) -> List[SubsetIndex]:
        return [SubsetIndex.from_mask(m) for m in sorted(self._terms)]

    @property
    def support_max(self) -> int:
        """Largest index appearing in any support set; -1 if none do."""
        return max(self._terms, default=0).bit_length() - 1

    def sites(self) -> List[int]:
        """Ascending indices that appear in some support set.

        Annihilation at any other index gives zero, so the decomposition and
        covariance site loops visit only these.
        """
        union = 0
        for m in self._terms:
            union |= m
        return _bits(union)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockFunctional):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict semantics for equality; not hashable

    def __repr__(self) -> str:
        parts = ", ".join(f"{list(s.elements)}: {c}" for s, c in self.items())
        return f"FockFunctional({{{parts}}})"


def _finite(sigma: SubsetIndex, coef: complex, error: type = NonFiniteCoefficientError) -> complex:
    value = complex(coef)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise error(
            f"coefficient of subset {list(sigma.elements)} is not finite: {value}"
        )
    return value


def _nonzero(terms: Dict[int, complex]) -> FockFunctional:
    # An infinite or NaN coefficient shows in the total, which finite ones
    # leave finite unless their sum overflows.
    total = sum(terms.values(), 0j)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        for m, c in terms.items():
            _finite(SubsetIndex.from_mask(m), c, NonFiniteResultError)
    return FockFunctional._of_masks({m: c for m, c in terms.items() if c != 0})


def make_functional(terms: Iterable[Tuple[SubsetIndex, complex]]) -> FockFunctional:
    """Build a functional from (subset, coefficient) pairs.

    Zero coefficients are dropped; a repeated subset raises DuplicateKeyError
    and an infinite or NaN coefficient raises NonFiniteCoefficientError.
    """
    out: Dict[int, complex] = {}
    for sigma, coef in terms:
        if sigma.mask in out:
            raise DuplicateKeyError(f"subset {list(sigma.elements)} appears twice")
        out[sigma.mask] = _finite(sigma, coef)
    return _nonzero(out)


def basis_element(sigma: SubsetIndex) -> FockFunctional:
    """The canonical basis functional carrying coefficient 1 at ``sigma``."""
    return FockFunctional._of_masks({sigma.mask: 1.0 + 0j})


_set_terms = FockFunctional._terms.__set__  # the slot's own setter, skipping __setattr__
ZERO = FockFunctional._of_masks({})


def linear_combine(
    a: complex, phi: FockFunctional, b: complex, psi: FockFunctional
) -> FockFunctional:
    """Coefficient-wise a*phi + b*psi; exact cancellations drop the key, and a
    coefficient that is not finite raises NonFiniteResultError naming its subset.
    """
    out = {m: a * c for m, c in phi._terms.items()}
    for m, c in psi._terms.items():
        out[m] = out.get(m, 0j) + b * c
    return _nonzero(out)


def sum_functionals(phis: Iterable[FockFunctional]) -> FockFunctional:
    """Coefficient-wise sum, accumulated in the given order; raises as ``linear_combine``."""
    out: Dict[int, complex] = {}
    for phi in phis:
        for m, c in phi._terms.items():
            out[m] = out.get(m, 0j) + c
    return _nonzero(out)


def _binary_split(c: complex) -> Tuple[complex, int]:
    # (mant, e) with c == mant * 2**e exactly and mant's larger part in [0.5, 1).
    _, e = math.frexp(max(abs(c.real), abs(c.imag)))
    return complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)), e


def _weight_power(m: int, exponent: float) -> Tuple[float, int]:
    # (mant, e) with weight(m) ** exponent == mant * 2**e and mant in [1, 2),
    # through exponent * log2(weight); a weight of 1 is (1.0, 0) at any exponent.
    # A power below every double (exponent * log2(weight) is -inf) is (0.0, 0).
    log2_weight = math.fsum(math.log2(k + 1) for k in _bits(m))
    w_log = exponent * log2_weight if log2_weight else 0.0
    if w_log == -math.inf:
        return 0.0, 0
    if math.isinf(w_log):
        raise NonFiniteResultError(
            "a weight power 2**(exponent * log2 weight) lies beyond the double range"
        )
    w_exp = math.floor(w_log)
    return 2.0 ** (w_log - w_exp), w_exp


def _leading_run(split: List[Tuple[int, int]]) -> Tuple[int, int, List[Tuple[int, int]]]:
    # (total, low, rest): total * 2**low is the exact sum of the (order, n)
    # parts, n * 2**(order - 53) in falling order, up to the first part more
    # than _SUM_SPAN bits below a nonzero running sum; rest holds the others.
    total = low = 0
    for i, (order, n) in enumerate(split):
        if not total:
            total, low = n, order - 53
        elif order >= total.bit_length() + low - _SUM_SPAN:
            total, low = (total << (low - order + 53)) + n, order - 53
        else:
            return total, low, split[i:]
    return total, low, []


def _exact_sum(parts: Sequence[Tuple[float, int]]) -> Tuple[int, int]:
    # (total, low) with total * 2**low the sum of mant * 2**e, unrounded.
    # Each part is an integer times a power of two; they are summed exactly,
    # largest first.  Parts more than _SUM_SPAN bits below a nonzero running
    # sum together move it by less than 2**-4000 of itself, so only their sign
    # is kept, as a sticky bit that rounds as they would.  That bounds the
    # integers.
    split = []
    for mant, e in parts:
        f, x = math.frexp(mant)
        if f:
            split.append((e + x, int(math.ldexp(f, 53))))
    split.sort(reverse=True)
    total, low, rest = _leading_run(split)
    if rest:
        # The parts left out lie far below the rounding position, so it reads
        # there only the sign of the sum less its nearest multiple of 2**d
        # plus those parts: a sticky bit two places below that multiple.
        d = max(total.bit_length() - 64, 0)
        high = (total + (1 << d >> 1)) >> d
        below, _, _ = _leading_run([(low + 53, total - (high << d))] + rest)
        total, low = 4 * high + (below > 0) - (below < 0), low + d - 2
    return total, low


def _rounded(total: int, low: int) -> float:
    # total * 2**low rounded once: int true division rounds correctly,
    # subnormals included, and raises OverflowError past the double range.
    # A shift past 1100 bits moves no result, which then overflows or lies
    # below 2**-1100, so it is capped.
    if low >= 0:
        return float(total << min(low, 1100))
    return total / (1 << min(-low, total.bit_length() + 1100))


def _scaled_sum(parts: Sequence[Tuple[float, int]]) -> Tuple[float, int]:
    # (s, shift) with s * 2**shift the sum of mant * 2**e, rounded once, and
    # s scaled by the sum's own binary order to about 2**960, so it keeps
    # every bit however far the parts cancel; ``_norm_step`` takes its root.
    total, low = _exact_sum(parts)
    k = 960 - total.bit_length()
    return (_rounded(total, k), low - k) if total else (0.0, 0)


def _join(parts: Sequence[Tuple[complex, int]]) -> complex:
    # The sum of mant * 2**e, one exact sum per component rounded once, as a
    # complex; raises NonFiniteResultError where it lies beyond the double range.
    try:
        return complex(
            _rounded(*_exact_sum([(z.real, e) for z, e in parts])),
            _rounded(*_exact_sum([(z.imag, e) for z, e in parts])),
        )
    except OverflowError:
        raise NonFiniteResultError("a sum overflows a double") from None


def _complex_sum(values: Sequence[complex]) -> complex:
    # The left-to-right sum of finite values, bit for bit, wherever it is
    # finite; else the scaled sum of the values.
    total = 0j
    for z in values:
        total += z
    if math.isfinite(total.real) and math.isfinite(total.imag):
        return total
    return _join([(z, 0) for z in values])


def _pairing(pairs: Sequence[Tuple[int, complex, complex]], exponent: float) -> complex:
    # sum(weight(m) ** exponent * c * d) over (m, c, d) under the range rule; a
    # term whose weight power lies below every double is a zero term.
    try:
        terms = [mask_weight(m) ** exponent * c * d for m, c, d in pairs]
        if not terms or min(map(abs, terms)) >= _MIN_NORMAL:
            # An infinite or NaN term shows in the total, where min may miss it.
            total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            if math.isfinite(total.real) and math.isfinite(total.imag):
                return total
    except (OverflowError, ValueError, WeightOverflowError):
        pass
    scaled = []
    for m, c, d in pairs:
        w_mant, w_exp = _weight_power(m, exponent)
        (c_mant, c_exp), (d_mant, d_exp) = _binary_split(c), _binary_split(d)
        scaled.append((w_mant * c_mant * d_mant, w_exp + c_exp + d_exp))
    return _join(scaled)


def inner_p(xi: FockFunctional, eta: FockFunctional, p: float) -> complex:
    """Weighted inner product sum(weight**(2p) * conj(xi) * eta).

    Conjugate-linear in the first argument, linear in the second.  Ranged
    as the module docstring states; raises NonFiniteResultError where the
    sum lies beyond the double range.
    """
    return _pairing([(m, c.conjugate(), d) for m, c in xi._terms.items()
                     if (d := eta._terms.get(m)) is not None], 2.0 * p)


def _norm_table(phi: FockFunctional) -> Optional[List[Tuple[float, float]]]:
    # The level-free half of ``_norm_step``: (weight, |coef| ** 2) per term,
    # or None where a weight or a square overflows.
    try:
        return [(mask_weight(m), abs(c) ** 2) for m, c in phi._terms.items()]
    except (OverflowError, WeightOverflowError):
        return None


def _norm_step(phi: FockFunctional, table: Optional[list], exponent: float) -> Tuple[float, int]:
    # (m, e) with sqrt(sum(weight**(2 * exponent) * |coef|**2)) == m * 2**e from
    # phi's ``_norm_table``; m is finite and nonzero for every nonzero phi, even
    # where the norm over- or underflows, and (0.0, 0) for ZERO.  Raises
    # NonFiniteResultError where exponent * log2(weight) leaves the double
    # range above, or below for every term.
    try:
        total = math.inf if table is None else math.fsum(
            [w ** (2.0 * exponent) * a for w, a in table])
    except OverflowError:
        total = math.inf
    if _MIN_NORMAL <= total < math.inf:
        return math.frexp(math.sqrt(total))
    parts = []
    for m, c in phi._terms.items():
        (c_mant, c_exp), (w_mant, w_exp) = _binary_split(c), _weight_power(m, exponent)
        parts.append(((abs(c_mant) * w_mant) ** 2, 2 * (c_exp + w_exp)))
    total, shift = _scaled_sum(parts)
    if phi and not total:
        raise NonFiniteResultError("every weight power lies below the double range")
    # An odd shift moves one factor 2 into the sum, so the root halves it exactly.
    return math.sqrt(math.ldexp(total, shift & 1)), shift // 2


def _weighted_norm(phi: FockFunctional, table: Optional[list], exponent: float) -> float:
    mant, exp2 = _norm_step(phi, table, exponent)
    try:
        return math.ldexp(mant, exp2)
    except OverflowError:
        magnitude = exp2 * math.log10(2.0) + math.log10(mant)
        raise NonFiniteResultError(
            f"norm of about 10**{magnitude:.4g} overflows a double"
        ) from None


def norm_p(xi: FockFunctional, p: float) -> float:
    """Weighted norm sqrt(sum(weight**(2p) * |coef|**2)).

    A basis element at sigma has norm weight(sigma)**p.  Ranged as the module
    docstring states: a norm beyond the double range raises
    NonFiniteResultError, and one below the smallest subnormal rounds to 0.0.
    """
    return _weighted_norm(xi, _norm_table(xi), p)


def norm_dual(phi: FockFunctional, p: float) -> float:
    """Dual-chain norm sqrt(sum(weight**(-2p) * |coef|**2)), ranged as ``norm_p``."""
    return _weighted_norm(phi, _norm_table(phi), -p)


def _residual(a: FockFunctional, b: FockFunctional) -> float:
    # The gap of the exact identity a == b, as the module docstring states.
    if a._terms == b._terms:
        return 0.0
    return norm_dual(linear_combine(1.0, a, -1.0, b), 0.0)


def inner_dual(phi: FockFunctional, psi: FockFunctional, p: float) -> complex:
    """Dual-chain pairing sum(weight**(-2p) * phi * conj(psi)).

    Note the conjugate sits on the SECOND argument here, opposite to
    ``inner_p``;  inner_dual(phi, phi, p) equals norm_dual(phi, p)**2.
    Ranged as the module docstring states; raises NonFiniteResultError where
    a term or the sum lies beyond the double range.
    """
    return _pairing([(m, c, d.conjugate()) for m, c in phi._terms.items()
                     if (d := psi._terms.get(m)) is not None], -2.0 * p)


def dual_pair(phi: FockFunctional, xi: FockFunctional) -> complex:
    """Canonical bilinear pairing sum(xi_coef * phi_coef); no conjugation.

    ``phi`` is read as a dual element, ``xi`` as a test functional.  Against a
    basis element this picks out phi's coefficient at that subset.  Raises
    NonFiniteResultError where a term or the sum lies beyond the double range.
    """
    return _pairing([(m, c, d) for m, c in xi._terms.items()
                     if (d := phi._terms.get(m)) is not None], 0.0)


class GrowthEnvelope(NamedTuple("GrowthEnvelope", [("C", float), ("p", float)])):
    """Certificate that every coefficient obeys |coef| <= C * weight**p."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too

    def __new__(cls, C: float, p: float):
        if math.isnan(C) or math.isnan(p):
            raise ValueError(f"envelope constants must be numbers, got C={C}, p={p}")
        if C < 0 or p < 0:
            raise ValueError("envelope constants must be nonnegative")
        return super().__new__(cls, C, p)

    def covers(self, phi: FockFunctional) -> bool:
        """Whether the bound holds on every support set of ``phi``.

        Compared in quotient form (|coef| / weight**p <= C), the same
        expression the fitting maximizes, so a fitted envelope covers its
        own functional exactly rather than up to a rounding ulp.
        """
        return all(
            abs(c) / mask_weight(m) ** self.p <= self.C for m, c in phi._terms.items()
        )


def fit_envelope(phi: FockFunctional, p: float) -> GrowthEnvelope:
    """Minimal-constant envelope at exponent ``p`` for a nonzero functional.

    C is the max of |coef| / weight**p over the support, so the returned
    envelope holds with equality somewhere and cannot be shrunk at this p.
    """
    if not phi:
        raise EmptySupportError("cannot fit an envelope to an empty support")
    c = max(abs(v) / mask_weight(m) ** p for m, v in phi._terms.items())
    return GrowthEnvelope(C=c, p=p)


def dual_norm_bound(env: GrowthEnvelope, q: float) -> float:
    """Dual-norm ceiling implied by an envelope: C * sqrt(full weight sum).

    Any functional satisfying the envelope has norm_dual(. , q) at most
    C * sqrt(sum over ALL subsets of weight**(-2(q-p))), which converges
    precisely when q > p + 1/2.  The series is evaluated by the certified
    upper machinery in ``gamma_weight_sum_limit``, so the ceiling genuinely
    dominates every truncation.  Raises ExponentTooSmallError unless
    q > p + 1/2, so also for a NaN q, and NonFiniteResultError where the
    ceiling overflows a double, as it does for q just above p + 1/2.
    """
    if not q > env.p + 0.5:
        raise ExponentTooSmallError(
            f"need q > p + 1/2 for the bound series; got q={q}, p={env.p}"
        )
    if env.C == 0.0:
        return 0.0
    bound = env.C * math.sqrt(gamma_weight_sum_limit(2.0 * (q - env.p)))
    if math.isinf(bound):
        raise NonFiniteResultError("the dual-norm bound overflows a double")
    return bound


class StrongConvergenceDiagnostic(NamedTuple):
    """Window-level evidence for the two strong-convergence conditions.

    ``pointwise_gaps[n]`` is the max over the probed subsets of the distance
    between the n-th sequence element and the limit; ``tail_gap`` is the last
    of these.  ``envelopes[p]`` is the minimal uniform envelope (over the
    whole sequence) fitted on the probed window at exponent p.  This is a
    diagnostic on the probed window only; it does not certify convergence
    outside it.
    """

    pointwise_gaps: Tuple[float, ...]
    tail_gap: float
    envelopes: Dict[float, GrowthEnvelope]


def check_strong_convergence(
    seq: Sequence[FockFunctional],
    limit: FockFunctional,
    probe: GammaCursor,
    p_grid: Sequence[float] = (0.0, 1.0, 2.0),
) -> StrongConvergenceDiagnostic:
    """Probe pointwise convergence and the uniform growth bound on a window.

    Condition one: per-subset coefficients approach the limit's (reported as
    per-element max gaps over the window).  Condition two: the sup over the
    sequence of each |coefficient| admits an envelope C * weight**p (reported
    as the fitted minimal C for each probed p).
    """
    if not seq:
        raise ValueError("need a nonempty sequence")
    probed = list(enumerate_gamma(probe))
    gaps = tuple(
        max((abs(phi.coefficient(s) - limit.coefficient(s)) for s in probed), default=0.0)
        for phi in seq
    )
    sup: Dict[SubsetIndex, float] = {}
    for phi in seq:
        for s in probed:
            v = abs(phi.coefficient(s))
            if v > sup.get(s, 0.0):
                sup[s] = v
    envelopes = {}
    for p in p_grid:
        c = max((v / lambda_weight(s) ** p for s, v in sup.items()), default=0.0)
        envelopes[float(p)] = GrowthEnvelope(C=c, p=float(p))
    return StrongConvergenceDiagnostic(
        pointwise_gaps=gaps, tail_gap=gaps[-1], envelopes=envelopes
    )
