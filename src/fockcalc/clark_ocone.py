"""Clark-Ocone decomposition of coefficient functionals.

A functional splits into its mean part plus one term per site k, where the
k-th term holds exactly the coefficients whose support set peaks at k.  Two
equivalent pipelines produce that term:

* truncate-after-recombine:  cond_expect(create(annihilate(phi, k), k), k)
* integrate-the-predictable: create(cond_expect(annihilate(phi, k), k - 1), k)

Both are pure coefficient selections, so for finitely supported functionals
the series terminates exactly at the largest support index and the identity
holds with zero residual.  ``decompose`` reports the partial-sum residuals
across a grid of dual levels, each row's levels read from one norm table;
``reconstruct_check`` compares the stochastic integral form and the two
pipelines term by term, taking a norm only where terms differ, its integrand
route read from the predictable sequence it integrates.
``verify_convergence_window`` walks the partial sums once, scoring a mask's
excess only when a site term changes it.  A clark trial builds each site term
once, in ``decompose``: the two checks' private bodies read those terms.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import PredictabilityViolatedError
from .functional import (
    ZERO, FockFunctional, _norm_table, _residual, _weighted_norm, linear_combine, sum_functionals
)
from .operators import annihilate, cond_expect, create, expect

DEFAULT_Q_PROBE = (0.0, 1.0, 2.0)


def _centered(phi: FockFunctional) -> FockFunctional:
    return linear_combine(1.0, phi, -1.0, expect(phi))


def co_term(phi: FockFunctional, k: int) -> FockFunctional:
    """The site-k summand: the terms of phi whose support set has max == k."""
    return cond_expect(create(annihilate(phi, k), k), k)


def partial_sum(phi: FockFunctional, n: int) -> FockFunctional:
    """Sum of the site terms up to n: the nonempty terms with max <= n."""
    if n < 0:
        raise ValueError(f"partial-sum level must be >= 0, got {n}")
    return sum_functionals(co_term(phi, k) for k in phi.sites() if k <= n)


class ResidualTable(Mapping):
    """Read-only map (n, q) -> residual for 0 <= n <= top, stored as runs.

    A partial-sum residual changes only where a site term is peeled off, so
    one row of values (one per level q) is stored at n = 0 and one at each
    later site that carries a term; the row at n is the last stored row at or
    before n, found by bisection.  Keys, their ascending (n, q) order, ``len``
    and values are those of the dense dict with one entry per (n, q), and the
    table compares equal to that dict.
    """

    def __init__(self, sites: List[int], rows: List[Tuple[float, ...]],
                 levels: Tuple[float, ...], top: int):
        self._sites = sites
        self._rows = rows
        self._columns = {q: j for j, q in enumerate(levels)}
        self._range = range(top + 1)
        #: The dual levels q of every row, ascending and without repeats.
        self.levels = levels

    def __getitem__(self, key: Tuple[int, float]) -> float:
        if isinstance(key, tuple) and len(key) == 2:
            n, q = key
            column = self._columns.get(q)
            if column is not None and n in self._range:
                return self._rows[bisect_right(self._sites, n) - 1][column]
        raise KeyError(key)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return ((n, q) for n in self._range for q in self.levels)

    def __len__(self) -> int:
        return len(self._range) * len(self.levels)

    def runs(self) -> Iterator[Tuple[range, Tuple[float, ...]]]:
        """(range of n, row) pairs in ascending n: the row holds at every n of its range."""
        stops = self._sites[1:] + [self._range.stop]
        return ((range(a, b), row) for a, b, row in zip(self._sites, stops, self._rows))


class DecompositionReport(NamedTuple):
    """Mean part, per-site terms, and partial-sum residuals of a functional.

    ``termination_index`` is the largest support index (-1 when only the
    constant term is present: the term map is then empty, no fictitious
    zero term is emitted).  ``residual_norms[(n, q)]`` is the level-q dual
    norm of (phi - mean - partial_sum(phi, n)) for 0 <= n <= termination;
    its keys run in ascending (n, q) order.  It stores one row at n = 0 and
    one at each site in ``terms``, which every n up to the next such site
    shares (see ``ResidualTable``).
    """

    mean: FockFunctional
    terms: Dict[int, FockFunctional]
    termination_index: int
    residual_norms: ResidualTable

    def reconstruction(self) -> FockFunctional:
        """mean + sum of the per-site terms, in ascending site order."""
        pieces = [self.mean]
        pieces.extend(self.terms[k] for k in sorted(self.terms))
        return sum_functionals(pieces)


def decompose(
    phi: FockFunctional, q_probe: Sequence[float] = DEFAULT_Q_PROBE
) -> DecompositionReport:
    """Full decomposition with residual diagnostics on a dual-level grid.

    The residual table covers every level n from 0 to the termination index;
    at the termination index it is exactly zero because the per-site terms
    are verbatim coefficient selections from phi.  Only n = 0 and the sites
    with a term are computed; a level without a term shares the previous
    level's row.  The levels are ``sorted(q_probe)`` keyed by ``float(q)``;
    equal levels (a repeat, 1 and 1.0, -0.0 and 0.0) share one column,
    keyed by the first of them.
    """
    mean = expect(phi)
    termination = phi.support_max
    terms = {k: t for k in phi.sites() if (t := co_term(phi, k))}
    probe = {float(q): q for q in sorted(q_probe)}
    # Per-site terms have pairwise disjoint supports, so peeling them off the
    # centered remainder one at a time reproduces each partial-sum residual
    # exactly.
    remainder = linear_combine(1.0, phi, -1.0, mean)
    sites = [0] + [k for k in terms if k > 0] if termination >= 0 else []
    rows = []
    for n in sites:
        if n in terms:
            remainder = linear_combine(1.0, remainder, -1.0, terms[n])
        table = _norm_table(remainder)
        rows.append(tuple(_weighted_norm(remainder, table, -q) for q in probe.values()))
    return DecompositionReport(
        mean=mean,
        terms=terms,
        termination_index=termination,
        residual_norms=ResidualTable(sites, rows, tuple(probe), termination),
    )


class PredictableSequence(
    NamedTuple("PredictableSequence", [("terms", Dict[int, FockFunctional])])
):
    """Per-site functionals u_k measurable strictly before their site.

    Invariant: every support set of u_k has max <= k - 1, i.e. u_k survives
    cond_expect(. , k - 1) unchanged.  Zero entries are not stored, and
    ``len`` counts the stored entries.
    """

    __slots__ = ()
    # ``_replace`` runs the checks too, and skips namedtuple's length check,
    # which would read the entry count below.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, terms: Dict[int, FockFunctional]):
        for k, u in terms.items():
            if k < 0:
                raise ValueError(f"site index must be >= 0, got {k}")
            _require_predictable(k, u)
        return super().__new__(cls, terms)

    def __len__(self) -> int:
        return len(self.terms)


def _require_predictable(k: int, u: FockFunctional) -> None:
    if cond_expect(u, k - 1) != u:
        raise PredictabilityViolatedError(f"entry at site {k} is not measurable before level {k}")


def predictable_sequence(phi: FockFunctional) -> PredictableSequence:
    """The canonical predictable integrand: u_k = E_{k-1}[annihilate(phi, k)].

    Only the occupied sites can contribute; zero entries are dropped.
    """
    return PredictableSequence(
        {k: u for k in phi.sites() if (u := cond_expect(annihilate(phi, k), k - 1))}
    )


def integrate(u: PredictableSequence) -> FockFunctional:
    """Stochastic integral of a predictable sequence: sum of create(u_k, k).

    The constructor and ``_replace`` enforce predictability; it is re-checked
    here so an entry changed in ``terms`` after construction fails loudly.
    """
    for k, uk in u.terms.items():
        _require_predictable(k, uk)
    return sum_functionals(create(u.terms[k], k) for k in sorted(u.terms))


def verify_convergence_window(phi: FockFunctional) -> Tuple[float, float]:
    """Measure the two strong-convergence conditions for the partial sums.

    Returns (pointwise_gap, envelope_excess): the terminal partial sum's
    largest coefficient distance from the centered functional, and the worst
    excess of any partial-sum coefficient magnitude over the corresponding
    source magnitude (0 when the uniform envelope holds).

    Both are scored on phi's support together with every mask the running
    sum holds, which covers the whole lattice: off those masks the centered
    functional and every partial sum vanish.  A site term that holds a mask
    outside phi's support is scored there.
    """
    return _window(phi, {n: co_term(phi, n) for n in phi.sites()})


def _window(phi: FockFunctional, terms: Dict[int, FockFunctional]) -> Tuple[float, float]:
    # ``verify_convergence_window`` from phi's site terms, keyed by ascending site.
    centered = _centered(phi)._terms
    source = phi._terms
    excess = 0.0
    # The running partial sum: a coefficient changes only where a site term
    # holds its mask, so each mask's excess is scored there.
    running: Dict[int, complex] = {}
    for term in terms.values():
        for m, c in term._terms.items():
            running[m] = value = running.get(m, 0j) + c
            excess = max(excess, abs(value) - abs(source.get(m, 0j)))
    probes = source.keys() | running.keys()
    gap = max((abs(running.get(m, 0j) - centered.get(m, 0j)) for m in probes), default=0.0)
    return gap, excess


def reconstruct_check(phi: FockFunctional) -> float:
    """Max gap over both decomposition routes.

    Compares (a) phi minus its mean with the integral of its predictable
    sequence, and (b) per site the truncate-after-recombine and
    integrate-the-predictable pipelines.  Each pair holds the same terms, so
    each gap is 0.0; where terms differ it is the level-0 dual norm of the
    difference (``functional._residual``).  Returns the larger of the two.
    """
    return _reconstruct_gap(phi, {k: co_term(phi, k) for k in phi.sites()})


def _reconstruct_gap(phi: FockFunctional, terms: Dict[int, FockFunctional]) -> float:
    # ``reconstruct_check`` given phi's site terms; the predictable route is built here.
    u = predictable_sequence(phi)
    residual = _residual(_centered(phi), integrate(u))
    form_gap = 0.0
    for k in phi.sites():
        # u_k is cond_expect(annihilate(phi, k), k - 1); a zero term or u_k is not stored.
        form_gap = max(form_gap, _residual(terms.get(k, ZERO), create(u.terms.get(k, ZERO), k)))
    return max(residual, form_gap)
