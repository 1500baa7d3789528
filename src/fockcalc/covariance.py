"""Centered dual-chain covariance and its per-site decomposition.

The level-p covariance of two functionals is the dual pairing of their
centered parts (mean term removed).  Because the per-site decomposition
terms of distinct sites have disjoint supports, the covariance also equals
the sum over sites of the pairings of matching terms; ``cov_identity``
measures both routes and their gap.  The variance is bounded above by the
un-truncated recombination norms, with equality exactly when every nonempty
support set is a singleton.

``cov_identity`` and ``var_bound`` are one-level calls of grid forms that
take a sequence of dual levels.  The work that does not depend on the level
(the centered functionals, the shared-site terms, the recombined images and
their norm tables) runs once per call; each level costs only its norm steps
and pairings.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from .clark_ocone import _centered, co_term
from .errors import NonFiniteResultError
from .functional import FockFunctional, _complex_sum, _norm_table, _weighted_norm, inner_dual
from .operators import annihilate, create


def cov_p(phi: FockFunctional, psi: FockFunctional, p: float) -> complex:
    """Level-p covariance: dual pairing of the centered functionals.

    Follows the dual-pairing orientation (first argument plain, second
    conjugated), so cov_p(phi, psi, p) == conj(cov_p(psi, phi, p)).  Raises
    NonFiniteResultError where a pairing term or their sum overflows a double.
    """
    return inner_dual(_centered(phi), _centered(psi), p)


def var_p(phi: FockFunctional, p: float) -> float:
    """Level-p variance: squared dual norm of the centered functional.

    Raises NonFiniteResultError where the norm or its square overflows a double.
    """
    centered = _centered(phi)
    return _variance(centered, _norm_table(centered), p)


def _variance(centered: FockFunctional, table: Optional[list], p: float) -> float:
    try:
        return _weighted_norm(centered, table, -p) ** 2
    except OverflowError:
        raise NonFiniteResultError("the variance overflows a double") from None


class SiteTable(Mapping):
    """Read-only map site -> complex over 0..top that stores only some sites.

    ``stored`` maps the sites that were computed to their values, in
    ascending site order; every other site in 0..top answers 0j.  Keys, their
    order, ``len`` and values are those of the dense dict over 0..top, and
    the table compares equal to that dict.
    """

    def __init__(self, top: int, stored: Dict[int, complex]):
        self._range = range(top + 1)
        self.stored = stored

    def __getitem__(self, k: int) -> complex:
        if k in self._range:
            return self.stored.get(k, 0j)
        raise KeyError(k)

    def __iter__(self) -> Iterator[int]:
        return iter(self._range)

    def __len__(self) -> int:
        return len(self._range)


@dataclass(frozen=True)
class CovarianceReport:
    """Direct covariance, its per-site series form, and the measured gap.

    ``per_site`` maps every site 0..top to its pairing and stores only the
    sites both supports share (see ``SiteTable``).
    """

    lhs: complex
    rhs: complex
    per_site: SiteTable
    gap: float


def cov_identity(phi: FockFunctional, psi: FockFunctional, p: float) -> CovarianceReport:
    """Evaluate the covariance both directly and as the per-site series.

    ``per_site`` covers every site up to the larger support maximum; the
    entries pair matching decomposition terms.  Only the sites both supports
    share are computed and stored: at any other site one of the two terms is
    empty, so the entry is 0j.  The gap vanishes in exact arithmetic for
    finitely supported inputs.  The per-site entries are summed in site
    order, through the scaled sum of ``functional`` where that sum leaves the
    double range.  Raises NonFiniteResultError where either route's value or
    a per-site pairing lies beyond the double range; where only a pairing
    does, the error's ``site`` names the first such site.
    """
    return next(_cov_identities(phi, psi, (p,)))


def _cov_identities(
    phi: FockFunctional, psi: FockFunctional, levels: Iterable[float]
) -> Iterator[CovarianceReport]:
    # ``cov_identity`` at each level in turn.  The centered pair and the
    # shared-site terms are built once, before the first level; building them
    # cannot raise, so an error raises at the level and step of the
    # single-level call.
    centered = _centered(phi), _centered(psi)
    top = max(phi.support_max, psi.support_max)
    terms = [
        (k, co_term(phi, k), co_term(psi, k))
        for k in sorted(set(phi.sites()).intersection(psi.sites()))
    ]
    for p in levels:
        direct = inner_dual(*centered, p)
        shared: Dict[int, complex] = {}
        for k, a, b in terms:
            try:
                shared[k] = inner_dual(a, b, p)
            except NonFiniteResultError as exc:
                # The covariance fits; the error names the site that does not.
                exc.site = k
                raise
        total = _complex_sum(list(shared.values()))
        yield CovarianceReport(
            lhs=direct, rhs=total, per_site=SiteTable(top, shared), gap=abs(direct - total)
        )


def var_bound(phi: FockFunctional, p: float) -> tuple[float, float]:
    """Variance versus its per-site recombination ceiling.

    Returns (variance, sum over sites of the squared dual norms of
    create(annihilate(phi, k), k)).  The ceiling counts each support set once
    per member while the variance counts it once, so the bound is strict as
    soon as some support set has two or more elements.  The ceiling is
    summed under the range rule of ``functional``; raises NonFiniteResultError
    where the variance or the ceiling lies beyond the double range.  A
    variance above its ceiling is returned as it is, for the caller to score.
    """
    return next(_var_bounds(phi, (p,)))


def _var_bounds(phi: FockFunctional, levels: Iterable[float]) -> Iterator[tuple[float, float]]:
    # ``var_bound`` at each level in turn; the centered functional and the
    # per-site images, and their norm tables, are built before the first level.
    centered = _centered(phi)
    table = _norm_table(centered)
    images = [(f, _norm_table(f)) for f in (create(annihilate(phi, k), k) for k in phi.sites())]
    for p in levels:
        lhs = _variance(centered, table, p)
        squares = [_weighted_norm(image, image_table, -p) ** 2 for image, image_table in images]
        yield lhs, _complex_sum(squares).real
