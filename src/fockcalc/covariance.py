"""Centered dual-chain covariance and its per-site decomposition.

The level-p covariance of two functionals is the dual pairing of their
centered parts (mean term removed).  Because the per-site decomposition
terms of distinct sites have disjoint supports, the covariance also equals
the sum over sites of the pairings of matching terms; ``cov_identity``
measures both routes and their gap.  The variance is bounded above by the
un-truncated recombination norms, with equality exactly when every nonempty
support set is a singleton.

``cov_identity`` and ``var_bound`` are one-level calls of grid forms over
dual levels that read a member's centered functional and site images
create(annihilate(phi, k), k), built once per call or once per covariance
trial for both.  Site terms and norm tables are built once too; each level
pairs only the site terms sharing a mask, as disjoint ones pair to 0j.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, NamedTuple, Optional

from .clark_ocone import _centered
from .errors import NonFiniteResultError
from .functional import FockFunctional, _complex_sum, _norm_table, _weighted_norm, inner_dual
from .operators import annihilate, cond_expect, create


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


class CovarianceReport(NamedTuple):
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
    shared = sorted(set(phi.sites()).intersection(psi.sites()))
    top = max(phi.support_max, psi.support_max)
    return next(_cov_identities(_parts(phi, shared), _parts(psi, shared), top, (p,)))


def _parts(phi: FockFunctional, sites: Iterable[int]) -> tuple:
    # phi's centered part and images at ``sites``; a loop is cheaper than a comprehension
    # on the empty site lists of ``cov_identity``.
    images = {}
    for k in sites:
        images[k] = create(annihilate(phi, k), k)
    return _centered(phi), images


def _cov_identities(
    phi_parts: tuple, psi_parts: tuple, top: int, levels: Iterable[float]
) -> Iterator[CovarianceReport]:
    # ``cov_identity`` at each level in turn.  Site k's term is cond_expect of
    # its image, as in ``co_term``; where two terms share no mask the entry is
    # inner_dual's 0j.  Terms are built before the first level and cannot
    # raise, so an error raises at the level and step of the single-level call.
    (phi_centered, phi_images), (psi_centered, psi_images) = phi_parts, psi_parts
    zeros, terms = {}, []
    for k in phi_images:
        if k in psi_images:
            zeros[k] = 0j
            a, b = cond_expect(phi_images[k], k), cond_expect(psi_images[k], k)
            if not a._terms.keys().isdisjoint(b._terms):
                terms.append((k, a, b))
    for p in levels:
        direct = inner_dual(phi_centered, psi_centered, p)
        shared = dict(zeros)
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
    return next(_var_bounds(_parts(phi, phi.sites()), (p,)))


def _var_bounds(parts: tuple, levels: Iterable[float]) -> Iterator[tuple[float, float]]:
    # ``var_bound`` at each level in turn, from phi's parts at its occupied
    # sites; the norm tables are built before the first level.
    centered, images = parts
    table = _norm_table(centered)
    images = [(f, _norm_table(f)) for f in images.values()]
    for p in levels:
        lhs = _variance(centered, table, p)
        squares = [_weighted_norm(image, image_table, -p) ** 2 for image, image_table in images]
        yield lhs, _complex_sum(squares).real
