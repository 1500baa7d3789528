"""Shift and truncation operators on coefficient functionals.

All four operators act purely on the coefficient map and return fresh
values, so they compose freely:

* ``annihilate(phi, k)``   coefficient at sigma becomes phi(sigma | {k}) when
                           k is absent from sigma, else 0.
* ``create(phi, k)``       coefficient at sigma becomes phi(sigma \\ {k}) when
                           k is a member of sigma, else 0.
* ``cond_expect(phi, k)``  keeps exactly the terms whose support set has
                           maximum <= k; the empty set is always kept.
* ``expect(phi)``          cond_expect at level -1: just the constant term.

Composing create after annihilate at the same site keeps the terms containing
that site; the opposite order keeps the terms missing it.  Their sum is the
identity (the equal-time anti-commutation relation), which ``verify_car``
checks.  ``verify_car`` and ``verify_commutation`` compare the two sides of
an identity term by term and take the level-0 dual norm of their difference
only where the terms differ (``functional._residual``).

``verify_norm_bounds`` is a one-site, one-level call of a grid form over
sites and dual levels that yields one ``NormBoundReport`` per (site, level)
pair.  phi's norm table is built once per call, the three images at a site
and their tables once per site, and phi's own norm once per level; each
pair then costs only the images' norm steps.

``parse_pipeline`` reads a pipeline into (operator, site) steps, the
operators being the functions above, which ``apply_pipeline`` calls in turn.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import BadTagError, CapExceededError, NegativeIndexError
from .functional import FockFunctional, _norm_step, _norm_table, _residual, linear_combine
from .gamma import _MAX_SITE


def annihilate(phi: FockFunctional, k: int) -> FockFunctional:
    """Remove site ``k``: terms containing k shift to their k-less subset."""
    if k < 0:
        raise NegativeIndexError(f"site index must be >= 0, got {k}")
    bit = 1 << k
    return FockFunctional._of_masks({m ^ bit: c for m, c in phi._terms.items() if m & bit})


def create(phi: FockFunctional, k: int) -> FockFunctional:
    """Insert site ``k``: terms missing k shift to their k-extended subset."""
    if k < 0:
        raise NegativeIndexError(f"site index must be >= 0, got {k}")
    bit = 1 << k
    return FockFunctional._of_masks(
        {m | bit: c for m, c in phi._terms.items() if not m & bit}
    )


def cond_expect(phi: FockFunctional, k: int) -> FockFunctional:
    """Truncate to the terms measurable at level ``k`` (max of support <= k).

    ``k = -1`` keeps only the constant term, matching ``expect``; the empty
    set (max taken as -1) survives every level.  On masks this keeps exactly
    those below 2**(k+1).
    """
    if k < -1:
        raise ValueError(f"conditioning level must be >= -1, got {k}")
    limit = 1 << (k + 1)
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m < limit})


def expect(phi: FockFunctional) -> FockFunctional:
    """Keep only the constant term (the mean part)."""
    return cond_expect(phi, -1)


def verify_car(phi: FockFunctional, k: int) -> float:
    """Gap of create∘annihilate + annihilate∘create = id at site k.

    Both sides hold the same terms for every functional, so the gap is 0.0;
    where they differ it is the level-0 dual norm of their difference, which
    the car suite scores as it is, at tolerance 0.0.
    """
    recombined = linear_combine(
        1.0, create(annihilate(phi, k), k), 1.0, annihilate(create(phi, k), k)
    )
    return _residual(recombined, phi)


class NormBoundReport(NamedTuple):
    """Measured operator-norm ratios at one site and dual level.

    Each ratio is ||op(phi)|| / ||phi|| in the level-p dual norm (0 when phi
    is zero), with its ceiling: (1+k)**p for annihilation, (1+k)**-p for
    creation, and 1 for conditional expectation.
    """

    annihilate_ratio: float
    annihilate_bound: float
    create_ratio: float
    create_bound: float
    cond_expect_ratio: float


def verify_norm_bounds(phi: FockFunctional, k: int, p: float) -> NormBoundReport:
    """Measure the three dual-norm ratios at site ``k`` and level ``p``.

    The report gives each ratio with its ceiling and no verdict; the bounds
    suite scores each ratio's relative excess.  Basis witnesses make the first
    two ceilings tight: {k} for annihilation, the constant for creation.
    """
    return next(_norm_bounds(phi, (k,), (p,)))


def _norm_bounds(
    phi: FockFunctional, sites: Iterable[int], levels: Sequence[float]
) -> Iterator[NormBoundReport]:
    # ``verify_norm_bounds`` at each site, and at each level within a site.
    # phi's norm at a level and the images at a site are built on first use,
    # in the order of the single-level call, so each is built once and an
    # error raises at the same site, level and step.
    table = _norm_table(phi)
    bases: list[tuple[float, int]] = []
    for k in sites:
        images = None
        for i, p in enumerate(levels):
            if i == len(bases):
                bases.append(_norm_step(phi, table, -p))
            if images is None:
                images = [(f, _norm_table(f)) for f in
                          (annihilate(phi, k), create(phi, k), cond_expect(phi, k))]
            # An image's terms are some of phi's, so phi is nonzero where it is.
            base_mant, base_exp2 = bases[i]
            ratios = [0.0, 0.0, 0.0]
            for j, (image, image_table) in enumerate(images):
                if image:
                    mant, exp2 = _norm_step(image, image_table, -p)
                    ratios[j] = math.ldexp(mant / base_mant, exp2 - base_exp2)
            yield NormBoundReport(ratios[0], (1.0 + k) ** p, ratios[1], (1.0 + k) ** (-p), ratios[2])


def verify_commutation(phi: FockFunctional, k: int) -> tuple[float, float]:
    """Gaps of the two conditioning/shift exchange identities, as ``verify_car``'s.

    First: conditioning at k commutes with creation at k.  Second:
    conditioning at k after annihilation at k equals conditioning at k-1
    (level -1 meaning the plain mean).  Both sides of each hold the same terms,
    so the commutation suite scores the raw gaps at tolerance 0.0.
    """
    gap1 = _residual(cond_expect(create(phi, k), k), create(cond_expect(phi, k), k))
    gradient = annihilate(phi, k)
    return gap1, _residual(cond_expect(gradient, k), cond_expect(gradient, k - 1))


#: Pipeline step kind -> (operator, lowest site); ``expect`` takes no site.
_STEP_KINDS = {"annihilate": (annihilate, 0), "create": (create, 0), "condexp": (cond_expect, -1)}


def parse_pipeline(
    text: str,
) -> List[Tuple[Callable[[FockFunctional, int], FockFunctional], int]]:
    """Parse a comma-separated pipeline like ``annihilate:2,create:2,expect``.

    Returns (operator, site) pairs to apply left to right: annihilate:k is
    ``(annihilate, k)``, create:k ``(create, k)``, condexp:k ``(cond_expect, k)``
    with k >= -1 (-1 being the plain mean), and expect ``(cond_expect, -1)``.
    A site is ASCII ``-?[0-9]+``.  Raises BadTagError on an unknown kind, named
    first, or a malformed tag, NegativeIndexError on negative shift sites and
    CapExceededError on sites past the site cap.
    """
    steps = []
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            raise BadTagError("empty pipeline step")
        name, sep, arg = part.partition(":")
        if name == "expect":
            if sep:
                raise BadTagError("expect takes no site argument")
            steps.append((cond_expect, -1))
            continue
        if name not in _STEP_KINDS:
            raise BadTagError(f"unknown operator kind {name!r}")
        operator, lowest = _STEP_KINDS[name]
        if not sep:
            raise BadTagError(f"operator {name!r} needs a site, e.g. {name}:0")
        try:
            if not re.fullmatch(r"-?[0-9]+", arg):
                raise ValueError(arg)
            site = int(arg)
        except ValueError:
            raise BadTagError(f"bad site {arg!r} in {part!r}") from None
        if site > _MAX_SITE:
            raise CapExceededError(f"{name}: site {site} exceeds the site cap {_MAX_SITE}")
        if site < lowest:
            if name == "condexp":
                raise BadTagError(f"condexp level must be >= -1, got {site}")
            raise NegativeIndexError(f"{name} needs a site >= 0, got {site}")
        steps.append((operator, site))
    return steps


def apply_pipeline(phi: FockFunctional, pipeline: str) -> FockFunctional:
    """Apply a parsed pipeline left to right."""
    out = phi
    for operator, site in parse_pipeline(pipeline):
        out = operator(out, site)
    return out
