"""The mask-keyed coefficient core against references written on ``SubsetIndex``.

``FockFunctional`` stores its terms keyed by bit-masks and the operators,
norms and pairings work on those integers.  The references here rebuild each
result term by term from the boundary type's element tuples (a site added
to or dropped from ``elements``, ``max_element``, ``lambda_weight``) and
``math.fsum``, and must agree exactly.
"""

import math

from hypothesis import given, settings, strategies as st

from fockcalc import (
    SubsetIndex,
    annihilate,
    co_term,
    cond_expect,
    create,
    inner_dual,
    lambda_weight,
    make_functional,
    norm_dual,
    norm_p,
)
from fockcalc.gamma import WEIGHT_CACHE_SIZE, mask_weight

TOP_SITE = 2000
LEVELS = (0.0, 0.5, 1.0, 2.0)

# Magnitudes below 1e-100 are left out: their squares can underflow, and the
# norms then take their rescaled path, which the references do not model.
parts = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-100
)
coefficients = st.builds(complex, parts, parts)
subsets = st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, TOP_SITE), max_size=4))
functionals = st.dictionaries(subsets, coefficients, max_size=6).map(
    lambda d: make_functional((SubsetIndex(s), c) for s, c in d.items())
)


def ref_annihilate(phi, k):
    return make_functional(
        (SubsetIndex(e for e in s if e != k), c) for s, c in phi.items() if k in s
    )


def ref_create(phi, k):
    return make_functional(
        (SubsetIndex(s.elements + (k,)), c) for s, c in phi.items() if k not in s
    )


def ref_cond_expect(phi, k):
    return make_functional((s, c) for s, c in phi.items() if s.max_element <= k)


def ref_co_term(phi, k):
    return make_functional((s, c) for s, c in phi.items() if s.max_element == k)


def ref_norm(phi, exponent):
    return math.sqrt(
        math.fsum(lambda_weight(s) ** (2.0 * exponent) * abs(c) ** 2 for s, c in phi.items())
    )


def ref_inner_dual(phi, psi, p):
    parts = [
        lambda_weight(s) ** (-2.0 * p) * c * psi.coefficient(s).conjugate()
        for s, c in phi.items()
        if psi.coefficient(s)
    ]
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


@settings(max_examples=60, deadline=None)
@given(functionals, functionals, st.integers(0, TOP_SITE + 100), st.sampled_from(LEVELS))
def test_mask_core_matches_subset_reference(phi, psi, drawn, p):
    support = phi.support()
    assert [s.mask for s in support] == sorted(s.mask for s in support)
    assert phi.sites() == sorted({k for s in support for k in s.elements})
    assert phi.support_max == max((s.max_element for s in support), default=-1)

    # Every occupied site, a site past the support, site 0 and a drawn one.
    for k in set(phi.sites()) | {0, phi.support_max + 1, drawn}:
        assert annihilate(phi, k) == ref_annihilate(phi, k)
        assert create(phi, k) == ref_create(phi, k)
        assert cond_expect(phi, k) == ref_cond_expect(phi, k)
        assert co_term(phi, k) == ref_co_term(phi, k)
    assert cond_expect(phi, -1) == ref_cond_expect(phi, -1)

    assert norm_p(phi, p) == ref_norm(phi, p)
    assert norm_dual(phi, p) == ref_norm(phi, -p)
    assert inner_dual(phi, psi, p) == ref_inner_dual(phi, psi, p)


def test_mask_weight_matches_subset_weight():
    for elements in ([], [0], [1, 3], [0, 5, 9, 40], range(30), [TOP_SITE]):
        sigma = SubsetIndex(elements)
        w = 1.0
        for k in sigma:
            w *= float(k + 1)
        assert mask_weight(sigma.mask) == lambda_weight(sigma) == w
    assert mask_weight.cache_info().maxsize == WEIGHT_CACHE_SIZE
