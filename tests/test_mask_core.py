"""The mask-keyed coefficient core against references written on ``SubsetIndex``.

``FockFunctional`` stores its terms keyed by bit-masks and the operators,
norms and pairings work on those integers.  The references here rebuild each
result term by term from the boundary type's element tuples (a site added
to or dropped from ``elements``, ``max_element``, ``lambda_weight``) and
``math.fsum``, and must agree exactly.  The seeded corpus, whose draws are
read as Python numbers, is pinned against the same draws read as numpy
scalars.
"""

import math

import numpy as np
import pytest
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
    random_functionals,
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


def test_sites_match_subset_reference():
    # Site 0, the highest bit a nonnegative int64 holds, and a mask past any machine word.
    wide = [make_functional([(SubsetIndex(s), 1.0)]) for s in ([0], [62], [1000], [0, 62, 1000])]
    wide.append(make_functional([(SubsetIndex([0, 1000]), 1.0), (SubsetIndex([62]), 2.0)]))
    for phi in random_functionals(200, seed=70, support_max=61, max_terms=8) + wide:
        union = 0
        for sigma in phi.support():
            union |= sigma.mask
        assert phi.sites() == list(SubsetIndex.from_mask(union).elements)
    assert wide[-1].sites() == [0, 62, 1000]


def _numpy_scalar_corpus(count, seed, support_max, max_terms):
    # The corpus as drawn before its draws were read with ``tolist``.
    rng = np.random.Generator(np.random.PCG64(seed))
    corpus = []
    for _ in range(count):
        n_terms = min(int(rng.integers(1, max_terms + 1)), 1 << (support_max + 1))
        masks = rng.choice(1 << (support_max + 1), size=n_terms, replace=False)
        coefs = rng.uniform(-1.0, 1.0, size=(n_terms, 2))
        corpus.append({int(m): z for m, c in zip(masks, coefs) if (z := complex(c[0], c[1]))})
    return corpus


@pytest.mark.parametrize("count, seed, support_max, max_terms", [
    (200, 0, 10, 24), (50, 7, 61, 5), (1, 3, 0, 1),
])
def test_corpus_equals_numpy_scalar_draws(count, seed, support_max, max_terms):
    got = random_functionals(count, seed, support_max, max_terms)
    want = _numpy_scalar_corpus(count, seed, support_max, max_terms)
    assert [list(phi._terms.items()) for phi in got] == [list(terms.items()) for terms in want]
    assert all(type(m) is int and type(c) is complex for phi in got for m, c in phi._terms.items())
