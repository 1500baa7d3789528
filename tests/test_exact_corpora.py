"""Exact dyadic corpora: where every sum is exact, every identity is an equality.

Each coefficient part is m * 2**-j with |m| <= 255 and 0 <= j <= 6, so it is
an integer multiple of 2**-6 below 2**14 of those units, and a functional
holds at most 24 terms on horizons 1..12.  A path value is then a multiple
of 2**-6 below 24 * 2**14 < 2**19 units, and a sum over at most 2**12 paths
stays below 2**31 units.  Every group mean, overall mean and predictable
part divides such a sum by at most 2**12: a multiple of 2**-18 below 2**31
of those units, and the Clark–Ocone rebuild adds at most 12 of them to a
mean, below 2**35.  A p = 0 pairing term is a multiple of 2**-12 below
2**29 units, and a sum of 24 of them below 2**34.  All of these fit in 53
bits, so every sum the bridge sweep and the covariance identity form is
exact, and their gaps are 0.0, not merely within a tolerance.

The Plancherel gap is left out: ``np.abs`` goes through ``hypot`` and the
norm through ``sqrt``, so it reads about 1e-11 on these corpora.
"""

import warnings

from hypothesis import given, settings, strategies as st

from fockcalc import (
    SubsetIndex,
    build_space,
    check_intertwining,
    classical_clark_ocone_check,
    cov_identity,
    make_functional,
)

_PART = st.builds(lambda m, j: m * 2.0**-j, st.integers(-255, 255), st.integers(0, 6))


@st.composite
def exact_corpus(draw, size):
    """A horizon and ``size`` functionals of at most 24 dyadic terms on it."""
    n = draw(st.integers(1, 12))
    masks = st.lists(st.integers(0, (1 << n) - 1), max_size=24, unique=True)
    corpus = [
        make_functional(
            [(SubsetIndex.from_mask(m), complex(draw(_PART), draw(_PART))) for m in draw(masks)]
        )
        for _ in range(size)
    ]
    return n, corpus


@settings(max_examples=150, deadline=None)
@given(exact_corpus(1))
def test_pathwise_gaps_are_zero(drawn):
    n, (phi,) = drawn
    space = build_space(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classical_clark_ocone_check(phi, space) == 0.0
        for k in range(n):
            assert check_intertwining(phi, k, space) == (0.0, 0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(exact_corpus(4))
def test_covariance_identity_gap_is_zero_on_consecutive_pairs(drawn):
    _, corpus = drawn
    for phi, psi in zip(corpus, corpus[1:]):
        assert cov_identity(phi, psi, 0.0).gap == 0.0
