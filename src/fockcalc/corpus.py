"""Seeded random functional generation for the verification suites.

Supports are uniform random subsets of {0..support_max} (drawn as distinct
bit-masks), coefficients have independent real and imaginary parts uniform
in [-1, 1].  Everything is a pure function of the seed via a PCG64 stream,
so suites and tests replay bit-identically.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .functional import FockFunctional

#: Largest ``support_max``: masks are drawn below 2**(support_max + 1) as int64.
SUPPORT_MAX_LIMIT = 61


def random_functional(
    rng: np.random.Generator, support_max: int = 10, max_terms: int = 24
) -> FockFunctional:
    """Draw one random functional from an existing generator stream."""
    n_terms = int(rng.integers(1, max_terms + 1))
    population = 1 << (support_max + 1)
    n_terms = min(n_terms, population)
    masks = rng.choice(population, size=n_terms, replace=False).tolist()
    coefs = rng.uniform(-1.0, 1.0, size=(n_terms, 2)).tolist()
    # The masks are distinct, so they key the coefficient map directly.
    return FockFunctional._of_masks(
        {m: z for m, (re, im) in zip(masks, coefs) if (z := complex(re, im))}
    )


def random_functionals(
    count: int, seed: int, support_max: int = 10, max_terms: int = 24
) -> List[FockFunctional]:
    """Draw ``count`` independent random functionals from a fresh seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [random_functional(rng, support_max, max_terms) for _ in range(count)]
