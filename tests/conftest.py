import sys

import numpy as np
import pytest
from hypothesis import settings

from fockcalc import random_functionals

ACCEPTANCE_SEED = 20260811

# Hypothesis's "ci" profile (loaded where the CI variable is set) replays the
# same examples on every run; this one draws new ones, still with no deadline,
# and prints the blob that replays a failure: pytest --hypothesis-profile=ci-explore
settings.register_profile("ci-explore", parent=settings.get_profile("ci"), derandomize=False)


@pytest.fixture(scope="session")
def corpus1000():
    """Shared acceptance corpus: 1000 functionals, support <= {0..12}, <= 24 terms."""
    return random_functionals(1000, ACCEPTANCE_SEED, support_max=12, max_terms=24)


@pytest.fixture(scope="session")
def bridge_corpus200():
    """Pathwise corpus: 200 functionals fitting inside horizon 8."""
    return random_functionals(200, ACCEPTANCE_SEED + 1, support_max=7, max_terms=24)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.PCG64(99))


@pytest.fixture()
def plant(monkeypatch):
    """plant(owner, name, replacement) swaps ``owner.name`` for ``replacement``
    in every fockcalc namespace that binds it, until the test ends."""

    def swap(owner, name, replacement):
        original = getattr(owner, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "fockcalc" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, replacement)

    return swap


@pytest.fixture(scope="session")
def within_norm_bounds():
    """within_norm_bounds(report) holds when each ratio of a NormBoundReport
    is at most its ceiling, with a relative slack of 1e-12 for float rounding."""

    def holds(rep):
        slack = 1.0 + 1e-12
        return (
            rep.annihilate_ratio <= rep.annihilate_bound * slack
            and rep.create_ratio <= rep.create_bound * slack
            and rep.cond_expect_ratio <= slack
        )

    return holds
