"""The Clark-Ocone checks against their former bodies.

``verify_convergence_window`` walks the partial sums once and
``reconstruct_check`` reads its integrand route from the predictable
sequence.  The bodies that rebuilt every partial sum and every integrand are
kept here as references: the checks must return exactly what they return, on
sound operators and under planted faults, and each fault must fail the clark
record.
"""

import random

import pytest

import fockcalc.clark_ocone as clark
import fockcalc.functional as functional
import fockcalc.operators as operators
from fockcalc import SubsetIndex, ZERO, make_functional, random_functionals
from fockcalc.clark_ocone import reconstruct_check, verify_convergence_window
from fockcalc.functional import FockFunctional
from fockcalc.suite import SuiteConfig, run_suite

# The references look their helpers up at call time, so a planted fault
# reaches them as it reaches the checks.


def _reference_convergence_window(phi):
    # Each partial sum is scored at every mask it holds; the terminal one at
    # those masks and at phi's.
    centered = functional.linear_combine(1.0, phi, -1.0, operators.expect(phi))
    source = phi._terms
    excess = 0.0
    running = ZERO
    for n in phi.sites():
        running = functional.linear_combine(1.0, running, 1.0, clark.co_term(phi, n))
        for m, c in running._terms.items():
            excess = max(excess, abs(c) - abs(source.get(m, 0j)))
    terminal = running._terms
    probes = set(source) | set(terminal)
    gap = max((abs(terminal.get(m, 0j) - centered._terms.get(m, 0j)) for m in probes), default=0.0)
    return gap, excess


def _reference_reconstruct_check(phi):
    combine, norm = functional.linear_combine, functional.norm_dual
    mean = operators.expect(phi)
    integral = clark.integrate(clark.predictable_sequence(phi))
    residual = norm(combine(1.0, combine(1.0, phi, -1.0, mean), -1.0, integral), 0.0)
    form_gap = 0.0
    for k in phi.sites():
        via_truncation = clark.co_term(phi, k)
        via_integrand = operators.create(
            operators.cond_expect(operators.annihilate(phi, k), k - 1), k
        )
        gap = norm(combine(1.0, via_truncation, -1.0, via_integrand), 0.0)
        if gap > form_gap:
            form_gap = gap
    return max(residual, form_gap)


def _sparse(count, seed, top=1000):
    # Up to six support sets of at most four sites each, drawn from 0..top.
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sets = {frozenset(rng.sample(range(top + 1), rng.randint(0, 4)))
                for _ in range(rng.randint(1, 6))}
        out.append(make_functional(
            (SubsetIndex(s), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for s in sets
        ))
    return out


INPUTS = (
    random_functionals(40, seed=71, support_max=10)
    + _sparse(40, seed=72)
    + [ZERO, make_functional([(SubsetIndex([]), 2.5 - 1j)])]
)


def _doubling_one(original):
    def co_term(phi, k):
        # co_term with its first coefficient doubled.
        terms = dict(original(phi, k)._terms)
        if terms:
            terms[next(iter(terms))] *= 2
        return FockFunctional._of_masks(terms)

    return co_term


def _moving_one(original):
    def co_term(phi, k):
        # co_term with its first term moved to the next site.
        terms = dict(original(phi, k)._terms)
        if terms:
            m = next(iter(terms))
            terms[m | 2 << k] = terms.pop(m)
        return FockFunctional._of_masks(terms)

    return co_term


def _adding_one(original):
    def co_term(phi, k):
        # co_term with the set {3}, outside every site-2 term, added to site 2's.
        terms = dict(original(phi, k)._terms)
        if k == 2:
            terms[1 << 3] = 0.5
        return FockFunctional._of_masks(terms)

    return co_term


def _one_level_late(phi, k):
    # cond_expect that keeps one level more than asked.
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m < 1 << (k + 2)})


def _check_both(inputs):
    for phi in inputs:
        assert verify_convergence_window(phi) == _reference_convergence_window(phi), phi
        assert reconstruct_check(phi) == _reference_reconstruct_check(phi), phi


def test_checks_match_their_references():
    _check_both(INPUTS)


class TestPlantedFaults:
    @pytest.fixture(params=["doubling", "moving", "adding", "late"])
    def fault(self, request, plant):
        owner, name, replacement = {
            "doubling": (clark, "co_term", _doubling_one(clark.co_term)),
            "moving": (clark, "co_term", _moving_one(clark.co_term)),
            "adding": (clark, "co_term", _adding_one(clark.co_term)),
            "late": (operators, "cond_expect", _one_level_late),
        }[request.param]
        plant(owner, name, replacement)

    def test_checks_match_their_references(self, fault):
        _check_both(INPUTS)

    def test_clark_record_fails(self, fault):
        report = run_suite(SuiteConfig(suite="clark", trials=40))
        assert [(c["check"], c["pass"]) for c in report["checks"]] == [("clark", False)]


def test_window_sees_a_term_at_a_new_mask(plant):
    # Site 2's term gains {3}, a mask outside phi's support: the terminal
    # partial sum is off by the added coefficient there.
    phi = make_functional([(SubsetIndex([0]), 1.0), (SubsetIndex([1, 2]), 2.0)])
    assert verify_convergence_window(phi) == (0.0, 0.0)
    plant(clark, "co_term", _adding_one(clark.co_term))
    assert verify_convergence_window(phi) == (0.5, 0.5)
