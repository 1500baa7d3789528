"""The operator-relation checks against their former bodies.

``verify_car`` and ``verify_commutation`` compare the two sides of each
identity term by term and take a norm only where the terms differ
(``functional._residual``).  The bodies that always built the difference and
took its norm are kept here as references: the checks must return exactly
what they return, on sound operators and under planted faults.
"""

import json
import math

import pytest

import fockcalc.cli
import fockcalc.functional as functional
import fockcalc.operators as operators
from fockcalc import SubsetIndex, ZERO, make_functional, random_functionals
from fockcalc.functional import FockFunctional
from fockcalc.operators import verify_car, verify_commutation
from fockcalc.suite import SuiteConfig, run_suite

# The references look their helpers up at call time, so a planted fault
# reaches them as it reaches the checks.


def _reference_car(phi, k):
    combine = functional.linear_combine
    recombined = combine(
        1.0,
        operators.create(operators.annihilate(phi, k), k),
        1.0,
        operators.annihilate(operators.create(phi, k), k),
    )
    return functional.norm_dual(combine(1.0, recombined, -1.0, phi), 0.0)


def _reference_commutation(phi, k):
    combine, norm = functional.linear_combine, functional.norm_dual
    create, cond_expect, annihilate = operators.create, operators.cond_expect, operators.annihilate
    lhs1 = cond_expect(create(phi, k), k)
    rhs1 = create(cond_expect(phi, k), k)
    lhs2 = cond_expect(annihilate(phi, k), k)
    rhs2 = cond_expect(annihilate(phi, k), k - 1)
    return norm(combine(1.0, lhs1, -1.0, rhs1), 0.0), norm(combine(1.0, lhs2, -1.0, rhs2), 0.0)


INPUTS = random_functionals(40, seed=81, support_max=8) + [
    ZERO,
    make_functional([(SubsetIndex([]), 2.5 - 1j)]),
    make_functional([(SubsetIndex([0, 3]), 1e-300), (SubsetIndex([3]), -1e300j)]),
]
SITES = range(10)


def _nudging(original):
    def create(phi, k):
        # create with its first coefficient moved up by one ulp.
        terms = dict(original(phi, k)._terms)
        if terms:
            m = next(iter(terms))
            terms[m] = complex(math.nextafter(terms[m].real, math.inf), terms[m].imag)
        return FockFunctional._of_masks(terms)

    return create


def _one_level_late(phi, k):
    # cond_expect that keeps one level more than asked.
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m < 1 << (k + 2)})


def _keeps_bit(phi, k):
    # annihilate that keeps the site in each set it selects.
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m >> k & 1})


FAULTS = {
    "nudging": (operators, "create", _nudging(operators.create)),
    "late": (operators, "cond_expect", _one_level_late),
    "keeps_bit": (operators, "annihilate", _keeps_bit),
}


def _gaps(inputs):
    # Each check and its reference at every input and site, and whether any gap is nonzero.
    nonzero = False
    for phi in inputs:
        for k in SITES:
            car, commutation = verify_car(phi, k), verify_commutation(phi, k)
            assert car == _reference_car(phi, k), (phi, k)
            assert commutation == _reference_commutation(phi, k), (phi, k)
            nonzero = nonzero or car > 0.0 or max(commutation) > 0.0
    return nonzero


def test_checks_match_their_references():
    assert not _gaps(INPUTS)


class TestPlantedFaults:
    @pytest.fixture(params=sorted(FAULTS))
    def fault(self, request, plant):
        plant(*FAULTS[request.param])

    def test_checks_match_their_references(self, fault):
        assert _gaps(INPUTS)


def test_a_one_ulp_move_reads_a_nonzero_gap(plant):
    plant(*FAULTS["nudging"])
    phi = make_functional([(SubsetIndex([]), 1.0), (SubsetIndex([1]), 0.75)])
    assert verify_car(phi, 0) == _reference_car(phi, 0) == math.ulp(1.0)


@pytest.mark.parametrize(
    "fault, suite",
    [("late", "commutation"), ("keeps_bit", "car"),
     ("nudging", "car"), ("nudging", "commutation"), ("nudging", "clark")],
)
def test_records_fail(plant, fault, suite):
    plant(*FAULTS[fault])
    report = run_suite(SuiteConfig(suite=suite, trials=40))
    assert [(c["check"], c["pass"]) for c in report["checks"]] == [(suite, False)]


def _conjugating(original):
    def linear_combine(a, phi, b, psi):
        conj = FockFunctional._of_masks({m: c.conjugate() for m, c in psi._terms.items()})
        return original(a, phi, b, conj)

    return linear_combine


def test_a_conjugating_combination_passes_commutation(plant, capsys):
    # The commutation sides are pure selections, so only the subtraction
    # that measured them saw this fault; with equal terms there is none.
    # The checks that combine functionals on a side still fail.
    plant(functional, "linear_combine", _conjugating(functional.linear_combine))
    assert fockcalc.cli.main(["verify", "--suite", "all", "--trials", "40"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert (checks["commutation"]["pass"], checks["commutation"]["max_gap"]) == (True, 0.0)
    assert [name for name, c in checks.items() if not c["pass"]] == ["car", "clark", "covariance"]
