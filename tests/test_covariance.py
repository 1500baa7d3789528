"""Centered covariance, the per-site identity, and the variance ceiling."""

import json
import sys
from fractions import Fraction

import pytest

import fockcalc.cli
import fockcalc.suite
from fockcalc import (
    FockFunctional,
    NonFiniteResultError,
    SubsetIndex,
    ZERO,
    basis_element,
    cov_identity,
    cov_p,
    linear_combine,
    make_functional,
    random_functionals,
    var_bound,
    var_p,
)


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


TRIPLE = F(([], 1), ([0], 2), ([1], 1))  # weights 1 and 2 on the singletons


class TestCovariance:
    def test_diagonal_equals_variance(self):
        for phi in random_functionals(15, seed=41, support_max=7, max_terms=12):
            for p in (0.0, 1.0):
                diag = cov_p(phi, phi, p)
                assert diag.imag == pytest.approx(0.0, abs=1e-15)
                assert diag.real >= 0
                assert diag.real == pytest.approx(var_p(phi, p), rel=1e-12)

    def test_constants_are_centered_away(self):
        constant = F(([], 7))
        for psi in (TRIPLE, ZERO, basis_element(SubsetIndex([2]))):
            assert cov_p(constant, psi, 1.0) == 0

    def test_hand_value(self):
        # centered part {0}: 2, {1}: 1; weights 1, 2 at level 1
        assert cov_p(TRIPLE, TRIPLE, 1.0) == pytest.approx(4.25)

    def test_hermitian_symmetry(self):
        pool = random_functionals(20, seed=42, support_max=7, max_terms=12)
        for phi, psi in zip(pool[::2], pool[1::2]):
            for p in (0.0, 1.0):
                assert cov_p(phi, psi, p) == pytest.approx(
                    cov_p(psi, phi, p).conjugate(), rel=1e-12, abs=1e-15
                )

    def test_scaling(self):
        for phi in random_functionals(10, seed=43, support_max=6, max_terms=10):
            for c in (2.0, -3j, 0.5 + 0.5j):
                scaled = linear_combine(c, phi, 0, ZERO)
                assert var_p(scaled, 1.0) == pytest.approx(
                    abs(c) ** 2 * var_p(phi, 1.0), rel=1e-12
                )


class TestVariance:
    def test_hand_value_level_zero(self):
        assert var_p(TRIPLE, 0.0) == pytest.approx(5.0)  # 2**2 + 1**2

    def test_constant_has_no_variance(self):
        for p in (0.0, 2.0):
            assert var_p(basis_element(SubsetIndex([])), p) == 0.0

    def test_basis_dual_weight(self):
        assert var_p(basis_element(SubsetIndex([1, 3])), 1.0) == pytest.approx(1 / 64)


class TestCovarianceIdentity:
    def test_triple_with_itself(self):
        report = cov_identity(TRIPLE, TRIPLE, 0.0)
        assert report.lhs == pytest.approx(5.0)
        assert report.rhs == pytest.approx(5.0)
        assert report.per_site[0] == pytest.approx(4.0)
        assert report.per_site[1] == pytest.approx(1.0)
        assert report.gap <= 1e-12 * (1 + abs(report.lhs))

    def test_disjoint_supports(self):
        phi, psi = F(([0], 1)), F(([1], 2))
        report = cov_identity(phi, psi, 0.0)
        assert report.lhs == 0 and report.rhs == 0
        assert all(v == 0 for v in report.per_site.values())

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_random_pairs(self, p):
        pool = random_functionals(100, seed=44, support_max=10, max_terms=20)
        for phi, psi in zip(pool[::2], pool[1::2]):
            report = cov_identity(phi, psi, p)
            assert report.gap <= 1e-12 * (1 + abs(report.lhs))


class TestVarianceBound:
    def test_strict_for_a_pair_set(self):
        lhs, rhs = var_bound(basis_element(SubsetIndex([0, 1])), 0.0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0)  # each member of {0,1} counts once

    def test_equality_for_singleton_supports(self):
        lhs, rhs = var_bound(TRIPLE, 0.0)
        assert lhs == pytest.approx(rhs)
        assert lhs == pytest.approx(5.0)

    def test_zero(self):
        assert var_bound(ZERO, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_holds_on_random_corpus(self, p):
        for phi in random_functionals(60, seed=45, support_max=9, max_terms=16):
            lhs, rhs = var_bound(phi, p)
            assert lhs <= rhs + 1e-12 * (1 + rhs)
            if any(len(s) >= 2 for s in phi.support()):
                assert lhs < rhs


class TestOverflowIsTyped:
    def test_overflowing_pairing_sum(self):
        # Each term (1e308 and 1.69e308) is finite; their sum is not.
        phi = F(([0], 1e154), ([1], 1.3e154))
        with pytest.raises(NonFiniteResultError):
            cov_p(phi, phi, 0.0)
        with pytest.raises(NonFiniteResultError):
            cov_identity(phi, phi, 0.0)

    def test_overflowing_squared_norm(self):
        phi = F(([1], 1e200))
        with pytest.raises(NonFiniteResultError):
            var_p(phi, 0.0)
        with pytest.raises(NonFiniteResultError):
            var_bound(phi, 0.0)

    def test_cancelling_weight_powers_are_computed(self):
        # Each pairing term's weight power 10! ** -60 underflows a double
        # before it meets c * conj(c) = 1e300; the covariance does not.
        u = F((range(10), 1e150))
        assert cov_p(u, u, 30.0) == pytest.approx(var_p(u, 30.0), rel=1e-15, abs=0.0)
        assert var_p(u, 30.0) == pytest.approx(2.5954820361861544e-94, rel=1e-15, abs=0.0)

    def test_terms_that_cancel_past_the_range(self):
        # The per-site sum passes 1e308 before its last term cancels it back.
        a = F(([0], 1e154), ([1], 1e154), ([2], 1e154))
        b = F(([0], 1e154), ([1], 1e154), ([2], -1e154))
        report = cov_identity(a, b, 0.0)
        assert report.lhs == report.rhs == 1e308
        assert report.gap == 0.0

    def test_cancellation_below_a_lost_part_is_computed(self):
        # 1e400 - 1e400 leaves 1e-300, about 2**-2300 of the largest term; the
        # exact sum of the terms keeps it.
        a = F(([0], 1e200), ([1], 1e200), ([2], 1e-150))
        b = F(([0], 1e200), ([1], -1e200), ([2], 1e-150))
        exact = sum(
            Fraction(c) * Fraction(d)
            for c, d in ((1e200, 1e200), (1e200, -1e200), (1e-150, 1e-150))
        )
        assert cov_p(a, b, 0.0) == complex(float(exact), 0.0)


def _keeps_bit(phi, k):
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m >> k & 1})


def _scaled_create(phi, k):
    # create with every coefficient times 1.5.
    bit = 1 << k
    return FockFunctional._of_masks(
        {m | bit: 1.5 * c for m, c in phi._terms.items() if not m & bit}
    )


def _keeping_next_level(phi, k):
    # cond_expect that also keeps the terms whose support set peaks at k + 1.
    limit = 1 << (k + 2)
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m < limit})


def _conjugating(original):
    def linear_combine(a, phi, b, psi):
        conj = FockFunctional._of_masks({m: c.conjugate() for m, c in psi._terms.items()})
        return original(a, phi, b, conj)

    return linear_combine


class TestPlantedFaults:
    """A violated identity is a failed check with exit 1, never an internal error;
    the trials fail on their own, not only the equality witnesses."""

    #: Failing trials among the 500 pairs of the default seed-0 run, per fault.
    FAILED_TRIALS = {
        "centered": 9, "annihilate": 500, "linear_combine": 9, "create": 46, "cond_expect": 29,
    }

    @pytest.fixture(params=["centered", "annihilate", "linear_combine", "create", "cond_expect"])
    def fault(self, request, monkeypatch):
        import fockcalc.covariance as covariance
        import fockcalc.functional as functional
        import fockcalc.operators as operators

        owner, name, replacement = {
            "centered": (covariance, "_centered", lambda phi: phi),
            "annihilate": (operators, "annihilate", _keeps_bit),
            "linear_combine": (
                functional, "linear_combine", _conjugating(functional.linear_combine)
            ),
            "create": (operators, "create", _scaled_create),
            "cond_expect": (operators, "cond_expect", _keeping_next_level),
        }[request.param]
        original = getattr(owner, name)
        # Every fockcalc namespace that binds the name gets the fault.
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "fockcalc" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, replacement)
        return request.param

    @staticmethod
    def _trial_gaps(cfg):
        pool = random_functionals(
            2 * cfg.trials, cfg.seed, support_max=cfg.support_max, max_terms=cfg.max_terms
        )
        return [fockcalc.suite._covariance_gap(cfg, pair) for pair in zip(pool[::2], pool[1::2])]

    def test_covariance_record_fails(self, fault):
        cfg = fockcalc.suite.SuiteConfig(suite="covariance", trials=40)
        report = fockcalc.suite.run_suite(cfg)
        assert [(c["check"], c["pass"]) for c in report["checks"]] == [("covariance", False)]
        assert max(self._trial_gaps(cfg)) > cfg.tolerance

    def test_default_run_flags_as_many_trials(self, fault):
        # The counts are those of pairing the co_term terms at every shared
        # site; pairing only the site terms that share a mask loses none.
        cfg = fockcalc.suite.SuiteConfig(suite="covariance")
        failed = sum(gap > cfg.tolerance for gap in self._trial_gaps(cfg))
        assert failed == self.FAILED_TRIALS[fault]

    @pytest.mark.parametrize("suite, records", [("covariance", 1), ("all", 9)])
    def test_verify_exits_1_with_every_record(self, capsys, fault, suite, records):
        code = fockcalc.cli.main(["verify", "--suite", suite, "--trials", "40"])
        assert code == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) == records
        assert {c["check"]: c["pass"] for c in checks}["covariance"] is False
