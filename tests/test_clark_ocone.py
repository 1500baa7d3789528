"""Decomposition, predictable sequences, and the stochastic integral."""

import pytest

from fockcalc import (
    GammaCursor,
    PredictabilityViolatedError,
    PredictableSequence,
    SubsetIndex,
    ZERO,
    basis_element,
    check_strong_convergence,
    co_term,
    decompose,
    expect,
    fit_envelope,
    integrate,
    linear_combine,
    make_functional,
    norm_dual,
    partial_sum,
    predictable_sequence,
    random_functionals,
    reconstruct_check,
    verify_convergence_window,
)


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


MIXED = F(([], 2), ([0, 2], 3))


class TestCoTerm:
    def test_site_without_peak_is_zero(self):
        # {0,2} contains 0 but peaks at 2, so the site-0 term is empty
        assert co_term(MIXED, 0) == ZERO

    def test_site_at_peak_selects_term(self):
        assert co_term(MIXED, 2) == F(([0, 2], 3))

    def test_constant_contributes_nothing(self):
        for k in range(4):
            assert co_term(basis_element(SubsetIndex([])), k) == ZERO

    def test_terms_partition_by_peak(self):
        for phi in random_functionals(15, seed=21, support_max=8, max_terms=16):
            seen = set()
            for k in range(phi.support_max + 1):
                term = co_term(phi, k)
                for sigma in term.support():
                    assert sigma.max_element == k
                    assert term.coefficient(sigma) == phi.coefficient(sigma)
                    assert sigma not in seen
                    seen.add(sigma)
            nonempty = {s for s in phi.support() if s.elements}
            assert seen == nonempty


class TestPartialSum:
    def test_below_any_peak_is_zero(self):
        assert partial_sum(MIXED, 1) == ZERO

    def test_at_peak_reaches_centered_functional(self):
        assert partial_sum(MIXED, 2) == F(([0, 2], 3))

    def test_negative_level_raises(self):
        with pytest.raises(ValueError) as info:
            partial_sum(MIXED, -1)
        assert str(info.value) == "partial-sum level must be >= 0, got -1"

    def test_saturates_at_support_max(self):
        for phi in random_functionals(10, seed=22, support_max=7, max_terms=12):
            smax = max(phi.support_max, 0)
            centered = linear_combine(1, phi, -1, expect(phi))
            for n in range(smax, smax + 3):
                assert partial_sum(phi, n) == centered

    def test_matches_coefficient_rule(self):
        # coefficient survives iff the set is nonempty and peaks at or below n
        for phi in random_functionals(10, seed=23, support_max=7, max_terms=12):
            for n in range(0, 8):
                psum = partial_sum(phi, n)
                for sigma in phi.support():
                    want = (
                        phi.coefficient(sigma)
                        if sigma.elements and sigma.max_element <= n
                        else 0
                    )
                    assert psum.coefficient(sigma) == want


class TestDecompose:
    def test_mixed_example(self):
        report = decompose(MIXED)
        assert report.mean == F(([], 2))
        assert set(report.terms) == {2}
        assert report.terms[2] == F(([0, 2], 3))
        assert report.termination_index == 2
        assert report.residual_norms[(2, 0.0)] == 0.0

    def test_constant_terminates_at_minus_one(self):
        report = decompose(basis_element(SubsetIndex([])))
        assert report.termination_index == -1
        assert report.terms == {}
        assert report.residual_norms == {}

    def test_reconstruction_identity(self):
        for phi in random_functionals(20, seed=24, support_max=9, max_terms=20):
            assert decompose(phi).reconstruction() == phi

    def test_residuals_nonincreasing_and_terminal_zero(self):
        for phi in random_functionals(20, seed=25, support_max=9, max_terms=30):
            report = decompose(phi, (0.0, 1.0, 2.0))
            smax = report.termination_index
            if smax < 0:
                continue
            for q in (0.0, 1.0, 2.0):
                series = [report.residual_norms[(n, q)] for n in range(smax + 1)]
                assert all(a >= b for a, b in zip(series, series[1:]))
                assert series[-1] == 0.0


class TestPredictableSequence:
    def test_two_site_basis(self):
        u = predictable_sequence(basis_element(SubsetIndex([0, 2])))
        assert set(u.terms) == {2}
        assert u.terms[2] == F(([0], 1))  # the site-0 entry died at the mean level

    def test_constant_has_no_integrand(self):
        assert predictable_sequence(basis_element(SubsetIndex([]))).terms == {}

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_single_site(self, k):
        u = predictable_sequence(basis_element(SubsetIndex([k])))
        assert set(u.terms) == {k}
        assert u.terms[k] == F(([], 1))

    def test_entries_are_predictable(self):
        for phi in random_functionals(20, seed=26, support_max=8, max_terms=16):
            u = predictable_sequence(phi)
            for k, uk in u.terms.items():
                assert all(s.max_element <= k - 1 for s in uk.support())

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(PredictabilityViolatedError):
            PredictableSequence({1: F(([3], 1))})

    def test_negative_site_rejected(self):
        with pytest.raises(ValueError) as info:
            PredictableSequence({-1: F(([], 1))})
        assert str(info.value) == "site index must be >= 0, got -1"

    def test_length_counts_entries(self):
        u = PredictableSequence({2: F(([0], 3)), 3: F(([1], 1))})
        assert (len(u), len(PredictableSequence({}))) == (2, 0)
        assert u._replace(terms={1: F(([], 1))}).terms == {1: F(([], 1))}
        with pytest.raises(PredictabilityViolatedError):
            u._replace(terms={1: F(([3], 1))})


class TestIntegrate:
    def test_recovers_centered_functional(self):
        for phi in random_functionals(20, seed=27, support_max=8, max_terms=16):
            got = integrate(predictable_sequence(phi))
            assert got == linear_combine(1, phi, -1, expect(phi))

    def test_empty_sequence(self):
        assert integrate(PredictableSequence({})) == ZERO

    def test_single_entry(self):
        u = PredictableSequence({2: F(([0], 3))})
        assert integrate(u) == F(([0, 2], 3))

    def test_entry_changed_after_construction_is_rechecked(self):
        u = PredictableSequence({2: F(([0], 3))})
        u.terms[1] = F(([1], 1))
        with pytest.raises(PredictabilityViolatedError) as info:
            integrate(u)
        assert str(info.value) == "entry at site 1 is not measurable before level 1"


class TestReconstruction:
    def test_mixed_example(self):
        assert reconstruct_check(MIXED) == 0.0

    def test_zero(self):
        assert reconstruct_check(ZERO) == 0.0

    def test_random_corpus(self):
        for phi in random_functionals(200, seed=28, support_max=12, max_terms=24):
            assert reconstruct_check(phi) <= 1e-12 * (1 + norm_dual(phi, 0.0))

    def test_both_pipelines_coincide_per_site(self):
        from fockcalc import annihilate, cond_expect, create

        for phi in random_functionals(15, seed=29, support_max=8, max_terms=16):
            for k in range(phi.support_max + 1):
                assert co_term(phi, k) == create(
                    cond_expect(annihilate(phi, k), k - 1), k
                )


class TestConvergenceConditions:
    def test_window_gaps_vanish(self):
        for phi in random_functionals(30, seed=30, support_max=9, max_terms=20):
            pointwise, excess = verify_convergence_window(phi)
            assert pointwise == 0.0
            assert excess == 0.0

    def test_partial_sums_satisfy_diagnostic(self):
        phi = F(([], 1), ([0], 2), ([1, 3], -1j), ([2], 0.5))
        smax = phi.support_max
        seq = [partial_sum(phi, n) for n in range(smax + 1)]
        limit = linear_combine(1, phi, -1, expect(phi))
        diag = check_strong_convergence(seq, limit, GammaCursor(smax + 1))
        assert diag.tail_gap == 0.0
        # the uniform envelope of the partial sums never exceeds the source's
        for p in (0.0, 1.0):
            assert diag.envelopes[p].C <= fit_envelope(phi, p).C
            assert diag.envelopes[p].covers(limit)
