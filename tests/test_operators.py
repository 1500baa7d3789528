"""Shift/truncation operator identities, norm bounds, and pipeline parsing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from fockcalc import (
    BadTagError,
    NegativeIndexError,
    SubsetIndex,
    ZERO,
    annihilate,
    apply_pipeline,
    basis_element,
    cond_expect,
    create,
    expect,
    make_functional,
    norm_dual,
    parse_pipeline,
    random_functionals,
    verify_car,
    verify_commutation,
    verify_norm_bounds,
)


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


# hypothesis strategy: small random functionals with complex coefficients
coeffs = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False
)
subsets = st.sets(st.integers(0, 8), max_size=5).map(frozenset)
functionals = st.dictionaries(subsets, coeffs, min_size=0, max_size=20).map(
    lambda d: make_functional([(SubsetIndex(s), c) for s, c in d.items()])
)


class TestAnnihilate:
    def test_shifts_containing_terms(self):
        assert annihilate(F(([], 2), ([0, 2], 3)), 2) == F(([0], 3))

    def test_vanishes_without_site(self):
        assert annihilate(F(([], 2), ([1], 5)), 3) == ZERO

    def test_basis_action(self):
        sigma = SubsetIndex([0, 2])
        assert annihilate(basis_element(sigma), 2) == basis_element(SubsetIndex([0]))
        assert annihilate(basis_element(sigma), 1) == ZERO

    def test_rejects_negative_site(self):
        with pytest.raises(NegativeIndexError):
            annihilate(ZERO, -1)


class TestCreate:
    def test_extends_missing_terms(self):
        assert create(F(([0], 3)), 2) == F(([0, 2], 3))

    def test_basis_action(self):
        sigma = SubsetIndex([0])
        assert create(basis_element(sigma), 2) == basis_element(SubsetIndex([0, 2]))

    def test_kills_terms_already_containing_site(self):
        assert create(basis_element(SubsetIndex([0, 2])), 2) == ZERO


class TestConditionalExpectation:
    def test_truncates_above_level(self):
        assert cond_expect(F(([], 2), ([0, 2], 3)), 1) == F(([], 2))

    def test_keeps_within_level(self):
        phi = F(([], 2), ([0, 2], 3))
        assert cond_expect(phi, 2) == phi

    def test_level_minus_one_is_mean(self):
        assert cond_expect(F(([], 2), ([0, 2], 3)), -1) == F(([], 2))

    def test_expect_examples(self):
        assert expect(F(([], 2), ([0, 2], 3))) == F(([], 2))
        assert expect(basis_element(SubsetIndex([3]))) == ZERO
        z_empty = basis_element(SubsetIndex([]))
        assert expect(z_empty) == z_empty

    @pytest.mark.parametrize("j", [-1, 0, 2, 5])
    @pytest.mark.parametrize("k", [-1, 1, 3])
    def test_nesting_collapses_to_min(self, j, k):
        for phi in random_functionals(5, seed=11, support_max=6, max_terms=10):
            assert cond_expect(cond_expect(phi, j), k) == cond_expect(phi, min(j, k))


class TestCAR:
    def test_single_site_hand_case(self):
        phi = F(([0], 1 + 2j))
        # create(annihilate) keeps the term, annihilate(create) kills it
        assert create(annihilate(phi, 0), 0) == phi
        assert annihilate(create(phi, 0), 0) == ZERO
        assert verify_car(phi, 0) == 0.0

    def test_zero_functional(self):
        assert verify_car(ZERO, 4) == 0.0

    def test_recombination_selects_by_membership(self):
        for phi in random_functionals(10, seed=12, support_max=8, max_terms=20):
            for k in range(9):
                kept = create(annihilate(phi, k), k)
                dropped = annihilate(create(phi, k), k)
                for sigma in phi.support():
                    if k in sigma:
                        assert kept.coefficient(sigma) == phi.coefficient(sigma)
                        assert dropped.coefficient(sigma) == 0
                    else:
                        assert kept.coefficient(sigma) == 0
                        assert dropped.coefficient(sigma) == phi.coefficient(sigma)

    @settings(max_examples=60, deadline=None)
    @given(functionals, st.integers(0, 8))
    def test_car_residual_vanishes(self, phi, k):
        assert verify_car(phi, k) <= 1e-12 * (1 + norm_dual(phi, 0.0))


class TestNormBounds:
    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_annihilation_witness_is_tight(self, within_norm_bounds, k, p):
        report = verify_norm_bounds(basis_element(SubsetIndex([k])), k, p)
        assert report.annihilate_ratio == pytest.approx(report.annihilate_bound, rel=1e-12)
        assert within_norm_bounds(report)

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_creation_witness_is_tight(self, within_norm_bounds, k, p):
        report = verify_norm_bounds(basis_element(SubsetIndex([])), k, p)
        assert report.create_ratio == pytest.approx(report.create_bound, rel=1e-12)
        assert within_norm_bounds(report)

    def test_level_zero_bounds_are_unit(self, within_norm_bounds):
        for phi in random_functionals(10, seed=13, support_max=6, max_terms=10):
            report = verify_norm_bounds(phi, 3, 0.0)
            assert report.annihilate_bound == report.create_bound == 1.0
            assert within_norm_bounds(report)

    def test_random_corpus_respects_all_bounds(self, within_norm_bounds):
        for phi in random_functionals(25, seed=14, support_max=8, max_terms=16):
            for k in range(9):
                for p in (0.0, 1.0, 2.0):
                    assert within_norm_bounds(verify_norm_bounds(phi, k, p))

    def test_zero_functional_ratios_are_zero(self, within_norm_bounds):
        report = verify_norm_bounds(ZERO, 2, 1.0)
        assert report.annihilate_ratio == report.create_ratio == 0.0
        assert within_norm_bounds(report)


class TestNormBoundsBeyondRange:
    @pytest.mark.parametrize("size", [40, 41])
    def test_underflowing_norms_give_real_ratios(self, within_norm_bounds, size):
        # Every dual norm here underflows to 0.0; the ratios must not read 0/0.
        phi = basis_element(SubsetIndex(range(size)))
        assert norm_dual(phi, 12.0) == 0.0
        rep = verify_norm_bounds(phi, 3, 12.0)
        assert rep.annihilate_ratio == pytest.approx(4.0**12, rel=1e-12)
        assert rep.create_ratio == 0.0 and rep.cond_expect_ratio == 0.0
        assert within_norm_bounds(rep)

    def test_overflowing_norm_ratio(self, within_norm_bounds):
        phi = make_functional([(SubsetIndex([0]), 1e300), (SubsetIndex([]), 1e300)])
        rep = verify_norm_bounds(phi, 0, 0.0)
        assert rep.annihilate_ratio == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert rep.cond_expect_ratio == pytest.approx(1.0, rel=1e-15)
        assert within_norm_bounds(rep)


class TestCommutation:
    def test_basis_hand_case(self):
        assert verify_commutation(basis_element(SubsetIndex([0, 2])), 2) == (0.0, 0.0)

    def test_zero(self):
        assert verify_commutation(ZERO, 3) == (0.0, 0.0)

    def test_site_zero_uses_mean_convention(self):
        for phi in random_functionals(20, seed=15, support_max=6, max_terms=12):
            g1, g2 = verify_commutation(phi, 0)
            tol = 1e-12 * (1 + norm_dual(phi, 0.0))
            assert g1 <= tol and g2 <= tol

    @settings(max_examples=60, deadline=None)
    @given(functionals, st.integers(0, 8))
    def test_residuals_vanish(self, phi, k):
        g1, g2 = verify_commutation(phi, k)
        tol = 1e-12 * (1 + norm_dual(phi, 0.0))
        assert g1 <= tol and g2 <= tol


class TestLocality:
    def test_distinct_sites_commute_on_coefficients(self):
        for phi in random_functionals(10, seed=17, support_max=6, max_terms=12):
            for j in range(5):
                for k in range(5):
                    if j == k:
                        continue
                    assert annihilate(annihilate(phi, j), k) == annihilate(
                        annihilate(phi, k), j
                    )
                    assert create(create(phi, j), k) == create(create(phi, k), j)
                    assert annihilate(create(phi, j), k) == create(
                        annihilate(phi, k), j
                    )


class TestSupportBounds:
    def test_operators_respect_support_growth(self):
        for phi in random_functionals(15, seed=16, support_max=7, max_terms=12):
            smax = phi.support_max
            for k in range(9):
                assert annihilate(phi, k).support_max <= smax
                assert create(phi, k).support_max <= max(smax, k)


class TestPipelines:
    def test_round_trip_through_site(self):
        phi = F(([0, 2], 3))
        assert apply_pipeline(phi, "annihilate:2,create:2") == phi

    def test_expect_tag(self):
        assert apply_pipeline(F(([], 2), ([0, 2], 3)), "expect") == F(([], 2))

    def test_condexp_tag_truncates(self):
        assert apply_pipeline(F(([0, 2], 3)), "condexp:1") == ZERO

    def test_parse_errors(self):
        with pytest.raises(BadTagError):
            parse_pipeline("explode:1")
        with pytest.raises(BadTagError):
            parse_pipeline("annihilate")
        with pytest.raises(BadTagError):
            parse_pipeline("create:x")
        with pytest.raises(BadTagError):
            parse_pipeline("expect:3")
        with pytest.raises(BadTagError):
            parse_pipeline("annihilate:1,,create:1")
        with pytest.raises(NegativeIndexError):
            parse_pipeline("annihilate:-1")
        # A site is ASCII -?[0-9]+, which int alone would not enforce.
        for step in ("create:1_0", "annihilate: 2", "condexp:+1", "create:\uff12"):
            with pytest.raises(BadTagError, match="^bad site "):
                parse_pipeline(step)
        # An unknown kind is named before its site is read.
        for step in ("explode", "explode:1", "explode:99999999999", "explode:x"):
            with pytest.raises(BadTagError, match="^unknown operator kind 'explode'$"):
                parse_pipeline(f"expect,{step}")

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: create(F(([0], 1)), -1), NegativeIndexError,
             "site index must be >= 0, got -1"),
            (lambda: cond_expect(F(([0], 1)), -2), ValueError,
             "conditioning level must be >= -1, got -2"),
            (lambda: parse_pipeline("condexp:-2"), BadTagError,
             "condexp level must be >= -1, got -2"),
        ],
    )
    def test_site_below_its_bound_raises(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_condexp_allows_mean_level(self):
        [(operator, site)] = parse_pipeline("condexp:-1")
        assert operator(F(([], 2), ([1], 1)), site) == F(([], 2))

    def test_steps_are_the_operators(self):
        steps = parse_pipeline("annihilate:2, create:0,condexp:3,expect")
        assert steps == [(annihilate, 2), (create, 0), (cond_expect, 3), (cond_expect, -1)]
