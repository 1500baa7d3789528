"""Subset encoding, enumeration, and weight-sum machinery.

The brute-force oracles here enumerate subsets with itertools and sum with
math.fsum, independent of the factorized product they check.
"""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    CapExceededError,
    DivergentSeriesError,
    GammaCursor,
    NegativeIndexError,
    SubsetIndex,
    WeightOverflowError,
    enumerate_gamma,
    gamma_weight_sum,
    gamma_weight_sum_limit,
    lambda_weight,
    weight_sum_bound,
)
from fockcalc.gamma import mask_weight

EXP_PI_SQ_OVER_6 = 5.180668317897116  # exp(pi**2 / 6)
EXP_ZETA_3 = 3.3269531100024996  # exp(zeta(3)), zeta(3) from scipy.special.zeta


def brute_weight_sum(p, max_index):
    """Independent oracle: explicit subsets via itertools, exact fsum."""
    universe = range(max_index)
    total = []
    for r in range(max_index + 1):
        for combo in itertools.combinations(universe, r):
            total.append(math.prod(k + 1 for k in combo) ** (-p))
    return math.fsum(total)


class TestCanonicalSubset:
    def test_sorts_and_dedups(self):
        assert SubsetIndex([2, 0, 2]).elements == (0, 2)

    def test_empty(self):
        assert SubsetIndex([]).elements == ()

    def test_rejects_negative(self):
        with pytest.raises(NegativeIndexError):
            SubsetIndex([0, -1])

    def test_equality_by_elements(self):
        assert SubsetIndex([3, 1]) == SubsetIndex([1, 3, 3])
        assert SubsetIndex([1]) != SubsetIndex([2])

    def test_mask_round_trip(self):
        s = SubsetIndex([0, 2, 5])
        assert SubsetIndex.from_mask(s.mask) == s
        assert s.mask == 0b100101

    def test_set_operations(self):
        s = SubsetIndex([1, 3])
        assert 1 in s and 0 not in s
        assert s.max_element == 3
        assert SubsetIndex([]).max_element == -1


class TestLambdaWeight:
    def test_empty_set_weighs_one(self):
        assert lambda_weight(SubsetIndex([])) == 1.0

    def test_singleton_zero(self):
        assert lambda_weight(SubsetIndex([0])) == 1.0

    def test_hand_product(self):
        # {1, 3} -> 2 * 4
        assert lambda_weight(SubsetIndex([1, 3])) == 8.0

    def test_overflow_reported(self):
        with pytest.raises(WeightOverflowError):
            lambda_weight(SubsetIndex(range(200)))

    def test_negative_mask_rejected(self):
        with pytest.raises(NegativeIndexError):
            mask_weight(-1)

    @given(st.sets(st.integers(0, 30), max_size=8), st.integers(0, 30))
    def test_adding_element_scales_weight(self, elems, k):
        sigma = SubsetIndex(elems)
        if k not in sigma:
            grown = SubsetIndex(sigma.elements + (k,))
            assert lambda_weight(grown) == (k + 1) * lambda_weight(sigma)

    @given(st.sets(st.integers(0, 30), max_size=8), st.sets(st.integers(0, 30), max_size=8))
    def test_monotone_under_inclusion(self, a, b):
        sigma = SubsetIndex(a)
        tau = SubsetIndex(a | b)
        assert lambda_weight(sigma) <= lambda_weight(tau)


class TestEnumeration:
    def test_horizon_zero_gives_only_empty(self):
        assert list(enumerate_gamma(GammaCursor(0))) == [SubsetIndex([])]

    def test_horizon_two(self):
        got = [s.elements for s in enumerate_gamma(GammaCursor(2))]
        assert got == [(), (0,), (1,), (0, 1)]

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 8])
    def test_complete_and_distinct(self, n):
        seen = list(enumerate_gamma(GammaCursor(n)))
        assert len(seen) == 2**n
        assert len({s.elements for s in seen}) == 2**n

    def test_ascending_mask_order(self):
        masks = [s.mask for s in enumerate_gamma(GammaCursor(5))]
        assert masks == sorted(masks)

    def test_hard_cap(self):
        with pytest.raises(CapExceededError):
            GammaCursor(25)
        with pytest.raises(CapExceededError):
            gamma_weight_sum(2.0, 25)


class TestWeightSum:
    def test_empty_window(self):
        assert gamma_weight_sum(2.0, 0) == 1.0

    def test_known_value_against_brute_force(self):
        brute = brute_weight_sum(2.0, 4)
        assert brute == pytest.approx(2.951388888888889, rel=1e-15)
        assert gamma_weight_sum(2.0, 4) == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 4, 9, 12])
    def test_factorizes(self, p, n):
        product = math.prod(1.0 + k ** (-p) for k in range(1, n + 1))
        assert gamma_weight_sum(p, n) == pytest.approx(product, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_monotone_in_window_and_bounded(self, p):
        values = [gamma_weight_sum(p, n) for n in range(0, 14)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= weight_sum_bound(p)

    def test_stays_below_numeric_ceiling_for_p2(self):
        for n in (4, 10, 16):
            assert gamma_weight_sum(2.0, n) <= EXP_PI_SQ_OVER_6

    def test_matches_small_brute_force(self):
        # The enumeration is the independent reference: the implementation
        # is the product that test_factorizes writes out again.
        for p in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            for n in range(0, 13):
                assert gamma_weight_sum(p, n) == pytest.approx(
                    brute_weight_sum(p, n), rel=1e-13
                )

    def test_memory_stays_flat_at_the_cap(self):
        # One factor per element, not one term per subset (2**24 at the cap).
        tracemalloc.start()
        try:
            gamma_weight_sum(2.0, 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestSeriesBounds:
    def test_bound_at_two(self):
        assert weight_sum_bound(2.0) == pytest.approx(EXP_PI_SQ_OVER_6, abs=1e-6)

    def test_bound_at_three(self):
        assert weight_sum_bound(3.0) == pytest.approx(EXP_ZETA_3, abs=1e-6)

    def test_divergent_below_one(self):
        with pytest.raises(DivergentSeriesError):
            weight_sum_bound(1.0)
        with pytest.raises(DivergentSeriesError):
            gamma_weight_sum_limit(0.9)

    def test_full_lattice_sum_sandwiched(self):
        # Truncations from below, the crude exponential bound from above.
        for p in (1.5, 2.0, 4.0):
            limit = gamma_weight_sum_limit(p)
            assert gamma_weight_sum(p, 12) <= limit <= weight_sum_bound(p)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: gamma_weight_sum(0, 3), ValueError, "p must be positive, got 0"),
            (lambda: gamma_weight_sum(1, -1), ValueError, "max_index must be >= 0, got -1"),
            (lambda: SubsetIndex.from_mask(-1), NegativeIndexError, "bit-mask must be nonnegative"),
            (lambda: GammaCursor(-1), ValueError, "max_index must be >= 0, got -1"),
            (lambda: GammaCursor(3)._replace(max_index=-1), ValueError,
             "max_index must be >= 0, got -1"),
            (lambda: gamma_weight_sum(math.nan, 5), ValueError, "p must be positive, got nan"),
            (lambda: weight_sum_bound(math.nan), ValueError, "p must be a number, got nan"),
            (lambda: gamma_weight_sum_limit(math.nan), ValueError, "p must be a number, got nan"),
        ],
    )
    def test_argument_below_its_bound_raises(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_full_lattice_sum_closed_form(self):
        # prod(1 + m**-2) over all m is sinh(pi)/pi; the certified upper
        # evaluation may exceed it only by the tail slack.
        exact = math.sinh(math.pi) / math.pi
        value = gamma_weight_sum_limit(2.0)
        assert exact <= value <= exact * (1 + 2e-6)
