"""Coefficient maps, the weighted norm chain, envelopes, and pairings."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fockcalc import (
    DuplicateKeyError,
    EmptySupportError,
    ExponentTooSmallError,
    FockFunctional,
    GammaCursor,
    GrowthEnvelope,
    NonFiniteCoefficientError,
    NonFiniteResultError,
    SubsetIndex,
    ZERO,
    basis_element,
    check_strong_convergence,
    dual_norm_bound,
    dual_pair,
    fit_envelope,
    inner_dual,
    inner_p,
    lambda_weight,
    linear_combine,
    make_functional,
    norm_dual,
    norm_p,
    random_functionals,
    sum_functionals,
)
from fockcalc.functional import _join, _residual, _scaled_sum

E = SubsetIndex([])
S02 = SubsetIndex([0, 2])
S13 = SubsetIndex([1, 3])
SINH_PI_OVER_PI = 3.676077910374978  # closed form of the full weight sum at exponent 2


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


class TestConstruction:
    def test_single_term(self):
        phi = F(([0, 2], 3))
        assert phi.support() == [S02]
        assert phi.coefficient(S02) == 3

    def test_zero_coefficients_dropped(self):
        assert not F(([], 0))
        assert F(([], 0)) == ZERO

    def test_duplicate_subset_rejected(self):
        with pytest.raises(DuplicateKeyError):
            F(([1], 1), ([1], 2))

    @pytest.mark.parametrize(
        "coef", [math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0)]
    )
    def test_non_finite_coefficient_rejected(self, coef):
        with pytest.raises(NonFiniteCoefficientError, match=r"subset \[1\]") as exc:
            make_functional([(SubsetIndex([]), 1.0), (SubsetIndex([1]), coef)])
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("args", [(), ({},), ({S02: 1.0},)])
    def test_built_only_by_the_builders(self, args):
        # make_functional and basis_element are the one way in.
        with pytest.raises(TypeError, match="make_functional or basis_element"):
            FockFunctional(*args)

    def test_support_max(self):
        assert F(([], 2), ([0, 2], 3)).support_max == 2
        assert F(([], 2)).support_max == -1
        assert ZERO.support_max == -1

    def test_immutable(self):
        phi = F(([1], 1))
        with pytest.raises(AttributeError):
            phi._terms = {}


class TestCoefficientAccess:
    def test_lookup(self):
        assert F(([0, 2], 3)).coefficient(S02) == 3

    def test_absent_is_zero(self):
        assert F(([0, 2], 3)).coefficient(E) == 0

    def test_basis_is_unit(self):
        assert basis_element(S13).coefficient(S13) == 1


class TestLinearCombine:
    def test_exact_cancellation(self):
        phi = F(([0, 2], 3), ([1], 2j))
        assert linear_combine(1, phi, -1, phi) == ZERO

    def test_scaling(self):
        assert linear_combine(2, F(([], 1)), 0, F(([5], 9))) == F(([], 2))

    def test_disjoint_supports(self):
        got = linear_combine(1, F(([0], 1)), 1, F(([1], 1)))
        assert got == F(([0], 1), ([1], 1))

    def test_overflowing_coefficient_is_refused(self):
        # Every public builder refuses an infinite coefficient, so the sums do
        # too, naming the subset, where finite coefficients add past the range.
        big = F(([], 1.0), ([0], 1e308))
        with pytest.raises(NonFiniteResultError, match=r"subset \[0\]"):
            linear_combine(2.0, big, 1.0, ZERO)
        with pytest.raises(NonFiniteResultError, match=r"subset \[0\]"):
            sum_functionals([big, big])
        with pytest.raises(NonFiniteResultError, match=r"subset \[1\]"):
            linear_combine(1.0, F(([1], 1e308j)), 1.0, F(([1], 1e308j)))

    def test_finite_coefficients_past_the_range_together_are_kept(self):
        # Each coefficient is finite although their total is not.
        phi = F(([0], 1e308), ([1], 1e308), ([2], -1e308j))
        assert linear_combine(1.0, phi, 0.5, phi) == F(
            ([0], 1.5e308), ([1], 1.5e308), ([2], -1.5e308j)
        )
        assert sum_functionals([phi, ZERO]) == phi


class TestResidual:
    """The gap of an exact identity: 0.0 on equal terms, else the norm of the difference."""

    def test_equal_terms_give_zero(self):
        phi = F(([], 1.5), ([0, 2], 3 - 1j))
        assert _residual(phi, F(([0, 2], 3 - 1j), ([], 1.5))) == 0.0
        assert _residual(ZERO, ZERO) == 0.0

    @pytest.mark.parametrize("other", [
        F(([], 1.5), ([0, 2], 3 - 1j)),
        F(([], 1.5)),
        F(([], 1.5), ([0, 2], 3 - 1j), ([7], 1e-300)),
        F(([], math.nextafter(1.5, 2.0)), ([0, 2], 3 - 1j)),
    ])
    def test_unequal_terms_give_the_norm_of_the_difference(self, other):
        phi = F(([], 1.5), ([0, 2], complex(3, math.nextafter(-1.0, 0.0))))
        gap = _residual(phi, other)
        assert gap == norm_dual(linear_combine(1.0, phi, -1.0, other), 0.0)
        assert gap > 0.0


class TestInnerProductsAndNorms:
    def test_inner_p_basis_weight(self):
        z1 = basis_element(SubsetIndex([1]))
        assert inner_p(z1, z1, 1.0) == 4  # weight({1})**2

    def test_inner_p_disjoint(self):
        z0, z1 = basis_element(SubsetIndex([0])), basis_element(SubsetIndex([1]))
        for p in (0.0, 1.0, 2.5):
            assert inner_p(z0, z1, p) == 0

    def test_inner_p_level_zero_is_plain_l2(self):
        phi = F(([], 1), ([0], 2), ([1, 3], 1j))
        assert inner_p(phi, phi, 0.0) == pytest.approx(1 + 4 + 1)

    def test_inner_p_conjugates_first_slot(self):
        phi = F(([1], 1j))
        psi = F(([1], 1.0))
        assert inner_p(phi, psi, 0.0) == pytest.approx(-1j)

    def test_norm_constant_is_one_at_every_level(self):
        for p in (0.0, 1.0, 7.0):
            assert norm_p(basis_element(E), p) == 1.0

    def test_norm_hand_value(self):
        assert norm_p(F(([1, 3], 1)), 1.0) == pytest.approx(8.0)

    def test_norm_three_unit_terms(self):
        phi = F(([], 1), ([0], 1), ([1], 1))
        assert norm_p(phi, 0.0) == pytest.approx(math.sqrt(3))

    def test_basis_norm_is_weight_power(self):
        for sigma in (E, S02, S13):
            for p in (0.0, 1.0, 2.0):
                assert norm_p(basis_element(sigma), p) == pytest.approx(
                    lambda_weight(sigma) ** p
                )

    def test_dual_norm_hand_value(self):
        phi = F(([], 1), ([0], 1), ([1], 1))
        assert norm_dual(phi, 1.0) == pytest.approx(1.5)  # sqrt(1 + 1 + 1/4)

    def test_dual_norm_of_basis(self):
        for sigma in (S02, S13):
            for p in (0.5, 1.0, 2.0):
                assert norm_dual(basis_element(sigma), p) == pytest.approx(
                    lambda_weight(sigma) ** (-p)
                )

    def test_dual_norm_of_zero(self):
        assert norm_dual(ZERO, 3.0) == 0.0

    def test_norm_chain_monotonicity(self):
        for phi in random_functionals(30, seed=5, support_max=8, max_terms=12):
            assert norm_p(phi, 0.0) <= norm_p(phi, 1.0) <= norm_p(phi, 2.0)
            assert norm_dual(phi, 2.0) <= norm_dual(phi, 1.0) <= norm_dual(phi, 0.0)


class TestDualPairings:
    def test_inner_dual_diagonal_is_squared_norm(self):
        for phi in random_functionals(20, seed=6, support_max=6, max_terms=10):
            for p in (0.0, 1.5):
                got = inner_dual(phi, phi, p)
                assert got.imag == pytest.approx(0.0, abs=1e-15)
                assert got.real == pytest.approx(norm_dual(phi, p) ** 2, rel=1e-12)

    def test_inner_dual_disjoint(self):
        assert inner_dual(F(([0], 1)), F(([1], 1)), 1.0) == 0

    def test_inner_dual_orientation(self):
        # conjugation on the second slot: (2i) * conj(1) / weight({1})**2
        assert inner_dual(F(([1], 2j)), F(([1], 1)), 1.0) == pytest.approx(0.5j)

    def test_dual_pair_extracts_coefficient(self):
        phi = F(([0, 2], 3 + 1j), ([], 2))
        assert dual_pair(phi, basis_element(S02)) == 3 + 1j

    def test_dual_pair_is_bilinear_not_hermitian(self):
        sigma = SubsetIndex([1])
        phi = make_functional([(sigma, 1j)])
        assert dual_pair(phi, make_functional([(sigma, 1j)])) == pytest.approx(-1)

    def test_dual_pair_zero(self):
        assert dual_pair(ZERO, F(([0], 5))) == 0

    def test_riesz_pairing(self):
        # Promoting eta to a dual element conjugates its coefficient array;
        # the bilinear pairing then reproduces the Hermitian inner product.
        eta = F(([], 1 + 2j), ([0, 2], 3j), ([1], -1))
        xi = F(([0, 2], 2), ([1], 1j), ([4], 7))
        riesz = make_functional(
            [(s, c.conjugate()) for s, c in eta.items()]
        )
        assert dual_pair(riesz, xi) == pytest.approx(inner_p(eta, xi, 0.0))

    def test_cauchy_schwarz_across_levels(self):
        pool = random_functionals(40, seed=7, support_max=8, max_terms=16)
        for phi, xi in zip(pool[::2], pool[1::2]):
            for p in (0.0, 1.0, 2.0):
                lhs = abs(dual_pair(phi, xi))
                rhs = norm_p(xi, p) * norm_dual(phi, p)
                assert lhs <= rhs * (1 + 1e-12)


class TestEnvelopes:
    def test_single_ratio(self):
        assert fit_envelope(F(([], 3)), 0.0) == GrowthEnvelope(C=3.0, p=0.0)

    def test_flat_ratios(self):
        terms = [(s, lambda_weight(s)) for s in (E, S02, S13)]
        phi = make_functional([(s, c) for s, c in terms])
        assert fit_envelope(phi, 1.0).C == pytest.approx(1.0)

    def test_hand_ratio(self):
        assert fit_envelope(F(([1], 8)), 1.0).C == pytest.approx(4.0)

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupportError):
            fit_envelope(ZERO, 1.0)

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError) as info:
            GrowthEnvelope(C=-1, p=0)
        assert str(info.value) == "envelope constants must be nonnegative"

    @pytest.mark.parametrize("C, p", [(math.nan, 0.0), (1.0, math.nan)])
    def test_nan_constant_rejected(self, C, p):
        with pytest.raises(ValueError) as info:
            dual_norm_bound(GrowthEnvelope(C=C, p=p), 1.0)
        assert str(info.value) == f"envelope constants must be numbers, got C={C}, p={p}"

    def test_record_checks_every_construction(self):
        env = GrowthEnvelope(C=2.0, p=1.0)
        assert repr(env) == "GrowthEnvelope(C=2.0, p=1.0)"
        assert env._replace(C=3.0) == GrowthEnvelope(3.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            env._replace(C=-1.0)
        with pytest.raises(AttributeError):
            env.C = 3.0

    def test_fitted_envelope_covers(self):
        for phi in random_functionals(20, seed=8, support_max=8, max_terms=12):
            for p in (0.0, 1.0):
                assert fit_envelope(phi, p).covers(phi)

    def test_bound_zero_envelope(self):
        assert dual_norm_bound(GrowthEnvelope(0.0, 1.0), 2.0) == 0.0

    def test_bound_needs_gap(self):
        with pytest.raises(ExponentTooSmallError):
            dual_norm_bound(GrowthEnvelope(1.0, 1.0), 1.0)
        with pytest.raises(ExponentTooSmallError):
            dual_norm_bound(GrowthEnvelope(1.0, 0.0), 0.5)
        with pytest.raises(ExponentTooSmallError, match="got q=nan, p=0.0"):
            dual_norm_bound(GrowthEnvelope(1.0, 0.0), math.nan)

    @pytest.mark.parametrize(
        "env, q", [(GrowthEnvelope(1.0, 0.0), 0.50000001), (GrowthEnvelope(1e308, 0.0), 0.6)]
    )
    def test_overflowing_bound_is_typed(self, env, q):
        # The weight-sum limit itself overflows, or C times its root does.
        with pytest.raises(NonFiniteResultError, match="overflows a double"):
            dual_norm_bound(env, q)

    def test_bound_value_against_closed_form(self):
        got = dual_norm_bound(GrowthEnvelope(1.0, 0.0), 1.0)
        exact = math.sqrt(SINH_PI_OVER_PI)
        assert exact <= got <= exact * (1 + 1e-6)
        assert got <= 2.2761

    def test_bound_dominates_actual_dual_norms(self):
        for phi in random_functionals(20, seed=9, support_max=8, max_terms=12):
            for p in (0.0, 1.0):
                env = fit_envelope(phi, p)
                for q in (p + 0.6, p + 1.0, p + 2.0):
                    assert norm_dual(phi, q) <= dual_norm_bound(env, q) * (1 + 1e-12)


class TestStrongConvergenceDiagnostic:
    def test_constant_sequence(self):
        phi = F(([], 1), ([0, 2], 2))
        diag = check_strong_convergence([phi, phi, phi], phi, GammaCursor(4))
        assert diag.pointwise_gaps == (0.0, 0.0, 0.0)
        assert diag.tail_gap == 0.0
        for p in (0.0, 1.0, 2.0):
            assert diag.envelopes[p] == fit_envelope(phi, p)

    def test_unbounded_scalars_fail_condition_one(self):
        z = basis_element(E)
        seq = [linear_combine(n, z, 0, z) for n in range(1, 6)]
        diag = check_strong_convergence(seq, ZERO, GammaCursor(2))
        assert diag.pointwise_gaps == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert diag.tail_gap == 5.0  # growing, not shrinking

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            check_strong_convergence([], ZERO, GammaCursor(2))


class TestNormRange:
    """Norms whose squared terms leave the double range."""

    def test_huge_coefficient(self):
        phi = F(([0], 1e300))
        assert norm_p(phi, 0.0) == 1e300
        assert norm_dual(phi, 2.0) == 1e300
        assert norm_p(F(([], complex(1e308, 1e308))), 0.0) == pytest.approx(math.sqrt(2) * 1e308)

    def test_underflowing_squares_keep_a_representable_norm(self):
        sigma = SubsetIndex(range(40))
        value = norm_dual(basis_element(sigma), 6.0)
        assert value > 0.0
        assert value == pytest.approx(lambda_weight(sigma) ** -6.0, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-160, 3e-161])
    def test_subnormal_sum_of_squares_keeps_every_bit(self, c):
        # c ** 2 is subnormal, so the plain root would keep only part of c's bits.
        assert norm_p(F(([], c)), 0.0) == c
        assert norm_dual(F(([0], -c)), 3.0) == c

    def test_overflowing_weight_with_small_coefficient(self):
        sigma = SubsetIndex(range(200))  # the weight alone overflows a double
        assert norm_dual(make_functional([(sigma, 1.0), (E, 1.0)]), 1.0) == 1.0

    def test_unrepresentable_norm_is_typed_error(self):
        with pytest.raises(NonFiniteResultError):
            norm_p(basis_element(SubsetIndex(range(60))), 10.0)

    @pytest.mark.parametrize(
        "norm, sigma",
        [(norm_p, [0, 2]), (norm_p, [3]), (norm_dual, [3])],
    )
    def test_extreme_level_is_short_typed_error(self, norm, sigma):
        # [0, 2] overflows through its power of two; [3] already overflows
        # exponent * log2(weight), above and below.
        phi = basis_element(SubsetIndex(sigma))
        with pytest.raises(NonFiniteResultError) as exc:
            norm(phi, 1e308)
        assert len(str(exc.value)) < 120


class TestPairingRange:
    """Pairing terms whose weight power alone leaves the double range."""

    def test_tiny_coefficients_past_the_weight_power_range(self):
        # 3 ** 838 overflows a double; times the squared coefficient 1e-400 it does not.
        t = F(([0, 2], 1e-200))
        assert inner_p(t, t, 419.0) == pytest.approx(norm_p(t, 419.0) ** 2)
        assert inner_dual(t, t, -419.0) == pytest.approx(norm_dual(t, -419.0) ** 2)

    def test_overflowing_term_is_typed_error(self):
        t = F(([0, 2], 1.0))
        with pytest.raises(NonFiniteResultError):
            inner_p(t, t, 419.0)
        with pytest.raises(NonFiniteResultError):
            inner_dual(t, t, -419.0)

    def test_weight_one_at_an_infinite_exponent(self):
        # -2p is inf at p = -1e308; the weight 1 of [0] keeps its power at 1,
        # so only the coefficients' product 1e400 overflows.
        phi = F(([0], 1e200))
        with pytest.raises(NonFiniteResultError):
            inner_dual(phi, phi, -1e308)

    def test_overflowing_sum_is_typed_error(self):
        # Each term (1e308 and 1.69e308) is finite; their sum is not.
        phi = F(([0], 1e154), ([1], 1.3e154))
        for pairing in (
            lambda: inner_p(phi, phi, 0.0),
            lambda: inner_dual(phi, phi, 0.0),
            lambda: dual_pair(phi, phi),
        ):
            with pytest.raises(NonFiniteResultError):
                pairing()

    def test_finite_products_keep_the_plain_formula(self):
        from fockcalc.gamma import mask_weight

        phis = random_functionals(20, 5, support_max=6, max_terms=12)
        for phi, psi in zip(phis[::2], phis[1::2]):
            for p in (-2.0, 0.0, 1.5):
                shared = [m for m in phi._terms if m in psi._terms]
                plain = [
                    mask_weight(m) ** (-2.0 * p) * phi._terms[m] * psi._terms[m].conjugate()
                    for m in shared
                ]
                assert inner_dual(phi, psi, p) == complex(
                    math.fsum(z.real for z in plain), math.fsum(z.imag for z in plain)
                )


def _rounded(exact):
    # ``exact`` rounded once to 53 bits, kept as a Fraction whatever its range.
    if not exact:
        return Fraction(0)
    order = exact.numerator.bit_length() - exact.denominator.bit_length()
    return Fraction(float(exact / Fraction(2) ** order)) * Fraction(2) ** order


class TestScaledSum:
    """The scaled sum of (mantissa, binary exponent) parts, against a Fraction sum."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-3000, 3000)),
            max_size=8,
        ),
        st.integers(0, 8),
    )
    # The parts far below the others break the tie the rest of the sum makes.
    @example([(1.0, -3000), (1.9, 1095), (1.9, 1095), (1.9, 1095)], 0)
    @example([(-1.0, -3000), (-1.9, 1095), (-1.9, 1095), (-1.9, 1095)], 0)
    def test_rounds_the_exact_sum_once(self, parts, cancelled):
        # Negated copies of the first parts cancel them exactly, so the rest of
        # the sum can lie any distance below the largest part.
        parts = parts + [(-mant, e) for mant, e in parts[:cancelled]]
        exact = sum((Fraction(mant) * Fraction(2) ** e for mant, e in parts), Fraction(0))
        s, shift = _scaled_sum(parts)
        assert Fraction(s) * Fraction(2) ** shift == _rounded(exact)

    def test_parts_far_apart_stay_small(self):
        # Integers spanning 10**300 bits could not be built; the parts that
        # cancel first and the parts far below a nonzero sum leave none to build.
        assert math.ldexp(*_scaled_sum([(1.0, 10**300), (-1.0, 10**300), (0.75, -5)])) == 0.75 / 32
        s, shift = _scaled_sum([(0.5, 10**300), (0.75, -5)])
        assert (s, shift) == (2.0 ** 959, 10**300 - 960)


def _check_rounded_once(parts):
    # _scaled_sum at any range, and _join where the sum is a normal double,
    # against the Fraction sum rounded once; _join's imaginary parts negated.
    exact = sum((Fraction(mant) * Fraction(2) ** e for mant, e in parts), Fraction(0))
    s, shift = _scaled_sum(parts)
    assert Fraction(s) * Fraction(2) ** shift == _rounded(exact)
    if exact == 0 or Fraction(2) ** -1022 <= abs(exact) < Fraction(2) ** 1024:
        joined = _join([(complex(mant, -mant), e) for mant, e in parts])
        assert (joined.real, joined.imag) == (float(exact), float(-exact))


class TestStickyBit:
    """Sums whose total is wider than 64 bits, with parts more than 4096 bits
    below it that decide a tie: only their sign may reach the rounding."""

    @pytest.mark.parametrize(
        "parts, rounded",
        [
            # 2**200 + 2**147 is a tie on an even mantissa, over 64 bits wide.
            ([(1.0, 200), (1.0, 147), (1.0, -5000)], 2.0**200 + 2.0**148),
            ([(1.0, 200), (1.0, 147), (-1.0, -5000)], 2.0**200),
            ([(1.0, 200), (1.0, 147), (1.0, -5000), (-1.0, -5000)], 2.0**200),
            # The same tie on an odd mantissa, with a pair that cancels inside it.
            ([(1 + 2.0**-52, 200), (1.0, 147), (0.5, 120), (-0.5, 120), (-1.0, -5000)],
             (1 + 2.0**-52) * 2.0**200),
            ([(1 + 2.0**-52, 200), (1.0, 147), (0.5, 120), (-0.5, 120)],
             (1 + 2.0**-51) * 2.0**200),
            # Far parts that cancel to one unit of their own last place.
            ([(1.0, 200), (1.0, 147), (1.0, -5000), (-(1 - 2.0**-53), -5000)],
             2.0**200 + 2.0**148),
            ([(1 + 2.0**-52, 200), (1.0, 147), (-1.0, -5000), (1 - 2.0**-53, -5000)],
             (1 + 2.0**-52) * 2.0**200),
            # A remainder 2**-3096 just inside the run, outweighed by the far
            # parts just outside it, which sum to 1.5 times its size.
            ([(1.0, 1000), (1.0, 947), (1.0, -3096), (-0.75, -3096), (-0.75, -3096)], 2.0**1000),
            ([(1.0, 1000), (1.0, 947), (-1.0, -3096), (0.75, -3096), (0.75, -3096)],
             2.0**1000 + 2.0**948),
            # A narrow total, 53 bits: the far part only keeps it where it is.
            ([(1 + 2.0**-52, 0), (1.0, -5000)], 1 + 2.0**-52),
            ([(1 + 2.0**-52, 0), (-1.0, -5000)], 1 + 2.0**-52),
            # Leading parts cancel; the sum left lies thousands of bits lower.
            ([(1.0, 3000), (-1.0, 3000), (0.75, 0), (1.0, -5000)], 0.75),
            ([(1.0, 3000), (-1.0, 3000), (1.0, 0), (1.0, -53), (-1.0, -5000)], 1.0),
        ],
    )
    def test_far_parts_break_ties(self, parts, rounded):
        _check_rounded_once(parts)
        assert _join([(complex(mant), e) for mant, e in parts]).real == rounded

    @pytest.mark.parametrize("tail", [[(1.0, -200)], [(-1.0, -200)], [(1.0, -200), (-1.0, -200)]])
    def test_far_parts_near_the_remainder(self, tail):
        # A total 4000 bits wide whose low bits cancel: the parts below the
        # rounding position read as one sticky bit, far beyond a double.
        _check_rounded_once([(1.0, 4000), (1.0, 3947), (1.0, 0), (-1.0, 0)] + tail)
        _check_rounded_once([(1.0, 4000), (1.0, 3947), (1.0, 5)] + tail)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2**52, 2**53 - 1),
        st.integers(-1000, 900),
        st.sampled_from([-1.0, 1.0]),
        st.integers(12, 200),
        st.lists(st.tuples(st.sampled_from([1.0, -1.0, 0.75, -1.5]), st.integers(4200, 6000)),
                 max_size=3),
        st.integers(0, 3),
    )
    def test_ties_rounded_once(self, n, order, side, gap, tail, cancelled):
        # A 53-bit head, a half unit of its last place, a pair that cancels
        # ``gap`` bits below that, and parts more than 4096 bits below the head,
        # some of them cancelled by negated copies.
        tail = [(mant, order - depth) for mant, depth in tail]
        parts = [(math.ldexp(n, -52), order), (side, order - 53),
                 (1.0, order - 53 - gap), (-1.0, order - 53 - gap)]
        _check_rounded_once(parts + tail + [(-mant, e) for mant, e in tail[:cancelled]])


class TestJoinBelowTheNormalRange:
    """A pairing's scaled parts, summed into the subnormal range, round once."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**53), 2**53), st.integers(-(2**53), 2**53),
                # Parts up to 2**-1027, and parts far below those.
                st.one_of(st.integers(-1200, -1080), st.integers(-6000, -5000)),
            ),
            max_size=8,
        )
    )
    # 2**-1075 + 2**-1135 lies above the tie at half the smallest subnormal.
    @example([(1, 0, -1075), (1, 0, -1135)])
    def test_rounds_the_exact_sum_once(self, drawn):
        parts = [(complex(re, im), e) for re, im, e in drawn]
        exact = [
            sum((Fraction(n) * Fraction(2) ** e for n, e in components), Fraction(0))
            for components in ([(re, e) for re, _, e in drawn], [(im, e) for _, im, e in drawn])
        ]
        assert all(abs(x) < Fraction(2) ** -1022 for x in exact)
        joined = _join(parts)
        assert (joined.real, joined.imag) == (float(exact[0]), float(exact[1]))

    def test_pairing_of_subnormal_terms(self):
        a = F(([], 2.0**-537), ([0], 2.0**-567))
        b = F(([], 2.0**-538), ([0], 2.0**-568))
        assert inner_dual(a, b, 0.0) == 5e-324
