"""Pathwise oracle: enumeration, conditioning, and the coefficient bridge.

Where the implementation takes a shortcut (the transform inside the
orthonormality sweep, the popcount parity inside ``evaluate``, the shared
site sweep of the bridge suite and the reduced path sets it realizes on), a
direct computation re-derives the same numbers at small horizons.
"""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockcalc import (
    CapExceededError,
    FockFunctional,
    HorizonTooLargeError,
    NonFiniteResultError,
    PathSpace,
    RequiresExhaustiveError,
    SubsetIndex,
    SupportExceedsHorizonError,
    ZERO,
    annihilate,
    basis_element,
    build_space,
    check_intertwining,
    check_orthonormality,
    classical_clark_ocone_check,
    cond_expect,
    evaluate,
    expect,
    make_functional,
    mc_estimate,
    norm_p,
    path_cond_expect,
    path_expectation,
    plancherel_check,
    random_functionals,
    write_observable_csv,
)


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


MIXED = F(([], 2), ([0, 2], 3))


def signs_of(space):
    """The space's paths as a sign matrix: row m holds path m's signs in {-1, +1}."""
    bits = (space.codes[:, None] >> np.arange(space.horizon)) & 1
    return (bits * 2 - 1).astype(np.int8)


def redrawn_up_bits(horizon, paths, seed):
    """A fresh PCG64 draw of a sampled space: entry [i, k] is 1 iff path i is up at k."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 2, size=(paths, horizon), dtype=np.int8)


def product_reference(phi, space):
    """Sum over terms, in ascending mask order, of coef times the product of
    the member columns of the sign matrix."""
    signs = signs_of(space)
    values = np.zeros(space.num_paths, dtype=np.complex128)
    for sigma, coef in phi.items():
        if sigma.elements:
            values += coef * np.prod(signs[:, list(sigma.elements)], axis=1)
        else:
            values += coef
    return values


def bitwise_equal(a, b):
    # Real and imaginary parts compared separately; equal NaNs count as equal.
    return np.array_equal(a.view(np.float64), b.view(np.float64), equal_nan=True)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def functional_and_space(draw):
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        space = build_space(n)
    else:
        space = build_space(
            n, "sampled", M=draw(st.integers(1, 64)), seed=draw(st.integers(0, 2**32))
        )
    # The empty set and a set holding the top site are always present.
    masks = {0, draw(st.integers(0, (1 << (n - 1)) - 1)) | 1 << (n - 1)}
    masks |= set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)))
    terms = [
        (SubsetIndex.from_mask(m), complex(draw(finite), draw(finite))) for m in sorted(masks)
    ]
    return make_functional(terms), space


class TestBuildSpace:
    def test_two_paths_at_horizon_one(self):
        space = build_space(1)
        assert space.num_paths == 2
        assert signs_of(space).tolist() == [[-1], [1]]

    def test_horizon_three(self):
        space = build_space(3)
        assert space.num_paths == 8
        assert sorted(map(tuple, signs_of(space).tolist())) == sorted(
            itertools.product([-1, 1], repeat=3)
        )

    def test_binary_order(self):
        space = build_space(3)
        # path index 5 = 0b101: coordinates 0 and 2 up, coordinate 1 down
        assert signs_of(space)[5].tolist() == [1, -1, 1]

    def test_sampled_reproducible(self):
        a = build_space(4, "sampled", M=1000, seed=7)
        b = build_space(4, "sampled", M=1000, seed=7)
        assert np.array_equal(a.codes, b.codes)
        redrawn = (redrawn_up_bits(4, 1000, 7).astype(np.int64) << np.arange(4)).sum(axis=1)
        assert np.array_equal(a.codes, redrawn)
        c = build_space(4, "sampled", M=1000, seed=8)
        assert not np.array_equal(a.codes, c.codes)

    def test_codes_hold_the_up_coordinates(self):
        exhaustive = build_space(4)
        assert exhaustive.codes.dtype == np.int64
        assert np.array_equal(exhaustive.codes, np.arange(16))
        sampled = build_space(7, "sampled", M=300, seed=4)
        bits = (sampled.codes[:, None] >> np.arange(7)) & 1
        assert sampled.codes.dtype == np.int64
        assert np.array_equal(bits, redrawn_up_bits(7, 300, 4))

    def test_space_holds_only_its_codes(self):
        # The codes of 2**20 paths are 8 MiB; a sign matrix or weight array
        # next to them would more than double the peak.
        assert [f.name for f in dataclasses.fields(PathSpace)] == [
            "horizon", "mode", "codes", "seed"
        ]
        tracemalloc.start()
        try:
            assert build_space(20).num_paths == 1 << 20
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_sampled_horizon_fits_a_path_code(self):
        space = build_space(63, "sampled", M=50, seed=2)
        top = evaluate(basis_element(SubsetIndex([62])), space).values
        assert np.array_equal(top, signs_of(space)[:, 62])
        with pytest.raises(HorizonTooLargeError, match="63"):
            build_space(64, "sampled", M=50, seed=2)

    def test_caps_and_argument_errors(self):
        with pytest.raises(HorizonTooLargeError):
            build_space(21)
        with pytest.raises(ValueError):
            build_space(0)
        with pytest.raises(ValueError):
            build_space(4, "sampled", M=10)  # no seed
        with pytest.raises(ValueError):
            build_space(4, "sampled", seed=1)  # no path count


class TestEvaluate:
    def test_constant(self):
        space = build_space(3)
        assert np.all(evaluate(basis_element(SubsetIndex([])), space).values == 1)

    def test_product_on_one_path(self):
        space = build_space(3)
        obs = evaluate(basis_element(SubsetIndex([0, 2])), space)
        # path (+1, -1, -1) is index 0b001 = 1
        assert obs.values[1] == -1

    def test_mixed_on_all_up_path(self):
        space = build_space(3)
        assert evaluate(MIXED, space).values[7] == 5  # 2 + 3 * (+1)(+1)

    def test_support_must_fit(self):
        with pytest.raises(SupportExceedsHorizonError):
            evaluate(F(([5], 1)), build_space(3))

    @pytest.mark.parametrize("n", [1, 5, 10, 14])
    def test_random_corpus_matches_product_reference(self, n):
        space = build_space(n)
        for phi in random_functionals(20, seed=57 + n, support_max=n - 1, max_terms=24):
            assert bitwise_equal(evaluate(phi, space).values, product_reference(phi, space))


@settings(max_examples=80, deadline=None)
@given(functional_and_space())
def test_evaluate_matches_product_of_signs(drawn):
    phi, space = drawn
    # Sums of coefficients near the double limit may overflow, in both alike;
    # evaluate then names the first path that holds no finite value.
    with np.errstate(over="ignore", invalid="ignore"):
        reference = product_reference(phi, space)
    finite = np.isfinite(reference)
    if finite.all():
        assert bitwise_equal(evaluate(phi, space).values, reference)
    else:
        with pytest.raises(NonFiniteResultError) as info:
            evaluate(phi, space)
        first = int(np.argmin(finite))
        assert str(info.value) == f"the realized value at path index {first} is not a finite number"


class TestPathExpectation:
    def test_nonconstant_basis_means_vanish(self):
        space = build_space(5)
        for elems in ([0], [3], [0, 2], [1, 2, 4]):
            obs = evaluate(basis_element(SubsetIndex(elems)), space)
            assert path_expectation(obs) == 0

    def test_constant(self):
        assert path_expectation(evaluate(basis_element(SubsetIndex([])), build_space(2))) == 1

    def test_mean_kills_fluctuations(self):
        assert path_expectation(evaluate(MIXED, build_space(4))) == 2


class TestPathConditioning:
    def test_averaging_out_future_coordinates(self):
        space = build_space(3)
        obs = evaluate(basis_element(SubsetIndex([0, 2])), space)
        assert np.all(path_cond_expect(obs, 1).values == 0)

    def test_measurable_observable_unchanged(self):
        space = build_space(3)
        obs = evaluate(basis_element(SubsetIndex([0, 2])), space)
        assert np.array_equal(path_cond_expect(obs, 2).values, obs.values)

    def test_conditioning_on_everything(self):
        space = build_space(4)
        obs = evaluate(MIXED, space)
        assert np.array_equal(path_cond_expect(obs, 3).values, obs.values)

    def test_level_minus_one_is_mean(self):
        space = build_space(3)
        obs = evaluate(MIXED, space)
        assert np.all(path_cond_expect(obs, -1).values == 2)

    def test_requires_exhaustive(self):
        space = build_space(3, "sampled", M=10, seed=1)
        obs = evaluate(MIXED, space)
        with pytest.raises(RequiresExhaustiveError):
            path_cond_expect(obs, 1)

    def test_tower_property(self):
        space = build_space(5)
        for phi in random_functionals(5, seed=51, support_max=4, max_terms=10):
            obs = evaluate(phi, space)
            for j in (-1, 1, 3):
                for k in (0, 2, 4):
                    twice = path_cond_expect(path_cond_expect(obs, j), k).values
                    once = path_cond_expect(obs, min(j, k)).values
                    assert np.max(np.abs(twice - once)) <= 1e-14

    @pytest.mark.parametrize("coef", [1e308, -1.7e308 + 1.7e308j])
    def test_finite_values_summing_past_the_range_keep_their_mean(self, coef):
        # Every path holds the constant; its group sums overflow a double.
        obs = evaluate(F(([], coef)), build_space(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-1, 0, 1):
                assert np.all(path_cond_expect(obs, k).values == coef)
            assert path_expectation(obs) == coef


def _random_rows(rng, rows, n):
    # Complex values spread over 16 decades, so that the order of the
    # additions shows in the rounding.
    shape = (rows, 1 << n)
    scale = 10.0 ** rng.uniform(-8, 8, shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


class TestHalvingTree:
    # ``_group_means`` adds the two halves of each row from the top
    # coordinate down, then divides once by a power of two.
    @pytest.mark.parametrize("n", range(1, 17))
    def test_rows_repeated_along_a_coordinate_above_k_average_as_one_copy(self, n):
        from fockcalc.bridge import _group_means

        copy = _random_rows(np.random.default_rng(70 + n), 2, n - 1)
        for c in range(n):
            # Coordinate c of ``repeated`` is a copy of ``copy``'s coordinates
            # 0..c-1 and c..n-2 with bit c dropped.
            high_low = copy.reshape(2, -1, 1, 1 << c)
            repeated = np.broadcast_to(high_low, (2, high_low.shape[1], 2, 1 << c)).reshape(2, -1)
            for k in range(-1, c):
                assert _group_means(repeated, k).tobytes() == _group_means(copy, k).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 13, 16])
    def test_each_level_is_the_mean_of_the_level_above(self, n):
        # The tree that ends at level k passes through level j > k, so
        # conditioning on j first changes nothing, bit for bit.
        from fockcalc.bridge import _group_means

        values = _random_rows(np.random.default_rng(80 + n), 2, n)
        for j in range(n):
            above = _group_means(values, j)
            for k in range(-1, j):
                assert _group_means(above, k).tobytes() == _group_means(values, k).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 12])
    def test_each_group_mean_is_within_n_roundings_of_the_exact_mean(self, n):
        from fockcalc.bridge import _group_means

        values = _random_rows(np.random.default_rng(90 + n), 1, n)[0]
        eps = np.finfo(np.float64).eps
        for k in range(-1, n):
            groups = values.reshape(-1, 1 << (k + 1)).T
            means = _group_means(values, k)
            for mean, group in zip(means, groups):
                for part in (np.real, np.imag):
                    exact = math.fsum(part(group)) / len(group)
                    bound = n * eps * math.fsum(np.abs(part(group))) / len(group)
                    assert abs(part(mean) - exact) <= bound


class TestOrthonormality:
    def test_small_horizons_exact(self):
        assert check_orthonormality(2) == 0.0
        assert check_orthonormality(8) <= 1e-12

    def test_against_direct_pairwise_oracle(self):
        # brute force every pair of subsets of {0..2} on the 8 paths
        n = 3
        space = build_space(n)
        worst = 0.0
        subsets = [
            SubsetIndex(c)
            for r in range(n + 1)
            for c in itertools.combinations(range(n), r)
        ]
        for a in subsets:
            for b in subsets:
                va = evaluate(basis_element(a), space).values
                vb = evaluate(basis_element(b), space).values
                mean = float(np.sum((va * vb).real) / space.num_paths)
                want = 1.0 if a == b else 0.0
                worst = max(worst, abs(mean - want))
        assert worst == check_orthonormality(n) == 0.0

    def test_horizon_cap(self):
        with pytest.raises(HorizonTooLargeError):
            check_orthonormality(17)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_gap_is_a_python_float(self, n):
        assert type(check_orthonormality(n)) is float


class TestClassicalClarkOcone:
    def test_two_site_basis(self):
        assert classical_clark_ocone_check(basis_element(SubsetIndex([0, 2])), build_space(3)) == 0.0

    def test_pure_mean(self):
        assert classical_clark_ocone_check(basis_element(SubsetIndex([])), build_space(2)) == 0.0

    def test_random_corpus(self):
        space = build_space(6)
        for phi in random_functionals(50, seed=52, support_max=5, max_terms=12):
            assert classical_clark_ocone_check(phi, space) <= 1e-10

    def test_support_must_fit(self):
        with pytest.raises(SupportExceedsHorizonError):
            classical_clark_ocone_check(F(([4], 1)), build_space(3))


class TestSpaceArguments:
    def test_sampled_space_rejected(self):
        space = build_space(3, "sampled", M=10, seed=1)
        with pytest.raises(RequiresExhaustiveError):
            classical_clark_ocone_check(MIXED, space)
        with pytest.raises(RequiresExhaustiveError):
            check_intertwining(MIXED, 0, space)

    def test_bridge_suite_builds_one_space(self, monkeypatch):
        import fockcalc.suite as suite

        built = []

        def counting_build_space(*args, **kwargs):
            built.append(args)
            return build_space(*args, **kwargs)

        monkeypatch.setattr(suite, "build_space", counting_build_space)
        report = suite.run_suite(suite.SuiteConfig(suite="bridge", trials=3, horizon=5))
        assert report["pass"]
        assert built == [(5, "exhaustive")]


def count_realizations(monkeypatch):
    """Record, per call of the one realization kernel, how many functionals
    it realizes and on how many paths each."""
    import fockcalc.bridge as bridge

    calls = []
    original = bridge._realize

    def counting_realize(block, down):
        calls.append((len(block), down.size))
        return original(block, down)

    monkeypatch.setattr(bridge, "_realize", counting_realize)
    return calls


class TestSharedSweep:
    @pytest.mark.parametrize("n, trials", [(1, 2), (5, 3), (7, 4)])
    def test_bridge_suite_realizes_each_functional_once(self, monkeypatch, n, trials):
        # Per trial: phi and its mean part, then per site its gradient and,
        # below the top site, its conditioning, each realized exactly once:
        # phi on every path, the mean part on one, each gradient on half of
        # them and the level-k conditioning on 2**(k+1).  The level N-1
        # conditioning is phi itself, read from phi's values.  The trials fit
        # one block, so each of those is one call for all of them.
        import fockcalc.suite as suite

        calls = count_realizations(monkeypatch)
        report = suite.run_suite(suite.SuiteConfig(suite="bridge", trials=trials, horizon=n))
        assert report["pass"]
        assert sum(functionals for functionals, _ in calls) == trials * (2 * n + 1)
        per_trial = (1 << n) + 1 + n * (1 << (n - 1)) + sum(1 << (k + 1) for k in range(n - 1))
        assert sum(functionals * paths for functionals, paths in calls) == trials * per_trial
        assert [functionals for functionals, _ in calls] == [trials] * (2 * n + 1)

    def test_single_site_command_makes_four_per_trial(self, monkeypatch, capsys):
        from fockcalc.cli import main

        calls = count_realizations(monkeypatch)
        assert main(["bridge", "--horizon", "5", "--trials", "6", "--k", "2"]) == 0
        capsys.readouterr()
        assert sum(functionals for functionals, _ in calls) == 6 * 4
        assert [paths for _, paths in calls] == [32, 1, 16, 8]

    def test_table_rows_equal_the_separate_checks(self):
        from fockcalc.bridge import _plancherel_gap, _swept

        space = build_space(6)
        corpus = random_functionals(15, seed=58, support_max=5, max_terms=16)
        table = _swept(corpus, space, range(6))
        for b, phi in enumerate(corpus):
            assert table["clark_ocone"][b] == classical_clark_ocone_check(phi, space)
            assert site_gaps(table, b) == [check_intertwining(phi, k, space) for k in range(6)]
            gap = _plancherel_gap(table["second_moment"][b], norm_p(phi, 0.0))
            assert gap == plancherel_check(phi, space)

    def test_sweeps_need_the_exhaustive_space_and_its_sites(self):
        from fockcalc.bridge import _swept

        with pytest.raises(RequiresExhaustiveError):
            _swept([MIXED], build_space(3, "sampled", M=10, seed=1), range(3))
        with pytest.raises(ValueError, match="site 3 outside horizon 3"):
            _swept([MIXED], build_space(3), (0, 3))
        with pytest.raises(HorizonTooLargeError):
            classical_clark_ocone_check(MIXED, build_space(17))
        # The space's mode is checked before its horizon.
        with pytest.raises(RequiresExhaustiveError):
            classical_clark_ocone_check(MIXED, build_space(17, "sampled", M=10, seed=1))


def site_gaps(table, b):
    """Row b of a sweep's table as (gradient, mean, conditioning) per swept site,
    the tuples ``check_intertwining`` returns."""
    mean = table["mean"][b]
    return [
        (gradient, mean, conditioning)
        for gradient, conditioning in zip(table["gradient"][b], table["conditioning"][b])
    ]


def swept_alone(corpus, space, sites):
    """The table of every functional of ``corpus`` swept on its own, row by row."""
    from fockcalc.bridge import _swept

    tables = [_swept([phi], space, sites) for phi in corpus]
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


def assert_same_rows(table, other, rows):
    """``table`` and ``other`` hold the same names and, in ``rows``, the same bits."""
    assert table.keys() == other.keys()
    for name in table:
        assert table[name][rows].tobytes() == other[name][rows].tobytes(), name


class TestSweepTable:
    # The sweep's one result: named arrays with a row per functional, in
    # corpus order, over blocks of max(1, _BLOCK_PATHS >> horizon).
    @pytest.mark.parametrize("n, count", [(3, 7), (10, 19)])
    def test_names_shapes_and_corpus_order(self, n, count):
        # At horizon 3 the corpus is one block; at 10, blocks of 8, 8 and 3.
        from fockcalc.bridge import _second_moments, _swept

        space = build_space(n)
        corpus = mixed_corpus(n, count, seed=67 + n)
        shapes = {"mean": (count,), "second_moment": (count,)}
        # Every site in ascending order rebuilds phi; in another order it does not.
        for sites in (range(n), range(n - 1, -1, -1), (n - 1, 0), (n // 2,)):
            table = _swept(corpus, space, sites)
            expected = shapes | {
                "gradient": (count, len(sites)), "conditioning": (count, len(sites))
            }
            if sites == range(n):
                expected["clark_ocone"] = (count,)
            assert {name: column.shape for name, column in table.items()} == expected
            assert all(column.dtype == np.float64 for column in table.values())
            # A block is swept by falling term count; its rows come back in
            # corpus order, each that of its member swept alone.
            assert_same_rows(table, swept_alone(corpus, space, sites), slice(None))
            for b, phi in enumerate(corpus):
                moment = _second_moments(evaluate(phi, space).values)
                assert table["second_moment"][b] == moment
                for j, k in enumerate(sites):
                    assert site_gaps(table, b)[j] == check_intertwining(phi, k, space)


def full_space_sweep(phi, space):
    """The bridge sweep with every functional realized on all 2**N paths.

    Returns the Clark–Ocone residual and, per site, the three intertwining
    gaps, computed as the separate checks define them.
    """
    direct = evaluate(phi, space)
    values = direct.values
    mean = path_expectation(direct)
    rebuilt = np.full(space.num_paths, mean)
    gap_mean = float(np.max(np.abs(evaluate(expect(phi), space).values - mean)))
    site_gaps = []
    for k in range(space.horizon):
        gradient = evaluate(annihilate(phi, k), space)
        # Path m sits at [high, bit k of m, low] in these views; bit k clear is -1.
        predictable = path_cond_expect(gradient, k - 1).values.reshape(-1, 2, 1 << k)
        halves = rebuilt.reshape(predictable.shape)
        halves[:, 0, :] -= predictable[:, 0, :]
        halves[:, 1, :] += predictable[:, 1, :]
        pairs = values.reshape(predictable.shape)
        finite_difference = 0.5 * (pairs[:, 1:, :] - pairs[:, :1, :])
        gradient_pairs = gradient.values.reshape(pairs.shape)
        gap_gradient = float(np.max(np.abs(finite_difference - gradient_pairs)))
        cond_functional = evaluate(cond_expect(phi, k), space).values
        gap_cond = float(np.max(np.abs(cond_functional - path_cond_expect(direct, k).values)))
        site_gaps.append((gap_gradient, gap_mean, gap_cond))
    return float(np.max(np.abs(values - rebuilt))), site_gaps


class TestReducedPathSweep:
    @pytest.mark.parametrize(
        "n, count", [(1, 6), (2, 6), (3, 6), (4, 5), (5, 5), (6, 4), (7, 4), (8, 3), (14, 1), (16, 1)]
    )
    def test_every_gap_equals_the_full_space_sweep(self, n, count):
        from fockcalc.bridge import _plancherel_gap, _swept

        space = build_space(n)
        for seed in (59, 60):
            corpus = random_functionals(count, seed=seed + n, support_max=n - 1)
            table = _swept(corpus, space, range(n))
            for b, phi in enumerate(corpus):
                co_gap, full_site_gaps = full_space_sweep(phi, space)
                assert table["clark_ocone"][b] == co_gap
                assert site_gaps(table, b) == full_site_gaps
                second_moment = table["second_moment"][b]
                gap = _plancherel_gap(second_moment, norm_p(phi, 0.0))
                assert gap == plancherel_check(phi, space)
                assert classical_clark_ocone_check(phi, space) == co_gap
                for k in range(n):
                    assert check_intertwining(phi, k, space) == full_site_gaps[k]


def _keeps_bit(phi, k):
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m >> k & 1})


def _keeps_bit_negated(phi, k):
    # Right on the paths with bit k clear, where the kept sign is -1, and
    # wrong on the others: only a sweep that realizes it there can tell.
    return FockFunctional._of_masks({m: -c for m, c in phi._terms.items() if m >> k & 1})


def _conjugates(phi, k):
    return FockFunctional._of_masks(
        {m ^ (1 << k): c.conjugate() for m, c in phi._terms.items() if m >> k & 1}
    )


def _keeps_level_boundary(phi, k):
    return FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m <= 1 << (k + 1)})


def _adds_a_pair_that_cancels_above(phi, k):
    # Adds c * (chi(m) + chi(m without site k + 1)) per term m of phi at level
    # k + 1.  The pair cancels on the paths with site k + 1 down, so only a
    # sweep that realizes it on the others can tell.
    bit = 1 << (k + 1)
    terms = {m: c for m, c in phi._terms.items() if m < bit}
    for m, c in phi._terms.items():
        if bit <= m < bit << 1:
            terms[m] = c
            terms[m ^ bit] = terms.get(m ^ bit, 0j) + c
    return FockFunctional._of_masks(terms)


def _adds_a_pair_that_cancels_at_path_zero(phi):
    # 1 + chi({0}) vanishes on the path with every site down.
    return FockFunctional._of_masks({0: phi._terms.get(0, 0j) + 1, 1: 1 + 0j})


def _drops_top_term(phi, k):
    kept = {m: c for m, c in phi._terms.items() if m < 1 << (k + 1)}
    kept.pop(max(kept, default=None), None)
    return FockFunctional._of_masks(kept)


class TestPlantedFaults:
    # Each fault replaces one operator in the bridge's namespace; the sweep
    # must still realize it on paths where it shows, never pass it and never
    # end in an internal error.
    @pytest.mark.parametrize(
        "name, fault, failing",
        [
            ("annihilate", _keeps_bit, {"clark_ocone_pathwise", "intertwining"}),
            ("annihilate", _conjugates, {"clark_ocone_pathwise", "intertwining"}),
            ("annihilate", _keeps_bit_negated, {"clark_ocone_pathwise", "intertwining"}),
            ("cond_expect", _keeps_level_boundary, {"intertwining"}),
            ("cond_expect", _drops_top_term, {"intertwining"}),
            ("cond_expect", _adds_a_pair_that_cancels_above, {"intertwining"}),
            ("expect", lambda phi: FockFunctional._of_masks({}), {"intertwining"}),
            ("expect", _adds_a_pair_that_cancels_at_path_zero, {"intertwining"}),
        ],
    )
    def test_bridge_suite_fails_exactly_the_checks_a_fault_breaks(
        self, monkeypatch, name, fault, failing
    ):
        import fockcalc.bridge as bridge
        import fockcalc.suite as suite

        monkeypatch.setattr(bridge, name, fault)
        report = suite.run_suite(suite.SuiteConfig(suite="bridge", trials=40, horizon=6))
        assert {c["check"] for c in report["checks"] if not c["pass"]} == failing


def mixed_corpus(n, count, seed):
    """``count`` functionals on horizon n whose term counts differ: a random
    corpus with ``ZERO``, a constant-only functional and one holding every
    mask below 2**min(n, 6) placed inside it."""
    corpus = list(random_functionals(count - 3, seed=seed, support_max=n - 1, max_terms=24))
    every_mask = FockFunctional._of_masks(
        {m: complex(m + 1, -m) for m in range(1 << min(n, 6))}
    )
    corpus.insert(1, ZERO)
    corpus.insert(len(corpus) // 2, F(([], 2 - 0.5j)))
    corpus.insert(len(corpus) - 1, every_mask)
    return corpus


class TestBlocks:
    # The sweep takes the corpus in blocks of max(1, _BLOCK_PATHS >> horizon)
    # functionals; 2 * block + 1 trials end in a block of one after two full ones.
    @pytest.mark.parametrize("n", [4, 8, 10, 12])
    def test_every_member_gets_the_gaps_of_its_own_sweep(self, monkeypatch, n):
        import fockcalc.bridge as bridge

        step = max(1, bridge._BLOCK_PATHS >> n)
        count = 2 * step + 1 if n > 4 else 11
        space = build_space(n)
        corpus = mixed_corpus(n, count, seed=61 + n)
        calls = count_realizations(monkeypatch)
        table = bridge._swept(corpus, space, range(n))
        blocks = [step, step, 1] if n > 4 else [count]
        # Per block: phi, its mean part and n gradients, and the conditioning
        # at each site below the block's highest one; from there on it is
        # phi itself, read from phi's values.
        starts = itertools.accumulate([0, *blocks])
        realized = [
            n + 2 + max(phi.support_max for phi in corpus[start : start + b])
            for start, b in zip(starts, blocks)
        ]
        assert [b for b, _ in calls] == [b for b, r in zip(blocks, realized) for _ in range(r)]
        assert_same_rows(table, swept_alone(corpus, space, range(n)), slice(None))
        for k in range(n):
            at_k = bridge._swept(corpus, space, (k,))
            for b, phi in enumerate(corpus):
                assert site_gaps(at_k, b) == [check_intertwining(phi, k, space)]
        for b, phi in enumerate(corpus):
            full_co_gap, full_site_gaps = full_space_sweep(phi, space)
            assert table["clark_ocone"][b] == full_co_gap == classical_clark_ocone_check(phi, space)
            assert site_gaps(table, b) == full_site_gaps
            gap = bridge._plancherel_gap(table["second_moment"][b], norm_p(phi, 0.0))
            assert gap == plancherel_check(phi, space)

    def test_block_values_are_each_members_evaluation(self):
        import fockcalc.bridge as bridge

        space = build_space(7)
        corpus = mixed_corpus(7, 20, seed=62)
        values = bridge._realize(corpus, ~space.codes)
        assert values.shape == (20, 128)
        for phi, row in zip(corpus, values):
            assert bitwise_equal(row, evaluate(phi, space).values)
            assert bitwise_equal(row, product_reference(phi, space))
        assert bridge._realize([], ~space.codes).shape == (0, 128)

    @pytest.mark.parametrize(
        "name, fault", [("annihilate", _keeps_bit_negated), ("cond_expect", _keeps_level_boundary)]
    )
    def test_a_fault_in_one_member_moves_the_whole_block_to_every_path(
        self, monkeypatch, name, fault
    ):
        # Only the fourth member's operator output meets the coordinates its
        # reduced path set fixes, so the whole block is realized on every
        # path; the others keep their gaps, bit for bit.
        import fockcalc.bridge as bridge

        space = build_space(6)
        corpus = mixed_corpus(6, 10, seed=63)
        clean = bridge._swept(corpus, space, range(6))
        correct = getattr(bridge, name)

        def faulty(phi, k):
            return fault(phi, k) if phi is corpus[3] else correct(phi, k)

        monkeypatch.setattr(bridge, name, faulty)
        alone = bridge._swept([corpus[3]], space, range(6))
        calls = count_realizations(monkeypatch)
        table = bridge._swept(corpus, space, range(6))
        assert_same_rows(table, clean, [0, 1, 2, 4, 5, 6, 7, 8, 9])
        assert_same_rows(table, swept_alone(corpus, space, range(6)), 3)
        gaps = ("clark_ocone", "mean", "gradient", "conditioning")
        assert max(table[name][3].max() for name in gaps) > 1e-10
        assert calls.count((10, 64)) > 1


def product_functional(a):
    """phi_a with coefficient prod_{k in sigma} a_k at every mask of len(a) sites."""
    coefs = [1 + 0j]
    for a_k in a:
        coefs += [c * a_k for c in coefs]
    return FockFunctional._of_masks(dict(enumerate(coefs)))


class TestProductOracle:
    # phi_a(omega) = sum over sigma of prod_{k in sigma} a_k omega_k
    # = prod_k (1 + a_k omega_k), an O(N) value per path that shares no code
    # with the parity sum.
    @pytest.mark.parametrize("seed, width", [(64, 0.5), (65, 2.0), (66, 1.0)])
    def test_product_functionals_of_horizons_1_to_12_in_one_block(self, seed, width):
        import fockcalc.bridge as bridge

        rng = np.random.default_rng(seed)
        space = build_space(12)
        signs = signs_of(space)
        factors = [
            rng.uniform(-width, width, n) + 1j * rng.uniform(-width, width, n)
            for n in range(1, 13)
        ]
        values = bridge._realize([product_functional(a) for a in factors], ~space.codes)
        eps = np.finfo(np.float64).eps
        for a, row in zip(factors, values):
            n = len(a)
            oracle = np.ones(space.num_paths, dtype=np.complex128)
            for k in range(n):
                oracle *= 1 + a[k] * signs[:, k]
            # Every coefficient and oracle value is a product of at most n
            # complex factors; the path value sums the terms, whose moduli add
            # up to prod(1 + |a_k|).  4 * n * eps of that covers the products'
            # roundings with room for the sum's own.
            tolerance = 4 * n * eps * np.prod(1 + np.abs(a))
            assert np.max(np.abs(row - oracle)) <= tolerance


class TestIntertwining:
    def test_two_site_basis(self):
        assert check_intertwining(basis_element(SubsetIndex([0, 2])), 2, build_space(3)) == (
            0.0,
            0.0,
            0.0,
        )

    def test_constant(self):
        z = basis_element(SubsetIndex([]))
        space = build_space(3)
        for k in range(3):
            assert check_intertwining(z, k, space) == (0.0, 0.0, 0.0)

    def test_random_corpus(self):
        space = build_space(6)
        for phi in random_functionals(20, seed=53, support_max=5, max_terms=10):
            for k in range(6):
                gaps = check_intertwining(phi, k, space)
                assert max(gaps) <= 1e-10

    def test_flip_difference_matches_annihilation(self):
        # the finite difference along a coordinate equals the coefficient
        # action pathwise, path by path
        space = build_space(5)
        index = np.arange(space.num_paths)
        for phi in random_functionals(10, seed=54, support_max=4, max_terms=10):
            values = evaluate(phi, space).values
            for k in range(5):
                fd = 0.5 * (values[index | (1 << k)] - values[index & ~(1 << k)])
                via = evaluate(annihilate(phi, k), space).values
                assert np.max(np.abs(fd - via)) <= 1e-12

    def test_conditioning_square_commutes(self):
        space = build_space(5)
        for phi in random_functionals(10, seed=55, support_max=4, max_terms=10):
            obs = evaluate(phi, space)
            for k in range(-1, 5):
                via_coeff = evaluate(cond_expect(phi, k), space).values
                via_paths = path_cond_expect(obs, k).values
                assert np.max(np.abs(via_coeff - via_paths)) <= 1e-13


class TestPlancherel:
    def test_bridge_gap_tiny(self):
        space = build_space(7)
        for phi in random_functionals(20, seed=56, support_max=6, max_terms=14):
            gap = plancherel_check(phi, space)
            assert gap <= 1e-12 * (1 + norm_p(phi, 0.0) ** 2)


class TestLargeFiniteFunctionals:
    """Values near 1e160 are finite, and so are their gaps; their squares are not."""

    PHI = F(([], 1e160), ([1], 1e160))

    def test_checks_that_read_no_second_moment_warn_of_none(self):
        space = build_space(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classical_clark_ocone_check(self.PHI, space) == 0.0
            for k in range(2):
                assert check_intertwining(self.PHI, k, space) == (0.0, 0.0, 0.0)

    def test_plancherel_raises_a_typed_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="second moment"):
                plancherel_check(self.PHI, build_space(2))


class TestFiniteValuesPastTheRange:
    """Finite values whose path sums leave the double range keep finite means."""

    def test_constant_passes_every_check(self):
        # Its sum over 2 or more paths overflows; its means are the constant.
        phi, space = F(([], 1e308)), build_space(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classical_clark_ocone_check(phi, space) == 0.0
            for k in range(3):
                assert check_intertwining(phi, k, space) == (0.0, 0.0, 0.0)

    def test_second_moment_that_fits_is_read(self):
        # Squares up to 2.5e307 sum past the range over 2**14 paths; their
        # mean, 5e306, is the squared norm.
        phi = F(*[(s, 1e153) for s in ([], [0], [1], [2], [3])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plancherel_check(phi, build_space(14)) == 0.0

    def test_second_moment_whose_squares_overflow_is_read(self):
        # Every subset of {0..3} at 3e153: the all-plus path's value, 4.8e154,
        # squares past the range, but the second moment and the squared norm
        # are both 1.44e308.
        from fockcalc.bridge import _plancherel_gap, _swept

        phi = F(*[(s, 3e153) for r in range(5) for s in itertools.combinations(range(4), r)])
        space = build_space(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = plancherel_check(phi, space)
            second_moment = _swept([phi], space, range(4))["second_moment"][0]
            assert _plancherel_gap(second_moment, norm_p(phi, 0.0)) == gap
        assert gap <= 4 * 1.44e308 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 3, 8, 12])
    def test_each_level_the_sweep_reads_is_the_group_mean(self, n):
        from fockcalc.bridge import _group_means, _halving_sums, _path_means, _tree_means

        # Any two values may or may not sum past the range, so some levels
        # of a tree overflow and others do not.
        parts = np.random.default_rng(60 + n).uniform(-1.0, 1.0, (2, 3, 1 << n))
        values = 1.7e308 * (parts[0] + 1j * parts[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for low in range(-1, n):
                tree = _halving_sums(values, low)
                for k in range(low, n):
                    level = _tree_means(*tree, n - 1 - k)
                    assert np.isfinite(level).all()
                    assert level.tobytes() == _group_means(values, k).tobytes()
            means = _path_means(values)
        for row, mean in zip(values, means):
            for part in (np.real, np.imag):
                exact = math.fsum(part(row) / len(row))
                assert abs(part(mean) - exact) <= n * 1.7e308 * np.finfo(float).eps


class TestNonFiniteGaps:
    """A path value past the double range makes the sweep raise, not return NaN or inf."""

    # 3e308 on the path with coordinate 0 up and 1 down.
    PHI = F(([], 1e308), ([0], 1e308), ([1], -1e308))

    def test_every_sweep_check_raises_a_typed_error(self):
        from fockcalc.bridge import _swept

        space = build_space(2)
        checks = [lambda: classical_clark_ocone_check(self.PHI, space),
                  lambda: _swept([ZERO, self.PHI], space, range(2))]
        checks += [lambda k=k: check_intertwining(self.PHI, k, space) for k in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in checks:
                with pytest.raises(NonFiniteResultError, match="pathwise gap is not finite"):
                    check()


class TestNonFiniteValues:
    """A path value past the double range makes ``evaluate`` raise, naming the path."""

    # Both terms add +1e308 exactly on the paths whose coordinate 0 is +1.
    PHI = F(([], 1e308), ([0], 1e308))

    @pytest.mark.parametrize(
        "space, first", [(build_space(2), 1), (build_space(2, "sampled", M=8, seed=15), 5)]
    )
    def test_evaluate_and_the_checks_on_it_raise_a_typed_error(self, space, first):
        message = f"the realized value at path index {first} is not a finite number"
        checks = [lambda: evaluate(self.PHI, space), lambda: plancherel_check(self.PHI, space)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in checks:
                with pytest.raises(NonFiniteResultError) as info:
                    check()
                assert str(info.value) == message


class TestMonteCarlo:
    def test_constant_is_exact(self):
        space = build_space(4, "sampled", M=500, seed=3)
        mean, stderr = mc_estimate(evaluate(basis_element(SubsetIndex([])), space))
        assert mean == 1.0
        assert stderr == 0.0

    def test_reproducible_and_near_exact_mean(self):
        space = build_space(4, "sampled", M=100_000, seed=11)
        mean1, err1 = mc_estimate(evaluate(MIXED, space))
        again = build_space(4, "sampled", M=100_000, seed=11)
        mean2, err2 = mc_estimate(evaluate(MIXED, again))
        assert mean1 == mean2 and err1 == err2
        assert abs(mean1 - 2.0) <= 5 * err1

    def test_single_site_clt_band(self):
        space = build_space(4, "sampled", M=100_000, seed=12)
        mean, stderr = mc_estimate(evaluate(basis_element(SubsetIndex([0])), space))
        assert stderr == pytest.approx(1 / math.sqrt(100_000), rel=1e-2)
        assert abs(mean) <= 4 * stderr

    def test_squared_deviations_past_the_double_range(self):
        # Each deviation is near 1e300, so its square overflows; the error does not.
        big = F(([0], 1e300), ([3, 9], complex(1e-300, 2)))
        space = build_space(10, "sampled", M=100, seed=0)
        obs = evaluate(big, space)
        with np.errstate(all="raise"):
            mean, stderr = mc_estimate(obs)
        scaled = [abs(complex(v) / 1e300 - mean / 1e300) ** 2 for v in obs.values]
        assert stderr == pytest.approx(1e300 * math.sqrt(math.fsum(scaled) / (100 * 99)))


class TestCsvExport:
    def test_round_trip_values(self, tmp_path):
        space = build_space(3)
        obs = evaluate(MIXED, space)
        out = tmp_path / "obs.csv"
        write_observable_csv(obs, str(out))
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "path_index,re,im"
        assert len(rows) == 9
        got = [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]
        assert got == list(obs.values)


class TestArgumentBounds:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: build_space(3, "bogus"), "unknown mode 'bogus'"),
            (lambda: path_cond_expect(evaluate(MIXED, build_space(3)), -2),
             "conditioning level must be >= -1, got -2"),
            (lambda: check_orthonormality(0), "horizon must be >= 1, got 0"),
            (lambda: check_intertwining(MIXED, 3, build_space(3)), "site 3 outside horizon 3"),
        ],
    )
    def test_argument_outside_its_bound_raises(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_sampled_path_count_is_capped_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("paths were drawn before the count was checked")

        monkeypatch.setattr(np.random, "Generator", no_draw)
        with pytest.raises(CapExceededError) as info:
            build_space(3, "sampled", M=2**20 + 1, seed=1)
        assert str(info.value) == "sampled path count 1048577 exceeds cap 1048576"

    def test_sampled_path_count_at_the_cap_runs(self):
        space = build_space(3, "sampled", M=2**20, seed=1)
        assert space.num_paths == 2**20
        assert 0 <= space.codes.min() and space.codes.max() < 8
