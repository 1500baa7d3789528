"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The shared corpora come from conftest (seeded, deterministic).
"""

import math
import time

import pytest

from fockcalc import (
    GammaCursor,
    GrowthEnvelope,
    SubsetIndex,
    SuiteConfig,
    ZERO,
    annihilate,
    basis_element,
    check_orthonormality,
    check_intertwining,
    check_strong_convergence,
    classical_clark_ocone_check,
    co_term,
    cond_expect,
    cov_identity,
    create,
    decompose,
    dual_norm_bound,
    enumerate_gamma,
    expect,
    fit_envelope,
    gamma_weight_sum,
    integrate,
    lambda_weight,
    linear_combine,
    make_functional,
    norm_dual,
    partial_sum,
    plancherel_check,
    predictable_sequence,
    random_functionals,
    reconstruct_check,
    run_suite,
    build_space,
    var_bound,
    var_p,
    verify_car,
    verify_commutation,
    verify_convergence_window,
    verify_norm_bounds,
    weight_sum_bound,
)

TOL = 1e-12
BRIDGE_TOL = 1e-10


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: PASS{suffix}")


def test_c01_weight_summability():
    start = time.perf_counter()
    for p in (1.5, 2.0, 3.0):
        ceiling = weight_sum_bound(p)
        previous = 0.0
        for n in (4, 8, 12, 16):
            value = gamma_weight_sum(p, n)
            product = math.prod(1.0 + k ** (-p) for k in range(1, n + 1))
            assert abs(value - product) <= 1e-12 * product
            assert value >= previous
            assert value <= ceiling
            if p == 2.0:
                assert value < 5.1807
            previous = value
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(1, "weight summability", f"{elapsed:.2f}s")


def test_c02_car_identity(corpus1000):
    start = time.perf_counter()
    worst = 0.0
    for phi in corpus1000:
        tol = TOL * (1.0 + norm_dual(phi, 0.0))
        for k in range(13):
            gap = verify_car(phi, k)
            assert gap <= tol
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(2, "equal-time anti-commutation", f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_c03_operator_norm_bounds(corpus1000, within_norm_bounds):
    worst_excess = -1.0
    for phi in corpus1000:
        for k in range(13):
            for p in (0.0, 1.0, 2.0):
                rep = verify_norm_bounds(phi, k, p)
                assert within_norm_bounds(rep)
                worst_excess = max(
                    worst_excess,
                    rep.annihilate_ratio / rep.annihilate_bound - 1.0,
                    rep.create_ratio / rep.create_bound - 1.0,
                    rep.cond_expect_ratio - 1.0,
                )
    # tightness witnesses saturate the annihilation and creation ceilings
    for k in range(13):
        for p in (0.0, 1.0, 2.0):
            ann = verify_norm_bounds(basis_element(SubsetIndex([k])), k, p)
            assert abs(ann.annihilate_ratio - ann.annihilate_bound) <= TOL * ann.annihilate_bound
            cre = verify_norm_bounds(basis_element(SubsetIndex([])), k, p)
            assert abs(cre.create_ratio - cre.create_bound) <= TOL * cre.create_bound
    announce(3, "operator norm bounds", f"worst excess {worst_excess:.2e}")


def test_c04_conditioning_commutation(corpus1000):
    worst = 0.0
    for phi in corpus1000:
        tol = TOL * (1.0 + norm_dual(phi, 0.0))
        for k in range(13):
            g1, g2 = verify_commutation(phi, k)
            assert g1 <= tol and g2 <= tol
            worst = max(worst, g1, g2)
    announce(4, "conditioning/shift commutation", f"worst gap {worst:.2e}")


def test_c05_clark_ocone_decomposition(corpus1000):
    start = time.perf_counter()
    q_grid = (0.0, 1.0, 2.0)
    for phi in corpus1000:
        scale = 1.0 + norm_dual(phi, 0.0)
        assert reconstruct_check(phi) <= TOL * scale

        report = decompose(phi, q_grid)
        smax = report.termination_index
        for k in range(smax + 1):
            # the two decomposition forms agree coefficient for coefficient
            assert co_term(phi, k) == create(cond_expect(annihilate(phi, k), k - 1), k)
        for q in q_grid:
            series = [report.residual_norms[(n, q)] for n in range(smax + 1)]
            assert all(a >= b for a, b in zip(series, series[1:]))
            if series:
                assert series[-1] == 0.0
                assert all(r > 0.0 for r in series[:-1])

        # strong-convergence conditions; support probing covers the whole
        # lattice because partial sums vanish off the source support
        pointwise, envelope_excess = verify_convergence_window(phi)
        assert pointwise == 0.0
        assert envelope_excess <= 0.0

    # re-verify the two conditions through the generic enumerated window
    for phi in corpus1000[:10]:
        smax = phi.support_max
        if smax < 0:
            continue
        seq = [partial_sum(phi, n) for n in range(smax + 1)]
        limit = linear_combine(1.0, phi, -1.0, expect(phi))
        diag = check_strong_convergence(seq, limit, GammaCursor(smax + 1), p_grid=(0.0,))
        assert diag.tail_gap == 0.0
        assert diag.envelopes[0.0].C <= fit_envelope(phi, 0.0).C

    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    announce(5, "generalized Clark-Ocone decomposition", f"{elapsed:.2f}s")


def test_c06_covariance_identity_and_variance_bound():
    pool = random_functionals(1000, seed=77, support_max=10, max_terms=24)
    pairs = [(pool[2 * i], pool[2 * i + 1]) for i in range(500)]
    for phi, psi in pairs:
        for p in (0.0, 1.0):
            rep = cov_identity(phi, psi, p)
            assert rep.gap <= TOL * (1.0 + abs(rep.lhs))
            for f in (phi, psi):
                lhs, rhs = var_bound(f, p)
                assert lhs <= rhs + TOL * (1.0 + rhs)

    # equality witness: every support set a singleton
    singletons = make_functional(
        [(SubsetIndex([]), 1.0), (SubsetIndex([0]), 2.0), (SubsetIndex([1]), 1.0)]
    )
    lhs, rhs = var_bound(singletons, 0.0)
    assert lhs == pytest.approx(5.0) and rhs == pytest.approx(5.0)
    # strict witness: a two-element support set
    pair_set = basis_element(SubsetIndex([0, 1]))
    lhs, rhs = var_bound(pair_set, 0.0)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(2.0)
    assert lhs < rhs
    announce(6, "covariance identity and variance bound")


def test_c07_predictable_representation(corpus1000):
    for phi in corpus1000:
        u = predictable_sequence(phi)
        for k, uk in u.terms.items():
            assert all(s.max_element <= k - 1 for s in uk.support())
        rebuilt = linear_combine(1.0, expect(phi), 1.0, integrate(u))
        gap = norm_dual(linear_combine(1.0, rebuilt, -1.0, phi), 0.0)
        assert gap <= TOL * (1.0 + norm_dual(phi, 0.0))
    announce(7, "predictable representation")


def test_c08_bridge_exactness(bridge_corpus200):
    start = time.perf_counter()
    n = 8
    ortho_gap = check_orthonormality(n)
    assert ortho_gap <= TOL

    space = build_space(n, "exhaustive")
    worst_co = worst_twine = worst_plancherel = 0.0
    for phi in bridge_corpus200:
        co_gap = classical_clark_ocone_check(phi, space)
        assert co_gap <= BRIDGE_TOL
        worst_co = max(worst_co, co_gap)
        for k in range(n):
            gaps = check_intertwining(phi, k, space)
            assert max(gaps) <= BRIDGE_TOL
            worst_twine = max(worst_twine, *gaps)
        pgap = plancherel_check(phi, space)
        assert pgap <= TOL
        worst_plancherel = max(worst_plancherel, pgap)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(
        8,
        "pathwise bridge exactness",
        f"co {worst_co:.1e}, twine {worst_twine:.1e}, "
        f"plancherel {worst_plancherel:.1e}, {elapsed:.2f}s",
    )


def test_c09_envelope_bound():
    window = list(enumerate_gamma(GammaCursor(12)))
    for p in (0.0, 1.0):
        phi = make_functional(
            [(sigma, lambda_weight(sigma) ** p) for sigma in window]
        )
        env = GrowthEnvelope(C=1.0, p=p)
        assert env.covers(phi)
        for dq in (0.6, 1.0, 2.0):
            q = p + dq
            assert norm_dual(phi, q) <= dual_norm_bound(env, q)
    bound = dual_norm_bound(GrowthEnvelope(C=1.0, p=0.0), 1.0)
    assert bound <= 2.2761
    announce(9, "growth-envelope dual bound", f"q=1 bound {bound:.6f}")


def test_c10_report_determinism():
    reports = []
    for _ in range(2):
        report = run_suite(SuiteConfig(suite="all", trials=40, seed=31))
        report.pop("created")
        reports.append(report)
    assert reports[0] == reports[1]
    gaps = [c["max_gap"] for c in reports[0]["checks"]]
    announce(10, "repeat-run determinism", f"{len(gaps)} checks bit-identical")
