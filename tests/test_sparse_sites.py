"""Sparse site loops against dense references that visit every site up to the top.

The decomposition, covariance and predictable-representation routines visit
only the sites that occur in some support set.  The references here loop
``co_term`` (and the other per-site operators) over ``range(top + 1)``, so every
skipped site must contribute an exact zero or leave a running value unchanged.
"""

from hypothesis import given, settings, strategies as st

from fockcalc import (
    PredictableSequence,
    SubsetIndex,
    ZERO,
    annihilate,
    co_term,
    cond_expect,
    cov_identity,
    cov_p,
    create,
    decompose,
    expect,
    inner_dual,
    integrate,
    linear_combine,
    make_functional,
    norm_dual,
    predictable_sequence,
    reconstruct_check,
    sum_functionals,
    var_bound,
    var_p,
    verify_convergence_window,
)

TOP_SITE = 2000
Q_PROBE = (0.0, 1.0, 2.0)

coefficients = st.builds(
    complex, st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False)
)
functionals = st.dictionaries(
    st.frozensets(st.integers(0, TOP_SITE), max_size=4), coefficients, max_size=6
).map(lambda d: make_functional((SubsetIndex(s), c) for s, c in d.items()))


def dense_decompose(phi):
    mean = expect(phi)
    top = phi.support_max
    terms = {k: co_term(phi, k) for k in range(top + 1)}
    terms = {k: t for k, t in terms.items() if t}
    remainder = linear_combine(1.0, phi, -1.0, mean)
    residuals = {}
    for n in range(top + 1):
        if n in terms:
            remainder = linear_combine(1.0, remainder, -1.0, terms[n])
        for q in Q_PROBE:
            residuals[(n, q)] = norm_dual(remainder, q)
    return mean, terms, residuals


def dense_predictable(phi):
    terms = {k: cond_expect(annihilate(phi, k), k - 1) for k in range(phi.support_max + 1)}
    return PredictableSequence({k: u for k, u in terms.items() if u})


def dense_reconstruct_check(phi):
    integral = integrate(dense_predictable(phi))
    centered = linear_combine(1.0, phi, -1.0, expect(phi))
    residual = norm_dual(linear_combine(1.0, centered, -1.0, integral), 0.0)
    form_gap = 0.0
    for k in range(phi.support_max + 1):
        via_integrand = create(cond_expect(annihilate(phi, k), k - 1), k)
        gap = norm_dual(linear_combine(1.0, co_term(phi, k), -1.0, via_integrand), 0.0)
        form_gap = max(form_gap, gap)
    return max(residual, form_gap)


def dense_convergence_window(phi):
    centered = linear_combine(1.0, phi, -1.0, expect(phi))
    probes = phi.support() + [SubsetIndex([])]
    sites = range(phi.support_max + 1)
    terminal = sum_functionals(co_term(phi, k) for k in sites)
    pointwise = max(abs(terminal.coefficient(s) - centered.coefficient(s)) for s in probes)
    running = ZERO
    excess = 0.0
    for n in sites:
        running = linear_combine(1.0, running, 1.0, co_term(phi, n))
        for s in probes:
            excess = max(excess, abs(running.coefficient(s)) - abs(phi.coefficient(s)))
    return pointwise, excess


def dense_cov(phi, psi, p):
    top = max(phi.support_max, psi.support_max)
    per_site = {k: inner_dual(co_term(phi, k), co_term(psi, k), p) for k in range(top + 1)}
    return cov_p(phi, psi, p), sum(per_site.values(), 0j), per_site


def dense_var_bound(phi, p):
    rhs = 0.0
    for k in range(phi.support_max + 1):
        rhs += norm_dual(create(annihilate(phi, k), k), p) ** 2
    return var_p(phi, p), rhs


@settings(max_examples=25, deadline=None)
@given(functionals, functionals, st.sampled_from(Q_PROBE))
def test_sparse_site_loops_match_dense_reference(phi, psi, p):
    assert phi.sites() == sorted({k for s in phi.support() for k in s})

    report = decompose(phi, Q_PROBE)
    mean, terms, residuals = dense_decompose(phi)
    assert report.mean == mean
    assert report.terms == terms
    assert report.residual_norms == residuals

    cov = cov_identity(phi, psi, p)
    lhs, rhs, per_site = dense_cov(phi, psi, p)
    assert (cov.lhs, cov.rhs, cov.per_site) == (lhs, rhs, per_site)

    assert var_bound(phi, p) == dense_var_bound(phi, p)
    assert predictable_sequence(phi).terms == dense_predictable(phi).terms
    assert reconstruct_check(phi) == dense_reconstruct_check(phi)
    assert verify_convergence_window(phi) == dense_convergence_window(phi)
