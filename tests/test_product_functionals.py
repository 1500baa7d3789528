"""Closed forms of product functionals.

phi_a(sigma) = prod_{k in sigma} a_k on the sites 0..N-1 factorizes every
weighted sum over the subsets: with w_k = (k+1)**(-2p), sum_sigma
|phi_a(sigma)|**2 w(sigma) = prod_k (1 + |a_k|**2 w_k).  The references below
are built from those products with ``math.fsum`` and ``log1p``; fockcalc only
builds the input.  Each tolerance is a small multiple of N * eps.
"""

import math
import random
from math import fsum, log1p

import pytest

from fockcalc import (
    GammaCursor,
    SubsetIndex,
    check_strong_convergence,
    cov_identity,
    cov_p,
    decompose,
    dual_norm_bound,
    fit_envelope,
    make_functional,
    norm_dual,
    var_bound,
)
from fockcalc.gamma import SERIES_CUTOFF

N = 12
TOL = 8 * N * 2.0**-52
LEVELS = (-0.5, 0.0, 0.5, 1.0, 2.0)


def product_functional(a):
    terms = []
    for mask in range(1 << len(a)):
        sigma = [k for k in range(len(a)) if mask >> k & 1]
        terms.append((SubsetIndex(sigma), math.prod((a[k] for k in sigma), start=1 + 0j)))
    return make_functional(terms)


def _factors(seed):
    rng = random.Random(seed)
    return [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(N)]


A, B = _factors(81), _factors(82)
PHI_A, PHI_B = product_functional(A), product_functional(B)


def weights(p):
    return [(k + 1.0) ** (-2 * p) for k in range(N)]


def log_product(xs):
    # log prod (1 + x) over nonnegative xs.
    return fsum(log1p(x) for x in xs)


@pytest.mark.parametrize("p", LEVELS)
def test_dual_norm(p):
    x = [abs(a) ** 2 * w for a, w in zip(A, weights(p))]
    assert norm_dual(PHI_A, p) == pytest.approx(math.exp(log_product(x) / 2), rel=TOL)


def test_decompose_residual_rows():
    report = decompose(PHI_A, LEVELS)
    for q in LEVELS:
        x = [abs(a) ** 2 * w for a, w in zip(A, weights(q))]
        for n in range(N):
            # prod_all - prod_{k<=n} = prod_{k<=n} * (prod_{k>n} - 1), without cancellation.
            tail = math.exp(log_product(x[: n + 1])) * math.expm1(log_product(x[n + 1:]))
            assert report.residual_norms[(n, q)] == pytest.approx(math.sqrt(tail), rel=TOL)
        assert report.residual_norms[(N - 1, q)] == 0.0


@pytest.mark.parametrize("p", LEVELS)
def test_covariance_and_its_site_entries(p):
    z = [a * b.conjugate() * w for a, b, w in zip(A, B, weights(p))]
    # Each route's rounding is bounded by N * eps times the sum of the
    # pairing's term magnitudes, prod (1 + |z_k|) - 1.
    scale = math.exp(log_product(abs(v) for v in z))
    expected = math.prod((1 + v for v in z), start=1 + 0j) - 1
    assert abs(cov_p(PHI_A, PHI_B, p) - expected) <= TOL * scale
    per_site = cov_identity(PHI_A, PHI_B, p).per_site
    for k in range(N):
        below = math.prod((1 + v for v in z[:k]), start=1 + 0j)
        size = abs(z[k]) * math.exp(log_product(abs(v) for v in z[:k]))
        assert abs(per_site[k] - z[k] * below) <= TOL * size


@pytest.mark.parametrize("p", LEVELS)
def test_variance_ceiling(p):
    # Each set counts once per member: sum_k x_k prod_{j != k} (1 + x_j).
    x = [abs(a) ** 2 * w for a, w in zip(A, weights(p))]
    variance, ceiling = var_bound(PHI_A, p)
    full = math.exp(log_product(x))
    assert variance == pytest.approx(math.expm1(log_product(x)), rel=TOL)
    assert ceiling == pytest.approx(full * fsum(v / (1 + v) for v in x), rel=TOL)


def test_dual_norm_bound_is_tight_up_to_the_missing_sites():
    # a_k = (k+1)**p meets the envelope C * weight**p with C = 1 on every set;
    # the bound sums all sites, the functional only 0..N-1.  At q - p = 1 the
    # full product is prod_{m>=1} (1 + m**-2) = sinh(pi) / pi.
    p, q = 0.75, 1.75
    phi = product_functional([(k + 1.0) ** p for k in range(N)])
    env = fit_envelope(phi, p)
    assert env.C == pytest.approx(1.0, rel=TOL)
    present = log_product(m**-2.0 for m in range(1, N + 1))
    expected = math.exp((present - math.log(math.sinh(math.pi) / math.pi)) / 2)
    # Past M = SERIES_CUTOFF the bound sums the integral M**-1 in the log in
    # place of sum_{m>M} log1p(m**-2), which is at least M**-1 - M**-2 - M**-3 / 6:
    # that can only lower the ratio, by at most half the difference in the log.
    slack = SERIES_CUTOFF**-2.0 + SERIES_CUTOFF**-3.0 / 6
    ratio = norm_dual(phi, q) / dual_norm_bound(env, q)
    assert expected * math.exp(-slack / 2) * (1 - TOL) <= ratio <= expected * (1 + TOL)


@pytest.mark.parametrize("p", [0.0, 0.75, 1.0, 2.0])
def test_truncations_converge_under_the_unit_envelope(p):
    # The truncations phi_a|_{<=n} keep the sets inside 0..n.  With
    # a_k = (k+1)**p every coefficient is weight**p, so each truncation fits
    # the envelope with C = 1, and the largest coefficient a truncation drops
    # is that of the full set, (N!)**p.
    a = [(k + 1.0) ** p for k in range(N)]
    limit = product_functional(a)
    truncations = [product_functional(a[: n + 1]) for n in range(N)]
    probe = GammaCursor(N)
    for truncation in truncations:
        envelope = check_strong_convergence([truncation], limit, probe, p_grid=(p,)).envelopes[p]
        assert envelope.C == pytest.approx(1.0, rel=TOL)
    diag = check_strong_convergence(truncations, limit, probe, p_grid=(p,))
    dropped = math.factorial(N) ** p
    for gap in diag.pointwise_gaps[:-1]:
        assert gap == pytest.approx(dropped, rel=TOL)
    assert diag.tail_gap == 0.0
    assert diag.envelopes[p].C == pytest.approx(1.0, rel=TOL)
