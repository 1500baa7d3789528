"""Residual and per-site tables stored as runs, written as the dense JSON.

``decompose`` keeps one residual row at n = 0 and one per site with a term,
and ``cov_identity`` keeps only the shared sites; the writer expands both.
The references here are the dense loops over every n and every site, and
the expected output is ``json.dumps`` of the dense payload.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fockcalc import (
    CapExceededError,
    DecompositionReport,
    NonFiniteResultError,
    SubsetIndex,
    co_term,
    cov_identity,
    cov_p,
    covariance_to_obj,
    decompose,
    decomposition_to_obj,
    expect,
    functional_to_obj,
    inner_dual,
    linear_combine,
    make_functional,
    norm_dual,
)
from fockcalc.clark_ocone import ResidualTable
from fockcalc.cli import main
from fockcalc.covariance import CovarianceReport, SiteTable
from fockcalc.serialization import report_to_json

TOP_SITE = 5000

parts = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0]) | st.floats(-10.0, 10.0)
functionals = st.dictionaries(
    st.frozensets(st.sampled_from([0, 1, TOP_SITE]) | st.integers(0, TOP_SITE), max_size=3),
    st.builds(complex, parts, parts),
    max_size=4,
).map(lambda d: make_functional((SubsetIndex(s), c) for s, c in d.items()))
levels = st.lists(st.sampled_from([0, 1, 2, 0.0, -0.0, 0.5, 1.0, 2.0]), max_size=5)
cli_levels = st.lists(st.sampled_from(["0", "-0.0", "1", "2", "0.5"]), min_size=1, max_size=5)


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


def dense_decomposition(phi, q_probe):
    """``decomposition_to_obj`` from a residual dict with a row for every n."""
    mean = expect(phi)
    terms = {k: t for k in phi.sites() if (t := co_term(phi, k))}
    remainder = linear_combine(1.0, phi, -1.0, mean)
    q_sorted = sorted(q_probe)
    row = [norm_dual(remainder, q) for q in q_sorted]
    residuals = {}
    for n in range(phi.support_max + 1):
        if n in terms:
            remainder = linear_combine(1.0, remainder, -1.0, terms[n])
            row = [norm_dual(remainder, q) for q in q_sorted]
        for q, value in zip(q_sorted, row):
            residuals[(n, float(q))] = value
    return {
        "mean": functional_to_obj(mean),
        "terms": {str(k): functional_to_obj(terms[k]) for k in sorted(terms)},
        "termination_index": phi.support_max,
        "residuals": [{"n": n, "q": q, "residual": r} for (n, q), r in residuals.items()],
    }, residuals


def dense_covariance(phi, psi, p):
    """``covariance_to_obj`` from a per-site dict with an entry for every site."""
    lhs = cov_p(phi, psi, p)
    per_site = dict.fromkeys(range(max(phi.support_max, psi.support_max) + 1), 0j)
    rhs = 0j
    for k in sorted(set(phi.sites()) & set(psi.sites())):
        per_site[k] = inner_dual(co_term(phi, k), co_term(psi, k), p)
        rhs += per_site[k]
    return {
        "lhs": [lhs.real, lhs.imag],
        "rhs": [rhs.real, rhs.imag],
        "per_k": {str(k): [v.real, v.imag] for k, v in per_site.items()},
        "gap": abs(lhs - rhs),
    }, per_site


def cli_stdout(argv, documents):
    """stdout of one CLI call, with each functional written to a file first."""
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for i, phi in enumerate(documents):
            paths.append(os.path.join(work, f"phi{i}.json"))
            with open(paths[-1], "w") as handle:
                json.dump(functional_to_obj(phi), handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([argv[0], *paths, *argv[1:]])
    assert code == 0
    return out.getvalue()


def dumps(obj):
    return json.dumps(obj, indent=2)


@settings(max_examples=20, deadline=None)
@given(functionals, levels)
def test_decomposition_text_equals_dense_payload(phi, q_probe):
    report = decompose(phi, q_probe)
    expected, residuals = dense_decomposition(phi, q_probe)
    assert report.residual_norms == residuals
    assert dumps(decomposition_to_obj(report)) == dumps(expected)
    assert report_to_json(report) == dumps(expected)


@settings(max_examples=30, deadline=None)
@given(functionals, functionals, st.sampled_from([0, 0.0, -0.0, 1.0, 2.5]))
def test_covariance_text_equals_dense_payload(phi, psi, p):
    report = cov_identity(phi, psi, p)
    expected, per_site = dense_covariance(phi, psi, p)
    assert report.per_site == per_site
    assert dumps(covariance_to_obj(report)) == dumps(expected)
    assert report_to_json(report) == dumps(expected)


@settings(max_examples=15, deadline=None)
@given(functionals, functionals, cli_levels)
def test_cli_stdout_equals_dense_payload(phi, psi, q_args):
    q_probe = [float(q) for q in q_args]
    argv = ["decompose"] + [arg for q in q_args for arg in ("--q", q)]
    assert cli_stdout(argv, [phi]) == dumps(dense_decomposition(phi, q_probe)[0]) + "\n"
    argv = ["cov", "--p", "1"]
    assert cli_stdout(argv, [phi, psi]) == dumps(dense_covariance(phi, psi, 1.0)[0]) + "\n"


def test_far_site_writes_every_row():
    phi = F(([], 1.0), ([100000], 1.0))
    text = cli_stdout(["decompose"], [phi])
    expected = dense_decomposition(phi, (0.0, 1.0, 2.0))[0]
    assert len(expected["residuals"]) == 300003
    assert text == dumps(expected) + "\n"
    text = cli_stdout(["cov", "--p", "0"], [phi, phi])
    assert text == dumps(dense_covariance(phi, phi, 0.0)[0]) + "\n"


class TestResidualTable:
    PHI = F(([], 2), ([0], 1), ([1, 3], 3j), ([4], -1))

    def table(self):
        return decompose(self.PHI, (2.0, -0.0, 1, 0.0, 2.0)).residual_norms

    def test_keys_in_n_then_q_order(self):
        table = self.table()
        assert len(table) == 15
        assert list(table) == [(n, q) for n in range(5) for q in (0.0, 1.0, 2.0)]
        assert math.copysign(1.0, next(iter(table))[1]) == -1.0
        assert table.levels == (-0.0, 1.0, 2.0)

    def test_stores_one_row_per_site_with_a_term(self):
        table = self.table()
        assert [(list(span), row) for span, row in table.runs()] == [
            ([0, 1, 2], tuple(table[(0, q)] for q in table.levels)),
            ([3], tuple(table[(3, q)] for q in table.levels)),
            ([4], (0.0, 0.0, 0.0)),
        ]

    @pytest.mark.parametrize("key", [(-1, 0.0), (5, 0.0), (0, 0.5), (1.5, 1.0), (0,), 3, "n"])
    def test_missing_keys(self, key):
        table = self.table()
        with pytest.raises(KeyError):
            table[key]
        assert key not in table
        assert table.get(key) is None

    def test_equals_dense_dict_both_ways(self):
        table = self.table()
        dense = {key: table[key] for key in table}
        assert table == dense and dense == table
        assert table[(2, 1)] == table[(1, 1.0)] == dense[(1, 1.0)]
        dense[(4, 2.0)] = 1.0
        assert table != dense

    def test_constant_functional_has_no_rows(self):
        table = decompose(F(([], 5))).residual_norms
        assert len(table) == 0 and table == {}
        with pytest.raises(KeyError):
            table[(0, 0.0)]


class TestSiteTable:
    def test_dense_over_every_site(self):
        per_site = cov_identity(F(([3], 1)), F(([3], 2), ([7], 1)), 0.0).per_site
        assert len(per_site) == 8
        assert list(per_site) == list(range(8))
        assert per_site.stored == {3: 2.0}
        assert per_site[3] == 2.0 and per_site[5] == 0j
        assert per_site == {k: (2.0 if k == 3 else 0j) for k in range(8)}
        for k in (-1, 8, 2.5, "3"):
            with pytest.raises(KeyError):
                per_site[k]


@pytest.mark.parametrize(
    "report, field",
    [
        (
            CovarianceReport(1j, 1j, SiteTable(4, {3: complex(math.inf, 0.0)}), 0.0),
            "per_k.3[0]",
        ),
        (
            CovarianceReport(1j, 1j, SiteTable(4, {0: complex(0.0, math.nan)}), 0.0),
            "per_k.0[1]",
        ),
        (
            DecompositionReport(
                F(), {}, 1, ResidualTable([0, 1], [(1.0,), (math.inf,)], (0.0,), 1)
            ),
            "residuals[1].residual",
        ),
    ],
)
def test_non_finite_table_value_names_its_field(report, field):
    with pytest.raises(NonFiniteResultError) as info:
        report_to_json(report)
    assert str(info.value) == f"output field {field} is not a finite number"


@pytest.mark.parametrize(
    "report, message",
    [
        (
            CovarianceReport(0j, 0j, SiteTable(2**20, {}), 0.0),
            f"the cov per_k table has {2**20 + 1} rows, past the cap of {2**20}",
        ),
        (
            DecompositionReport(F(), {}, 2**19, ResidualTable([0], [(1.0, 1.0)], (0.0, 1.0), 2**19)),
            f"the decompose residual table has {2**20 + 2} rows, past the cap of {2**20}",
        ),
    ],
)
def test_table_past_the_row_cap_is_refused(report, message):
    # One row past the cap is refused before any row text is built.
    with pytest.raises(CapExceededError) as info:
        report_to_json(report)
    assert str(info.value) == message
