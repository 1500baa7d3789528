"""The level-grid forms of the covariance and norm-bound checks.

Each grid form must equal its identity's per-level body, kept here as the
reference, at every level and step, and each suite trial the gap built from
the one-level calls; so must the norm's table step, read at every level from
one table; the suites must build the level-free pieces once per trial, and a
clark trial each site term once; and an operator or norm fault must still
reach the bounds record through images built once.
"""

import json
import math
from functools import partial

import pytest

import fockcalc.clark_ocone as clark_ocone
import fockcalc.cli
import fockcalc.functional as functional
import fockcalc.operators as operators
from fockcalc import FockFunctional, SubsetIndex, make_functional, random_functionals
from fockcalc.clark_ocone import co_term
from fockcalc.covariance import (
    CovarianceReport,
    SiteTable,
    _cov_identities,
    _parts,
    _var_bounds,
    cov_identity,
    cov_p,
    var_bound,
    var_p,
)
from fockcalc.errors import NonFiniteResultError, WeightOverflowError
from fockcalc.functional import (
    _MIN_NORMAL,
    _binary_split,
    _complex_sum,
    _norm_step,
    _norm_table,
    _scaled_sum,
    _weight_power,
    inner_dual,
    linear_combine,
    norm_dual,
)
from fockcalc.operators import (
    NormBoundReport,
    _norm_bounds,
    annihilate,
    cond_expect,
    create,
    verify_norm_bounds,
)
from fockcalc.suite import SuiteConfig, _bounds_gap, _clark_gap, _covariance_gap, run_suite


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


def _reference_cov_identity(phi, psi, p):
    direct = cov_p(phi, psi, p)
    top = max(phi.support_max, psi.support_max)
    shared = {
        k: inner_dual(co_term(phi, k), co_term(psi, k), p)
        for k in sorted(set(phi.sites()).intersection(psi.sites()))
    }
    total = _complex_sum(list(shared.values()))
    return CovarianceReport(
        lhs=direct, rhs=total, per_site=SiteTable(top, shared), gap=abs(direct - total)
    )


def _reference_var_bound(phi, p):
    lhs = var_p(phi, p)
    squares = [norm_dual(create(annihilate(phi, k), k), p) ** 2 for k in phi.sites()]
    return lhs, _complex_sum(squares).real


def _reference_covariance_gap(cfg, pair):
    # The covariance trial from one-level calls, in the order the suite scores them.
    top = 0.0
    for p in cfg.p_grid:
        rep = cov_identity(*pair, p)
        top = max(top, rep.gap / (1.0 + abs(rep.lhs)))
        for f in pair:
            lhs, rhs = var_bound(f, p)
            top = max(top, (lhs - rhs) / (1.0 + rhs))
    return top


def _reference_bounds_gap(cfg, phi):
    # The bounds trial from one-level calls, in the order the suite scores them.
    excess = -1.0
    for k in range(cfg.support_max + 1):
        for p in cfg.p_grid:
            rep = verify_norm_bounds(phi, k, p)
            excess = max(
                excess,
                (rep.annihilate_ratio - rep.annihilate_bound) / rep.annihilate_bound,
                (rep.create_ratio - rep.create_bound) / rep.create_bound,
                rep.cond_expect_ratio - 1.0,
            )
    return excess


def _reference_norm_bounds(phi, k, p):
    base_mant, base_exp2 = _reference_norm_parts(phi, -p)

    def ratio(image):
        if not image:
            return 0.0
        mant, exp2 = _reference_norm_parts(image, -p)
        return math.ldexp(mant / base_mant, exp2 - base_exp2)

    ann = ratio(annihilate(phi, k))
    cre = ratio(create(phi, k))
    cnd = ratio(cond_expect(phi, k))
    return NormBoundReport(
        annihilate_ratio=ann,
        annihilate_bound=(1.0 + k) ** p,
        create_ratio=cre,
        create_bound=(1.0 + k) ** (-p),
        cond_expect_ratio=cnd,
    )


def _reference_norm_parts(phi, exponent):
    # ``_norm_step`` in one piece: weights and squares read again at each call.
    try:
        total = math.fsum(
            functional.mask_weight(m) ** (2.0 * exponent) * abs(c) ** 2
            for m, c in phi._terms.items()
        )
    except (OverflowError, WeightOverflowError):
        total = math.inf
    if _MIN_NORMAL <= total < math.inf:
        return math.frexp(math.sqrt(total))
    parts = []
    for m, c in phi._terms.items():
        (c_mant, c_exp), (w_mant, w_exp) = _binary_split(c), _weight_power(m, exponent)
        parts.append(((abs(c_mant) * w_mant) ** 2, 2 * (c_exp + w_exp)))
    total, shift = _scaled_sum(parts)
    if phi and not total:
        raise NonFiniteResultError("every weight power lies below the double range")
    return math.sqrt(math.ldexp(total, shift & 1)), shift // 2


def _outcome(call):
    # The value of call(), or the type of the exception it raises.
    try:
        return call()
    except Exception as exc:
        return type(exc)


def _grid_run(results):
    # What a grid form yields, then the type of what it raises, if it raises.
    out = []
    try:
        for value in results:
            out.append(value)
    except Exception as exc:
        out.append(type(exc))
    return out


def _reference_run(calls):
    # The reference at each step, up to and including the first raise.
    out = []
    for call in calls:
        out.append(_outcome(call))
        if isinstance(out[-1], type):
            break
    return out


LEVELS = (-1.0, 0.0, 0.5, 1.0, 2.0, 30.0)
SITES = range(12)

#: The inputs of ``test_covariance.TestOverflowIsTyped``.
EXTREME = [
    F(([0], 1e154), ([1], 1.3e154)),
    F(([1], 1e200)),
    F((range(10), 1e150)),
    F(([0], 1e154), ([1], 1e154), ([2], 1e154)),
    F(([0], 1e154), ([1], 1e154), ([2], -1e154)),
    F(([0], 1e200), ([1], 1e200), ([2], 1e-150)),
    F(([0], 1e200), ([1], -1e200), ([2], 1e-150)),
]
CORPUS = random_functionals(30, seed=61, support_max=10, max_terms=24)
SINGLES = CORPUS + EXTREME
# Independent draws share almost no support set, so each pair mixes its first
# member into its second.
PAIRS = [(a, linear_combine(1.0 - 0.5j, a, 1.0, b)) for a, b in zip(CORPUS[::2], CORPUS[1::2])]
PAIRS += [(a, b) for a in EXTREME for b in EXTREME]


class TestGridsMatchTheirReferences:
    def test_cov_identities(self):
        raised = 0
        for phi, psi in PAIRS:
            reference = _reference_run(
                [partial(_reference_cov_identity, phi, psi, p) for p in LEVELS]
            )
            top = max(phi.support_max, psi.support_max)
            shared = sorted(set(phi.sites()).intersection(psi.sites()))
            # Parts at every occupied site, as a covariance trial builds them,
            # and at the shared sites only, as ``cov_identity`` does.
            for sites in (phi.sites(), psi.sites()), (shared, shared):
                parts = [_parts(f, f_sites) for f, f_sites in zip((phi, psi), sites)]
                assert _grid_run(_cov_identities(*parts, top, LEVELS)) == reference
            for p in LEVELS:
                assert _outcome(partial(cov_identity, phi, psi, p)) == _outcome(
                    partial(_reference_cov_identity, phi, psi, p)
                )
            raised += isinstance(reference[-1], type)
        assert raised  # the overflowing inputs raise

    def test_var_bounds(self):
        raised = 0
        for phi in SINGLES:
            run = _grid_run(_var_bounds(_parts(phi, phi.sites()), LEVELS))
            assert run == _reference_run([partial(_reference_var_bound, phi, p) for p in LEVELS])
            for p in LEVELS:
                assert _outcome(partial(var_bound, phi, p)) == _outcome(
                    partial(_reference_var_bound, phi, p)
                )
            raised += isinstance(run[-1], type)
        assert raised

    def test_norm_bounds(self):
        for phi in SINGLES:
            run = _grid_run(_norm_bounds(phi, SITES, LEVELS))
            # The grid yields the reports themselves.
            assert all(type(row) is NormBoundReport for row in run if not isinstance(row, type))
            assert run == _reference_run(
                [partial(_reference_norm_bounds, phi, k, p) for k in SITES for p in LEVELS]
            )
            for k in SITES:
                for p in LEVELS:
                    assert _outcome(partial(verify_norm_bounds, phi, k, p)) == _outcome(
                        partial(_reference_norm_bounds, phi, k, p)
                    )


def _gap_bits(outcome):
    # A trial gap as hex, so equal means bit for bit, or the type it raised.
    return outcome if isinstance(outcome, type) else outcome.hex()


#: The seed-61 corpus paired as drawn: the members share few support sets.
DRAWN_PAIRS = list(zip(CORPUS[::2], CORPUS[1::2]))


class TestTrialsMatchOneLevelCalls:
    """A suite trial's gap equals the gap scored from the one-level calls, bit
    for bit, or raises the same type."""

    CFG = SuiteConfig(p_grid=LEVELS)

    def test_covariance_gap(self):
        outcomes = []
        for pair in DRAWN_PAIRS + PAIRS:
            gap = _gap_bits(_outcome(partial(_covariance_gap, self.CFG, pair)))
            assert gap == _gap_bits(_outcome(partial(_reference_covariance_gap, self.CFG, pair)))
            outcomes.append(isinstance(gap, type))
        assert set(outcomes) == {False, True}  # the overflowing pairs raise

    def test_bounds_gap(self):
        for phi in SINGLES:
            gap = _gap_bits(_outcome(partial(_bounds_gap, self.CFG, phi)))
            assert gap == _gap_bits(_outcome(partial(_reference_bounds_gap, self.CFG, phi)))


def _bits(outcome):
    # A (mant, exp2) outcome with its mantissa as hex, so equal means bit for bit.
    return outcome if isinstance(outcome, type) else (outcome[0].hex(), outcome[1])


class TestNormStep:
    """One table read at every level gives the one-piece reference's parts, bit
    for bit, or raises the same type at the same level."""

    EXPONENTS = sorted({s * p for p in LEVELS for s in (1.0, -1.0)})

    @staticmethod
    def _functionals():
        for phi in CORPUS:
            yield phi
            for k in SITES:
                yield from (annihilate(phi, k), create(phi, k), cond_expect(phi, k))
        yield from EXTREME

    def test_step_matches_the_one_piece_reference(self):
        paths = set()
        for phi in self._functionals():
            table = _norm_table(phi)
            for exponent in self.EXPONENTS:
                step = _bits(_outcome(partial(_norm_step, phi, table, exponent)))
                assert step == _bits(_outcome(partial(_reference_norm_parts, phi, exponent)))
                paths.add(table is None)
        assert paths == {False, True}  # the overflowing tables are read too


def test_site_terms_are_built_once_per_clark_trial(plant):
    calls = []

    def counted(phi, k):
        calls.append(k)
        return co_term(phi, k)

    plant(clark_ocone, "co_term", counted)
    for phi in random_functionals(10, seed=63, support_max=10, max_terms=24):
        calls.clear()
        _clark_gap(SuiteConfig(), phi)
        assert calls == phi.sites()


def _count_calls(plant, owners):
    # Plant a counting wrapper of each owners[name].name; returns the counts.
    counts = dict.fromkeys(owners, 0)

    def counting(name):
        original = getattr(owners[name], name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    for name, owner in owners.items():
        plant(owner, name, counting(name))
    return counts


def test_images_are_built_once_per_trial(plant):
    counts = _count_calls(plant, {"annihilate": operators, "create": operators})

    def calls(gap, trial, p_grid):
        counts.update(dict.fromkeys(counts, 0))
        gap(SuiteConfig(p_grid=p_grid), trial)
        return dict(counts)

    phi, psi = random_functionals(2, seed=62, support_max=10, max_terms=24)
    for gap, trial in ((_covariance_gap, (phi, psi)), (_bounds_gap, phi)):
        one_level = calls(gap, trial, (0.0,))
        assert min(one_level.values()) > 0
        assert calls(gap, trial, (0.0, 1.0, 2.0)) == one_level


def test_covariance_trial_counts(plant):
    # A covariance trial builds each member's images once, one per occupied
    # site, and no co_term; at each of the three default levels it pairs the
    # centered members, and the site terms only where they share a mask.
    # ``cov_identity`` builds images at the shared sites only.
    expected = []
    for phi, psi in DRAWN_PAIRS + PAIRS[:15]:
        shared = sorted(set(phi.sites()).intersection(psi.sites()))
        sharing = [k for k in shared if co_term(phi, k)._terms.keys() & co_term(psi, k)._terms]
        expected.append((phi, psi, shared, sharing))
    # Both kinds of shared site occur: terms with and without a common mask.
    assert any(sharing for *_, sharing in expected)
    assert any(len(shared) > len(sharing) for *_, shared, sharing in expected)
    counts = _count_calls(plant, {
        "annihilate": operators, "create": operators, "co_term": clark_ocone,
        "inner_dual": functional,
    })
    for phi, psi, shared, sharing in expected:
        counts.update(dict.fromkeys(counts, 0))
        _covariance_gap(SuiteConfig(), (phi, psi))
        occupied = len(phi.sites()) + len(psi.sites())
        assert counts == {"annihilate": occupied, "create": occupied, "co_term": 0,
                          "inner_dual": 3 + 3 * len(sharing)}
        counts.update(dict.fromkeys(counts, 0))
        cov_identity(phi, psi, 1.0)
        assert counts == {"annihilate": 2 * len(shared), "create": 2 * len(shared),
                          "co_term": 0, "inner_dual": 1 + len(sharing)}


def _doubling(phi, k):
    # annihilate with every coefficient doubled.
    bit = 1 << k
    return FockFunctional._of_masks({m ^ bit: 2 * c for m, c in phi._terms.items() if m & bit})


def _keeping_held_terms(original):
    def create(phi, k):
        # create that also keeps the terms already holding k.
        held = FockFunctional._of_masks({m: c for m, c in phi._terms.items() if m >> k & 1})
        return linear_combine(1.0, original(phi, k), 1.0, held)

    return create


def _stretched_step(phi, table, exponent):
    # The norm's table step at 1.5 times its exponent.
    return _norm_step(phi, table, 1.5 * exponent)


class TestPlantedBoundsFaults:
    """An operator or norm-step fault fails the bounds record, through the
    images and tables built once per trial."""

    @pytest.fixture(params=["annihilate", "create", "_norm_step"])
    def fault(self, request, plant):
        owner = functional if request.param == "_norm_step" else operators
        replacement = {
            "annihilate": _doubling,
            "create": _keeping_held_terms(operators.create),
            "_norm_step": _stretched_step,
        }[request.param]
        plant(owner, request.param, replacement)

    def test_bounds_record_fails(self, fault):
        cfg = SuiteConfig(suite="bounds", trials=40)
        report = run_suite(cfg)
        assert [(c["check"], c["pass"]) for c in report["checks"]] == [("bounds", False)]
        # The trials fail on their own, not only the tightness witnesses.
        corpus = random_functionals(40, cfg.seed, support_max=cfg.support_max,
                                    max_terms=cfg.max_terms)
        assert max(_bounds_gap(cfg, phi) for phi in corpus) > cfg.tolerance

    def test_verify_exits_1(self, capsys, fault):
        code = fockcalc.cli.main(["verify", "--suite", "bounds", "--trials", "40"])
        assert code == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["pass"]) for c in checks] == [("bounds", False)]
