"""Seeded verification suites over randomized functional corpora.

Each suite draws a deterministic corpus, measures the worst gap of one
family of identities, and reports pass/fail against its tolerance: 0.0 for
the exact records, whose gaps no rounding reaches (see ``SuiteConfig``).
Trials run in corpus order, one after another or, in the bridge suite, in
blocks that realize every member's values bit for bit as alone, so a report is
a pure function of its config (apart from the ``created`` timestamp).
"""

from __future__ import annotations

import datetime
import math
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple

from .bridge import (
    MAX_ORTHONORMALITY_HORIZON,
    _plancherel_gap,
    _swept,
    build_space,
    check_orthonormality,
)
from .clark_ocone import _reconstruct_gap, _window, decompose
from .corpus import SUPPORT_MAX_LIMIT, random_functionals
from .covariance import _cov_identities, _parts, _var_bounds, var_bound, var_p
from .errors import ConfigError
from .functional import (
    FockFunctional,
    _residual,
    basis_element,
    make_functional,
    norm_p,
)
from .gamma import EMPTY_SET, SubsetIndex
from .operators import _norm_bounds, verify_car, verify_commutation, verify_norm_bounds
from .suite_names import SUITE_NAMES

#: Tolerance of the pathwise bridge comparisons, looser than the rounded
#: records' because their rounding accumulates across up to 2**horizon paths.
BRIDGE_TOLERANCE = 1e-10

#: Tolerance of the exact records: car, commutation and clark compare selections
#: of the same coefficients, and orthonormality sums multiples of 2**-N exactly.
_EXACT = 0.0


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for one verification run.

    ``tolerance`` scores only the rounded records: bounds, covariance and
    plancherel.  The exact records (car, commutation, clark and
    orthonormality) are scored at 0.0, and the pathwise bridge records
    (clark_ocone_pathwise and intertwining) at ``BRIDGE_TOLERANCE``.
    """

    suite: str = "all"
    trials: int = 500
    seed: int = 0
    support_max: int = 10
    max_terms: int = 24
    p_grid: Sequence[float] = (0.0, 1.0, 2.0)
    tolerance: float = 1e-12
    horizon: int = 8

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.support_max <= SUPPORT_MAX_LIMIT:
            raise ConfigError(
                f"support_max must lie in 0..{SUPPORT_MAX_LIMIT} (supports are drawn as "
                f"int64 bit-masks), got {self.support_max}"
            )
        if self.max_terms < 1:
            raise ConfigError(f"max_terms must be >= 1, got {self.max_terms}")
        if not 1 <= self.horizon <= MAX_ORTHONORMALITY_HORIZON:
            raise ConfigError(
                f"horizon must lie in 1..{MAX_ORTHONORMALITY_HORIZON} (the bridge suite "
                f"sweeps all 2**horizon sign paths), got {self.horizon}"
            )
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ConfigError(
                f"tolerance must be a finite number >= 0, got {self.tolerance}"
            )
        for p in self.p_grid:
            # Compared, not math.isfinite: an int past the double range is
            # refused below as too large.
            if not -math.inf < p < math.inf:
                raise ConfigError(f"p must be a finite number, got {p!r}")
            _require_ceiling_in_range(p, self.support_max)
            for suite in ("clark", "covariance"):
                if self.suite in (suite, "all"):
                    _require_dual_level_in_range(p, self.support_max, self.max_terms, suite)
        # Covariance's pool of two per trial covers the other coefficient suites' corpus.
        if self.suite != "bridge":
            at = f"at support_max {self.support_max} and max_terms {self.max_terms}"
            pool = 2 if self.suite in ("covariance", "all") else 1
            _require_corpus_in_cap(self.trials, self.support_max, self.max_terms, at, pool)
        if self.suite in ("bridge", "all"):
            at = f"for the bridge suite at horizon {self.horizon} and max_terms {self.max_terms}"
            _require_corpus_in_cap(self.trials, self.horizon - 1, self.max_terms, at)


def _require_corpus_in_cap(
    trials: int, support_max: int, max_terms: int, where: str, pool: int = 1, name: str = "trials"
) -> None:
    # pool * trials functionals of up to min(max_terms, 2**(support_max + 1)) terms each
    # hold at most 2**22 in all: 174,762 of the default shape draw in 4 s, peaking at 260 MB.
    terms = pool * min(max_terms, 1 << (support_max + 1))
    if trials * terms > 1 << 22:
        raise ConfigError(
            f"{name} must be at most {(1 << 22) // terms} {where} (a corpus of {pool} * "
            f"trials functionals of up to {terms // pool} terms each must hold at most "
            f"2 ** 22 terms), got {trials}"
        )


def _require_ceiling_in_range(p: float, support_max: int) -> None:
    # The bounds suite's ceilings (1 + k) ** p and (1 + k) ** -p, for k up to
    # support_max, must be finite doubles.
    base = 1.0 + support_max
    try:
        finite = math.isfinite(p) and math.isfinite(base ** abs(p))
    except OverflowError:
        finite = False
    if not finite:
        limit = "finite" if support_max == 0 else (
            f"at most {math.log(sys.float_info.max) / math.log(base):.6g} in magnitude"
        )
        raise ConfigError(
            f"p must be {limit} at support_max {support_max} (the norm-bound ceiling "
            f"(1 + support_max) ** |p| must be a finite double), got {p}"
        )


def _require_dual_level_in_range(p: float, support_max: int, max_terms: int, suite: str) -> None:
    # At a negative level p the clark suite's dual norms reach
    # sqrt(2 * terms) * W ** -p, and the covariance suite's pairings, squared
    # norms and per-site sums reach (support_max + 1) * 2 * terms * W ** -2p,
    # where W = (support_max + 1)! is the largest weight a corpus can draw,
    # terms the most terms a functional holds and 2 the largest |coef| ** 2.
    # Both must be finite doubles.  p is finite here.  The limit is cut to
    # four decimals toward zero, so the printed value is accepted.
    log_weight = math.log(math.factorial(support_max + 1))
    if log_weight == 0.0:
        return
    terms = min(max_terms, 1 << (support_max + 1))
    if suite == "clark":
        power, largest = 1, f"sqrt(2 * {terms}) * W ** -p"
        log_factor = 0.5 * math.log(2 * terms)
    else:
        power, largest = 2, f"{support_max + 1} * 2 * {terms} * W ** -2p"
        log_factor = math.log((support_max + 1) * 2 * terms)
    room = (math.log(sys.float_info.max) - log_factor) / (power * log_weight)
    limit = -math.floor(room * 1e4) / 1e4
    if p < limit:
        raise ConfigError(
            f"p must be at least {limit} for the {suite} suite at support_max "
            f"{support_max} and max_terms {max_terms} ({largest}, with W = "
            f"(support_max + 1)! the largest weight, must be a finite double), got {p}"
        )


def _check_record(name: str, max_gap: float, tolerance: float, **extra: Any) -> Dict[str, Any]:
    record: Dict[str, Any] = {"check": name, "max_gap": max_gap, "tolerance": tolerance}
    record.update(extra)
    record["pass"] = bool(max_gap <= tolerance)
    return record


def _intertwining_record(table: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
    # The worst intertwining gap of a sweep's table: the mean part's, and per
    # swept site the gradient's and the conditioning's.
    gap = max(float(table[name].max()) for name in ("mean", "gradient", "conditioning"))
    return _check_record("intertwining", gap, BRIDGE_TOLERANCE, **extra)


def _car_gap(cfg: SuiteConfig, phi: FockFunctional) -> float:
    return max(verify_car(phi, k) for k in range(cfg.support_max + 1))


def _bounds_gap(cfg: SuiteConfig, phi: FockFunctional) -> float:
    excess = -1.0
    for ann, ann_bound, cre, cre_bound, cnd in _norm_bounds(
        phi, range(cfg.support_max + 1), cfg.p_grid
    ):
        excess = max(
            excess, (ann - ann_bound) / ann_bound, (cre - cre_bound) / cre_bound, cnd - 1.0
        )
    return excess


def _bounds_witness(cfg: SuiteConfig) -> float:
    # Tightness witnesses: the single-site basis element saturates the
    # annihilation ceiling, the constant saturates the creation ceiling.
    gap = 0.0
    for k in range(cfg.support_max + 1):
        for p in cfg.p_grid:
            ann = verify_norm_bounds(basis_element(SubsetIndex([k])), k, p)
            cre = verify_norm_bounds(basis_element(EMPTY_SET), k, p)
            gap = max(
                gap,
                abs(ann.annihilate_ratio - ann.annihilate_bound) / ann.annihilate_bound,
                abs(cre.create_ratio - cre.create_bound) / cre.create_bound,
            )
    return gap


def _commutation_gap(cfg: SuiteConfig, phi: FockFunctional) -> float:
    return max(max(verify_commutation(phi, k)) for k in range(cfg.support_max + 1))


def _clark_gap(cfg: SuiteConfig, phi: FockFunctional) -> float:
    # decompose builds each site term once; both decomposition routes and the
    # convergence window read those terms.
    report = decompose(phi, tuple(float(q) for q in cfg.p_grid))
    # The reconstruction must reproduce phi coefficient for coefficient.  The
    # residuals must not grow with n and must end at zero; the n of one stored
    # run share its row, so only the steps between runs can grow.
    rows = [row for _, row in report.residual_norms.runs()]
    growth = [b - a for earlier, later in zip(rows, rows[1:]) for a, b in zip(earlier, later)]
    top = max(_reconstruct_gap(phi, report.terms), _residual(report.reconstruction(), phi))
    return max(top, *growth, *(rows[-1] if rows else ()), *_window(phi, report.terms))


def _covariance_gap(cfg: SuiteConfig, pair: Tuple[FockFunctional, FockFunctional]) -> float:
    top = 0.0
    # Each member's parts are built once and read by all three grids; zip
    # steps the grids together, level by level, in the order of the
    # single-level calls.
    parts = [_parts(f, f.sites()) for f in pair]
    site_top = max(f.support_max for f in pair)
    levels = zip(
        _cov_identities(*parts, site_top, cfg.p_grid), *(_var_bounds(x, cfg.p_grid) for x in parts)
    )
    for rep, *bounds in levels:
        top = max(top, rep.gap / (1.0 + abs(rep.lhs)))
        for lhs, rhs in bounds:
            top = max(top, (lhs - rhs) / (1.0 + rhs))
    return top


def _covariance_witness(cfg: SuiteConfig) -> float:
    # Equality witness: all-singleton supports make the variance ceiling
    # exact; a two-element support makes it strict.
    singletons = make_functional(
        [(EMPTY_SET, 1.0), (SubsetIndex([0]), 2.0), (SubsetIndex([1]), 1.0)]
    )
    lhs, rhs = var_bound(singletons, 0.0)
    gap = max(0.0, abs(lhs - rhs), abs(lhs - 5.0))
    pair_set = basis_element(SubsetIndex([0, 1]))
    lhs, rhs = var_bound(pair_set, 0.0)
    gap = max(gap, abs(lhs - 1.0), abs(rhs - 2.0))
    return max(gap, abs(var_p(pair_set, 0.0) - 1.0))


#: Coefficient suite -> (gap of one trial, trial-free witness gap or None,
#: whether the record is exact).  A trial is one corpus functional; a
#: covariance trial is a pair drawn from a pool of 2 * trials.  ``max_gap`` is
#: the worst trial gap or the witness gap.
_GAPS = {
    "car": (_car_gap, None, True),
    "bounds": (_bounds_gap, _bounds_witness, False),
    "commutation": (_commutation_gap, None, True),
    "clark": (_clark_gap, None, True),
    "covariance": (_covariance_gap, _covariance_witness, False),
}


def _check_bridge(cfg: SuiteConfig) -> List[Dict[str, Any]]:
    n = cfg.horizon
    space = build_space(n, "exhaustive")
    corpus = random_functionals(cfg.trials, cfg.seed, support_max=n - 1, max_terms=cfg.max_terms)

    ortho_gap = check_orthonormality(n)

    table = _swept(corpus, space, range(n))
    co_gap = float(table["clark_ocone"].max())
    plancherel_gap = max(
        _plancherel_gap(second_moment, norm := norm_p(phi, 0.0)) / (1.0 + norm ** 2)
        for phi, second_moment in zip(corpus, table["second_moment"].tolist())
    )

    return [
        _check_record("orthonormality", ortho_gap, _EXACT, N=n),
        _check_record("clark_ocone_pathwise", co_gap, BRIDGE_TOLERANCE, N=n, trials=len(corpus)),
        _intertwining_record(table, N=n, trials=len(corpus)),
        _check_record("plancherel", plancherel_gap, cfg.tolerance, N=n, trials=len(corpus)),
    ]


def run_suite(cfg: SuiteConfig) -> Dict[str, Any]:
    """Run the selected suite(s) and return the JSON-ready report.

    One loop over ``_GAPS`` builds each coefficient suite's record; the
    corpus suites share one corpus, drawn only if one of them runs.  The
    report's ``pass`` is the conjunction of all checks; everything except
    the ``created`` timestamp is a pure function of the config.
    """
    wanted = SUITE_NAMES[:-1] if cfg.suite == "all" else (cfg.suite,)
    checks: List[Dict[str, Any]] = []
    corpus: List[FockFunctional] = []
    for name in wanted:
        if name == "bridge":
            checks.extend(_check_bridge(cfg))
            continue
        gap, witness, exact = _GAPS[name]
        if name == "covariance":
            pool = random_functionals(
                2 * cfg.trials, cfg.seed, support_max=cfg.support_max, max_terms=cfg.max_terms
            )
            trials = list(zip(pool[0::2], pool[1::2]))
        else:
            corpus = corpus or random_functionals(
                cfg.trials, cfg.seed, support_max=cfg.support_max, max_terms=cfg.max_terms
            )
            trials = corpus
        max_gap = max(gap(cfg, trial) for trial in trials)
        extra: Dict[str, Any] = {"trials": len(trials)}
        if witness is not None:
            extra["witness_gap"] = witness(cfg)
            max_gap = max(max_gap, extra["witness_gap"])
        checks.append(_check_record(name, max_gap, _EXACT if exact else cfg.tolerance, **extra))
    return {
        "suite": cfg.suite,
        "created": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "config": {**asdict(cfg), "p_grid": list(cfg.p_grid)},
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
