"""Command-line surface.

Subcommands::

    lambda      subset weight, truncated weight sums, series upper bound
    norm        weighted test-chain or dual-chain norm of a functional
    apply       operator pipeline, e.g. annihilate:2,create:2,expect
    decompose   mean/per-site split with residual table
    cov         covariance report for a pair of functionals
    verify      randomized identity suites -> JSON report, exit 1 on violation
    bridge      pathwise oracle checks, observable evaluation and CSV export

Functional arguments name JSON files ('-' reads stdin).  Exit codes:

    0   success; every identity check passed
    1   an identity check failed
    2   usage, schema, range or file error (``error: ...`` on stderr)
    3   internal error, a fault of the program (``internal error: ...``)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from typing import TYPE_CHECKING, Any, Optional, Sequence

from . import __version__
from .clark_ocone import DEFAULT_Q_PROBE, decompose
from .covariance import cov_identity
from .errors import CapExceededError, ConfigError, FockCalcError, NonFiniteResultError
from .functional import FockFunctional, norm_dual, norm_p
from .gamma import GAMMA_HARD_CAP, gamma_weight_sum, lambda_weight, weight_sum_bound
from .operators import apply_pipeline
from .serialization import (
    _require_table_rows,
    functional_to_obj,
    parse_document,
    parse_subset,
    report_to_json,
    to_json,
)
from .suite_names import SUITE_NAMES

# The path oracle, the corpus and the suites load numpy; only ``verify`` and
# ``bridge`` import them, so the coefficient commands start without numpy.
if TYPE_CHECKING:
    from .suite import SuiteConfig


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def _load_functional(path: str) -> FockFunctional:
    return parse_document(_read_text(path))


def _emit(payload, out: Optional[str]) -> None:
    _write(to_json(payload, indent=2), out)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _at_least(value: int, least: int, option: str) -> None:
    # Integer options are checked here, so the message names the option.
    if value < least:
        raise ConfigError(f"{option} must be >= {least}, got {value}")


def _finite_level(option: str, *levels: Optional[float]) -> None:
    # A non-finite level would print nan or a limit, or fail far from its cause.
    for level in levels:
        if level is not None and not math.isfinite(level):
            raise FockCalcError(f"{option} must be a finite number, got {level!r}")


@contextlib.contextmanager
def _named_levels(option: str, *levels: Optional[float]):
    # A result out of range at a level the user chose names that option.
    given = ", ".join(repr(level) for level in levels if level is not None)
    try:
        yield
    except NonFiniteResultError as exc:
        if not given:
            raise
        raise NonFiniteResultError(f"{exc} at {option} {given}") from None


def _cmd_lambda(args) -> int:
    _finite_level("--p", args.p)
    if args.n is not None and not args.sum:
        raise FockCalcError("lambda --n applies only with --sum")
    if args.p is not None and args.subset is not None:
        raise FockCalcError("lambda --p does not apply to a subset weight")
    if args.sum:
        if args.p is None or args.n is None:
            raise FockCalcError("lambda --sum needs --p and --n")
        if args.p <= 0.0:
            raise FockCalcError(f"lambda --sum needs --p > 0, got {args.p!r}")
        _at_least(args.n, 0, "--n")
        if args.n > GAMMA_HARD_CAP:
            raise CapExceededError(f"--n {args.n} exceeds the hard cap {GAMMA_HARD_CAP}")
        print(repr(gamma_weight_sum(args.p, args.n)))
        return 0
    if args.bound:
        if args.p is None:
            raise FockCalcError("lambda --bound needs --p")
        if args.p <= 1.0:
            raise FockCalcError(
                f"lambda --bound needs --p > 1 (the series diverges below), got {args.p!r}"
            )
        with _named_levels("--p", args.p):
            bound = weight_sum_bound(args.p)
        print(repr(bound))
        return 0
    if args.subset is None:
        raise FockCalcError("lambda needs a subset argument, --sum, or --bound")
    try:
        raw = json.loads(args.subset)
    except json.JSONDecodeError as exc:
        raise FockCalcError(f"subset must be a JSON array: {exc.msg}") from None
    sigma = parse_subset(raw)
    print(repr(lambda_weight(sigma)))
    return 0


def _cmd_norm(args) -> int:
    _finite_level("--p", args.p)
    phi = _load_functional(args.file)
    level = args.p if args.p is not None else 0.0
    with _named_levels("--p", args.p):
        value = norm_dual(phi, level) if args.dual else norm_p(phi, level)
    print(repr(value))
    return 0


def _cmd_apply(args) -> int:
    phi = _load_functional(args.file)
    result = apply_pipeline(phi, args.pipeline)
    _emit(functional_to_obj(result), args.out)
    return 0


def _cmd_decompose(args) -> int:
    _finite_level("--q", *(args.q or ()))
    phi = _load_functional(args.file)
    levels = args.q or DEFAULT_Q_PROBE
    # The table holds a row per distinct level and per site up to the top one.
    rows = len(set(map(float, levels))) * (phi.support_max + 1)
    _require_table_rows("decompose residual", rows)
    with _named_levels("--q", *(args.q or ())):
        report = decompose(phi, levels)
    _write(report_to_json(report), args.out)
    return 0


def _cmd_cov(args) -> int:
    _finite_level("--p", args.p)
    phi = _load_functional(args.file)
    psi = _load_functional(args.other)
    _require_table_rows("cov per_k", max(phi.support_max, psi.support_max) + 1)
    level = args.p if args.p is not None else 0.0
    try:
        report = cov_identity(phi, psi, level)
    except NonFiniteResultError as exc:
        # A negative level raises the weight powers; at any other level only
        # the coefficients can make the pairings overflow: the covariance's,
        # or, where it fits, one site's entry.
        site = getattr(exc, "site", None)
        raise NonFiniteResultError(
            f"--p {level!r} is too low for these functionals: "
            "their weighted covariance terms overflow a double" if level < 0.0 else
            f"the covariance of {args.file} and {args.other} overflows a double: "
            "their shared coefficients are too large" if site is None else
            f"the per-site table of the covariance of {args.file} and {args.other} "
            f"overflows a double at site {site}, although the covariance fits"
        ) from None
    _write(report_to_json(report), args.out)
    return 0


def _suite_config(**given: Any) -> "SuiteConfig":
    from .suite import SuiteConfig

    # SuiteConfig checks every bound; its messages open with the name of the
    # value they reject ("trials must ..."), which here becomes the option.
    try:
        return SuiteConfig(**given)
    except ConfigError as exc:
        name, must, rest = str(exc).partition(" must ")
        if not must or " " in name:
            raise
        raise ConfigError(f"--{name.replace('_', '-')} must {rest}") from None


def _cmd_verify(args) -> int:
    from .suite import run_suite

    # Only the options given are passed, so the defaults live in SuiteConfig.
    names = ("suite", "trials", "seed", "support_max", "max_terms", "tolerance", "horizon")
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    _finite_level("--p", *(args.p or ()))
    if args.p:
        given["p_grid"] = tuple(args.p)
    report = run_suite(_suite_config(**given))
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_bridge(args) -> int:
    from .bridge import (
        _swept,
        build_space,
        evaluate,
        mc_estimate,
        path_expectation,
        write_observable_csv,
    )
    from .corpus import random_functionals
    from .suite import _intertwining_record, _require_corpus_in_cap, run_suite

    _at_least(args.horizon, 1, "--horizon")
    if args.eval is not None:
        form, unread = "with --eval", {"--k": args.k, "--trials": args.trials}
        for option, value in (("--paths", args.paths), ("--seed", args.seed)):
            unread[f"{option} without --mode sampled"] = value if args.mode != "sampled" else None
    else:
        form, unread = "without --eval", {"--paths": args.paths, "--csv": args.csv}
        unread["--mode sampled"] = True if args.mode == "sampled" else None
        args.trials = 200 if args.trials is None else args.trials
    if named := [option for option, value in unread.items() if value is not None]:
        raise ConfigError(f"{', '.join(named)} cannot be used {form}")
    args.seed = 0 if args.seed is None else args.seed
    if args.eval is not None:
        if args.mode == "sampled" and (args.paths is None or args.paths < 1):
            raise ConfigError(f"--mode sampled needs --paths >= 1, got {args.paths}")
        phi = _load_functional(args.eval)
        space = build_space(args.horizon, args.mode, M=args.paths, seed=args.seed)
        obs = evaluate(phi, space)
        if args.mode == "sampled":
            mean, stderr = mc_estimate(obs)
            payload = {"mean": [mean.real, mean.imag], "stderr": stderr,
                       "paths": space.num_paths, "seed": args.seed}
        else:
            mean = path_expectation(obs)
            payload = {"expectation": [mean.real, mean.imag], "paths": space.num_paths}
        if args.csv:
            write_observable_csv(obs, args.csv)
            payload["csv"] = args.csv
        _emit(payload, args.out)
        return 0

    _at_least(args.trials, 1, "--trials")
    if args.k is not None:
        if not 0 <= args.k < args.horizon:
            raise ConfigError(
                f"--k must lie in 0..{args.horizon - 1} (below --horizon), got {args.k}"
            )
        # Single-site intertwining sweep over a fresh corpus on one space.
        space = build_space(args.horizon, "exhaustive")
        top, max_terms = args.horizon - 1, 24
        at = f"at --horizon {args.horizon}"
        _require_corpus_in_cap(args.trials, top, max_terms, at, name="--trials")
        corpus = random_functionals(args.trials, args.seed, support_max=top, max_terms=max_terms)
        table = _swept(corpus, space, (args.k,))
        record = _intertwining_record(table, N=args.horizon, k=args.k, trials=len(corpus))
        report = {"suite": "bridge", "checks": [record], "pass": record["pass"]}
        _emit(report, args.out)
        return 0 if record["pass"] else 1

    cfg = _suite_config(suite="bridge", trials=args.trials, seed=args.seed, horizon=args.horizon)
    report = run_suite(cfg)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockcalc",
        description="Chaotic calculus on sparse Fock coefficients with an exhaustive path oracle.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser("lambda", help="subset weights and weight sums")
    what = p_lambda.add_mutually_exclusive_group()
    what.add_argument("subset", nargs="?", help="JSON array, e.g. '[1,3]'")
    what.add_argument("--sum", action="store_true", help="truncated weight sum over subsets of {0..n-1}")
    what.add_argument("--bound", action="store_true", help="series upper bound for the untruncated sum")
    p_lambda.add_argument("--p", type=float, help="weight exponent")
    p_lambda.add_argument("--n", type=int, help="truncation: exclusive upper bound on subset elements")
    p_lambda.set_defaults(func=_cmd_lambda)

    p_norm = sub.add_parser("norm", help="weighted norm of a functional")
    p_norm.add_argument("file", help="functional JSON ('-' for stdin)")
    p_norm.add_argument("--p", type=float, help="chain level (default 0)")
    p_norm.add_argument("--dual", action="store_true", help="dual-chain norm instead of test-chain")
    p_norm.set_defaults(func=_cmd_norm)

    p_apply = sub.add_parser("apply", help="apply an operator pipeline")
    p_apply.add_argument("file", help="functional JSON ('-' for stdin)")
    p_apply.add_argument("--pipeline", required=True,
                         help="comma-separated tags: annihilate:k, create:k, condexp:k, expect")
    p_apply.add_argument("--out", help="write result JSON here instead of stdout")
    p_apply.set_defaults(func=_cmd_apply)

    p_dec = sub.add_parser("decompose", help="mean/per-site decomposition report")
    p_dec.add_argument("file", help="functional JSON ('-' for stdin)")
    p_dec.add_argument("--q", type=float, action="append",
                       help="dual level for the residual table (repeatable; default 0 1 2)")
    p_dec.add_argument("--out", help="write report JSON here instead of stdout")
    p_dec.set_defaults(func=_cmd_decompose)

    p_cov = sub.add_parser("cov", help="covariance report for two functionals")
    p_cov.add_argument("file", help="first functional JSON")
    p_cov.add_argument("other", help="second functional JSON")
    p_cov.add_argument("--p", type=float, help="dual level (default 0)")
    p_cov.add_argument("--out", help="write report JSON here instead of stdout")
    p_cov.set_defaults(func=_cmd_cov)

    p_verify = sub.add_parser("verify", help="randomized identity suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--support-max", type=int, dest="support_max")
    p_verify.add_argument("--max-terms", type=int, dest="max_terms")
    p_verify.add_argument("--p", type=float, action="append",
                          help="chain level grid (repeatable; default 0 1 2)")
    p_verify.add_argument("--tolerance", type=float,
                          help="tolerance of bounds, covariance and plancherel (exact records use 0)")
    p_verify.add_argument("--horizon", type=int, help="bridge-suite horizon")
    p_verify.add_argument("--out", help="write report JSON here instead of stdout")
    p_verify.set_defaults(func=_cmd_verify)

    p_bridge = sub.add_parser("bridge", help="pathwise oracle checks and evaluation")
    p_bridge.add_argument("--horizon", type=int, default=8)
    p_bridge.add_argument("--trials", type=int, help="functionals to check (default 200)")
    p_bridge.add_argument("--seed", type=int, help="corpus or sample seed (default 0)")
    p_bridge.add_argument("--k", type=int, help="restrict to the intertwining check at this site")
    p_bridge.add_argument("--eval", help="evaluate this functional JSON on the path space")
    p_bridge.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p_bridge.add_argument("--paths", type=int, help="sample count for --mode sampled")
    p_bridge.add_argument("--csv", help="export the evaluated observable as CSV here")
    p_bridge.add_argument("--out", help="write report JSON here instead of stdout")
    p_bridge.set_defaults(func=_cmd_bridge)

    # argparse would take "-1e-3", "-1." or "-inf" for an option, not a value.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"(?i)-(\.?\d|inf|nan)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of ``main`` and reused by every later call in
    # the process; parsing leaves no state behind in the parser.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FockCalcError, OSError, ValueError, OverflowError) as exc:
        # Exit 1 is reserved for a failed identity; bad or extreme input is 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
