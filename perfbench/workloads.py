"""The three workloads: seeded inputs, explicit CLI arguments and one timed pass.

Every workload drives the program only through ``fockcalc.cli.main([...])``
in-process, with every argument that defines it spelled out, so a change of a
CLI default leaves the workload as it was.  ``--threads`` is never passed.

* ``verify-default`` runs ``verify`` once per suite at today's defaults.  Most
  of its time is in the coefficient layers on dense supports of at most 11
  sites.
* ``bridge-deep`` runs the bridge suite at horizon 14, where evaluating
  functionals on 2**14 sign paths dominates and the coefficient layers are a
  few percent.
* ``cli-sparse-wide`` sends small documents with up to three sites drawn from
  0..1000 through apply, decompose, cov and norm.  Per-call parsing and
  serialisation dominate the cheap calls, and the per-site loops of
  decompose and cov walk about a thousand mostly empty sites.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle

SUITES = ("car", "bounds", "commutation", "clark", "covariance", "bridge")

#: ``fockcalc verify`` defaults at the time the benchmark was written.
VERIFY_TRIALS = 500
VERIFY_HORIZON = 8
SUPPORT_MAX = 10
MAX_TERMS = 24
P_GRID = ("0", "1", "2")
TOLERANCE = "1e-12"

#: Verify workloads cycle through this many corpora, one per pass, seeded
#: from the benchmark seed, so that a run's median spans several corpora.
PASS_SEEDS = 8

#: bridge-deep: one verify call of this many trials is a pass (about 4 s on a
#: 2-core x86 host with Python 3.11 and numpy 2.4).
DEEP_HORIZON = 14
DEEP_TRIALS = 30

#: cli-sparse-wide: documents per pass, and the exclusive site bound.
SPARSE_DOCS = 150
SPARSE_SITES = 1000
SPARSE_LEVEL = "1"
SPARSE_Q = ("0", "1", "2")


@dataclass
class Call:
    """One CLI call and how its output is judged.

    A verify call names its ``suite`` and counts one operation per check in
    its report; any other call is one operation judged by ``check``.
    """

    label: str
    argv: List[str]
    out: Optional[Path]
    check: Optional[Callable[[str], bool]] = None
    suite: Optional[str] = None


@dataclass
class PassResult:
    durations: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    serialized_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.durations)


def verify_argv(suite: str, seed: int, trials: int, horizon: int, out: Path) -> List[str]:
    argv = [
        "verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed),
        "--support-max", str(SUPPORT_MAX), "--max-terms", str(MAX_TERMS),
    ]
    for p in P_GRID:
        argv += ["--p", p]
    return argv + ["--tolerance", TOLERANCE, "--horizon", str(horizon), "--out", str(out)]


def report_digest(text: str) -> str:
    """sha256 of a verify report with its ``created`` timestamp removed."""
    report = json.loads(text)
    report.pop("created", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def sparse_documents(seed: int) -> List[Tuple[Dict[str, Any], int]]:
    """``SPARSE_DOCS`` functional documents and an apply site for each.

    Document i draws its sites below a width stratified over 1..SPARSE_SITES,
    so every seed covers narrow and wide documents alike; each has 1-4 terms
    on distinct sets of 0-3 sites.  The order is then shuffled.
    """
    rng = random.Random(seed)
    docs = []
    for i in range(SPARSE_DOCS):
        width = min(1 + int(SPARSE_SITES * (i + rng.random()) / SPARSE_DOCS), SPARSE_SITES)
        n_terms = min(rng.randint(1, 4), sum(math.comb(width, size) for size in range(4)))
        sets = set()
        while len(sets) < n_terms:
            size = rng.randint(0, min(3, width))
            sets.add(tuple(sorted(rng.sample(range(width), size))))
        ordered = sorted(sets)
        rng.shuffle(ordered)
        terms = [
            {"set": list(s), "coef": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]}
            for s in ordered
        ]
        pick = ordered[rng.randrange(len(ordered))]
        site = pick[rng.randrange(len(pick))] if pick else rng.randrange(width)
        docs.append(({"terms": terms}, site))
    rng.shuffle(docs)
    return docs


class Workload:
    """Call lists ("rounds"); pass i makes the calls of round i mod len(rounds)."""

    def __init__(self, rounds: List[List[Call]]):
        self.rounds = rounds

    def run_pass(self, cli, index: int = 0) -> PassResult:
        result = PassResult()
        for call in self.rounds[index % len(self.rounds)]:
            stdout = io.StringIO()
            returncode: Any = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    returncode = cli.main(call.argv)
            except SystemExit as exc:
                returncode = exc.code
            except Exception:
                traceback.print_exc(file=sys.stderr)
            result.durations.append(time.perf_counter() - start)
            result.labels.append(call.label)
            _judge(call, returncode, stdout.getvalue(), result)
        return result


def _judge(call: Call, returncode: Any, stdout: str, result: PassResult) -> None:
    """Count the call's operations and failures and record its output digest.

    The output file is removed once read, so the next pass cannot pass on a
    stale file.
    """
    text = ""
    if call.out is not None:
        try:
            text = call.out.read_text()
            call.out.unlink()
        except OSError:
            pass
    else:
        text = stdout
    if call.suite is not None:
        expected = oracle.VERIFY_CHECKS[call.suite]
        try:
            report = json.loads(text)
            digest = report_digest(text)
        except ValueError:
            report, digest = None, hashlib.sha256(text.encode()).hexdigest()
        result.attempted += expected
        result.failed += oracle.verify_failures(call.suite, returncode, report)
        result.digests.append(digest)
        return
    result.attempted += 1
    result.digests.append(hashlib.sha256(text.encode()).hexdigest())
    try:
        ok = returncode == 0 and call.check(text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        ok = False
    if not ok:
        result.failed += 1
    # norm prints a bare float; apply, decompose and cov write serialized JSON.
    if call.label != "norm":
        result.serialized_bytes += len(text.encode())


def _verify_rounds(seed: int, work: Path, suites: Sequence[str], trials: int,
                   horizon: int) -> List[List[Call]]:
    return [
        [
            Call(s, verify_argv(s, seed * PASS_SEEDS + r, trials, horizon, work / f"{s}.json"),
                 work / f"{s}.json", suite=s)
            for s in suites
        ]
        for r in range(PASS_SEEDS)
    ]


def verify_default(seed: int, work: Path) -> Workload:
    return Workload(_verify_rounds(seed, work, SUITES, VERIFY_TRIALS, VERIFY_HORIZON))


def bridge_deep(seed: int, work: Path) -> Workload:
    return Workload(_verify_rounds(seed, work, ("bridge",), DEEP_TRIALS, DEEP_HORIZON))


def cli_sparse_wide(seed: int, work: Path) -> Workload:
    docs = sparse_documents(seed)
    paths = []
    for i, (doc, _) in enumerate(docs):
        path = work / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    level = float(SPARSE_LEVEL)
    q_args = [arg for q in SPARSE_Q for arg in ("--q", q)]
    calls: List[Call] = []
    for i, (doc, site) in enumerate(docs):
        j = (i + 1) % len(docs)
        other = docs[j][0]
        pipe = f"annihilate:{site},create:{site},condexp:{site}"
        out = work / f"out{i}.json"
        calls += [
            Call("apply", ["apply", str(paths[i]), "--pipeline", pipe, "--out", str(out)], out,
                 lambda text, d=doc, k=site: oracle.check_apply(d, k, json.loads(text))),
            Call("decompose", ["decompose", str(paths[i]), *q_args, "--out", str(out)], out,
                 lambda text, d=doc: oracle.check_decompose(d, len(SPARSE_Q), json.loads(text))),
            Call("cov", ["cov", str(paths[i]), str(paths[j]), "--p", SPARSE_LEVEL,
                         "--out", str(out)], out,
                 lambda text, d=doc, o=other: oracle.check_cov(d, o, level, json.loads(text))),
            Call("norm", ["norm", str(paths[i]), "--dual", "--p", SPARSE_LEVEL], None,
                 lambda text, d=doc: oracle.check_norm_dual(d, level, text)),
        ]
    return Workload([calls])


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    "verify-default": verify_default,
    "bridge-deep": bridge_deep,
    "cli-sparse-wide": cli_sparse_wide,
}


def measure(workload: Workload, cli, seconds: float) -> List[PassResult]:
    """Passes, round after round, until ``seconds`` have gone by; at least one."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(cli, len(passes)))
    return passes


def percentile(values: Sequence[float], q: float) -> float:
    """Value at quantile q in [0, 1], interpolating between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
