"""Benchmark of the fockcalc CLI: time to verdict, call latency and a per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` makes passes for ``--seconds`` with tracing off and prints the
end-to-end metrics: ``setup_s``, the median time to import ``fockcalc.cli``
in fresh interpreters; ``wall_s``, the median over passes of a pass's summed
CLI call time; ``call_ms_p50`` and ``call_ms_p95``, percentiles of every call
of every pass; and ``peak_rss_mb``.  ``--trace 1`` makes
one untraced and one traced pass and prints the per-layer metrics of the
traced pass.  Every metric is printed as ``name value unit``, then
``failed_frac``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process.  Results with environment and output digests,
and the traced spans, go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import os

# Single-threaded numpy for every workload; set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up.
SETUP_REPEATS = 7
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import fockcalc.cli\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
)


def measure_setup() -> float:
    """Median time to import ``fockcalc.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def environment(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup_s = None if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import fockcalc.cli as cli
    import spans
    import workloads

    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, work)

    if trace:
        reference = workload.run_pass(cli)
        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            traced = workload.run_pass(cli)
        recorder.counters["serialization.bytes_out"] = traced.serialized_bytes
        metrics = recorder.metrics()
        for suite in workloads.SUITES:
            metrics[f"suite.{suite}_s"] = sum(
                d for d, label in zip(reference.durations, reference.labels) if label == suite
            )
        metrics["trace.overhead_frac"] = traced.wall / reference.wall - 1.0
        rounds = [(0, reference), (0, traced)]
        recorder.write_jsonl(str(OUT / f"spans-{name}-seed{seed}.jsonl"))
        declared = BENCHMARK["per_layer"]
    else:
        passes = workloads.measure(workload, cli, seconds)
        rounds = [(i % len(workload.rounds), p) for i, p in enumerate(passes)]
        calls_s = [d for p in passes for d in p.durations]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "call_ms_p50": 1000.0 * workloads.percentile(calls_s, 0.50),
            "call_ms_p95": 1000.0 * workloads.percentile(calls_s, 0.95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = BENCHMARK["end_to_end"]
    shutil.rmtree(work, ignore_errors=True)
    if list(metrics) != [m["name"] for m in declared]:
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")

    passes = [p for _, p in rounds]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "calls": sum(len(p.durations) for p in passes),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "digests": digests(rounds),
    }
    if trace:
        result["feeds"] = spans.FEEDS
    return result


def digests(rounds) -> Dict[str, Any]:
    """sha256 of every output of each round's first pass, from (round, pass)
    pairs; later passes of a round are compared with it, not gated on it."""
    first: Dict[int, List[str]] = {}
    repeats_identical = True
    for index, result in rounds:
        seen = first.setdefault(index, result.digests)
        repeats_identical = repeats_identical and seen == result.digests
    return {"rounds": {str(r): d for r, d in first.items()},
            "repeats_identical": repeats_identical}


def print_result(result: Dict[str, Any]) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={env['seed']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} passes={result['passes']} "
          f"calls={result['calls']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {result['failed_frac']!r} ratio "
          f"({result['failed']} of {result['attempted']} operations)")


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their metrics."""
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"# {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockcalc" / "cli.py").is_file():
        print(f"error: no fockcalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.joinpath("results", f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    print_result(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
