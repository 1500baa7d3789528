"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fockcalc  # noqa: E402
import fockcalc.cli  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fockcalc.gamma import SubsetIndex  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _argvs(name, seed, work):
    work.mkdir(parents=True, exist_ok=True)
    return [
        [arg.replace(str(work), "WORK") for arg in call.argv]
        for calls in workloads.WORKLOADS[name](seed, work).rounds
        for call in calls
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = _argvs(name, 3, tmp_path / "a")
    assert first == _argvs(name, 3, tmp_path / "b")
    assert first != _argvs(name, 4, tmp_path / "c")
    assert not any("--threads" in argv for argv in first)
    if name == "cli-sparse-wide":
        docs = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert all(
            (tmp_path / "a" / d).read_text() == (tmp_path / "b" / d).read_text() for d in docs
        )
    assert workloads.sparse_documents(3) == workloads.sparse_documents(3)


def test_verify_arguments_are_explicit(tmp_path):
    argv = workloads.verify_argv("car", 0, 500, 8, tmp_path / "r.json")
    for option in ("--suite", "--trials", "--seed", "--support-max", "--max-terms",
                   "--p", "--tolerance", "--horizon", "--out"):
        assert option in argv


def _fockcalc_namespaces():
    modules = [
        m for n, m in sorted(sys.modules.items()) if n == "fockcalc" or n.startswith("fockcalc.")
    ]
    return {
        (id(owner), key): value
        for owner in modules + [SubsetIndex]
        for key, value in list(vars(owner).items())
    }


def test_patch_and_restore_leave_attributes_identical():
    before = _fockcalc_namespaces()
    from_mask = SubsetIndex.__dict__["from_mask"]
    annihilate = fockcalc.operators.annihilate
    recorder = spans.SpanRecorder()
    with spans.traced(recorder):
        assert fockcalc.operators.annihilate is not annihilate
        assert fockcalc.clark_ocone.annihilate is fockcalc.operators.annihilate
        assert fockcalc.annihilate is fockcalc.operators.annihilate
        assert SubsetIndex.__dict__["from_mask"] is not from_mask
        fockcalc.co_term(fockcalc.basis_element(SubsetIndex([2])), 2)
    after = _fockcalc_namespaces()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = recorder.metrics()
    assert metrics["clark_ocone.co_term.calls"] == 1
    assert metrics["operators.annihilate.calls"] == 1
    assert metrics["clark_ocone.co_term.nonempty_ratio"] == 1.0
    assert metrics["gamma.from_mask.calls"] >= 2


def test_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()
    phi = fockcalc.make_functional([(SubsetIndex(range(k)), 1.0) for k in range(12)])
    with spans.traced(recorder):
        fockcalc.decompose(phi)
    metrics = recorder.metrics()
    total = recorder.spans[-1][3] - recorder.spans[-1][2]
    assert recorder.names[recorder.spans[-1][1]] == "clark_ocone.decompose"
    layer_sum = sum(v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert layer_sum == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-sparse-wide",
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = [m["name"] for m in BENCHMARK[section]]
    assert list(result["metrics"]) == declared
    printed = [line.split()[0] for line in lines[:-1] if not line.startswith("#")]
    assert printed == declared + ["failed_frac"]


def _cli(argv, capsys):
    assert fockcalc.cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture
def documents(tmp_path):
    doc = {"terms": [{"set": [], "coef": [0.5, -0.25]}, {"set": [3], "coef": [1.0, 2.0]},
                     {"set": [1, 7], "coef": [-0.75, 0.125]},
                     {"set": [3, 7, 40], "coef": [0.3, 0.1]}]}
    other = {"terms": [{"set": [3], "coef": [0.5, 0.5]}, {"set": [1, 7], "coef": [2.0, -1.0]}]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(other))
    return doc, other, str(a), str(b), tmp_path / "out.json"


def test_apply_oracle_rejects_corruption(documents, capsys):
    doc, _, a, _, out = documents
    _cli(["apply", a, "--pipeline", "annihilate:7,create:7,condexp:7", "--out", str(out)], capsys)
    result = json.loads(out.read_text())
    assert oracle.check_apply(doc, 7, result)
    assert result["terms"], "the pipeline should keep the terms peaking at 7"
    result["terms"][0]["coef"][0] += 1e-9
    assert not oracle.check_apply(doc, 7, result)
    assert not oracle.check_apply(doc, 7, {"terms": []})


def test_norm_oracle_rejects_corruption(documents, capsys):
    doc, _, a, _, _ = documents
    text = _cli(["norm", a, "--dual", "--p", "1"], capsys)
    assert oracle.check_norm_dual(doc, 1.0, text)
    assert not oracle.check_norm_dual(doc, 1.0, repr(float(text) * (1 + 1e-9)))


def test_decompose_oracle_rejects_corruption(documents, capsys):
    doc, _, a, _, out = documents
    _cli(["decompose", a, "--q", "0", "--q", "1", "--q", "2", "--out", str(out)], capsys)
    result = json.loads(out.read_text())
    assert oracle.check_decompose(doc, 3, result)
    dropped = json.loads(out.read_text())
    del dropped["terms"]["3"]
    assert not oracle.check_decompose(doc, 3, dropped)
    residual = json.loads(out.read_text())
    residual["residuals"][-1]["residual"] = 1e-300
    assert not oracle.check_decompose(doc, 3, residual)
    moved = json.loads(out.read_text())
    moved["terms"]["40"]["terms"][0]["set"] = [3, 7, 41]
    assert not oracle.check_decompose(doc, 3, moved)


def test_cov_oracle_rejects_corruption(documents, capsys):
    doc, other, a, b, out = documents
    _cli(["cov", a, b, "--p", "1", "--out", str(out)], capsys)
    result = json.loads(out.read_text())
    assert oracle.check_cov(doc, other, 1.0, result)
    assert abs(complex(*result["lhs"])) > 0.05
    result["rhs"][1] += 1e-6
    assert not oracle.check_cov(doc, other, 1.0, result)
    both = json.loads(out.read_text())
    both["lhs"][0] *= 2
    both["rhs"][0] *= 2
    assert not oracle.check_cov(doc, other, 1.0, both)


def test_verify_oracle_counts_every_miss():
    good = {"pass": True, "checks": [{"check": "car", "pass": True}]}
    assert oracle.verify_failures("car", 0, good) == 0
    assert oracle.verify_failures("car", 1, good) == 1
    assert oracle.verify_failures("car", 1, {"pass": False, "checks": [{"pass": False}]}) == 1
    assert oracle.verify_failures("bridge", 2, None) == 4
    assert oracle.verify_failures("bridge", 1, {"pass": False, "checks": [{"pass": True}]}) == 3


class _CorruptingCli:
    """Runs the real CLI, then flips one digit of every file it wrote."""

    def main(self, argv):
        code = fockcalc.cli.main(argv)
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            text = path.read_text()
            index = next(i for i, ch in enumerate(text) if ch in "123456789")
            path.write_text(text[:index] + str(int(text[index]) % 9 + 1) + text[index + 1:])
        return code


def test_corrupted_outputs_count_as_failed(tmp_path):
    workload = workloads.cli_sparse_wide(2, tmp_path)
    workload.rounds = [[c for c in workload.rounds[0] if c.label != "norm"][:30]]
    honest = workload.run_pass(fockcalc.cli)
    assert honest.failed == 0 and honest.attempted == 30
    corrupted = workload.run_pass(_CorruptingCli())
    assert corrupted.attempted == 30
    assert corrupted.failed >= 20
